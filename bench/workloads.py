"""Seeded operations for the four workloads, the closed loop that runs
them, and the checks that judge every output against the reference.

An operation is one in-process call of ``conechase.cli.main(argv)`` with
stdout and stderr captured, as a command-line user would run it.  On
``reproduce`` it is timed as one call, a pass, but counted and judged as
the 49 rows the pass prints.
The loop is closed: one client, no threads, the next call starts when the
previous one returns.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple

from conechase import cli, derive

import reference
from speed import SpeedLog

WORKLOADS = ("reproduce", "compute", "canonical", "ablation")

# The shipped compute scenarios: (space, k, script).  The parameter name
# and its lower bound come from the script's domain in the reference.
SCENARIOS = (
    ("P3", 5, "pi5_P3"),
    ("P3", 6, "pi6_P3"),
    ("L4", 5, "pi5_L4m"),
    ("L4", 6, "pi6_L4m"),
    ("J3", 6, "pi6_J3"),
)

REPRODUCE_ARGV = ("reproduce", "--format", "machine")
DOCUMENTED_REFUSALS = (2, 3, 4)   # validation, missing fact, assertion
GOLDEN = (5 ** 0.5 - 1) / 2


@dataclass(frozen=True)
class Op:
    argv: tuple
    script: str                  # "reproduce" for a whole pass
    param: str = ""
    value: int = 0
    kb_line: Optional[int] = None   # shipped facts line dropped (ablation)

    def label(self) -> str:
        if self.script == "reproduce":
            return "reproduce"
        text = f"{self.script} {self.param}={self.value}"
        if self.kb_line is not None:
            text += f" without line {self.kb_line}"
        return text


@dataclass
class Outcome:
    op: Op
    seconds: float
    code: Optional[int]          # exit code; None when an exception escaped
    error: str                   # class of the escaped exception, or ""
    stdout: str
    probes: Tuple[int, int] = (0, 0)     # its probes in the run's SpeedLog


def ablated_path(kb_dir: Path, line: int) -> Path:
    return kb_dir / f"without_line{line}.facts"


def write_ablated_catalogs(catalog, kb_dir: Path) -> dict:
    """One facts file per shipped fact, lacking that fact.

    Returns {line: sha256 of the file}, the digest the CLI must report."""
    kb_dir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for fact in catalog.facts:
        text = catalog.without_facts(
            lambda f, line=fact.line: f.line == line).serialize()
        path = ablated_path(kb_dir, fact.line)
        path.write_text(text)
        digests[fact.line] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def rounds(workload: str, seed: int, fact_lines=(),
           kb_dir: Path = Path("kb")) -> Iterator[List[Op]]:
    """Endless seeded rounds of operations.

    A ``reproduce`` round is one pass.  Any other round holds each of the
    five scenarios once, in a seeded order: the scenarios differ fivefold
    in cost, so balanced rounds keep the mix, and with it every median,
    the same from seed to seed.  Each scenario's parameter follows a
    golden-ratio sequence from a seeded start, so that any run, short or
    long, spreads its values evenly over the script's whole domain up to
    the CLI cap.  On ``ablation`` the call of scenario ``j`` in round
    ``i`` drops fact ``i + j * stride`` of a seeded permutation of all
    facts: every scenario meets every dropped fact once per cycle of
    rounds, and the calls of one round load different catalogs.  That
    cycle, one round per fact, is drawn once and then repeated unchanged,
    so that the operations a run judges, and with them its failures,
    depend on the seed alone and not on how many calls fit in the run.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if workload == "reproduce":
        while True:
            yield [Op(REPRODUCE_ARGV, "reproduce")]
    draws = _draw(workload, seed, fact_lines, kb_dir)
    if workload != "ablation":
        yield from draws
        return
    cycle = list(itertools.islice(draws, len(fact_lines)))
    while True:
        yield from cycle


def cycle_length(workload: str, fact_lines=()) -> int:
    """Operations a run must complete before it may stop: the whole
    cycle on ``ablation``, else one operation."""
    return len(fact_lines) * len(SCENARIOS) if workload == "ablation" else 1


def _draw(workload: str, seed: int, fact_lines,
          kb_dir: Path) -> Iterator[List[Op]]:
    rng = random.Random(f"{workload}:{seed}")
    starts = [rng.random() for _ in SCENARIOS]
    facts = rng.sample(list(fact_lines), len(fact_lines))
    stride = max(1, len(facts) // len(SCENARIOS))
    for i in itertools.count():
        ops = []
        for j in rng.sample(range(len(SCENARIOS)), len(SCENARIOS)):
            space, k, script = SCENARIOS[j]
            param, lo = reference.DOMAINS[script]
            step = (starts[j] + i * GOLDEN) % 1.0
            value = lo + int(step * (reference.CAP - lo + 1))
            argv = ["compute", "--space", space, "--k", str(k),
                    f"--{param}", str(value), "--format", "machine"]
            line = None
            if workload in ("canonical", "ablation"):
                argv.append("--no-sweep")
            if workload == "ablation":
                line = facts[(i + j * stride) % len(facts)]
                argv = ["--kb", str(ablated_path(kb_dir, line))] + argv
            ops.append(Op(tuple(argv), script, param, value, line))
        yield ops


@contextlib.contextmanager
def row_probes(speed: SpeedLog):
    """Probe the machine's speed just before each top-level
    ``Runner.run`` call, one per reproduce row, so that a six-second
    pass is scaled by the median of its 49 probes."""
    original = derive.Runner.run
    depth = [0]

    def probed(self, *args, **kwargs):
        if depth[0] == 0:
            speed.probe()
        depth[0] += 1
        try:
            return original(self, *args, **kwargs)
        finally:
            depth[0] -= 1

    derive.Runner.run = probed
    try:
        yield
    finally:
        derive.Runner.run = original


def invoke(op: Op, by_row: bool = False,
           speed: Optional[SpeedLog] = None) -> Outcome:
    """Run one operation through the CLI entry point.

    With ``speed``, the machine's speed is probed just before the call,
    or just before each row when ``by_row``; a row probe's time is not
    counted in the call's.  An exception escaping ``main`` is a failed
    operation, recorded by class, and the loop goes on: the benchmark
    must report it, not die."""
    out, err = io.StringIO(), io.StringIO()
    code: Optional[int] = None
    error = ""
    probes = speed.probes if speed is not None else []
    first = len(probes)
    if speed is not None and not by_row:
        speed.probe()
    probing = row_probes(speed) if speed is not None and by_row \
        else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with probing, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(list(op.argv))
    except SystemExit as e:          # argparse rejects an argument
        code = e.code if isinstance(e.code, int) else 2
    except Exception as e:  # noqa: BLE001 -- a traceback is a measured outcome
        error = type(e).__name__
    seconds = time.perf_counter() - start
    if by_row:
        seconds -= sum(probes[first:])
    return Outcome(op, seconds, code, error, out.getvalue(),
                   (first, len(probes)))


def closed_loop(batches: Iterator[List[Op]], seconds: float,
                by_row: bool = False, speed: Optional[SpeedLog] = None,
                at_least: int = 1):
    """Run operations in order until the next one would, at the mean
    duration so far, end after ``seconds``, but at least ``at_least``.

    A ``reproduce`` pass takes about six seconds, so a loop that ran
    until the deadline had passed would overrun it by up to a pass.
    Returns the outcomes and the wall time of the loop."""
    outcomes: List[Outcome] = []
    start = time.perf_counter()
    for op in itertools.chain.from_iterable(batches):
        elapsed = time.perf_counter() - start
        if len(outcomes) >= at_least \
                and elapsed * (len(outcomes) + 1) / len(outcomes) > seconds:
            break
        outcomes.append(invoke(op, by_row, speed))
    return outcomes, time.perf_counter() - start


def judge(outcome: Outcome, kb_digest: str) -> List[str]:
    """One verdict per operation the outcome holds (49 for a pass).

    ``ok``       exit 0 with the reference result;
    ``refused``  a documented exit code on an ablated catalog;
    ``wrong``    exit 0 with a result other than the reference;
    ``failed``   anything else: a traceback, an undocumented exit code,
                 or any refusal on the shipped catalog, which must
                 compute every drawn group.
    """
    if outcome.op.script == "reproduce":
        return _judge_pass(outcome, kb_digest)
    if outcome.code == 0:
        try:
            rec = json.loads(outcome.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return ["wrong"]
        op = outcome.op
        good = (rec.get("script") == op.script
                and rec.get(op.param) == op.value
                and rec.get("kb_digest") == kb_digest
                and isinstance(rec.get("group"), str)
                and reference.matches(op.script, op.value, rec["group"]))
        return ["ok" if good else "wrong"]
    if outcome.code in DOCUMENTED_REFUSALS and outcome.op.kb_line is not None:
        return ["refused"]
    return ["failed"]


def tally(outcomes: List[Outcome], verdicts: List[List[str]]):
    """(attempted, failed, changed) over the distinct operations run:
    calls, or grid rows on ``reproduce``.  An operation fails if any of
    its executions was judged ``failed`` or ``wrong``; it is ``changed``
    if its exit, exception or verdict differed between executions."""
    seen = {}
    for o, vs in zip(outcomes, verdicts):
        keys = reference.GRID if o.op.script == "reproduce" else [o.op]
        for key, verdict in zip(keys, vs):
            seen.setdefault(key, set()).add((o.code, o.error, verdict))
    failed = sum(any(v in ("failed", "wrong") for _, _, v in sigs)
                 for sigs in seen.values())
    changed = [key for key, sigs in seen.items() if len(sigs) > 1]
    return len(seen), failed, changed


def _judge_pass(outcome: Outcome, kb_digest: str) -> List[str]:
    printed = {}
    for line in outcome.stdout.splitlines():
        try:
            rec = json.loads(line)
            params = rec["params"]
            (value,) = params.values()
            printed[(rec["script"], value)] = rec
        except (ValueError, KeyError, TypeError, AttributeError):
            return ["wrong"] * len(reference.GRID)
    if outcome.error or len(printed) != len(reference.GRID):
        # a pass that died or printed a different grid: no row stands
        return ["failed" if printed.keys() <= set(reference.GRID)
                else "wrong"] * len(reference.GRID)
    verdicts = []
    for script, value in reference.GRID:
        rec = printed[(script, value)]
        if rec.get("status") != "pass":
            verdicts.append("failed")
        elif (rec.get("kb_digest") == kb_digest
              and reference.matches(script, value, rec.get("result"))):
            verdicts.append("ok")
        else:
            verdicts.append("wrong")
    if outcome.code != 0 and "failed" not in verdicts:
        return ["failed"] * len(reference.GRID)
    return verdicts
