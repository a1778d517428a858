#!/usr/bin/env python3
"""Benchmark of the conechase engine built from the sources of this checkout.

    python3 bench/run.py --workload compute --seed 1 --seconds 28 --trace 0

Run from the root of a checkout.  With ``--trace 0`` the run prints the
end-to-end metrics.  With ``--trace 1`` it runs the workload untraced for
half the time, replays the same operations traced, and prints the
per-layer metrics of the replay; the two halves must print identical
outputs.  Lines before the last describe the run; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A record of the run, with the outcome of
every operation, is written under ``bench/out/``.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

# The tail is read at a fixed percentile per workload, the highest with at
# least ten samples beyond it in a run of the declared length, so that a
# faster commit is compared at the same percentile.  A run with too few
# samples steps down this ladder and says which percentile it used.  A
# reproduce run holds three to five passes, too few for any of them: its
# tail is the slowest pass.
TAIL_PERCENTILE = {"reproduce": 100, "compute": 75, "canonical": 95,
                   "ablation": 95}
LADDER = (50, 75, 90, 95, 99)
SETUP_SAMPLES = 11

SETUP_PROBE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import conechase\n"
    "from conechase.derive import default_catalog, load_scripts\n"
    "default_catalog()\n"
    "load_scripts()\n"
    "print(repr(time.perf_counter() - start))\n"
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["reproduce", "compute", "canonical", "ablation"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def measure_setup(speed) -> list:
    """Seconds from a fresh interpreter's ``import conechase`` through
    ``default_catalog()`` and ``load_scripts()``, once per sample, each
    sample just after a probe of the machine's speed into ``speed``.

    A first, discarded interpreter compiles the bytecode."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        if i:
            speed.probe()
        done = subprocess.run([sys.executable, "-c", SETUP_PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        if i:
            samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def git_commit() -> str:
    try:
        # a checkout without .git must not report the commit of a
        # repository that happens to enclose it
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def tail_latency(latencies, preferred):
    """(percentile, value): the nearest-rank percentile, starting from the
    workload's declared one, that has at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in sorted((x for x in LADDER if x <= preferred), reverse=True):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, latencies, executions, attempted, failed, busy_s,
               setup):
    """The end-to-end metrics of a loop that ran ``executions`` operations
    in ``busy_s``, one latency sample per CLI call, ``failed`` of its
    ``attempted`` distinct operations failing, and the tail percentile
    used."""
    p_tail, tail = tail_latency(latencies, TAIL_PERCENTILE[workload])
    metrics = {
        "ops_per_s": metric(executions / busy_s, "1/s"),
        "latency_p50_ms": metric(statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": metric(tail * 1e3, "ms"),
        "success_ratio": metric((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    return metrics, p_tail


# Public functions the engine never calls at this commit: only their call
# counts are kept, which show when a change starts routing work through them.
UNCALLED = ("les.boundary_hom", "groups.smith_normal_form")

COUNTERS = (
    ("rewrite.normalize_word.distinct", "count"),
    ("rewrite.normalize_word.distinct_ratio", "ratio"),
    ("terms.element_new.calls", "count"),
    ("derive.executions", "count"),
    ("derive.executions_per_op", "count"),
    ("kb.rule_context.per_execution", "ratio"),
    ("trace.ops", "count"),
    ("trace.spans", "count"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.ops_per_s_ratio", "ratio"),
)


def layer_metric_units(names) -> dict:
    """{per-layer metric: unit} for the wrapped functions ``names``."""
    units = {}
    for name in names:
        units[f"{name}.calls"] = "count"
        if name not in UNCALLED:
            units[f"{name}.self_s"] = "s"
            units[f"{name}.errors"] = "count"
    units.update(COUNTERS)
    return units


def per_layer(tracer, ops, traced_s, untraced_s) -> dict:
    summary = tracer.summary()
    words = summary["rewrite.normalize_word"][0]
    contexts = summary["kb.KbCatalog.rule_context"][0]
    executions = tracer.counts["derive.executions"]
    distinct = len(tracer.distinct)
    values = {
        "rewrite.normalize_word.distinct": distinct,
        "rewrite.normalize_word.distinct_ratio":
            distinct / words if words else 0.0,
        "terms.element_new.calls": tracer.counts["terms.element_new.calls"],
        "derive.executions": executions,
        "derive.executions_per_op": executions / ops,
        "kb.rule_context.per_execution":
            contexts / executions if executions else 0.0,
        "trace.ops": ops,
        "trace.spans": len(tracer.span_start),
        "trace.ops_per_s": ops / traced_s,
        "trace.untraced_ops_per_s": ops / untraced_s,
        "trace.ops_per_s_ratio": untraced_s / traced_s,
    }
    for name, (calls, self_s, errors) in summary.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
        values[f"{name}.errors"] = errors
    return {name: metric(values[name], unit)
            for name, unit in layer_metric_units(summary).items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "conechase" / "__init__.py").is_file():
        print(f"error: no conechase sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import conechase
    if Path(conechase.__file__).resolve().parent != SRC / "conechase":
        print(f"error: imported conechase from {conechase.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import workloads
    from conechase.derive import default_catalog
    from speed import REFERENCE_S, SpeedLog
    from tracing import Tracer

    workload, seed = args.workload, args.seed
    tag = f"{workload}-seed{seed}-trace{args.trace}"
    catalog = default_catalog()
    shipped_digest = catalog.digest
    fact_lines = [f.line for f in catalog.facts]
    kb_dir = OUT / "ablated"
    digests = {}
    if workload == "ablation":
        digests = workloads.write_ablated_catalogs(catalog, kb_dir)
    del catalog

    setup_speed, speed = SpeedLog(), SpeedLog()
    setup = [] if args.trace else measure_setup(setup_speed)
    if workload != "reproduce":
        # one untimed call pays the lazy imports that a fresh process pays
        # inside setup_s; a reproduce pass is too long to spend on this
        warm = workloads.rounds(workload, seed + 1, fact_lines, kb_dir)
        workloads.invoke(next(warm)[0])
    batches = workloads.rounds(workload, seed, fact_lines, kb_dir)
    gc.collect()

    # A traced run first runs the workload untraced for half the time, then
    # replays the same operations traced, so that it lasts about as long as
    # an untraced run: the ratio of the two halves is the tracing overhead,
    # and the two must print identical outputs.  Only an untraced run
    # probes the machine's speed.
    outcomes, elapsed = workloads.closed_loop(
        batches, args.seconds / 2 if args.trace else args.seconds,
        by_row=workload == "reproduce",
        speed=None if args.trace else speed,
        at_least=workloads.cycle_length(workload, fact_lines))
    mismatched = []
    if args.trace:
        untraced = outcomes
        tracer = Tracer()
        tracer.install()
        try:
            outcomes = [workloads.invoke(o.op) for o in untraced]
        finally:
            tracer.uninstall()
        mismatched = [o.op.label() for o, u in zip(outcomes, untraced)
                      if (o.code, o.error, o.stdout)
                      != (u.code, u.error, u.stdout)]

    verdicts = [workloads.judge(o, shipped_digest if o.op.kb_line is None
                                else digests[o.op.kb_line])
                for o in outcomes]
    flat = [v for vs in verdicts for v in vs]
    # attempted and failed count distinct operations, each judged on every
    # execution, so that they depend on the seed and not on the speed
    attempted, failed, changed = workloads.tally(outcomes, verdicts)
    # On the shipped catalog every drawn group must be computed.  On an
    # ablated one a refusal is expected and a traceback is a failure the
    # run reports; only a wrong group is an incorrect output there.  An
    # operation must end the same way every time it runs.
    correct = "wrong" not in flat and not mismatched and not changed and (
        workload == "ablation" or failed == 0)

    env = {
        "workload": workload, "seed": seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
        "kb_digest": shipped_digest,
        "operation": "row" if workload == "reproduce" else "cli call",
        "fail_ratio": failed / attempted,
        "executions": len(flat),
        "verdicts": dict(sorted(Counter(flat).items())),
    }
    if args.trace:
        metrics = per_layer(tracer, len(flat),
                            sum(o.seconds for o in outcomes),
                            sum(u.seconds for u in untraced))
        env["samples"] = len(flat)
        tracer.write(OUT / f"spans-{tag}.tsv.gz")
    else:
        # one sample per CLI call, a whole pass on reproduce, scaled by the
        # probes that bracket it (each row's on reproduce)
        scaled = [o.seconds * speed.scale(*o.probes) for o in outcomes]
        metrics, p_tail = end_to_end(
            workload, scaled, len(flat), attempted, failed, sum(scaled),
            [t * setup_speed.scale(i) for i, t in enumerate(setup)])
        unscaled, _ = end_to_end(
            workload, [o.seconds for o in outcomes], len(flat), attempted,
            failed, elapsed, setup)
        env.update(
            samples=len(outcomes), tail_percentile=p_tail,
            setup_samples_s=setup, reference_probe_ms=REFERENCE_S * 1e3,
            probe_median_ms=statistics.median(speed.probes) * 1e3,
            unscaled={name: m["value"] for name, m in unscaled.items()})

    log = []
    for o, vs in zip(outcomes, verdicts):
        how = f"exit {o.code}" if not o.error else f"raised {o.error}"
        log.append(f"{o.op.label()}: {how} in {o.seconds:.4f} s "
                   f"[{','.join(sorted(set(vs)))}]")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"run-{tag}.json").write_text(json.dumps(
        {"env": env, "metrics": metrics, "outcomes": log}, indent=1) + "\n")

    print(f"# conechase benchmark {tag}")
    print(f"# env {json.dumps(env)}")
    for line in log:
        if workload == "ablation" or not line.endswith("[ok]"):
            print(f"# outcome {line}")
    for label in mismatched:
        print(f"# tracing changed the output of {label}")
    for key in changed:
        label = key.label() if isinstance(key, workloads.Op) else key
        print(f"# operation ended differently between executions: {label}")
    print(f"# fail_ratio: {failed / attempted!r} ratio ({failed} of "
          f"{attempted} operations failed, over {len(flat)} executions)")
    for name, m in metrics.items():
        print(f"# {name}: {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
