"""Byte-identity envelope of the command line.

Prints two sha256 digests, each over the exit code, stdout and stderr of
a fixed list of in-process ``conechase.cli.main`` calls:

- ``outputs``: ``reproduce`` (text and machine); 120 ``compute`` calls,
  the five shipped scenarios at r/m in {0, 1, 2, 3, 4, 8, 30, 62}, each
  swept with ``--transcript``, with ``--no-sweep --transcript`` and with
  ``--format machine``; 8 ``filtration`` calls, four maps in text and
  machine format;
- ``ablation``: 1,260 calls, each scenario at r/m in {1, 2, 3, 30} with
  ``--no-sweep --transcript`` on a catalog lacking one of the 63 shipped
  facts, with the temporary catalog path normalised;
- ``swept``: 15 calls, each scenario at r/m in {1, 2, 3}, swept with
  ``--transcript``, on a catalog whose group pi_5(S2 v S5) has an
  eps-dependent order, so that most fail under eps=1 only, with the
  temporary catalog path normalised.

Two trees give equal digests exactly when these outputs agree byte for
byte.  It takes about 20 s, so it is run by hand, never by the suite:

    PYTHONPATH=src python3 tests/envelope.py [records.jsonl]

With a path, every call's record is also written there, one JSON line
each.  Two such files are compared call by call with

    python3 tests/envelope.py --diff OLD.jsonl NEW.jsonl

which lists each call whose exit code, stdout or stderr differs, marks
the calls that differ only in 64-hex digests, and exits 1 if any call
differs.  Importing this module runs nothing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

VALUES = (0, 1, 2, 3, 4, 8, 30, 62)
ABLATION_VALUES = (1, 2, 3, 30)
SWEPT_VALUES = (1, 2, 3)
EPS_GROUP = ("| S2vS5 @ 5 | Z/2{", "| S2vS5 @ 5 | Z/2^(1+eps){")
COMPUTE_MODES = (("--transcript",), ("--no-sweep", "--transcript"),
                 ("--format", "machine"))
FILTRATIONS = (("--f", "2*iota_3", "--n", "4"),
               ("--f", "2^r*iota_2", "--n", "4", "--r", "2"),
               ("--f", "2^m*eta_2", "--n", "3", "--m", "2"),
               ("--f", "2^m*eta_2", "--n", "2", "--m", "0"))
KB_PLACEHOLDER = "<kb>"
HEX_DIGEST = re.compile(r"\b[0-9a-f]{64}\b")


def call(argv, kb_dir=None) -> dict:
    """One ``main`` call: its argv, exit code, stdout and stderr.  An
    exception that escapes ``main`` is recorded by its class name."""
    from conechase import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as e:
            code = f"SystemExit({e.code})"
        except Exception as e:  # noqa: BLE001 -- a traceback is an output
            code = f"raised {type(e).__name__}"
    record = {"argv": list(argv), "code": code,
              "stdout": out.getvalue(), "stderr": err.getvalue()}
    if kb_dir is not None:
        for key in ("argv", "stdout", "stderr"):
            record[key] = json.loads(
                json.dumps(record[key]).replace(kb_dir, KB_PLACEHOLDER))
    return record


def _scenarios():
    """(space, k, parameter flag) of each shipped scenario, in order."""
    from conechase.derive import load_scripts, scenarios

    return [(space, k, f"--{script.params[0]}")
            for (space, k), script in sorted(scenarios(load_scripts()).items())]


def output_argvs():
    yield ("reproduce",)
    yield ("reproduce", "--format", "machine")
    for space, k, flag in _scenarios():
        for value in VALUES:
            for mode in COMPUTE_MODES:
                yield ("compute", "--space", space, "--k", str(k),
                       flag, str(value), *mode)
    for spec in FILTRATIONS:
        for fmt in ("text", "machine"):
            yield ("filtration", *spec, "--format", fmt)


def ablation_argvs(kb_dir: Path):
    """The ablation calls, writing one catalog per dropped fact."""
    from conechase.derive import default_catalog

    catalog = default_catalog()
    for fact in catalog.facts:
        path = kb_dir / f"without_line{fact.line}.facts"
        path.write_text(catalog.without_facts(
            lambda f, line=fact.line: f.line == line).serialize())
        for space, k, flag in _scenarios():
            for value in ABLATION_VALUES:
                yield ("--kb", str(path), "compute", "--space", space,
                       "--k", str(k), flag, str(value), "--no-sweep",
                       "--transcript")


def swept_argvs(kb_dir: Path):
    """The swept calls, writing the eps-dependent catalog."""
    from conechase.derive import default_catalog

    path = kb_dir / "eps.facts"
    path.write_text(default_catalog().serialize().replace(*EPS_GROUP))
    for space, k, flag in _scenarios():
        for value in SWEPT_VALUES:
            yield ("--kb", str(path), "compute", "--space", space,
                   "--k", str(k), flag, str(value), "--transcript")


def digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update(json.dumps(rec, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def differences(old, new) -> list:
    """(argv, fields that differ, whether they differ only in 64-hex
    digests) of each call whose records differ; both lists must record
    the same calls in the same order.

    >>> a = {"argv": ["x"], "code": 0, "stdout": "d " + "a" * 64,
    ...      "stderr": ""}
    >>> differences([a, a], [a, dict(a, stdout="d " + "b" * 64)])
    [(['x'], ['stdout'], True)]
    >>> differences([a], [dict(a, code=3, stdout="e")])
    [(['x'], ['code', 'stdout'], False)]
    """
    if [r["argv"] for r in old] != [r["argv"] for r in new]:
        raise ValueError("the two files record different calls")
    out = []
    for a, b in zip(old, new):
        fields = [k for k in ("code", "stdout", "stderr") if a[k] != b[k]]
        if fields:
            out.append((a["argv"], fields, all(
                HEX_DIGEST.sub("<hex>", str(a[k]))
                == HEX_DIGEST.sub("<hex>", str(b[k])) for k in fields)))
    return out


def diff(old_path, new_path) -> int:
    """Print the differences of two record files; 1 if any call differs."""
    records = []
    for path in (old_path, new_path):
        with open(path) as fh:
            records.append([json.loads(line) for line in fh])
    found = differences(*records)
    for argv, fields, digests_only in found:
        print(" ".join(argv) + ": " + ", ".join(fields)
              + (" (64-hex digests only)" if digests_only else ""))
    print(f"{len(found)} of {len(records[0])} calls differ, "
          f"{sum(d for *_, d in found)} only in 64-hex digests")
    return 1 if found else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--diff"]:
        if len(argv) != 3:
            print("usage: envelope.py --diff OLD.jsonl NEW.jsonl",
                  file=sys.stderr)
            return 2
        return diff(argv[1], argv[2])
    outputs = [call(a) for a in output_argvs()]
    with tempfile.TemporaryDirectory() as tmp:
        ablation = [call(a, kb_dir=tmp) for a in ablation_argvs(Path(tmp))]
        swept = [call(a, kb_dir=tmp) for a in swept_argvs(Path(tmp))]
    print(f"outputs  {digest(outputs)}  ({len(outputs)} calls)")
    print(f"ablation {digest(ablation)}  ({len(ablation)} calls)")
    print(f"swept    {digest(swept)}  ({len(swept)} calls)")
    if argv:
        with open(argv[0], "w") as fh:
            for rec in outputs + ablation + swept:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
