"""Command-line front end.

Subcommands:

    compute     one homotopy group, with its derivation transcript
    reproduce   every shipped derivation over the standard parameter grid
    filtration  the cell model of a fiber filtration
    validate-kb load and check a facts file

Exit codes are a stable contract: 0 success, 2 validation error, 3 a
required certified fact is missing (including unresolved extensions),
4 a computed group contradicts its asserted expectation.
"""

from __future__ import annotations

import argparse
import json
import sys

from .derive import (
    CANONICAL_TOKENS,
    AssertionMismatch,
    DeriveError,
    Runner,
    default_catalog,
    load_scripts,
)
from .groups import ExtensionUnresolved, GroupError
from .kb import KbError, KbMissingFact, load_catalog
from .les import LesError
from .terms import TermError
from . import filtration

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MISSING_FACT = 3
EXIT_ASSERTION = 4

R_CAP = 62  # keeps 2^r inside a machine word for ports without big integers
PARAM_MIN = {"r": 1, "m": 0}

SCENARIOS = {
    ("P3", 5): ("pi5_P3", "r"),
    ("P3", 6): ("pi6_P3", "r"),
    ("L4", 5): ("pi5_L4m", "m"),
    ("L4", 6): ("pi6_L4m", "m"),
    ("J3", 6): ("pi6_J3", "r"),
}

REPRODUCE_ROWS = (
    [("pi5_L4m", {"m": m}) for m in range(0, 9)]
    + [("pi6_L4m", {"m": m}) for m in range(1, 9)]
    + [("gamma3", {"r": r}) for r in range(1, 9)]
    + [("pi6_J3", {"r": r}) for r in range(1, 9)]
    + [("pi5_P3", {"r": r}) for r in range(1, 9)]
    + [("pi6_P3", {"r": r}) for r in range(1, 9)]
)


def _param_ok(name: str, value: int) -> bool:
    """Whether a parameter lies in its range; reports it if not."""
    if PARAM_MIN[name] <= value <= R_CAP:
        return True
    print(f"error: {name} must be in [{PARAM_MIN[name]}, {R_CAP}]",
          file=sys.stderr)
    return False


def _catalog(args):
    if getattr(args, "kb", None):
        return load_catalog(args.kb)
    return default_catalog()


def cmd_compute(args) -> int:
    key = (args.space, args.k)
    if key not in SCENARIOS:
        print(f"error: no shipped scenario for space={args.space} k={args.k}",
              file=sys.stderr)
        return EXIT_VALIDATION
    script, pname = SCENARIOS[key]
    pval = args.r if pname == "r" else args.m
    if pval is None:
        print(f"error: scenario {script} needs --{pname}", file=sys.stderr)
        return EXIT_VALIDATION
    if not _param_ok(pname, pval):
        return EXIT_VALIDATION
    cat = _catalog(args)
    runner = Runner(cat, load_scripts())
    result = runner.run(script, {pname: pval}, sweep=not args.no_sweep)
    if args.format == "machine":
        print(json.dumps({
            "script": script, pname: pval,
            "group": result.group.render(),
            "kb_digest": cat.digest,
            "transcript_digest": result.transcript_digest(),
        }))
    else:
        print(result.group.render())
        if args.transcript:
            print()
            print(result.transcript, end="")
    return EXIT_OK


def cmd_reproduce(args) -> int:
    cat = _catalog(args)
    runner = Runner(cat, load_scripts())
    failures = 0
    if args.format == "text":
        print(f"# kb digest: {cat.digest}")
    results = [_reproduce_one(runner, name, params)
               for name, params in REPRODUCE_ROWS]
    for name, params, rendered, err in results:
        ptxt = ",".join(f"{k}={v}" for k, v in params.items())
        if err is None:
            status = "pass"
        else:
            status = f"FAIL ({err})"
            failures += 1
        if args.format == "machine":
            print(json.dumps({"script": name, "params": params,
                              "result": rendered, "status":
                              "pass" if err is None else "fail",
                              "error": str(err) if err else None,
                              "kb_digest": cat.digest}))
        else:
            print(f"{name}({ptxt}): {rendered or '-'} [{status}]")
    if failures:
        print(f"{failures} row(s) failed", file=sys.stderr)
        first_error = next(e for _, _, _, e in results if e is not None)
        return _exit_code_for(first_error)
    return EXIT_OK


def _reproduce_one(runner, name, params):
    try:
        res = runner.run(name, params)
        if hasattr(res.value, "group"):
            rendered = res.value.group.render()
        else:
            rendered = res.value.render() if hasattr(res.value, "render") \
                else str(res.value)
        return (name, params, rendered, None)
    except Exception as e:  # noqa: BLE001
        return (name, params, None, e)


def cmd_filtration(args) -> int:
    env = dict(CANONICAL_TOKENS)
    for name in PARAM_MIN:
        value = getattr(args, name)
        if value is not None:
            if not _param_ok(name, value):
                return EXIT_VALIDATION
            env[name] = value
    cat = _catalog(args)
    try:
        el = cat.parser(env).parse(args.f)
        spec = filtration.MapSpec(el)
    except (TermError, KbError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    model = filtration.build_filtration(spec, args.n, cat.rule_context(env))
    if args.format == "machine":
        for st in model.stages:
            print(json.dumps({
                "stage": st.index, "space": st.space_name,
                "cell_dim": st.cell_dim,
                "gamma": st.gamma.render() if st.gamma is not None else None,
            }))
    else:
        print(model.render())
    return EXIT_OK


def cmd_validate_kb(args) -> int:
    cat = _catalog(args)
    counts = {}
    for f in cat.facts:
        counts[f.kind] = counts.get(f.kind, 0) + 1
    print(f"ok: {len(cat.facts)} facts, digest {cat.digest}")
    for kind in sorted(counts):
        print(f"  {kind}: {counts[kind]}")
    return EXIT_OK


def _exit_code_for(e: BaseException) -> int:
    if isinstance(e, (ExtensionUnresolved, KbMissingFact)):
        return EXIT_MISSING_FACT
    if isinstance(e, AssertionMismatch):
        return EXIT_ASSERTION
    return EXIT_VALIDATION


def main(argv=None) -> int:
    top = argparse.ArgumentParser(
        prog="conechase",
        description="Exact 2-local homotopy groups of mapping cones via "
                    "fiber-filtration chases")
    top.add_argument("--kb", help="override the shipped facts file")
    sub = top.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute one homotopy group")
    pc.add_argument("--space", required=True, choices=["P3", "L4", "J3"])
    pc.add_argument("--k", type=int, required=True)
    pc.add_argument("--r", type=int)
    pc.add_argument("--m", type=int)
    pc.add_argument("--format", choices=["text", "machine"], default="text")
    pc.add_argument("--transcript", action="store_true",
                    help="print the derivation transcript")
    pc.add_argument("--no-sweep", action="store_true",
                    help="skip the ambiguity sweep (single canonical run)")
    pc.set_defaults(func=cmd_compute)

    pr = sub.add_parser("reproduce",
                        help="run every shipped derivation over the grid")
    pr.add_argument("--format", choices=["text", "machine"], default="text")
    pr.set_defaults(func=cmd_reproduce)

    pf = sub.add_parser("filtration", help="print a fiber filtration model")
    pf.add_argument("--f", required=True,
                    help="attaching class, e.g. '2^r*iota_2' or '2^m*eta_2'")
    pf.add_argument("--n", type=int, required=True, help="stages to build")
    pf.add_argument("--r", type=int)
    pf.add_argument("--m", type=int)
    pf.add_argument("--format", choices=["text", "machine"], default="text")
    pf.set_defaults(func=cmd_filtration)

    pv = sub.add_parser("validate-kb", help="load and validate a facts file")
    pv.set_defaults(func=cmd_validate_kb)

    args = top.parse_args(argv)
    try:
        return args.func(args)
    except (ExtensionUnresolved, KbMissingFact) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_MISSING_FACT
    except AssertionMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ASSERTION
    except (KbError, GroupError, TermError, DeriveError, LesError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
