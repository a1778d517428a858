"""Command-line front end.

Subcommands:

    compute     one homotopy group, with its derivation transcript
    reproduce   every shipped derivation over the rows it declares
    filtration  the cell model of a fiber filtration
    validate-kb load and check a facts file

Exit codes are a stable contract: 0 success, 2 validation error, 3 a
required certified fact is missing (including unresolved extensions),
4 a computed group contradicts its asserted expectation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import operator
import sys
from collections import Counter

from .derive import (
    CANONICAL_TOKENS,
    STEP_ERRORS,
    AssertionMismatch,
    DeriveError,
    Runner,
    default_catalog,
    load_scripts,
    reproduce_rows,
    scenarios,
)
from .groups import ExtensionUnresolved
from .kb import KbError, KbMissingFact, compile_guard, load_catalog
from .terms import TermError
from . import filtration

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_MISSING_FACT = 3
EXIT_ASSERTION = 4

R_CAP = 62  # keeps 2^r inside a machine word for ports without big integers
# set by the fixed options: a script parameter named so gets no flag
FIXED = ("kb", "command", "func", "help", "space", "k", "format",
         "transcript", "no_sweep", "f", "n")
# what a command reports with an exit code; anything else is a bug and
# surfaces as one, from every command alike
ERRORS = STEP_ERRORS + (OSError,)


def _flags(scripts) -> list:
    """The parameters of ``scripts`` that ``compute`` and ``filtration``
    take as flags: all but those named like a fixed option."""
    return sorted({p for s in scripts for p in s.params} - set(FIXED))


def _check_range(scripts, params: dict):
    """Each of ``params`` must lie in ``[low, R_CAP]``, ``low`` the least
    lower bound ``name>=low`` that the ``require`` of a script declaring
    it gives (``Runner`` checks all of a ``require``)."""
    for name, value in params.items():
        low = min(max((b for n, c, b in compile_guard(s.requires)
                       if (n, c) == (name, operator.ge) and type(b) is int),
                      default=-math.inf)
                  for s in scripts if name in s.params)
        if not low <= value <= R_CAP:
            raise DeriveError(f"{name} must be in [{low}, {R_CAP}]")


def _catalog(args):
    if getattr(args, "kb", None):
        return load_catalog(args.kb)
    return default_catalog()


def cmd_compute(args) -> int:
    script = scenarios(load_scripts()).get((args.space, args.k))
    if script is None:
        raise DeriveError(f"no shipped scenario for space={args.space} "
                          f"k={args.k}")
    params = {}
    for pname in script.params:
        if pname in FIXED:
            raise DeriveError(f"{script.name}:{script.params_line}: parameter "
                              f"{pname!r} is named like a fixed option")
        params[pname] = getattr(args, pname)
        if params[pname] is None:
            raise DeriveError(f"scenario {script.name} needs --{pname}")
    _check_range([script], params)
    cat = _catalog(args)
    result = Runner(cat, load_scripts()).run(script.name, params,
                                             sweep=not args.no_sweep)
    if args.format == "machine":
        print(json.dumps({
            "script": script.name, **params,
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
    if args.format == "text":
        print(f"# kb digest: {cat.digest}")
    errors = []
    for name, params in reproduce_rows(runner.scripts):
        rendered, err = _reproduce_one(runner, name, params)
        if err is not None:
            errors.append(err)
        if args.format == "machine":
            print(json.dumps({"script": name, "params": params,
                              "result": rendered, "status":
                              "pass" if err is None else "fail",
                              "error": str(err) if err else None,
                              "kb_digest": cat.digest}))
        else:
            ptxt = ",".join(f"{k}={v}" for k, v in params.items())
            status = "pass" if err is None else f"FAIL ({err})"
            print(f"{name}({ptxt}): {rendered or '-'} [{status}]")
    if errors:
        print(f"{len(errors)} row(s) failed", file=sys.stderr)
        return _exit_code_for(errors[0])
    return EXIT_OK


def _reproduce_one(runner, name, params):
    """The rendered value of one row, or the error it raised."""
    try:
        value = runner.run(name, params).value
        value = getattr(value, "group", value)       # a PiGroup's group
        return (value.render() if hasattr(value, "render") else str(value),
                None)
    except ERRORS as e:
        return None, e


def cmd_filtration(args) -> int:
    # the term reads the parameters alone: a token is refused as unknown
    env = {p: getattr(args, p) for p in _flags(load_scripts().values())
           if getattr(args, p) is not None}
    _check_range(load_scripts().values(), env)
    cat = _catalog(args)
    try:
        el = cat.parser(env).parse(args.f)
        spec = filtration.MapSpec(el)
    except (TermError, KbError) as e:    # an unknown name is no missing fact
        raise DeriveError(str(e)) from e
    model = filtration.build_filtration(spec, args.n,
                                        cat.rule_context(CANONICAL_TOKENS))
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
    counts = Counter(f.kind for f in cat.facts)
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


@functools.cache
def _parser(spaces: tuple, params: tuple) -> argparse.ArgumentParser:
    """The argument parser offering ``spaces`` to ``compute --space`` and
    a flag per script parameter in ``params``: built once per process."""
    top = argparse.ArgumentParser(
        prog="conechase",
        description="Exact 2-local homotopy groups of mapping cones via "
                    "fiber-filtration chases")
    top.add_argument("--kb", help="override the shipped facts file")
    sub = top.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="compute one homotopy group")
    pc.add_argument("--space", required=True, choices=spaces)
    pc.add_argument("--k", type=int, required=True)
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
    for name in params:
        pc.add_argument(f"--{name}", type=int)
        pf.add_argument(f"--{name}", type=int)
    pf.add_argument("--format", choices=["text", "machine"], default="text")
    pf.set_defaults(func=cmd_filtration)

    pv = sub.add_parser("validate-kb", help="load and validate a facts file")
    pv.set_defaults(func=cmd_validate_kb)
    return top


def main(argv=None) -> int:
    try:
        scripts = load_scripts()
        spaces = sorted({space for space, _ in scenarios(scripts)})
        params = _flags(scripts.values())
        args = _parser(tuple(spaces), tuple(params)).parse_args(argv)
        return args.func(args)
    except ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return _exit_code_for(e)


if __name__ == "__main__":
    sys.exit(main())
