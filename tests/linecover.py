"""Lines of ``src/conechase/*.py`` that the tier-1 suite never runs.

Runs pytest in this process under a ``sys.settrace`` line collector and
prints, per module, the executable lines no test reached, then the
total.  A line is executable when the compiled module maps bytecode to
it (``co_lines`` of every code object); it is reached when a line event
fires on it, or, for the first line of a function, when the function is
called.  Code that only a subprocess runs (``__main__.py``) counts as
unreached.  Tracing makes the suite several times slower, so this is run
by hand, never by the suite:

    PYTHONPATH=src python3 tests/linecover.py [pytest arguments]

With no arguments it runs the tier-1 command, ``-q
--continue-on-collection-errors`` from the repository root.  Importing
this module runs nothing.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "conechase"
TIER1 = ("-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")


def executable_lines(path: Path) -> set:
    """The line numbers that the compiled module at ``path`` maps
    bytecode to, nested code objects included."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines()
                     if line is not None and line > 0)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines) -> str:
    """Sorted line numbers written as runs.

    >>> ranges([7, 3, 4, 5, 9, 10])
    '3-5, 7, 9-10'
    >>> ranges([])
    ''
    """
    out, run = [], []
    for line in sorted(lines):
        if run and line != run[-1] + 1:
            out.append(run)
            run = []
        run.append(line)
    if run:
        out.append(run)
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}"
                     for r in out)


def collect(pytest_args) -> tuple:
    """(pytest's exit code, {file name: reached lines}) of one traced run
    of pytest over ``pytest_args``."""
    import pytest

    reached = {str(p): set() for p in PACKAGE.glob("*.py")}

    def tracer(frame, event, arg):
        seen = reached.get(frame.f_code.co_filename)
        if seen is None:
            return None
        seen.add(frame.f_code.co_firstlineno)

        def local(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return local
        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(list(pytest_args))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, reached


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    os.chdir(ROOT)
    code, reached = collect(argv or TIER1)
    total = unreached = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        missing = lines - reached[str(path)]
        total += len(lines)
        unreached += len(missing)
        if missing:
            print(f"{path.relative_to(ROOT)}: {len(missing)} of {len(lines)}"
                  f": {ranges(missing)}")
    print(f"unreached {unreached} of {total} executable lines "
          f"(pytest exit {int(code)})")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
