"""Checks on the package's source text."""

import ast
from pathlib import Path

import conechase

PACKAGE = Path(conechase.__file__).parent


def unread_parameters(source: str) -> list:
    """(function name, parameter) for each parameter of a ``def`` that its
    body never reads.  ``self``, ``cls`` and names that start with ``_``
    are exempt, and so are lambdas: a compiled closure takes ``env`` by
    contract whether or not it reads it.

    >>> unread_parameters("def f(self, a, b, _c):\\n    return a")
    [('f', 'b')]
    """
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out.extend((node.name, p) for p in params
                   if p not in read and p not in ("self", "cls")
                   and not p.startswith("_"))
    return out


def test_every_parameter_is_read():
    unread = {path.name: unread_parameters(path.read_text())
              for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in unread.items() if found} == {}
