"""Checks on the package's source text."""

import ast
import importlib
import inspect
from pathlib import Path

import conechase
from conechase import cli, derive, kb, rewrite

from checks import bench_table

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


def literal_argument_reads(source: str) -> list:
    """(line, text) of each subscript of ``args`` or ``<x>.args`` by a
    string literal: a step argument read by its name, past the verb table.

    >>> literal_argument_reads("a = step.args['of']\\nb = args[key]")
    [(1, "step.args['of']")]
    """
    return [(node.lineno, ast.unparse(node))
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
            and (isinstance(node.value, ast.Name) and node.value.id == "args"
                 or isinstance(node.value, ast.Attribute)
                 and node.value.attr == "args")]


def test_steps_read_their_arguments_only_through_the_table():
    """``derive.py`` reads a step's arguments as ``VERBS`` and
    ``Step.plan`` say, never by a literal key, so a verb cannot take an
    argument the table does not list."""
    assert literal_argument_reads((PACKAGE / "derive.py").read_text()) == []


def test_every_traced_target_resolves():
    """Each ``(module, qualname)`` in ``bench/tracing.py``'s ``TARGETS``
    names a callable of the package, found as ``Tracer.install`` finds
    it, in its owner's ``__dict__``: deleting or renaming one fails here,
    not in a traced benchmark run."""
    targets = bench_table("tracing", "TARGETS")
    assert targets
    for module, qualname in targets:
        owner = importlib.import_module(f"conechase.{module}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        assert callable(owner.__dict__.get(attr)), f"{module}.{qualname}"


def global_statements(source: str) -> list:
    """(line, names) of each ``global`` statement.

    >>> global_statements("x = 0\\ndef f():\\n    global x\\n    x = 1")
    [(3, ['x'])]
    """
    return [(node.lineno, node.names) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Global)]


def test_no_module_rebinds_a_global():
    """Process-wide state lives only in ``functools`` caches, which a
    test can clear, never in a module slot a function rebinds."""
    found = {path.name: global_statements(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_each_verb_has_a_handler_taking_its_arguments():
    """``Runner._<verb>`` takes ``self``, one parameter per value
    ``_read`` yields for its plan (the table's arguments in order, and
    the run's parameters for ``run``), then the rule context, spelled
    ``_ctx`` where it is not read: no environment, no transcript lines
    and nothing variadic or defaulted."""
    for verb, table in derive.VERBS.items():
        params = list(inspect.signature(
            getattr(derive.Runner, "_" + verb)).parameters.values())
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty
                   for p in params), verb
        names = [p.name for p in params]
        assert names[0] == "self" and names[-1] in ("ctx", "_ctx"), verb
        assert len(names) == len(table.args) + table.params + 2, verb


def test_token_values_reach_the_facts_only_through_the_context():
    """No function of ``les.py`` takes an environment, and the catalog's
    lookups of group, boundary and lift facts take the rule context,
    whose ``values`` are the one place a token value is read from."""
    tree = ast.parse((PACKAGE / "les.py").read_text())
    assert [node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and "env" in [a.arg for a in node.args.args]] == []
    for lookup in ("group_fact", "boundary_fact", "boundary_transport",
                   "lift_certificates"):
        names = list(inspect.signature(getattr(kb.KbCatalog, lookup))
                     .parameters)
        assert names[-1] == "ctx" and "env" not in names, lookup


def test_no_execution_is_given_a_swept_token(monkeypatch, capsys):
    """In a swept ``compute --space P3 --k 6 --r 3`` every run is executed
    under its script's parameters alone and a rule context; the tokens
    are the context's."""
    given = []
    execute = derive.Runner._execute

    def recording(self, name, params, ctx):
        given.append((dict(params), ctx))
        return execute(self, name, params, ctx)

    monkeypatch.setattr(derive.Runner, "_execute", recording)
    assert cli.main(["compute", "--space", "P3", "--k", "6", "--r", "3"]) == 0
    assert capsys.readouterr().out == "Z/2 + Z/2 + Z/4 + Z/4 + Z/8\n"
    assert len(given) == 15
    for params, ctx in given:
        assert not set(params) & set(kb.SWEPT_TOKENS), params
        assert isinstance(ctx, rewrite.RuleContext)
        assert sorted(ctx.values) == sorted(kb.SWEPT_TOKENS)


def test_no_module_spells_a_parameter_flag():
    """The scripts' ``params`` and ``require`` lines are the one
    declaration of the parameters: no module spells a parameter flag or
    keeps a table of their ranges."""
    spelled = {path.name: [word for word in ('"--r"', '"--m"', "'--r'",
                                             "'--m'", "PARAM_MIN")
                           if word in path.read_text()]
               for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: words for name, words in spelled.items() if words} == {}
