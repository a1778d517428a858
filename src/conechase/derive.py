"""Derivation scripts: replayable exact-sequence chases with transcripts.

A derivation is a list of named steps in a small line-oriented format,
one step per line:

    derivation pi5_L4m
    params m
    require m>=0
    computes L4(m) @ 5
    rows m=0..8
    let F5 = fiber_group fib=F_pL(m); k=5
    let d6 = boundary fib=F_pL(m); k=6; target=F5
    ...
    assert ans = { m=0 : Z(2) ; m=1 : Z(2) + Z/4 ; m>=2 : Z(2) + Z/2 + Z/2 }
    return ans

``computes`` names the group a script chases, a space at a fixed
degree, and makes the script ``compute``'s scenario for it; ``rows`` is
its range in the ``reproduce`` grid.  ``scenarios`` and
``reproduce_rows`` read both off the loaded scripts, so a new scenario
is one new file.

``VERBS`` is the one table of the verbs and their arguments.  A script
is checked against it when it is parsed: an unknown verb or argument, a
missing argument, a name that no earlier ``let`` bound, a binding of the
wrong kind, an integer expression that reads a variable outside
``params`` and a parameter that is not a name are errors that name the
line, as are malformed header lines.
``link_scripts`` settles what a ``run`` binds from its script's
``return``.  ``fib=`` names a fibration declared in the catalog; one
that declares no attaching class takes it from ``attach=``, and a class
from both places or from neither is an error.  The ``require`` guard
and each ``assert`` case are compiled when the script is parsed; a
literal's orders are evaluated per run.

Every run records each step, every certified fact it consumed (with its
citation), and the catalog digest; replays are byte-identical.  Runs are
swept over the ambiguous tokens (sign, eps and the opaque integers x, y)
and must produce identical groups for every assignment -- the group
tables are independent of all of them.  A run is executed under its
parameters and the rule context of its assignment, the one holder of
the token values (``rewrite.RuleContext.values``).

A script reads a swept token only through the facts it cites (one that
names a token is rejected at parse time); ``rewrite.RuleContext`` gives
the argument.  It reads everything else through its parameters and the
values its ``run`` subderivations return, which the ``(subderivation
... -> value)`` lines of its transcript render.  So a run is the same
under every assignment that agrees on the tokens it read itself and
under which each of its subderivations returns an equal value
(``_value_key``), however that value came about: the run cache cuts off
early where a token changed a subderivation's own work but not its
value.  Likewise a ``let`` step reads tokens itself through its
citations, and everything else through the earlier bindings it names
(``Step.names``, the arguments that ``VERBS`` reads as bindings); the
memo of steps serves it under every assignment that agrees on the
tokens it read itself and gives those bindings equal values.  Cached
runs and memoised steps replay their transcript lines and citations, so
transcripts and digests are those of a fresh evaluation.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Dict, Iterable, List, Optional, Tuple

from .groups import (
    ExtensionProblem,
    ExtensionUnresolved,
    GroupError,
    LiftCertificate,
    TwoLocalGroup,
    cokernel as group_cokernel,
    kernel as group_kernel,
    quotient_by_elements,
    solve_extension,
    strip_odd,
)
from .kb import (
    SWEPT_TOKENS,
    SWEPT_VALUES,
    KbCatalog,
    KbError,
    KbFact,
    compile_guard,
    cyclic_summands,
    guard_holds,
    load_catalog,
    swept_tokens,
    unbound_names,
)
from .les import (
    Boundary,
    LesError,
    PiGroup,
    boundary_hom,
    derived_pi_group,
    express,
    fibration,
    pi_group_from_fact,
    push_forward,
)
from .terms import (
    Bracket,
    Element,
    Pair,
    Space,
    TermError,
    Word,
    compile_int_expr,
    eval_int_expr,
    parse_space,
    read_int,
)
from . import filtration, rewrite


class DeriveError(ValueError):
    pass


class AssertionMismatch(DeriveError):
    """A computed group disagrees with the asserted expectation."""


# what a step may raise; ``Runner._execute`` prefixes it with the step
STEP_ERRORS = (DeriveError, LesError, KbError, GroupError, TermError)

CANONICAL_TOKENS = {t: values[0] for t, values in SWEPT_VALUES.items()}
SWEEP_GRID = [  # CANONICAL_TOKENS first; ``Runner.run`` compares with it
    dict(zip(SWEPT_TOKENS, values))
    for values in itertools.product(*SWEPT_VALUES.values())]


# ---------------------------------------------------------------------------
# script model
# ---------------------------------------------------------------------------

@dataclass
class Step:
    kind: str                 # let | check | assert | return
    name: str = ""
    verb: str = ""
    args: Dict[str, str] = field(default_factory=dict)
    raw: str = ""
    line: int = 0
    plan: tuple = ()          # (reader, text) per argument, ``VERBS`` order
    names: frozenset = frozenset()   # the bindings its plan reads
    cases: tuple = ()         # an assert's (guard, compiled group literal)


@dataclass
class Script:
    name: str
    params: List[str]
    steps: List[Step]
    requires: str = ""
    computes: Optional[Tuple[str, int]] = None   # (space name, degree)
    computes_line: int = 0
    rows: Optional[Tuple[str, range]] = None     # (param, reproduce values)
    params_line: int = 0


_LET_RE = re.compile(r"^let\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(\S+)\s*(.*)$")
_ASSERT_RE = re.compile(r"^assert\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$")
_PARAM_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_ROWS_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(\d+)\s*\.\.\s*(\d+)")


def parse_script(text: str, name_hint: str = "") -> Script:
    name = name_hint
    params: List[str] = []
    params_line = 0
    steps: List[Step] = []
    header = {}               # require | computes | rows -> (text, line)
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("derivation "):
            name = body.split(None, 1)[1].strip()
            continue
        if body.startswith("params "):
            params = [p.strip() for p in body.split(None, 1)[1].split(",")]
            params_line = lineno
            bad = [p for p in params if not _PARAM_RE.fullmatch(p)]
            if bad:     # a guard or an expression could not read it
                raise DeriveError(f"{name}:{lineno}: parameter {bad[0]!r} "
                                  "is not a name")
            continue
        where = f"{name}:{lineno}"
        named = swept_tokens(body)
        if named:
            # a script may read the tokens only through the facts it
            # consumes, where each read is recorded
            raise DeriveError(f"{where}: names the swept token(s) "
                              f"{', '.join(sorted(named))}")
        keyword, _, rest = body.partition(" ")
        if keyword in ("require", "computes", "rows") and rest:
            header[keyword] = (rest.strip(), lineno)
            continue
        m = _LET_RE.match(body)
        if m:
            nm, verb, rest = m.groups()
            steps.append(Step("let", nm, verb, _step_args(rest, "=", where),
                              body, lineno))
            continue
        m = _ASSERT_RE.match(body)
        if m:
            cases = m.group(2).strip()
            args = (_step_args(cases.strip("{}"), ":", where)
                    if cases.startswith("{") else {"": cases})
            compiled = []
            try:
                for guard, literal in args.items():
                    compile_guard(guard)
                    compiled.append((guard, parse_group_literal(literal)))
            except (KbError, TermError) as e:
                raise DeriveError(f"{where}: {e}") from e
            steps.append(Step("assert", m.group(1), "", args, body, lineno,
                              cases=tuple(compiled)))
            continue
        if body.startswith("check "):
            steps.append(Step("check", "", "check",
                              _step_args(body[6:], "=", where), body, lineno))
            continue
        if body.startswith("return "):
            steps.append(Step("return", body.split(None, 1)[1].strip(), "",
                              {}, body, lineno))
            continue
        raise DeriveError(f"{name}:{lineno}: unrecognized line {body!r}")
    if not name:
        raise DeriveError("script has no name")
    script = Script(name, params, steps, header.get("require", ("",))[0],
                    params_line=params_line)
    try:
        compile_guard(script.requires)
    except (KbError, TermError) as e:
        raise DeriveError(f"{name}:{header['require'][1]}: {e}") from e
    if "computes" in header:
        text, script.computes_line = header["computes"]
        try:
            # checked, like a fibration declaration, with every parameter 1
            space, k = space_at(text, dict.fromkeys(params, 1))
        except (DeriveError, TermError) as e:
            raise DeriveError(f"{name}:{script.computes_line}: malformed "
                              f"computes line: {e}") from e
        script.computes = (space.key.partition("(")[0], k)
    if "rows" in header:
        script.rows = _rows(script, *header["rows"])
    _check_steps(script, {})
    return script


def _rows(script: Script, text: str, lineno: int) -> Tuple[str, range]:
    """The reproduce range of ``rows <param>=<lo>..<hi>``, which must lie
    in the script's domain."""
    where = f"{script.name}:{lineno}"
    m = _ROWS_RE.fullmatch(text)
    try:
        values = m and range(read_int(m.group(2)), read_int(m.group(3)) + 1)
    except TermError as e:
        raise DeriveError(f"{where}: {e}") from e
    if not values:
        raise DeriveError(f"{where}: rows needs the form 'param=lo..hi' "
                          f"with lo <= hi")
    if m.group(1) not in script.params:
        raise DeriveError(f"{where}: rows parameter {m.group(1)!r} is not "
                          f"in params")
    if not all(guard_holds(script.requires, {m.group(1): v})
               for v in values):
        raise DeriveError(f"{where}: rows {text} leaves the domain "
                          f"{script.requires!r}")
    return m.group(1), values


def space_at(text: str, env: dict) -> Tuple[Space, int]:
    """The space and the degree of a ``space @ k`` argument such as
    ``L4(m) @ 5``; the degree is an integer."""
    space, found, k = (part.strip() for part in text.partition("@"))
    if not found or not k.isdigit():
        raise DeriveError(f"{text!r} is not of the form 'space @ k'")
    return parse_space(space, env), read_int(k)


def parse_group_literal(text: str):
    """The group literal ``Z/2 + Z/2^(r+1) + Z(2)`` or ``0``, compiled: a
    closure ``env -> TwoLocalGroup``."""
    orders = tuple(order and compile_int_expr(order) for order, _ in
                   cyclic_summands(text.strip(), labelled=False))
    return lambda env: TwoLocalGroup(
        [0 if order is None else order(env) for order in orders])


def _step_args(text: str, sep: str, where: str) -> Dict[str, str]:
    """The ``key<sep>value`` pieces of a step, separated by ';'; a key
    (an argument, or an assert case's guard) may not repeat."""
    args = {}
    for piece in filter(None, (p.strip() for p in text.split(";"))):
        key, found, value = piece.partition(sep)
        if not found:
            raise DeriveError(f"{where}: step argument {piece!r} needs "
                              f"key{sep}value form")
        key = key.strip()
        if key in args:
            raise DeriveError(f"{where}: repeated key {key!r}")
        args[key] = value.strip()
    return args


# the kinds of binding, and of arguments naming one; none takes a solution
GROUP, BOUNDARY, ELEMENT, INTEGER, SOLUTION = (
    "group", "boundary", "element", "integer", "solution")
# the kinds of argument read from text when the step runs (README.md)
TERM, TERMS, EXPR, SPACE, SPACE_AT, FIBRATION, SCRIPT = (
    "term", "terms", "expr", "space", "space @ k", "fibration", "script")


@dataclass(frozen=True)
class Verb:
    """What a verb takes and binds.  ``Runner._<verb>`` takes the args,
    read, in order (an absent one as None), then the rule context."""
    args: Dict[str, str]                  # key -> kind
    result: Optional[str] = None          # a run's is its script's
    # optional keys, given all or none of a group; ``none`` is not given
    optional: Tuple[Tuple[str, ...], ...] = ()
    params: bool = False      # also takes its script's params, as exprs


def _check_steps(script: Script, returns: Dict[str, str]) -> Optional[str]:
    """Check each step of ``script`` against ``VERBS``, set its ``plan``
    and ``names``, and give the kind ``script`` returns.  A ``run`` binds
    the kind that ``returns`` has for its script, or any kind."""
    kinds: Dict[str, Optional[str]] = {}
    bound = {st.name for st in script.steps if st.kind == "let"}

    def reader(kind, text) -> tuple:
        """The plan entry of ``text``, an argument of ``kind``, checked."""
        if kind == TERMS:
            return _READ[TERMS], tuple(reader(TERM, piece.strip())
                                       for piece in text.split(","))
        if kind == TERM and text in kinds:
            kind = ELEMENT
        elif kind == TERM and text in bound:
            raise DeriveError(f"{where}: {text!r} is bound only by this "
                              f"or a later step")
        if kind in (GROUP, BOUNDARY, ELEMENT, INTEGER, "returnable"):
            if text not in kinds:
                raise DeriveError(f"{where}: missing binding {text!r}")
            got = kinds[text]
            if got not in (None, kind) and (kind != "returnable" or
                                            got == SOLUTION):
                raise DeriveError(f"{where}: {text!r} is not "
                                  f"{'an' if kind[0] in 'aei' else 'a'} "
                                  f"{kind} binding")
            names.add(text)
            return _READ["binding"], text
        if kind == EXPR:
            try:
                unbound = unbound_names(text, script.params)
            except TermError as e:
                raise DeriveError(f"{where}: {e}") from e
            if unbound:
                raise DeriveError(f"{where}: {text!r} names "
                                  f"{', '.join(unbound)}, not in params")
        return _READ[kind], text

    returned = None
    for st in script.steps:
        where, names = f"{script.name}:{st.line}", set()
        if st.kind in ("assert", "return"):
            reader(GROUP if st.kind == "assert" else "returnable", st.name)
            for order in (o for case in st.args.values() for o, _ in
                          cyclic_summands(case, labelled=False) if o):
                reader(EXPR, order)
            returned = kinds[st.name] if st.kind == "return" else returned
            continue
        verb = VERBS.get(st.verb)
        if verb is None:
            raise DeriveError(f"{where}: unknown verb {st.verb!r}")
        extra = [k for k in st.args if k not in verb.args]
        if extra and not verb.params:
            raise DeriveError(f"{where}: {st.verb} takes no argument "
                              f"{extra[0]!r}")
        given = {k for k, v in st.args.items()
                 if v != "none" or not any(k in g for g in verb.optional)}
        for key in verb.args:
            group = next((g for g in verb.optional if key in g), ())
            if key not in given and (not group or given.intersection(group)):
                raise DeriveError(f"{where}: missing step argument {key!r}")
        plan = [reader(kind, st.args[key]) if key in given else
                (_READ["absent"], None) for key, kind in verb.args.items()]
        if verb.params:
            plan.append((_READ["params"], tuple(
                (k, reader(EXPR, st.args[k])) for k in extra)))
        st.plan, st.names = tuple(plan), frozenset(names)
        if st.kind == "let":
            kinds[st.name] = (returns.get(st.args.get("script"))
                              if verb.params else verb.result)
    return returned


def _fibration_key(text: str, env: dict) -> Tuple[str, Space]:
    """A ``fib=`` argument: its text, which errors quote, and its space."""
    space = parse_space(text, env)
    if space.kind != "named":
        raise DeriveError(f"bad fibration key {text!r}")
    return text, space


def _read(plan, catalog, env, bindings) -> list:
    """The values of the arguments ``plan`` reads (``Step.plan``)."""
    return [read(text, catalog, env, bindings) for read, text in plan]


_READ = {   # kind -> (text, catalog, env, bindings) -> the argument's value
    "absent": lambda t, cat, env, b: None,
    "binding": lambda t, cat, env, b: b[t],
    TERM: lambda t, cat, env, b: cat.parse_element(t, env),
    TERMS: _read,
    EXPR: lambda t, cat, env, b: eval_int_expr(t, env),
    SPACE: lambda t, cat, env, b: parse_space(t, env),
    SPACE_AT: lambda t, cat, env, b: space_at(t, env),
    FIBRATION: lambda t, cat, env, b: _fibration_key(t, env),
    SCRIPT: lambda t, cat, env, b: t,
    "params": lambda t, cat, env, b: {k: r(x, cat, env, b) for k, (r, x) in t},
}


def expected_group(step: Step, env: dict) -> TwoLocalGroup:
    """The group an ``assert`` step expects: the literal of its first case
    whose guard holds (a bare literal is the case with the empty guard)."""
    for guard, literal in step.cases:
        if guard_holds(guard, env):
            return literal(env)
    raise DeriveError(f"no case of {step.args} matches the parameters")


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    """One execution of a script; ``reads`` and ``subs`` decide which
    other token assignments it serves (``Runner._serves``)."""
    script: str
    env: dict                     # the parameters it was executed under
    ctx: object                   # and the rule context of its assignment
    value: object                 # PiGroup | Element | int
    transcript: str
    consumed: List[KbFact]
    reads: frozenset              # the swept tokens it read itself: its
    #                               citations'
    subs: tuple                   # (script, params, the value it
    #                               returned) of each subderivation, in order

    @property
    def group(self) -> TwoLocalGroup:
        if isinstance(self.value, PiGroup):
            return self.value.group
        raise DeriveError(f"{self.script} did not return a group")

    def transcript_digest(self) -> str:
        return hashlib.sha256(self.transcript.encode()).hexdigest()


@dataclass(frozen=True)
class _StepMemo:
    """One evaluation of a ``let`` step, kept for the assignments that
    agree on the tokens it read and give its inputs equal values."""
    value: object
    lines: tuple              # its transcript lines, citations included
    facts: tuple              # the facts it cited, in order
    reads: dict               # token -> the value it read itself; the run's
    #                           reads include these
    inputs: tuple             # the values of ``Step.names``, in that order


def _run_key(name: str, params: dict) -> tuple:
    """A run's script and its parameters."""
    return name, tuple(sorted(params.items()))


class Runner:
    """Executes derivation scripts against one catalog.

    ``run`` evaluates the script for each token assignment of the sweep
    grid, whose first is the canonical one, asserting that every later
    result agrees with the first; the transcript records the canonical
    run.  Without the sweep it evaluates the canonical assignment alone.

    Runs are cached by script and parameters, and executed under those
    and the rule context of their token assignment (``_ctx``), the one
    holder of the token values: contexts are cached by assignment, built
    when a run is first executed under one, and shared by every script
    and parameter.  A cached run serves every token assignment that
    agrees with it on the tokens it read itself (``RunResult.reads``)
    and under which each subderivation it ran, asked again, returns the
    value it used (``_serves``); any other assignment is executed.  This
    is early cutoff at the level of runs, with subderivations as their
    dependencies: a run that reads no token itself is executed once for
    every distinct set of values its subderivations return, not once for
    every assignment of the tokens they read.

    A run that is executed replays each ``let`` step from the step memo
    (``_steps``) when an earlier evaluation of that step, under the same
    script and parameters, agrees with it on every token the step read
    itself and had inputs of equal value (``_let``).  So a run
    re-executed for one token-reading step re-evaluates only the steps
    whose inputs that token changes: a step whose inputs come out equal
    is served again, which Mokhov, Mitchell and Peyton Jones ("Build
    systems a la carte", ICFP 2018) call early cutoff.  A ``run`` step
    is never served from this memo: it asks ``_run_cached`` again, which
    is the memo of runs.  The memo and the keys of the values both memos
    compare (``_keys``) are cleared when ``run`` returns or raises: after
    a sweep the run cache serves every (script, parameters) pair it
    executed under every assignment, so a step memo kept longer would
    not be hit.

    An execution that raises is not cached as a run, but its error is
    kept, by script, parameters and assignment, until ``run`` returns or
    raises: asked again in that time, as ``_serves`` and then the
    caller's own ``run`` step ask, it raises the same error without
    executing again, which is exact since an execution is a function of
    its parameters and context.
    """

    def __init__(self, catalog: KbCatalog, scripts: Dict[str, Script]):
        self.catalog = catalog
        self.scripts = scripts
        self._cache: Dict[tuple, List[RunResult]] = {}
        self._ctx_cache: Dict[tuple, object] = {}
        self._steps: Dict[tuple, List[_StepMemo]] = {}
        self._keys: Dict[int, tuple] = {}   # id -> (value, _value_key)
        # (script, parameters, assignment) -> the error its execution raised
        self._errors: Dict[tuple, Exception] = {}

    # -- public -----------------------------------------------------------

    def run(self, name: str, params: dict, sweep: bool = True) -> RunResult:
        result = canonical = None
        try:
            for assign in SWEEP_GRID if sweep else (CANONICAL_TOKENS,):
                got = self._run_cached(name, params, assign)
                comparable = _sweep_shape(got.value)
                if result is None:
                    result, canonical = got, comparable
                elif comparable != canonical:
                    raise DeriveError(
                        f"{name}{params}: result depends on the ambiguous "
                        f"tokens {assign}: {comparable} != {canonical}")
        finally:
            # a swept pair is now in the run cache under every assignment
            self._steps.clear()
            self._keys.clear()
            self._errors.clear()
        return result

    # -- internals ----------------------------------------------------------

    def _ctx(self, assign):
        """The cached rule context of the token assignment ``assign``,
        shared by every run: each step collects its own citations
        (``citing``), so a ``run`` subderivation's stay in its own
        transcript."""
        key = tuple(assign[t] for t in SWEPT_TOKENS)
        ctx = self._ctx_cache.get(key)
        if ctx is None:
            ctx = self._ctx_cache[key] = self.catalog.rule_context(assign)
        return ctx

    def _run_cached(self, name: str, params: dict, assign: dict) -> RunResult:
        """A cached run of ``name`` with ``params`` that serves the token
        assignment ``assign`` (``_serves``), or a new one."""
        key = _run_key(name, params)
        runs = self._cache.setdefault(key, [])
        for hit in runs:
            if self._serves(hit, assign):
                return hit
        failed = (key, tuple(sorted(assign.items())))
        if failed in self._errors:
            raise self._errors[failed]
        try:
            result = self._execute(name, params, self._ctx(assign))
        except STEP_ERRORS as e:
            self._errors[failed] = e
            raise
        runs.append(result)
        return result

    def _serves(self, hit: RunResult, assign: dict) -> bool:
        """Whether executing ``hit``'s script under ``assign`` would give
        ``hit``: ``assign`` agrees with it on the tokens it read itself,
        and each subderivation it ran, asked again under ``assign``,
        returns the value it used, the same object or one of equal
        ``_value_key``.  A subderivation that raises serves nothing: the
        caller is executed, so that its ``run`` step reports the error,
        which ``_run_cached`` raises again without executing."""
        if any(hit.ctx.values[t] != assign[t] for t in hit.reads):
            return False
        for script, params, value in hit.subs:
            try:
                got = self._run_cached(script, params, assign).value
            except STEP_ERRORS:
                return False
            if got is not value and self._key(got) != self._key(value):
                return False
        return True

    def _execute(self, name: str, params: dict, ctx) -> RunResult:
        script = self.scripts.get(name)
        if script is None:
            raise DeriveError(f"unknown derivation script {name!r}")
        for p in script.params:
            if p not in params:
                raise DeriveError(f"{name}: missing parameter {p!r}")
        if script.requires and not guard_holds(script.requires, params):
            raise DeriveError(f"{name}: parameters violate {script.requires!r}")
        facts: List[KbFact] = []
        lines: List[str] = [f"derivation {name} " + " ".join(
            f"{p}={params[p]}" for p in script.params)]
        subs = []
        bindings = {}
        key = _run_key(name, params)
        ret: Optional[object] = None
        # ``_check_steps`` saw that each step reads bindings of its kinds
        for idx, step in enumerate(script.steps, start=1):
            if step.kind == "let":
                try:
                    memo = self._let(key, idx, step, params, ctx, bindings)
                except STEP_ERRORS as e:
                    # errors carry the failing step's position
                    raise type(e)(
                        f"{name} step {idx} ({step.verb}): {e}") from e
                lines.extend(memo.lines)
                facts.extend(memo.facts)
                bindings[step.name] = memo.value
                if step.verb == "run":
                    subs.append((*_read(step.plan, None, params, None),
                                 memo.value))
            elif step.kind == "check":
                _, cited = ctx.citing(self._eval_step, step, params, ctx,
                                      bindings)
                facts.extend(cited)
                lines.append(f"  step {idx}: {step.raw}  [ok]")
                lines.extend(f"    uses {fact.note()}" for fact in cited)
            elif step.kind == "assert":
                got = bindings[step.name].group
                want = expected_group(step, params)
                if got != want:
                    raise AssertionMismatch(
                        f"{name}{_fmt_env(params, script.params)}: computed "
                        f"{got.render()} but expected {want.render()}")
                lines.append(f"  step {idx}: {step.raw}  [ok]")
            else:
                ret = bindings[step.name]
                lines.append(f"  step {idx}: {step.raw}")
        if ret is None:
            raise DeriveError(f"{name}: no terminal group (missing return)")
        lines.append(f"  result: {ret.group.render()}" if isinstance(
            ret, PiGroup) else f"  result: {_render_value(ret)}")
        return RunResult(name, dict(params), ctx, ret,
                         "\n".join(lines) + "\n", facts,
                         frozenset().union(*(f.tokens for f in facts)),
                         tuple(subs))

    def _let(self, key, idx, step, params, ctx, bindings) -> _StepMemo:
        """Step ``idx`` of the run ``key``, a ``let``: a memoised evaluation
        that agrees with ``ctx`` on every token it read and whose inputs,
        the bindings the step names, had values equal to theirs now; or a
        new one.

        The tokens it read itself are those of the facts it cited (exact
        by the argument in ``rewrite.RuleContext``); it reads everything
        else through its inputs, since its handler gets only what its plan
        reads.  Under any assignment that agrees on those tokens and gives
        equal inputs it computes the same value, transcript lines and
        citations, which the caller replays as a fresh evaluation would
        emit them.  An input is compared by identity first, since a
        replayed binding is the very value of its memo, and by
        ``_value_key`` only when that fails.  A ``run`` step is evaluated
        every time and not kept: its value is the subderivation's, which
        ``_run_cached`` serves, and its lines start with the one naming it.
        """
        inputs, tokens = tuple(map(bindings.get, step.names)), ctx.values
        entries = self._steps.setdefault(key + (step.line,), [])
        for memo in entries:
            if all(tokens[t] == v for t, v in memo.reads.items()) and all(
                    a is b or self._key(a) == self._key(b)
                    for a, b in zip(memo.inputs, inputs)):
                return memo
        value, facts = ctx.citing(self._eval_step, step, params, ctx,
                                  bindings)
        read = frozenset().union(*(f.tokens for f in facts))
        lines = []
        if step.verb == "run":
            script, sub = _read(step.plan, None, params, None)
            lines.append(f"    (subderivation {script} {sub} -> "
                         f"{_render_value(value)})")
        lines.append(f"  step {idx}: {step.raw}")
        lines.append(f"    = {_render_value(value)}")
        lines.extend(f"    uses {fact.note()}" for fact in facts)
        memo = _StepMemo(value, tuple(lines), tuple(facts),
                         {t: tokens[t] for t in read}, inputs)
        if step.verb != "run":    # ``_run_cached`` is the memo of runs
            entries.append(memo)
        return memo

    def _key(self, value) -> tuple:
        """``_value_key(value)``, computed once per value until ``run``
        clears the step memo; the entry holds the value, so its id is not
        reused."""
        hit = self._keys.get(id(value))
        if hit is None:
            hit = self._keys[id(value)] = (value, _value_key(value))
        return hit[1]

    # -- verbs: see ``Verb`` ---------------------------------------------

    def _eval_step(self, step, params, ctx, bindings):
        """Apply the verb of ``step`` to the arguments its plan reads."""
        return getattr(self, "_" + step.verb)(
            *_read(step.plan, self.catalog, params, bindings), ctx)

    def _group(self, space, k, ctx):
        return pi_group_from_fact(self.catalog, space, k, ctx)

    def _fiber_group(self, fib, k, attach, ctx) -> PiGroup:
        """pi_k of a fiber, read off its declared wedge skeleton, which must
        be the filtration stage holding every cell of dimension <= k+1."""
        key, space = fib
        rule = fibration(self.catalog, *space.data, attach=attach)
        _, _, skeleton = self.catalog.fibration_maps(rule.head, rule.params)
        if skeleton is None:
            raise DeriveError(f"fibration {key} declares no skeleton")
        _, st = filtration.skeleton_of_fiber(filtration.MapSpec(rule.f),
                                             k + 1, ctx)
        if st.space != skeleton.source:
            raise DeriveError(
                f"unexpected fiber skeleton {st.space_name} for {key}")
        base = pi_group_from_fact(self.catalog, st.space, k, ctx)
        return push_forward(base, skeleton, skeleton.target, ctx)

    def _run(self, script, params, ctx):
        return self._run_cached(script, params, ctx.values).value

    def _boundary(self, fib, k, target, strip, attach, ctx):
        rule = fibration(self.catalog, *fib[1].data, attach=attach)
        source = pi_group_from_fact(self.catalog, rule.base, k, ctx)
        return boundary_hom(self.catalog, rule, k, source, target, ctx,
                            strip=strip)

    def _cokernel(self, of, _ctx):
        if of.hom is None:
            raise DeriveError("cokernel needs a materialized target")
        g, proj = group_cokernel(of.hom)
        return derived_pi_group(of.target, g, proj)

    def _kernel(self, of, _ctx):
        if of.hom is None:
            if not of.is_zero():
                raise DeriveError("kernel of a non-materialized boundary")
            return of.source
        g, incl = group_kernel(of.hom)
        protos = []
        for j in range(g.rank):
            vec = tuple(incl.matrix.rows[i][j]
                        for i in range(of.source.group.rank))
            elem = _element_from_chart(of.source, vec)
            unit = tuple(1 if i == j else 0 for i in range(g.rank))
            protos.append((elem, unit))
        return PiGroup(g.with_labels([p[0].render() for p in protos]),
                       of.source.space, of.source.degree, protos)

    def _push(self, of, via, space, ctx):
        return push_forward(of, via, space, ctx)

    def _quotient(self, of, by, push, space, ctx):
        g, proj = quotient_by_elements(of.group, [list(express(by, of, ctx))])
        out = derived_pi_group(of, g, proj)
        return out if push is None else push_forward(out, push, space, ctx)

    def _stage_bracket(self, f, stage, ctx):
        model = filtration.build_filtration(filtration.MapSpec(f), stage, ctx)
        gamma = model.stages[stage - 1].gamma
        if gamma is None:
            raise DeriveError("stage 1 has no attaching class")
        return gamma

    def _push_bracket(self, mapel, of, ctx):
        return rewrite.naturality_push(mapel, of, ctx)

    def _restrict_bracket(self, of, by, ctx):
        return rewrite.bracket_restrict(of, by, ctx)

    def _resolve_triple(self, of, ambient, ctx):
        group = pi_group_from_fact(self.catalog, *ambient, ctx)
        return rewrite.resolve_triple(of, group.group, ctx)

    def _pair_map(self, first, second, _ctx):
        return Element.from_term(Word((Pair(first, second),)))

    def _whitehead(self, space, right, ctx):
        return rewrite.whitehead(Element.identity(space), right, ctx)

    def _scaled_generator(self, group, gen, coeff, ctx):
        i = _find_generator(group, gen, ctx)
        return rewrite.normalize(group.generator_element(i).scale(coeff), ctx)

    def _assert_coeff(self, value, want, _ctx):
        if abs(value) != want:
            raise AssertionMismatch(
                f"coefficient {value} does not have absolute value {want}")
        return value

    def _check(self, mapel, withel, want, ctx):
        """Verify a composition identity on the nose (commuting square)."""
        lhs = rewrite.normalize(rewrite.compose(mapel, withel, ctx), ctx)
        rhs = rewrite.normalize(want, ctx)
        if lhs.key() != rhs.key():
            raise AssertionMismatch(
                f"check failed: {lhs.render()} != {rhs.render()}")

    def _extension(self, sub, quot, certs, ctx) -> PiGroup:
        if quot.group.is_trivial():
            return sub
        if certs is None:
            raise ExtensionUnresolved(
                "extension unresolved: no certificate source named for "
                + ", ".join(quot.group.label(i)
                            for i in range(quot.group.rank)))
        space, degree = certs
        certs = []
        lifts = []
        for i in range(quot.group.rank):
            gen = quot.generator_element(i)
            found = self._find_lift(space, degree, gen, ctx)
            if found is None:
                raise ExtensionUnresolved(
                    f"extension unresolved: no lift certificate for "
                    f"{gen.render()} over {space.key} in degree {degree}")
            lift_el, order, rel_el = found
            rel_vec = None
            if rel_el is not None:
                rel_vec = express(rel_el, sub, ctx)
            certs.append(LiftCertificate(i, order, lift_el.render(), rel_vec))
            lifts.append(lift_el)
        group, chart = solve_extension(ExtensionProblem(
            sub.group, quot.group, tuple(certs)))
        ns, nq = sub.group.rank, quot.group.rank
        protos = [(elp, chart.apply(vec + (0,) * nq))
                  for elp, vec in sub.protos]
        for j, lift_el in enumerate(lifts):
            unit = [0] * (ns + nq)
            unit[ns + j] = 1
            protos.append((rewrite.normalize(lift_el, ctx), chart.apply(unit)))
        return PiGroup(group, sub.space, sub.degree, protos)

    def _find_lift(self, space, degree, gen, ctx):
        """(lift element, order, relation element or None) from the catalog."""
        for cert, penv in self.catalog.lift_certificates(space, degree, ctx):
            if rewrite.normalize(cert.element, ctx).key() != \
                    rewrite.normalize(gen, ctx).key():
                continue
            ctx.cite(cert.fact)
            if cert.payload[0] == "transport":
                _, via_text, base_text = cert.payload
                via = self.catalog.parse_element(via_text, penv)
                base_space = parse_space(base_text, penv)
                base = self._find_lift(base_space, degree, gen, ctx)
                if base is None:
                    raise ExtensionUnresolved(
                        f"extension unresolved: transported certificate for "
                        f"{gen.render()} has no base over {base_space.key}")
                base_lift, base_order, base_rel = base
                if base_rel is not None:
                    raise KbError("cannot transport a relation certificate")
                # order forcing: the image of the lift still maps onto the
                # generator, so its order is squeezed to the base order
                lifted = rewrite.normalize(
                    rewrite.compose(via, base_lift, ctx), ctx)
                return lifted, base_order, None
            _, lift_text, order, rel_text = cert.payload
            lift_el = self.catalog.parse_element(lift_text, penv)
            rel_el = (self.catalog.parse_element(rel_text, penv)
                      if rel_text else None)
            return rewrite.normalize(lift_el, ctx), order, rel_el
        return None

    def _solve_free(self, base, target, mapel, free_gen, value, ctx):
        """Coefficient of the free generator from a comparison-map equation.

        The comparison map kills every torsion generator (checked), so
        the image of a * g1 + b * free + c * g3 determines b by exact
        division in the torsion-free target.
        """
        free_i = _find_generator(base, free_gen, ctx)
        img_free = None
        for i in range(base.group.rank):
            img = rewrite.compose(mapel, base.generator_element(i), ctx)
            v = express(img, target, ctx)
            if i == free_i:
                img_free = v
            elif any(v):
                raise DeriveError(
                    f"torsion generator {base.group.label(i)} survives in the "
                    "torsion-free target; the coefficient is not isolated")
        want = express(value, target, ctx)
        qs = set()
        for a, b in zip(want, img_free):
            if b == 0:
                if a != 0:
                    raise DeriveError("value is not a multiple of the image")
                continue
            if a % b:
                raise DeriveError("value is not an exact multiple of the image")
            qs.add(a // b)
        if len(qs) != 1:
            raise DeriveError(f"inconsistent coefficient candidates {qs}")
        return qs.pop()

    def _suspension_kill(self, base, target, free_gen, b, ctx):
        """Solve Sigma(a*g1 + b*free + c*g3) = 0 over the torsion coefficients.

        Returns the unique (a, c, ...) assignment; raises when the kill is
        not unique or nonzero coefficients are forced.
        """
        target = pi_group_from_fact(self.catalog, *target, ctx)
        free_i = _find_generator(base, free_gen, ctx)
        torsion = [i for i in range(base.group.rank)
                   if i != free_i and base.group.orders[i] != 0]
        if any(base.group.orders[i] > 2 for i in torsion):
            raise DeriveError("torsion coefficient ranges beyond Z/2 are not "
                              "implemented")
        images = {i: rewrite.suspend(base.generator_element(i), ctx)
                  for i in range(base.group.rank)}
        solutions = []
        n = len(torsion)
        for mask in range(2**n):
            coeffs = {torsion[j]: (mask >> j) & 1 for j in range(n)}
            total = images[free_i].scale(b)
            for i, c in coeffs.items():
                if c:
                    total = total + images[i]
            vec = express(total, target, ctx)
            if not any(vec):
                solutions.append(tuple(coeffs[i] for i in torsion))
        if solutions != [tuple(0 for _ in torsion)]:
            raise AssertionMismatch(
                f"suspension equation does not force zero coefficients: "
                f"{solutions}")
        return solutions[0]


# the verbs of the scripts and the arguments each takes, in the order its
# handler does; README.md lists them
VERBS = {
    "group": Verb({"space": SPACE, "k": EXPR}, GROUP),
    "fiber_group": Verb({"fib": FIBRATION, "k": EXPR, "attach": TERM}, GROUP,
                        (("attach",),)),
    "run": Verb({"script": SCRIPT}, params=True),
    "boundary": Verb({"fib": FIBRATION, "k": EXPR, "target": GROUP,
                      "strip": TERM, "attach": TERM}, BOUNDARY,
                     (("target",), ("strip",), ("attach",))),
    "cokernel": Verb({"of": BOUNDARY}, GROUP),
    "kernel": Verb({"of": BOUNDARY}, GROUP),
    "push": Verb({"of": GROUP, "via": TERM, "space": SPACE}, GROUP),
    "quotient": Verb({"of": GROUP, "by": TERM, "push": TERM, "space": SPACE},
                     GROUP, (("push", "space"),)),
    "extension": Verb({"sub": GROUP, "quot": GROUP, "certs": SPACE_AT}, GROUP,
                      (("certs",),)),
    "stage_bracket": Verb({"f": TERM, "stage": EXPR}, ELEMENT),
    "push_bracket": Verb({"map": TERM, "of": ELEMENT}, ELEMENT),
    "restrict_bracket": Verb({"of": ELEMENT, "by": TERMS}, ELEMENT),
    "resolve_triple": Verb({"of": ELEMENT, "ambient": SPACE_AT}, ELEMENT),
    "pair_map": Verb({"first": TERM, "second": TERM}, ELEMENT),
    "whitehead": Verb({"id": SPACE, "right": TERM}, ELEMENT),
    "solve_free": Verb({"group": GROUP, "target": GROUP, "map": TERM,
                        "free": TERM, "value": ELEMENT}, INTEGER),
    "suspension_kill": Verb({"group": GROUP, "target": SPACE_AT, "free": TERM,
                             "coeff": INTEGER}, SOLUTION),
    "scaled_generator": Verb({"group": GROUP, "gen": TERM, "coeff": INTEGER},
                             ELEMENT),
    "assert_coeff": Verb({"of": INTEGER, "abs": EXPR}, INTEGER),
    "check": Verb({"map": TERM, "with": TERM, "equals": TERM}),
}


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _element_from_chart(pig: PiGroup, vec) -> Element:
    """The element of ``pig`` with chart ``vec``.  Its one caller passes
    the inclusion column of a kernel generator, which has a nonzero
    entry: the generator has order 0 or at least 2, so it is not zero,
    the inclusion is injective, and a hom reduces each entry modulo its
    target order."""
    out = None
    for i, c in enumerate(vec):
        if c:
            piece = pig.generator_element(i).scale(c)
            out = piece if out is None else out + piece
    return out


def _find_generator(pig: PiGroup, gen: Element, ctx) -> int:
    want = rewrite.normalize(gen, ctx).key()
    for i in range(pig.group.rank):
        if rewrite.normalize(pig.generator_element(i), ctx).key() == want:
            return i
    raise DeriveError(f"generator {gen.render()} not found in "
                      f"{pig.group.describe()}")


def _value_key(value) -> tuple:
    """Everything a step can observe of a binding value, in a form that
    ``==`` compares in full.  It lists what the types' own ``__eq__``
    leaves out: ``TwoLocalGroup`` ignores labels and ``Word.key()``
    ignores spaces.  A binding of any other type is an error."""
    if value.__class__ is int:
        return ("int", value)
    if isinstance(value, Element):
        return ("element", value.source, value.target,
                tuple((_term_key(t), c) for t, c in value.terms))
    if isinstance(value, PiGroup):
        return ("group", _group_key(value.group), value.space, value.degree,
                tuple((_value_key(el), vec) for el, vec in value.protos))
    if isinstance(value, Boundary):
        hom = value.hom
        return ("boundary", _value_key(value.source),
                None if value.target is None else _value_key(value.target),
                tuple(map(_value_key, value.values)),
                None if hom is None else (_group_key(hom.source),
                                          _group_key(hom.target),
                                          hom.matrix.rows))
    raise DeriveError(f"no value key for a {type(value).__name__} binding")


def _term_key(term) -> tuple:
    """A term with its spaces, symbols (``Sym`` compares every field) and
    the bracket slots and pair components as ``_value_key``."""
    if isinstance(term, Bracket):
        return ("bracket", tuple(map(_value_key, term.slots)))
    return ("word", term.space, tuple(
        ("pair", _value_key(s.f), _value_key(s.g)) if isinstance(s, Pair)
        else s for s in term.syms))


def _group_key(group: TwoLocalGroup) -> tuple:
    return group.orders, group.labels


def _sweep_shape(value):
    """What the sweep compares: a group's orders, an element's terms with
    the 2-part of their coefficients (the swept sign may flip them), or
    the value itself."""
    if isinstance(value, PiGroup):
        return value.group.orders
    if isinstance(value, Element):
        return tuple(sorted((t.render(), abs(strip_odd(c)))
                            for t, c in value.terms))
    return value


def _render_value(v) -> str:
    if isinstance(v, PiGroup):
        return v.group.describe()
    if isinstance(v, Element):
        return v.render()
    if isinstance(v, Boundary):
        if v.is_zero():
            return "boundary = 0"
        return "boundary " + "; ".join(x.render() for x in v.values)
    return repr(v)


def _fmt_env(env, params):
    return "(" + ", ".join(f"{p}={env[p]}" for p in params) + ")"


@functools.cache
def load_scripts() -> Dict[str, Script]:
    """The shipped derivations, read, parsed and linked once per process
    (callers share the dict and do not mutate it)."""
    data = resources.files("conechase").joinpath("data")
    return link_scripts(
        parse_script(entry.read_text(), name_hint=entry.name[:-6])
        for entry in sorted(data.iterdir()) if entry.name.endswith(".deriv"))


def link_scripts(scripts: Iterable[Script]) -> Dict[str, Script]:
    """Scripts by name in reproduce order, checked against each other.

    A script follows every script it runs, which must be one of
    ``scripts`` and is given exactly its ``params``; scripts at the same
    depth are ordered by their ``computes`` target, space then degree,
    and no two share a target.  Steps are checked again, each ``run``
    binding what its script returns.
    """
    by_name = {script.name: script for script in scripts}
    depth: Dict[str, int] = {}

    def depth_of(script: Script, path=()) -> int:
        if script.name in path:
            raise DeriveError(f"{script.name} runs itself via {path[-1]}")
        if script.name not in depth:
            subs = [-1]
            for step in (st for st in script.steps if st.verb == "run"):
                run = f"{script.name}:{step.line}: run"
                name = step.args.get("script")
                sub = by_name.get(name)
                if sub is None:
                    raise DeriveError(f"{run} names no loaded script {name!r}")
                given = [k for k in step.args if k != "script"]
                if sorted(given) != sorted(sub.params):
                    raise DeriveError(f"{run} gives {name} {given}; its "
                                      f"params are {sub.params}")
                subs.append(depth_of(sub, path + (script.name,)))
            depth[script.name] = 1 + max(subs)
        return depth[script.name]

    targets: Dict[tuple, Script] = {}
    for script in by_name.values():
        first = targets.setdefault(script.computes, script)
        if script.computes and first is not script:
            raise DeriveError(f"{script.name}:{script.computes_line}: "
                              f"computes the target of {first.name}")
    order = sorted(by_name.values(), key=lambda s: (
        depth_of(s), s.computes or ("", 0), s.name))
    returns: Dict[str, str] = {}
    for script in order:
        returns[script.name] = _check_steps(script, returns)
    return {script.name: script for script in order}


def scenarios(scripts: Dict[str, Script]) -> Dict[Tuple[str, int], Script]:
    """The ``compute`` scenarios: each declared (space, degree) target and
    the script that computes it."""
    return {s.computes: s for s in scripts.values() if s.computes}


def reproduce_rows(scripts: Dict[str, Script]) -> List[Tuple[str, dict]]:
    """The ``reproduce`` grid: each script's ``rows``, in script order."""
    return [(s.name, {s.rows[0]: v}) for s in scripts.values() if s.rows
            for v in s.rows[1]]


def default_catalog() -> KbCatalog:
    """The shipped catalog, with memos of its own (``KbCatalog.view``).

    The file is read, checked and compiled once per process, and the
    symbols its registry interns live as long; the parses and normal
    forms belong to the view, so they live as long as the command that
    asked for it."""
    return _shipped_catalog().view()


@functools.cache
def _shipped_catalog() -> KbCatalog:
    path = resources.files("conechase").joinpath("data/paper.facts")
    with resources.as_file(path) as p:
        return load_catalog(p)
