"""Derivation scripts: replayable exact-sequence chases with transcripts.

A derivation is a list of named steps in a small line-oriented format,
one step per line:

    derivation pi5_L4m
    params m
    let F5 = fiber_group fib=F_pL(m); k=5
    let d6 = boundary fib=F_pL(m); k=6; target=F5
    ...
    assert ans = { m=0 : Z(2) ; m=1 : Z(2) + Z/4 ; m>=2 : Z(2) + Z/2 + Z/2 }
    return ans

``fib=`` names a fibration declared in the catalog; one that declares no
attaching class takes it from ``attach=`` (``boundary fib=FM(r);
attach=g3; ...``), and a class from both places or from neither is an
error.  Malformed step arguments are reported with their line.

Every run records each step, every certified fact it consumed (with its
citation), and the catalog digest; replays are byte-identical.  Runs are
swept over the ambiguous tokens (sign, eps and the opaque integers x, y)
and must produce identical groups for every assignment -- the group
tables are independent of all of them.

A run reads a token only through the payload of a fact it consumes (a
script that names one is rejected at parse time), so it also records the
tokens it consumed: those of its facts, of its ``run`` subderivations,
and of the one fact its rule context reads uncited.  Under any assignment
that agrees on those tokens it takes the same path to the same value and
transcript, so one cached run serves every such assignment of the sweep.
"""

from __future__ import annotations

import copy
import functools
import hashlib
import re
from dataclasses import dataclass, field
from importlib import resources
from typing import Dict, List, Optional

from .groups import (
    ExtensionProblem,
    ExtensionUnresolved,
    GroupError,
    LiftCertificate,
    TwoLocalGroup,
    cokernel as group_cokernel,
    extension_with_relations,
    kernel as group_kernel,
    quotient_by_elements,
    solve_extension,
    strip_odd,
)
from .kb import (
    SWEPT_TOKENS,
    KbCatalog,
    KbError,
    KbFact,
    guard_holds,
    load_catalog,
    swept_tokens,
)
from .les import (
    Boundary,
    LesError,
    PiGroup,
    boundary_hom,
    derived_pi_group,
    direct_sum_pi,
    express,
    fibration,
    pi_group_from_fact,
    push_forward,
)
from .terms import (
    Element,
    Pair,
    TermError,
    Word,
    eval_int_expr,
    parse_space,
)
from . import filtration, rewrite


class DeriveError(ValueError):
    pass


class AssertionMismatch(DeriveError):
    """A computed group disagrees with the asserted expectation."""


CANONICAL_TOKENS = {"sign": 1, "eps": 0, "x": 0, "y": 1}
SWEEP_GRID = [
    {"sign": s, "eps": e, "x": x, "y": y}
    for s in (1, -1) for e in (0, 1) for x in (0, -1) for y in (1, -3)
]


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


@dataclass
class Script:
    name: str
    params: List[str]
    steps: List[Step]
    requires: str = ""


_LET_RE = re.compile(r"^let\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(\S+)\s*(.*)$")
_ASSERT_RE = re.compile(r"^assert\s+([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$")


def parse_script(text: str, name_hint: str = "") -> Script:
    name = name_hint
    params: List[str] = []
    steps: List[Step] = []
    requires = ""
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("derivation "):
            name = body.split(None, 1)[1].strip()
            continue
        if body.startswith("params "):
            params = [p.strip() for p in body.split(None, 1)[1].split(",")]
            continue
        where = f"{name}:{lineno}"
        named = swept_tokens(body)
        if named:
            # a script may read the tokens only through the facts it
            # consumes, where each read is recorded
            raise DeriveError(f"{where}: names the swept token(s) "
                              f"{', '.join(sorted(named))}")
        if body.startswith("require "):
            requires = body.split(None, 1)[1].strip()
            continue
        m = _LET_RE.match(body)
        if m:
            nm, verb, rest = m.groups()
            steps.append(Step("let", nm, verb, _step_args(rest, "=", where),
                              body))
            continue
        m = _ASSERT_RE.match(body)
        if m:
            cases = m.group(2).strip()
            args = (_step_args(cases.strip("{}"), ":", where)
                    if cases.startswith("{") else {"": cases})
            steps.append(Step("assert", m.group(1), "", args, body))
            continue
        if body.startswith("check "):
            steps.append(Step("check", "", "",
                              _step_args(body[6:], "=", where), body))
            continue
        if body.startswith("return "):
            steps.append(Step("return", body.split(None, 1)[1].strip(), "",
                              {}, body))
            continue
        raise DeriveError(f"{name}:{lineno}: unrecognized line {body!r}")
    if not name:
        raise DeriveError("script has no name")
    return Script(name, params, steps, requires)


def parse_group_literal(text: str, env: dict) -> TwoLocalGroup:
    """``Z/2 + Z/2^r + Z(2)`` or ``0``."""
    text = text.strip()
    if text == "0":
        return TwoLocalGroup([])
    orders = []
    for part in text.split("+"):
        part = part.strip()
        if part == "Z(2)":
            orders.append(0)
        elif part.startswith("Z/"):
            orders.append(eval_int_expr(part[2:], env))
        else:
            raise DeriveError(f"bad group literal {part!r}")
    return TwoLocalGroup(orders)


def _step_args(text: str, sep: str, where: str) -> Dict[str, str]:
    """The ``key<sep>value`` pieces of a step, separated by ';'."""
    args = {}
    for piece in filter(None, (p.strip() for p in text.split(";"))):
        key, found, value = piece.partition(sep)
        if not found:
            raise DeriveError(f"{where}: step argument {piece!r} needs "
                              f"key{sep}value form")
        args[key.strip()] = value.strip()
    return args


def parse_group_cases(cases: Dict[str, str], env: dict) -> TwoLocalGroup:
    """The group literal of the first case whose guard holds (a bare
    literal is the case with the empty guard)."""
    for guard, lit in cases.items():
        if guard_holds(guard, env):
            return parse_group_literal(lit, env)
    raise DeriveError(f"no case of {cases} matches the parameters")


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

@dataclass
class RunResult:
    script: str
    env: dict                     # the environment it was executed under
    value: object                 # PiGroup | Element | int
    transcript: str
    consumed: List[KbFact]
    tokens: frozenset             # the swept tokens it depends on

    @property
    def group(self) -> TwoLocalGroup:
        if isinstance(self.value, PiGroup):
            return self.value.group
        raise DeriveError(f"{self.script} did not return a group")

    def transcript_digest(self) -> str:
        return hashlib.sha256(self.transcript.encode()).hexdigest()


class Runner:
    """Executes derivation scripts against one catalog.

    ``run`` evaluates the script for the canonical token assignment and
    for the full sweep grid, asserting that the resulting groups agree;
    the transcript records the canonical run.

    Runs are cached by script and parameters.  A cached run serves every
    token assignment that agrees with it on the tokens it consumed
    (``RunResult.tokens``), since such a run is the same under all of
    them; any other assignment is executed.  A run that consumes no
    token fact is therefore executed once for the whole sweep.  Rule
    contexts are cached by token assignment and shared by every script
    and parameter.
    """

    def __init__(self, catalog: KbCatalog, scripts: Dict[str, Script]):
        self.catalog = catalog
        self.scripts = scripts
        self._cache: Dict[tuple, List[RunResult]] = {}
        self._ctx_cache: Dict[tuple, object] = {}

    # -- public -----------------------------------------------------------

    def run(self, name: str, params: dict, sweep: bool = True) -> RunResult:
        base_env = dict(CANONICAL_TOKENS)
        base_env.update(params)
        result = self._run_cached(name, base_env)
        if sweep:
            canonical = _sweep_shape(result.value)
            for assign in SWEEP_GRID:
                other = self._run_cached(name, dict(base_env, **assign))
                comparable = _sweep_shape(other.value)
                if comparable != canonical:
                    raise DeriveError(
                        f"{name}{params}: result depends on the ambiguous "
                        f"tokens {assign}: {comparable} != {canonical}")
        return result

    # -- internals ----------------------------------------------------------

    def _ctx(self, env):
        """A per-run view of the cached rule context for the tokens of
        ``env``: the memoised rules are shared, the fact-recording hook is
        the run's own, so a ``run`` sub-derivation that shares its parent's
        context records its citations in its own transcript only."""
        key = tuple(env[t] for t in SWEPT_TOKENS)
        ctx = self._ctx_cache.get(key)
        if ctx is None:
            ctx = self.catalog.rule_context(env)
            self._ctx_cache[key] = ctx
        view = copy.copy(ctx)
        view.on_rule = None
        return view

    def _run_cached(self, name: str, env: dict) -> RunResult:
        """A cached run of ``name`` with the parameters of ``env`` that
        agrees with ``env`` on the tokens it consumed, or a new one."""
        key = (name, tuple(sorted((k, v) for k, v in env.items()
                                  if k not in SWEPT_TOKENS)))
        runs = self._cache.setdefault(key, [])
        for hit in runs:
            if all(hit.env[t] == env.get(t) for t in hit.tokens):
                return hit
        result = self._execute(name, env)
        runs.append(result)
        return result

    def _execute(self, name: str, env: dict) -> RunResult:
        script = self.scripts.get(name)
        if script is None:
            raise DeriveError(f"unknown derivation script {name!r}")
        for p in script.params:
            if p not in env:
                raise DeriveError(f"{name}: missing parameter {p!r}")
        if script.requires and not guard_holds(script.requires, env):
            raise DeriveError(f"{name}: parameters violate {script.requires!r}")
        facts: List[KbFact] = []
        lines: List[str] = [f"derivation {name} "
                            + " ".join(f"{p}={env[p]}" for p in script.params)]
        ctx = self._ctx(env)
        ctx.on_rule = facts.append
        tokens = set(ctx.tokens)      # plus its subderivations' and facts'
        bindings: Dict[str, object] = {}
        ret: Optional[object] = None
        for idx, step in enumerate(script.steps, start=1):
            before = len(facts)
            if step.kind == "let":
                try:
                    value = self._eval_step(step, env, ctx, bindings, lines,
                                            tokens)
                except (DeriveError, LesError, KbError, GroupError,
                        TermError) as e:
                    # errors carry the failing step's position
                    raise type(e)(f"{name} step {idx} ({step.verb}): {e}") \
                        from e
                bindings[step.name] = value
                lines.append(f"  step {idx}: {step.raw}")
                lines.append(f"    = {_render_value(value)}")
            elif step.kind == "check":
                self._eval_check(step, env, ctx, bindings)
                lines.append(f"  step {idx}: {step.raw}  [ok]")
            elif step.kind == "assert":
                got = bindings.get(step.name)
                if not isinstance(got, PiGroup):
                    raise DeriveError(f"{name}: assert needs a group binding")
                want = parse_group_cases(step.args, env)
                if got.group != want:
                    raise AssertionMismatch(
                        f"{name}{_fmt_env(env, script.params)}: computed "
                        f"{got.group.render()} but expected {want.render()}")
                lines.append(f"  step {idx}: {step.raw}  [ok]")
            elif step.kind == "return":
                ret = bindings.get(step.name)
                if ret is None:
                    raise DeriveError(
                        f"{name}: return of unbound {step.name!r}")
                lines.append(f"  step {idx}: {step.raw}")
            for fact in facts[before:]:
                lines.append(f"    uses {fact.note()}")
        if ret is None:
            raise DeriveError(f"{name}: no terminal group (missing return)")
        if isinstance(ret, PiGroup):
            lines.append(f"  result: {ret.group.render()}")
        else:
            lines.append(f"  result: {_render_value(ret)}")
        tokens.update(*(f.tokens for f in facts))
        return RunResult(name, dict(env), ret, "\n".join(lines) + "\n", facts,
                         frozenset(tokens))

    # -- step evaluation ------------------------------------------------------

    def _parse_el(self, text, env, bindings) -> Element:
        text = text.strip()
        if text in bindings and isinstance(bindings[text], Element):
            return bindings[text]
        return self.catalog.parse_element(text, env)

    def _fib(self, args, env, bindings):
        """The fibration named by ``fib=``, with ``attach=`` as its
        attaching class when the script supplies one."""
        space = parse_space(args["fib"], env)
        if space.kind != "named":
            raise DeriveError(f"bad fibration key {args['fib']!r}")
        attach = (self._parse_el(args["attach"], env, bindings)
                  if "attach" in args else None)
        return fibration(self.catalog, env, *space.data, attach=attach)

    def _eval_step(self, step, env, ctx, bindings, lines, tokens):
        verb = step.verb
        args = step.args

        def el(key):
            return self._parse_el(args[key], env, bindings)

        def pig(key) -> PiGroup:
            v = bindings.get(args[key])
            if not isinstance(v, PiGroup):
                raise DeriveError(f"{args[key]!r} is not a group binding")
            return v

        if verb == "group":
            space = parse_space(args["space"], env)
            return pi_group_from_fact(self.catalog, env, space,
                                      int(eval_int_expr(args["k"], env)), ctx)

        if verb == "fiber_group":
            return self._fiber_group(args, env, ctx, bindings)

        if verb == "run":
            # the tokens and its own arguments only, so that it shares
            # its cache entry with a run of the same parameters
            sub_params = {k: eval_int_expr(v, env) for k, v in args.items()
                          if k != "script"}
            sub_env = {t: env[t] for t in SWEPT_TOKENS}
            sub_env.update(sub_params)
            sub = self._run_cached(args["script"], sub_env)
            tokens.update(sub.tokens)
            lines.append(f"    (subderivation {args['script']} "
                         f"{sub_params} -> {_render_value(sub.value)})")
            return sub.value

        if verb == "boundary":
            fib = self._fib(args, env, bindings)
            k = int(eval_int_expr(args["k"], env))
            source = pi_group_from_fact(self.catalog, env, fib.base, k, ctx)
            target = None
            if args.get("target", "none") != "none":
                target = pig("target")
            strip = None
            if "strip" in args and args["strip"] != "none":
                strip = self._parse_el(args["strip"], env, bindings)
            return boundary_hom(self.catalog, env, fib, k, source, target, ctx,
                                strip=strip)

        if verb == "cokernel":
            bnd = bindings.get(args["of"])
            if not isinstance(bnd, Boundary):
                raise DeriveError("cokernel needs a boundary binding")
            if bnd.hom is None:
                raise DeriveError("cokernel needs a materialized target")
            g, proj = group_cokernel(bnd.hom)
            return derived_pi_group(bnd.target, g, proj)

        if verb == "kernel":
            bnd = bindings.get(args["of"])
            if not isinstance(bnd, Boundary):
                raise DeriveError("kernel needs a boundary binding")
            if bnd.hom is None:
                if not bnd.is_zero():
                    raise DeriveError("kernel of a non-materialized boundary")
                return bnd.source
            g, incl = group_kernel(bnd.hom)
            protos = []
            for j in range(g.rank):
                vec = tuple(incl.matrix.rows[i][j]
                            for i in range(bnd.source.group.rank))
                elem = _element_from_chart(bnd.source, vec)
                unit = tuple(1 if i == j else 0 for i in range(g.rank))
                protos.append((elem, unit))
            labels = [p[0].render() for p in protos]
            return PiGroup(g.with_labels(labels), bnd.source.space,
                           bnd.source.degree, protos)

        if verb == "push":
            mapel = el("via")
            space = parse_space(args["space"], env)
            return push_forward(pig("of"), mapel, space, ctx)

        if verb == "quotient":
            base = pig("of")
            relel = el("by")
            vec = express(relel, base, ctx)
            g, proj = quotient_by_elements(base.group, [list(vec)])
            out = derived_pi_group(base, g, proj)
            if args.get("push"):
                out = push_forward(out, el("push"),
                                   parse_space(args["space"], env), ctx)
            return out

        if verb == "extension":
            return self._extension(args, env, ctx, bindings)

        if verb == "element":
            return rewrite.normalize(el("expr"), ctx)

        if verb == "stage_bracket":
            f = filtration.MapSpec(el("f"))
            stage = int(eval_int_expr(args["stage"], env))
            model = filtration.build_filtration(f, stage, ctx)
            gamma = model.stages[stage - 1].gamma
            if gamma is None:
                raise DeriveError("stage 1 has no attaching class")
            return gamma

        if verb == "push_bracket":
            return rewrite.naturality_push(el("map"), _as_element(
                bindings, args["of"]), ctx)

        if verb == "restrict_bracket":
            restrictions = [self._parse_el(p, env, bindings)
                            for p in args["by"].split(",")]
            return rewrite.bracket_restrict(_as_element(bindings, args["of"]),
                                            restrictions, ctx)

        if verb == "resolve_triple":
            amb_specs = [a.strip() for a in args["ambient"].split(",")]
            if len(amb_specs) == 1:
                amb_specs = amb_specs * 3
            ambients = []
            for spec in amb_specs:
                sp, k = spec.split("@")
                ambients.append(pi_group_from_fact(
                    self.catalog, env, parse_space(sp.strip(), env),
                    int(k), ctx).group)
            return rewrite.resolve_triple(_as_element(bindings, args["of"]),
                                          ambients, ctx)

        if verb == "pair_map":
            f = el("first")
            g = el("second")
            return Element.from_term(Word((Pair(f, g),)))

        if verb == "apply":
            return rewrite.compose(el("map"), _as_element(bindings, args["to"]),
                                   ctx)

        if verb == "suspend":
            return rewrite.suspend(_as_element(bindings, args["of"]), ctx)

        if verb == "whitehead":
            left = (Element.identity(parse_space(args["id"], env))
                    if "id" in args else el("left"))
            return rewrite.whitehead(left, el("right"), ctx)

        if verb == "solve_free":
            return self._solve_free(args, env, ctx, bindings)

        if verb == "suspension_kill":
            return self._suspension_kill(args, env, ctx, bindings)

        if verb == "scaled_generator":
            base = pig("group")
            gen = el("gen")
            coeff = bindings[args["coeff"]]
            if not isinstance(coeff, int):
                raise DeriveError("coeff must be an integer binding")
            i = _find_generator(base, gen, ctx)
            return rewrite.normalize(base.generator_element(i).scale(coeff), ctx)

        if verb == "assert_coeff":
            value = bindings[args["of"]]
            want = eval_int_expr(args["abs"], env)
            if abs(value) != want:
                raise AssertionMismatch(
                    f"coefficient {value} does not have absolute value {want}")
            return value

        raise DeriveError(f"unknown verb {verb!r}")

    def _eval_check(self, step, env, ctx, bindings):
        """Verify a composition identity on the nose (commuting square)."""
        mapel = self._parse_el(step.args["map"], env, bindings)
        withel = self._parse_el(step.args["with"], env, bindings)
        want = self._parse_el(step.args["equals"], env, bindings)
        got = rewrite.compose(mapel, withel, ctx)
        lhs = rewrite.normalize(got, ctx)
        rhs = rewrite.normalize(want, ctx)
        if lhs.key() != rhs.key():
            raise AssertionMismatch(
                f"check failed: {lhs.render()} != {rhs.render()}")

    # -- composite verbs -----------------------------------------------------

    def _fiber_group(self, args, env, ctx, bindings) -> PiGroup:
        """pi_k of a fiber, read off its declared wedge skeleton, which must
        be the filtration stage holding every cell of dimension <= k+1."""
        fib = self._fib(args, env, bindings)
        _, _, skeleton = self.catalog.fibration_maps(fib.head, fib.params)
        if skeleton is None:
            raise DeriveError(f"fibration {args['fib']} declares no skeleton")
        k = int(eval_int_expr(args["k"], env))
        _, st = filtration.skeleton_of_fiber(filtration.MapSpec(fib.f), k + 1,
                                             ctx)
        if st.space != skeleton.source:
            raise DeriveError(
                f"unexpected fiber skeleton {st.space_name} for {args['fib']}")
        base = pi_group_from_fact(self.catalog, env, st.space, k, ctx)
        return push_forward(base, skeleton, skeleton.target, ctx)

    def _extension(self, args, env, ctx, bindings) -> PiGroup:
        sub = bindings[args["sub"]]
        quot = bindings[args["quot"]]
        if not isinstance(sub, PiGroup) or not isinstance(quot, PiGroup):
            raise DeriveError("extension needs group bindings")
        if quot.group.is_trivial():
            return sub
        where = args.get("certs", "none")
        if where == "none":
            raise ExtensionUnresolved(
                "extension unresolved: no certificate source named for "
                + ", ".join(quot.group.label(i)
                            for i in range(quot.group.rank)))
        spacetext, deg = where.split("@")
        space = parse_space(spacetext.strip(), env)
        degree = int(eval_int_expr(deg.strip(), env))
        certs = []
        lift_infos = []
        for i in range(quot.group.rank):
            gen = quot.generator_element(i)
            found = self._find_lift(space, degree, gen, env, ctx)
            if found is None:
                raise ExtensionUnresolved(
                    f"extension unresolved: no lift certificate for "
                    f"{gen.render()} over {space.key} in degree {degree}")
            lift_el, order, rel_el = found
            rel_vec = None
            if rel_el is not None:
                rel_vec = express(rel_el, sub, ctx)
            certs.append(LiftCertificate(i, order, lift_el.render(), rel_vec))
            lift_infos.append((lift_el, order))
        problem = ExtensionProblem(sub.group, quot.group, tuple(certs))
        if all(c.relation is None or not any(c.relation) for c in certs) and \
                all(c.lift_order == quot.group.orders[c.quot_index]
                    for c in certs):
            solve_extension(problem)  # the certified split, checked
            extra = [(lift_el, order, lift_el.render())
                     for (lift_el, order) in lift_infos]
            return direct_sum_pi(sub, extra, ctx)
        group, chart = extension_with_relations(problem)
        protos = []
        n = sub.group.rank + quot.group.rank
        for elp, vec in sub.protos:
            full = list(vec) + [0] * quot.group.rank
            protos.append((elp, chart_apply(chart, full, group)))
        for j, (lift_el, order) in enumerate(lift_infos):
            full = [0] * sub.group.rank + [1 if jj == j else 0
                                           for jj in range(quot.group.rank)]
            protos.append((rewrite.normalize(lift_el, ctx),
                           chart_apply(chart, full, group)))
        return PiGroup(group, sub.space, sub.degree, protos)

    def _find_lift(self, space, degree, gen, env, ctx):
        """(lift element, order, relation element or None) from the catalog."""
        for cert, penv in self.catalog.lift_certificates(space, degree, env):
            if rewrite.normalize(cert.element, ctx).key() != \
                    rewrite.normalize(gen, ctx).key():
                continue
            if ctx.on_rule:
                ctx.on_rule(cert.fact)
            if cert.payload[0] == "transport":
                _, via_text, base_text = cert.payload
                via = self.catalog.parse_element(via_text, penv)
                base_space = parse_space(base_text, penv)
                base = self._find_lift(base_space, degree, gen, env, ctx)
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

    def _solve_free(self, args, env, ctx, bindings):
        """Coefficient of the free generator from a comparison-map equation.

        The comparison map kills every torsion generator (checked), so
        the image of a * g1 + b * free + c * g3 determines b by exact
        division in the torsion-free target.
        """
        base = bindings[args["group"]]
        target = bindings[args["target"]]
        mapel = self._parse_el(args["map"], env, bindings)
        free_gen = self._parse_el(args["free"], env, bindings)
        value = _as_element(bindings, args["value"])
        free_i = _find_generator(base, free_gen, ctx)
        img_free = None
        for i in range(base.group.rank):
            gen = self.catalog.registry.unfold_element(base.generator_element(i))
            img = rewrite.compose(mapel, gen, ctx)
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

    def _suspension_kill(self, args, env, ctx, bindings):
        """Solve Sigma(a*g1 + b*free + c*g3) = 0 over the torsion coefficients.

        Returns the unique (a, c, ...) assignment; raises when the kill is
        not unique or nonzero coefficients are forced.
        """
        base = bindings[args["group"]]
        sp, k = args["target"].split("@")
        target = pi_group_from_fact(self.catalog, env,
                                    parse_space(sp.strip(), env),
                                    int(k), ctx)
        free_gen = self._parse_el(args["free"], env, bindings)
        b = bindings[args["coeff"]]
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


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def chart_apply(chart, fullvec, group):
    out = [sum(chart.rows[i][j] * fullvec[j] for j in range(chart.ncols))
           for i in range(chart.nrows)]
    return group.reduce_vector(out)


def _element_from_chart(pig: PiGroup, vec) -> Element:
    out = None
    for i, c in enumerate(vec):
        if c == 0:
            continue
        piece = pig.generator_element(i).scale(c)
        out = piece if out is None else out + piece
    if out is None:
        first = pig.protos[0][0] if pig.protos else None
        if first is None:
            raise DeriveError("cannot build the zero element without protos")
        return Element.zero(first.source, first.target)
    return out


def _find_generator(pig: PiGroup, gen: Element, ctx) -> int:
    want = rewrite.normalize(gen, ctx).key()
    for i in range(pig.group.rank):
        if rewrite.normalize(pig.generator_element(i), ctx).key() == want:
            return i
    raise DeriveError(f"generator {gen.render()} not found in "
                      f"{pig.group.describe()}")


def _as_element(bindings, name) -> Element:
    v = bindings.get(name)
    if not isinstance(v, Element):
        raise DeriveError(f"{name!r} is not an element binding")
    return v


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
    """The six shipped derivations, one per group-table result, read and
    parsed once per process (callers share the dict and do not mutate
    it)."""
    out = {}
    data = resources.files("conechase").joinpath("data")
    for entry in sorted(data.iterdir()):
        if entry.name.endswith(".deriv"):
            script = parse_script(entry.read_text(),
                                  name_hint=entry.name[:-6])
            out[script.name] = script
    return out


def default_catalog() -> KbCatalog:
    path = resources.files("conechase").joinpath("data/paper.facts")
    with resources.as_file(path) as p:
        return load_catalog(p)
