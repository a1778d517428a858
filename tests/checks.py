"""Reference checks that only the tests use.

They hold by construction in a run, so the package does not ship them:

- the exactness audit of one long-exact-sequence window, which an
  ``extension`` step already satisfies, since it builds a group of order
  |sub| * |quot|;
- the suspension-splitting check of a filtration stage, which compares
  cell dimensions with the formula ``build_filtration`` sets them by (no
  two stage cells abut, as ``MapSpec`` requires p >= 2);
- a determinant, label-addressed coordinate vectors, enumeration of a
  finite group and direct sums, for the group arithmetic tests;
- an integer-expression evaluator that computes while it reads, the
  reference the compiled expressions are compared against;
- the re-derivation of the catalog's completion rules from their parent
  facts, which holds once at authoring time and reads no run;
- the cited-only replay of a row, which reruns it on the catalog of the
  facts it cited;
- a reader of the benchmark's literal tables, which does not import the
  benchmark.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from conechase.derive import DeriveError, Runner
from conechase.filtration import MapSpec, build_filtration
from conechase.groups import (
    GroupError,
    IntMat,
    TwoLocalGroup,
    cokernel,
    kernel,
    strip_odd,
)
from conechase.kb import KbCatalog, KbError, KbMissingFact
from conechase.terms import (
    MAX_BITS,
    MAX_EXPONENT,
    Element,
    TermError,
    Word,
    _tokenize_expr,
)
from conechase.les import (
    Boundary,
    BoundaryRule,
    LesError,
    PiGroup,
    boundary_hom,
    pi_group_from_fact,
)
from conechase import rewrite


# ---------------------------------------------------------------------------
# group arithmetic
# ---------------------------------------------------------------------------

def det(m: IntMat) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.nrows != m.ncols:
        raise GroupError("determinant of a non-square matrix")
    n = m.nrows
    if n == 0:
        return 1
    a = [r[:] for r in m.rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def generator_index(g: TwoLocalGroup, label: str) -> int:
    if g.labels is None:
        raise GroupError("group has no labels")
    return g.labels.index(label)


def vector(g: TwoLocalGroup, coeffs: dict) -> tuple:
    """Coordinate vector from a {label: coefficient} mapping.

    Construction sorts summands canonically, so addressing them by
    label is the safe way to build coordinate vectors.
    """
    vec = [0] * g.rank
    for label, c in coeffs.items():
        vec[generator_index(g, label)] = c
    return g.reduce_vector(vec)


def elements(g: TwoLocalGroup):
    """Iterate all coordinate vectors (finite groups only)."""
    if g.free_rank:
        raise GroupError("cannot enumerate an infinite group")
    vec = [0] * g.rank
    while True:
        yield tuple(vec)
        i = 0
        while i < g.rank:
            vec[i] += 1
            if vec[i] < g.orders[i]:
                break
            vec[i] = 0
            i += 1
        else:
            return


def direct_sum(*groups: TwoLocalGroup) -> TwoLocalGroup:
    orders = []
    labels = []
    labelled = bool(groups) and all(g.labels is not None for g in groups)
    for g in groups:
        orders.extend(g.orders)
        if labelled:
            labels.extend(g.labels)
    return TwoLocalGroup(orders, labels if labelled else None)


# ---------------------------------------------------------------------------
# exact-sequence segments
# ---------------------------------------------------------------------------

@dataclass
class LesSegment:
    """One window pi_{k+1}(B) -> pi_k(F) -> pi_k(C) -> pi_k(B) -> pi_{k-1}(F).

    Slots that cannot be resolved from the catalog stay None; exactness
    is audited, never assumed, where the data permits.
    """
    degree: int
    base_upper: Optional[PiGroup]
    fiber_mid: Optional[PiGroup]
    cone_mid: Optional[TwoLocalGroup]
    base_mid: Optional[PiGroup]
    fiber_low: Optional[PiGroup]
    d_upper: Optional[Boundary]
    d_lower: Optional[Boundary]
    missing: List[str] = field(default_factory=list)

    def audit(self) -> bool:
        """|pi_k(C)| = |coker(d_upper)| * |ker(d_lower)| (finite case)."""
        if self.cone_mid is None or self.d_upper is None or self.d_upper.hom is None:
            return True
        if self.cone_mid.free_rank:
            return True
        c, _ = cokernel(self.d_upper.hom)
        if self.d_lower is None:
            return True
        if self.d_lower.hom is None:
            k_order = self.d_lower.source.group.torsion_order()
        else:
            kk, _ = kernel(self.d_lower.hom)
            k_order = kk.torsion_order()
        return self.cone_mid.torsion_order() == c.torsion_order() * k_order


def assemble_segment(cat: KbCatalog, fib: BoundaryRule, k: int,
                     fiber_groups, ctx,
                     cone_mid: Optional[TwoLocalGroup] = None) -> LesSegment:
    """Fill the resolvable slots of the window around pi_k of the cone.

    ``fiber_groups`` maps a degree to the PiGroup of the fiber in that
    degree (the caller knows which filtration stage computes it).
    """
    missing = []

    def sphere_pig(deg):
        try:
            return pi_group_from_fact(cat, fib.base, deg, ctx)
        except KbMissingFact as e:
            missing.append(str(e))
            return None

    base_upper = sphere_pig(k + 1)
    base_mid = sphere_pig(k)
    fiber_mid = fiber_groups.get(k)
    fiber_low = fiber_groups.get(k - 1)
    if fiber_mid is None:
        missing.append(f"pi_{k}(fiber)")
    d_upper = d_lower = None
    if base_upper is not None:
        try:
            d_upper = boundary_hom(cat, fib, k + 1, base_upper,
                                   fiber_mid, ctx)
        except (KbMissingFact, LesError) as e:
            missing.append(str(e))
    if base_mid is not None:
        try:
            d_lower = boundary_hom(cat, fib, k, base_mid, fiber_low, ctx)
        except (KbMissingFact, LesError) as e:
            missing.append(str(e))
    return LesSegment(k, base_upper, fiber_mid, cone_mid, base_mid,
                      fiber_low, d_upper, d_lower, missing)


# ---------------------------------------------------------------------------
# suspension splitting of the filtration
# ---------------------------------------------------------------------------

def suspended_homology(cells, boundaries, maxdim: int) -> dict:
    """2-local homology of the suspended cell complex, {degree: [orders]}.

    ``cells`` are the unsuspended cell dimensions, ``boundaries`` the
    2-part of the attaching degree of each cell on the cell one dimension
    below (0 unless the dimensions abut; consecutive cells here normally
    differ by at least two).
    """
    contrib = {}
    consumed = set()
    for i, (d, b) in enumerate(zip(cells, boundaries)):
        if b != 0 and i > 0 and cells[i - 1] == d - 1:
            # the pair (e^{d+1}, e^d) contributes torsion Z/b in degree d
            consumed.add(i - 1)
            consumed.add(i)
            if b != 1 and d <= maxdim:
                contrib.setdefault(d, []).append(b)
    for i, d in enumerate(cells):
        if i in consumed:
            continue
        dim = d + 1
        if dim <= maxdim:
            contrib.setdefault(dim, []).append(0)
    return {k: sorted(v) for k, v in contrib.items()}


def suspension_splitting_check(f: MapSpec, k: int, maxdim: int,
                               ctx: rewrite.RuleContext,
                               corrupt_cell: Optional[int] = None) -> bool:
    """Compare H_*(Sigma J_k) with the expected wedge of smash summands.

    The attaching classes are Whitehead brackets or torsion classes, so
    their Hurewicz images vanish and every suspended stage contributes a
    free summand; the check reduces to the multiset of cell dimensions.
    A corrupted model (``corrupt_cell`` shifts one cell) must fail.
    """
    model = build_filtration(f, k, ctx)
    cells = []
    bdries = []
    for st in model.stages:
        if st.cell_dim is None:
            cells.append(f.target.data[0])
            bdries.append(0)
        else:
            cells.append(st.cell_dim)
            g = st.gamma
            hurewicz = 0
            if g is not None and not g.is_zero():
                sw = g.single_word()
                # degree on the cell below: only possible if dimensions abut
                if sw is not None and st.cell_dim - 1 == cells[-2]:
                    hurewicz = abs(strip_odd(sw[1]))
            bdries.append(hurewicz)
    if corrupt_cell is not None:
        cells[corrupt_cell] += 1
    left = suspended_homology(cells, bdries, maxdim)
    expected = {}
    p = f.source.data[0]
    q = f.target.data[0]
    for i in range(k):
        dim = q + 1 + i * p
        if dim <= maxdim:
            expected.setdefault(dim, []).append(0)
    return left == expected


def reading_eval_int_expr(text: str, env: dict) -> int:
    """An integer expression evaluated by recursive descent as it is read,
    token by token: each error is raised where the reading meets it."""
    toks = _tokenize_expr(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else None

    def eat(tok=None):
        nonlocal pos
        t = peek()
        if t is None or (tok is not None and t != tok):
            raise TermError(f"bad integer expression: {text!r}")
        pos += 1
        return t

    def atom():
        t = eat()
        if t == "(":
            v = addsub()
            eat(")")
            return v
        if t == "-":
            return -atom()
        if t.isdigit():
            return int(t)
        if t in env:
            return int(env[t])
        raise TermError(f"unbound variable {t!r} in {text!r}")

    def power():
        v = atom()
        if peek() == "^":
            eat("^")
            e = atom()
            if e < 0:
                raise TermError("negative exponent")
            if e > MAX_EXPONENT:
                raise TermError(f"exponent {e} is over {MAX_EXPONENT}")
            return bits(v ** e)
        return v

    def bits(n):
        if n.bit_length() > MAX_BITS:
            raise TermError(f"integer of {n.bit_length()} bits is over "
                            f"{MAX_BITS}")
        return n

    def muldiv():
        v = power()
        while peek() == "*":
            eat("*")
            v = bits(v * power())
        return v

    def addsub():
        v = muldiv()
        while peek() in ("+", "-"):
            if eat() == "+":
                v += muldiv()
            else:
                v -= muldiv()
        return v

    v = addsub()
    if pos != len(toks):
        raise TermError(f"trailing tokens in integer expression {text!r}")
    return v


# ---------------------------------------------------------------------------
# completion rules
# ---------------------------------------------------------------------------

def fold_facts(catalog: KbCatalog, lines) -> dict:
    """The facts on ``lines``, each a fold whose payload is one symbol,
    by that symbol's name."""
    return {f.payload.split("(")[0]: f for f in catalog.facts
            if f.line in lines}


def unfold_folds(text: str, folds: dict) -> tuple:
    """A word written as in a fact subject, with each factor that a fold
    fact folds to replaced by that fact's subject until none is left, and
    the lines of the fold facts used; ``folds`` is from ``fold_facts``."""
    used = []
    while True:
        factors = []
        for factor in text.split("."):
            fold = folds.get(factor.split("(")[0])
            if fold is not None:
                used.append(fold.line)
                factor = fold.subject
            factors.append(factor)
        out = ".".join(factors)
        if out == text:
            return text, used
        text = out


def _normal_form(catalog, text: str, env: dict):
    """``text`` under ``env`` normalised on ``catalog``, or the class and
    message of the error that refuses it."""
    ctx = catalog.rule_context(env)
    try:
        return rewrite.normalize(catalog.parse_element(text, env), ctx)
    except (TermError, KbError) as e:
        return type(e).__name__, str(e)


def completion_mismatches(catalog: KbCatalog, rule_lines, fold_lines,
                          values, assignments) -> list:
    """Each completion rule on ``rule_lines`` re-derived from its parents
    on the catalog without the rules: its subject, unfolded by the fold
    facts on ``fold_lines`` (``unfold_folds``), and its payload are both
    normalised there at each of ``values`` of the rules' variable ``m``
    under each token assignment.  The (line, value, assignment) of every
    pair whose normal forms differ."""
    folds = fold_facts(catalog, fold_lines)
    lacking = catalog.without_facts(lambda f: f.line in rule_lines)
    out = []
    for rule in catalog.facts:
        if rule.line not in rule_lines:
            continue
        word, _ = unfold_folds(rule.subject, folds)
        for m in values:
            for assign in assignments:
                env = {"m": m, **assign}
                if _normal_form(lacking, word, env) != \
                        _normal_form(lacking, rule.payload, env):
                    out.append((rule.line, m, assign))
    return out


# ---------------------------------------------------------------------------
# cited-only replay
# ---------------------------------------------------------------------------

def _executed(runner: Runner) -> list:
    """(script, parameters and token assignment, transcript) of every run
    ``runner`` has executed, sorted."""
    return sorted((res.script, sorted(dict(res.env, **res.ctx.values).items()),
                   res.transcript)
                  for runs in runner._cache.values() for res in runs)


def cited_only_mismatches(catalog: KbCatalog, scripts, rows) -> list:
    """Each row ``(script, parameters)`` of ``rows`` run swept on a
    fresh view of ``catalog`` and again on the catalog of only the facts
    that its runs cited, under every sweep assignment and subderivations
    included.  The (script, parameters, what went wrong) of each row
    whose second pass raises or does not execute the same runs with
    byte-identical transcripts."""
    out = []
    for name, params in rows:
        runner = Runner(catalog.view(), scripts)
        runner.run(name, params)
        cited = {fact for runs in runner._cache.values() for res in runs
                 for fact in res.consumed}
        replay = Runner(catalog.without_facts(lambda f: f not in cited),
                        scripts)
        try:
            replay.run(name, params)
        except (DeriveError, LesError, KbError, GroupError, TermError) as e:
            out.append((name, params, f"{type(e).__name__}: {e}"))
            continue
        if _executed(replay) != _executed(runner):
            out.append((name, params, "transcripts differ"))
    return out


def bench_table(module: str, name: str):
    """A literal table of a benchmark module, read from its source
    without importing it."""
    source = Path(__file__).parents[1] / "bench" / f"{module}.py"
    (table,) = [ast.literal_eval(node.value)
                for node in ast.parse(source.read_text()).body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == [name]]
    return table
