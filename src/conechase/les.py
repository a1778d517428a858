"""Exact-sequence machinery: homotopy groups with coordinate charts,
fibration boundary maps, and segment assembly.

A ``PiGroup`` is a homotopy group together with prototypes: normalized
single-term elements paired with their coordinate vectors.  Prototypes
travel through quotients, pushforwards and extensions, so an element of
any derived group can be expressed in canonical coordinates by matching
its normalized terms -- a term whose order bound is finite may first be
reduced modulo gcd(bound, group exponent), which silently kills torsion
classes mapped into torsion-free groups and nothing else.

Boundary maps of a fibration over a suspension are evaluated by the
factorization through the fiber inclusion (the connecting map restricted
to suspension classes is j_p . f . -); classes that are not suspensions
require a stored boundary fact or a stored comparison transport.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import List, Optional, Tuple

from .groups import GroupHom, IntMat, TwoLocalGroup, cokernel, kernel
from .kb import KbCatalog, KbMissingFact
from .terms import Element, Space, Word, sphere, suspend_space
from . import rewrite


class LesError(ValueError):
    pass


# ---------------------------------------------------------------------------
# homotopy groups with charts
# ---------------------------------------------------------------------------

@dataclass
class PiGroup:
    group: TwoLocalGroup
    space: Space
    degree: int
    protos: List[Tuple[Element, tuple]] = field(default_factory=list)

    def unit_protos(self) -> bool:
        units = set()
        for _, vec in self.protos:
            nz = [i for i, x in enumerate(vec) if x]
            if len(nz) != 1 or vec[nz[0]] != 1:
                return False
            units.add(nz[0])
        return units == set(range(self.group.rank))

    def generator_element(self, i: int) -> Element:
        for el, vec in self.protos:
            nz = [j for j, x in enumerate(vec) if x]
            if nz == [i] and vec[i] == 1:
                return el
        raise LesError(f"no prototype for generator {i} of {self.group.render()}")


def pi_group_from_fact(cat: KbCatalog, env, space: Space, k: int,
                       ctx) -> PiGroup:
    """A homotopy group from the catalog (plus the Hurewicz and
    connectivity conventions on spheres)."""
    if space.kind == "sphere":
        n = space.data[0]
        if k < n:
            return PiGroup(TwoLocalGroup([]), space, k, [])
        if k == n:
            g = TwoLocalGroup([0], [f"iota_{n}"])
            return PiGroup(g, space, k, [(Element.identity(space), (1,))])
    group, elements, fact = cat.group_fact(space, k, env)
    protos = []
    normed = []
    for i, el in enumerate(elements):
        nel = rewrite.normalize(el, ctx)
        vec = tuple(1 if j == i else 0 for j in range(group.rank))
        protos.append((nel, vec))
        normed.append(nel.render())
    group = group.with_labels(normed)
    if ctx.on_rule:
        ctx.on_rule(fact)
    return PiGroup(group, space, k, protos)


def express(el: Element, pig: PiGroup, ctx) -> tuple:
    """Coordinates of a normalized element in the group's chart."""
    el = rewrite.normalize(el, ctx)
    vec = [0] * pig.group.rank
    proto_map = {}
    for proto, pvec in pig.protos:
        if len(proto.terms) != 1:
            continue
        term, c = proto.terms[0]
        if c != 1:
            continue  # scaled prototypes (kernel generators) are not charts
        proto_map[term.key()] = pvec
    exponent = pig.group.exponent()
    for term, c in el.terms:
        hit = proto_map.get(term.key())
        if hit is not None:
            for i, x in enumerate(hit):
                vec[i] += c * x
            continue
        bound = None
        if isinstance(term, Word):
            bound = ctx.suffix_bound(term)
        if bound:
            # the element has finite order, so it cannot meet a free part;
            # both its order bound and the group exponent kill it
            c = c % gcd(bound, exponent)
        elif pig.group.free_rank == 0:
            # everything in a finite group dies under the exponent
            c = c % exponent
        if c != 0:
            raise LesError(
                f"cannot express term {term.render()} in "
                f"pi_{pig.degree}({pig.space.key}) = {pig.group.describe()}")
    return pig.group.reduce_vector(vec)


def strip_prefix(el: Element, prefix: Element, ctx) -> Element:
    """Remove a common outer map from every term (inverse of a pushforward
    along a skeletal inclusion that is known to be injective here)."""
    pw = prefix.single_word()
    if pw is None or pw[1] != 1:
        raise LesError("prefix must be a single unsigned word")
    psyms = pw[0].syms
    terms = []
    for term, c in el.terms:
        if isinstance(term, Word):
            if tuple(term.syms[:len(psyms)]) != tuple(psyms):
                raise LesError(
                    f"term {term.render()} does not factor through "
                    f"{pw[0].render()}")
            rest = term.syms[len(psyms):]
            terms.append((Word(rest) if rest else Word((), pw[0].source), c))
        else:
            inner = rewrite.bracket_factor_head(
                Element.from_term(term, c), prefix, ctx)
            terms.extend(inner.terms)
    src = el.source
    tgt = pw[0].source
    return rewrite.normalize(Element(src, tgt, terms), ctx)


def push_forward(pig: PiGroup, mapel: Element, space: Space, ctx) -> PiGroup:
    """The same group charted in a new space via a map applied to all
    prototypes (used for skeletal inclusions, which are iso in range)."""
    protos = [(rewrite.normalize(rewrite.compose(mapel, p, ctx), ctx), v)
              for p, v in pig.protos]
    labels = [None] * pig.group.rank
    for el, vec in protos:
        nz = [i for i, x in enumerate(vec) if x]
        if len(nz) == 1 and vec[nz[0]] == 1 and len(el.terms) == 1:
            labels[nz[0]] = el.render()
    group = pig.group
    if all(lab is not None for lab in labels):
        group = group.with_labels(labels)
    return PiGroup(group, space, pig.degree, protos)


def derived_pi_group(parent: PiGroup, new_group: TwoLocalGroup,
                     proj: GroupHom, space: Optional[Space] = None,
                     degree: Optional[int] = None) -> PiGroup:
    """Chart a quotient of ``parent`` through the projection hom.

    A quotient generator that is still the image of a single prototype
    inherits its name; generators mixed by the Smith reduction keep
    positional names.
    """
    protos = []
    for el, vec in parent.protos:
        protos.append((el, proj.apply(vec)))
    labels = [f"g{i}" for i in range(new_group.rank)]
    for el, vec in protos:
        nz = [i for i, x in enumerate(vec) if x]
        if len(nz) == 1 and vec[nz[0]] == 1 and len(el.terms) == 1 \
                and el.terms[0][1] == 1:
            labels[nz[0]] = f"[{el.render()}]"
    return PiGroup(new_group.with_labels(labels), space or parent.space,
                   degree if degree is not None else parent.degree, protos)


def direct_sum_pi(a: PiGroup, extra: List[Tuple[Element, int, str]],
                  ctx) -> PiGroup:
    """Extend a chart by fresh generators (lift classes) of given orders."""
    orders = list(a.group.orders) + [o for _, o, _ in extra]
    labels = [a.group.label(i) for i in range(a.group.rank)] + \
             [lab for _, _, lab in extra]
    group = TwoLocalGroup(orders, labels)
    # track the canonical re-sort so old coordinates land correctly
    tagged = TwoLocalGroup(orders, [str(i) for i in range(len(orders))])
    perm = [int(t) for t in tagged.labels]  # new position -> old index
    inv = {old: new for new, old in enumerate(perm)}
    n = len(orders)
    protos = []
    for el, vec in a.protos:
        newvec = [0] * n
        for i, x in enumerate(vec):
            newvec[inv[i]] = x
        protos.append((el, tuple(newvec)))
    for j, (el, _, _) in enumerate(extra):
        newvec = [0] * n
        newvec[inv[a.group.rank + j]] = 1
        protos.append((rewrite.normalize(el, ctx), tuple(newvec)))
    return PiGroup(group, a.space, a.degree, protos)


# ---------------------------------------------------------------------------
# fibrations and connecting maps
# ---------------------------------------------------------------------------

@dataclass
class BoundaryRule:
    """Connecting-map data for the fibration of a pinch map C_f -> Sigma X:
    on suspension classes the boundary is j_p . f . (desuspension)."""
    head: str                # a fibration declared in the catalog
    params: tuple
    f: Element               # the attaching class X -> Y
    j_p: Element             # bottom inclusion Y -> fiber
    base: Space              # Sigma X


def fibration(cat: KbCatalog, env, head: str, params: tuple,
              attach: Optional[Element] = None) -> BoundaryRule:
    """The declared fibration ``head(params)``.  Its attaching class comes
    from the declaration or, when that names none, from ``attach``."""
    f, j_p, _ = cat.fibration_maps(head, params)
    if (f is None) == (attach is None):
        raise LesError(f"fibration {head!r} needs its attaching class from "
                       "exactly one of its declaration and attach=")
    f = attach if f is None else f
    return BoundaryRule(head, params, f, j_p, suspend_space(f.source))


def boundary_on_suspension(fib: BoundaryRule, alpha: Element, ctx) -> Element:
    """The connecting map on a suspension class: j_p . f . (desuspension).

    Classes that are not suspensions need a stored catalog value; that is
    exactly where the imported computations live.
    """
    value = _suspension_boundary(fib, alpha, ctx)
    if value is None:
        raise KbMissingFact(
            f"KB fact required: {alpha.render()} is not a suspension; the "
            "connecting-map rule does not apply")
    return value


def _suspension_boundary(fib: BoundaryRule, alpha: Element,
                         ctx) -> Optional[Element]:
    sw = alpha.single_word()
    if sw is not None:
        word, c = sw
        desusp = _try_desuspend(word, ctx)
        if desusp is not None:
            jf = rewrite.compose(fib.j_p, fib.f, ctx)
            val = rewrite.compose(jf, Element.from_term(*desusp), ctx)
            return rewrite.normalize(val.scale(c), ctx)
    return None


def boundary_value(cat: KbCatalog, env, fib: BoundaryRule, gen: Element,
                   ctx, _raw: bool = False) -> Element:
    """Value of the connecting map on one generator of pi_k(base)."""
    value = _suspension_boundary(fib, gen, ctx)
    if value is not None:
        return value
    hit = cat.boundary_fact(fib.head, fib.params, gen, env)
    if hit is not None:
        value, fact = hit
        if ctx.on_rule:
            ctx.on_rule(fact)
        # keep the stored spelling when a comparison map will be composed
        # on: its rewrite rule matches the unexpanded bottom inclusion
        return value if _raw else rewrite.normalize(value, ctx)
    tr = cat.boundary_transport(fib.head, fib.params, env)
    if tr is not None:
        via, base_head, base_params, fact = tr
        if ctx.on_rule:
            ctx.on_rule(fact)
        base_fib = fibration(cat, env, base_head, base_params)
        base_val = boundary_value(cat, env, base_fib, gen, ctx, _raw=True)
        return rewrite.normalize(rewrite.compose(via, base_val, ctx), ctx)
    raise KbMissingFact(
        f"KB fact required: boundary of {fib.head}{fib.params} on "
        f"{gen.render()} (not a suspension, no stored value)")


def _try_desuspend(word: Word, ctx):
    syms = []
    for s in word.syms:
        img = ctx.registry.desuspension_image(s)
        if img is None:
            return None
        syms.append(img)
    if syms:
        return (Word(tuple(syms)), 1)
    sp = word.space
    if sp.kind == "sphere" and sp.data[0] >= 3:
        return (Word((), sphere(sp.data[0] - 1)), 1)
    return None


@dataclass
class Boundary:
    """An evaluated connecting map, possibly with an unmaterialized target
    (allowed only when every value is zero on the nose)."""
    source: PiGroup
    target: Optional[PiGroup]
    values: List[Element]
    hom: Optional[GroupHom]

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)


def boundary_hom(cat: KbCatalog, env, fib: BoundaryRule, k: int,
                 source_pig: PiGroup, target_pig: Optional[PiGroup],
                 ctx, strip: Optional[Element] = None) -> Boundary:
    """Assemble the connecting map pi_k(base) -> pi_(k-1)(fiber).

    ``k`` is the source degree (the class lives in pi_k of the base).
    With ``strip``, every nonzero value loses that common outer map (see
    ``strip_prefix``) before it is charted in the target.
    """
    if source_pig.space != fib.base or source_pig.degree != k:
        raise LesError("source group does not match the fibration base")
    if not source_pig.unit_protos():
        raise LesError("source chart must consist of unit prototypes")
    values = []
    for i in range(source_pig.group.rank):
        gen = source_pig.generator_element(i)
        v = boundary_value(cat, env, fib, gen, ctx)
        if strip is not None and not v.is_zero():
            v = strip_prefix(v, strip, ctx)
        values.append(v)
    if target_pig is None:
        if all(v.is_zero() for v in values):
            return Boundary(source_pig, None, values, None)
        raise LesError(
            "boundary has nonzero values; a target chart is required")
    cols = [express(v, target_pig, ctx) for v in values]
    mat = IntMat([[cols[j][i] for j in range(len(cols))]
                  for i in range(target_pig.group.rank)],
                 source_pig.group.rank)
    hom = GroupHom(source_pig.group, target_pig.group, mat)
    return Boundary(source_pig, target_pig, values, hom)


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


def assemble_segment(cat: KbCatalog, env, fib: BoundaryRule, k: int,
                     fiber_groups, ctx,
                     cone_mid: Optional[TwoLocalGroup] = None) -> LesSegment:
    """Fill the resolvable slots of the window around pi_k of the cone.

    ``fiber_groups`` maps a degree to the PiGroup of the fiber in that
    degree (the caller knows which filtration stage computes it).
    """
    missing = []

    def sphere_pig(deg):
        try:
            return pi_group_from_fact(cat, env, fib.base, deg, ctx)
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
            d_upper = boundary_hom(cat, env, fib, k + 1, base_upper,
                                   fiber_mid, ctx)
        except (KbMissingFact, LesError) as e:
            missing.append(str(e))
    if base_mid is not None:
        try:
            d_lower = boundary_hom(cat, env, fib, k, base_mid, fiber_low, ctx)
        except (KbMissingFact, LesError) as e:
            missing.append(str(e))
    return LesSegment(k, base_upper, fiber_mid, cone_mid, base_mid,
                      fiber_low, d_upper, d_lower, missing)
