"""Exact-sequence machinery: homotopy groups with coordinate charts and
fibration boundary maps.

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

from .groups import GroupHom, IntMat, TwoLocalGroup
from .kb import KbCatalog, KbMissingFact
from .terms import Element, Space, Word, named, suspend_space
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


def pi_group_from_fact(cat: KbCatalog, space: Space, k: int,
                       ctx) -> PiGroup:
    """A homotopy group from the catalog (plus the Hurewicz and
    connectivity conventions on spheres).  The degree is at least 1: the
    engine charts no pi_0 and no negative degree."""
    if k < 1:
        raise LesError(f"pi_{k}({space.key}): degrees start at 1")
    if space.kind == "sphere":
        n = space.data[0]
        if k < n:
            return PiGroup(TwoLocalGroup([]), space, k, [])
        if k == n:
            g = TwoLocalGroup([0], [f"iota_{n}"])
            return PiGroup(g, space, k, [(Element.identity(space), (1,))])
    group, elements, fact = cat.group_fact(space, k, ctx)
    protos = []
    normed = []
    for i, el in enumerate(elements):
        nel = rewrite.normalize(el, ctx)
        vec = tuple(1 if j == i else 0 for j in range(group.rank))
        protos.append((nel, vec))
        normed.append(nel.render())
    group = group.with_labels(normed)
    ctx.cite(fact)
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
        bound = ctx.suffix_bound(term) if isinstance(term, Word) else None
        if bound is not None:
            # the element has finite order, so it cannot meet a free part;
            # both its order bound and the group exponent kill it
            ctx.cite(bound[1])
            c = c % gcd(bound[0], exponent)
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
        if not isinstance(term, Word) or \
                tuple(term.syms[:len(psyms)]) != tuple(psyms):
            raise LesError(
                f"term {term.render()} does not factor through "
                f"{pw[0].render()}")
        rest = term.syms[len(psyms):]
        terms.append((Word(rest, pw[0].source), c))
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
                     proj: GroupHom) -> PiGroup:
    """Chart a quotient of ``parent`` through the projection hom.

    A quotient generator that is still the image of a single prototype
    inherits its name; generators mixed by the Smith reduction keep
    positional names.
    """
    protos = [(el, proj.apply(vec)) for el, vec in parent.protos]
    labels = [f"g{i}" for i in range(new_group.rank)]
    for el, vec in protos:
        nz = [i for i, x in enumerate(vec) if x]
        if len(nz) == 1 and vec[nz[0]] == 1 and len(el.terms) == 1 \
                and el.terms[0][1] == 1:
            labels[nz[0]] = f"[{el.render()}]"
    return PiGroup(new_group.with_labels(labels), parent.space, parent.degree,
                   protos)


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


def fibration(cat: KbCatalog, head: str, params: tuple,
              attach: Optional[Element] = None) -> BoundaryRule:
    """The declared fibration ``head(params)``.  Its attaching class comes
    from the declaration or, when that names none, from ``attach``."""
    f, j_p, _ = cat.fibration_maps(head, params)
    if (f is None) == (attach is None):
        raise LesError(f"fibration {head!r} needs its attaching class from "
                       "exactly one of its declaration and attach=")
    f = attach if f is None else f
    return BoundaryRule(head, params, f, j_p, suspend_space(f.source))


def boundary_value(cat: KbCatalog, fib: BoundaryRule, gen: Element, ctx,
                   _raw: bool = False) -> Element:
    """Value of the connecting map on one generator of pi_k(base).

    A suspension class goes to j_p . f . (desuspension); any other class
    needs a stored catalog value, which is where the imported
    computations live.
    """
    sw = gen.single_word()
    desusp = rewrite.desuspend(sw[0], ctx.registry) if sw is not None else None
    if desusp is not None:
        jf = rewrite.compose(fib.j_p, fib.f, ctx)
        val = rewrite.compose(jf, Element.from_term(desusp), ctx)
        return rewrite.normalize(val.scale(sw[1]), ctx)
    hit = cat.boundary_fact(fib.head, fib.params, gen, ctx)
    if hit is not None:
        value, fact = hit
        ctx.cite(fact)
        # keep the stored spelling when a comparison map will be composed
        # on: its rewrite rule matches the unexpanded bottom inclusion
        return value if _raw else rewrite.normalize(value, ctx)
    tr = cat.boundary_transport(fib.head, fib.params, ctx)
    if tr is not None:
        via, base_head, base_params, fact = tr
        ctx.cite(fact)
        base_fib = fibration(cat, base_head, base_params)
        base_val = boundary_value(cat, base_fib, gen, ctx, _raw=True)
        return rewrite.normalize(rewrite.compose(via, base_val, ctx), ctx)
    fiber = named(fib.head, *fib.params).key
    raise KbMissingFact(
        f"KB fact required: boundary of {fiber} on "
        f"{gen.render()} (not a suspension, no stored value)")


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


def boundary_hom(cat: KbCatalog, fib: BoundaryRule, k: int,
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
        v = boundary_value(cat, fib, gen, ctx)
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
