"""Cell model for the filtration of the homotopy fiber of a pinch map.

For f : S^p -> S^q (both suspensions), the fiber of the pinch
C_f -> S^{p+1} is filtered by stages J_1 c J_2 c ...; stage r attaches
one cone of dimension q + (r-1)p along a class gamma_r which is an r-th
order Whitehead product [j, j f, ..., j f] of the bottom inclusion with
itself twisted by f.  gamma_2 is the binary generalized product and is
rewritten eagerly; higher stages keep the bracket node.

After one suspension the filtration splits into a wedge; the check here
compares 2-local cellular homology of the suspended stage against that
wedge degree by degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .groups import strip_odd
from .terms import Element, Space, Sym, TermError, Word, sphere, wedge, named
from . import rewrite


class FiltrationError(TermError):
    pass


@dataclass(frozen=True)
class MapSpec:
    """A map of suspensions given by its homotopy class."""
    class_el: Element

    @property
    def source(self) -> Space:
        return self.class_el.source

    @property
    def target(self) -> Space:
        return self.class_el.target

    def __post_init__(self):
        for sp, side in ((self.source, "source"), (self.target, "target")):
            if sp.kind != "sphere" or sp.data[0] < 2:
                raise FiltrationError(
                    f"filtration {side} must be a sphere suspension, got "
                    f"{sp.key}; the stage model is only known for suspensions")


@dataclass
class Stage:
    index: int
    space: Space
    space_name: str
    cell_dim: Optional[int]      # None for stage 1
    gamma: Optional[Element]     # attaching class of the stage's cone


@dataclass
class FiltrationModel:
    f: MapSpec
    stages: List[Stage]

    def render(self) -> str:
        lines = []
        for st in self.stages:
            if st.cell_dim is None:
                lines.append(f"J_1 = {st.space_name}")
            elif st.gamma is not None and st.gamma.is_zero():
                lines.append(f"J_{st.index} = {st.space_name} "
                             f"(attaching class vanishes: wedge summand S^{st.cell_dim})")
            else:
                lines.append(f"J_{st.index}: attach e^{st.cell_dim} via "
                             f"gamma_{st.index} = {st.gamma.render()}")
        return "\n".join(lines)


def _stage(prev: Stage, gamma: Element, cell: int, index: int) -> Stage:
    """The stage attaching e^cell along gamma: a wedge when gamma vanishes
    on a sphere, the two-cell complex L4(m) when gamma = 2^m eta_2."""
    if gamma.is_zero():
        space = (wedge(prev.space.data[0], cell)
                 if prev.space.kind == "sphere" else named("Jstage", index))
        return Stage(index, space, f"{prev.space_name} v S^{cell}", cell,
                     gamma)
    sw = gamma.single_word()
    sym = sw[0].syms[0] if sw is not None and len(sw[0].syms) == 1 else None
    if prev.space == sphere(2) and isinstance(sym, Sym) and sym.name == "eta_2":
        m = abs(strip_odd(sw[1])).bit_length() - 1
        return Stage(index, named("L4", m), f"L4({m})", cell, gamma)
    return Stage(index, named("Jstage", index),
                 f"{prev.space_name} u e^{cell}", cell, gamma)


def bottom_inclusion(space: Space, q: int, stage: int, registry=None) -> Element:
    """The inclusion of the bottom sphere into a stage space."""
    if space.kind == "sphere":
        return Element.identity(space)
    if registry is not None:
        if space.kind == "wedge" and space.data == (2, 5):
            return Element.from_term(Word((registry.make("j1_25", ()),)))
        if space.kind == "named" and space.data[0] == "L4":
            return Element.from_term(
                Word((registry.make("j_L", (space.data[1][0],)),)))
    if space.kind == "wedge":
        d = space.data[1]
        sym = Sym(f"j1_{q}{d}", (), sphere(q), space, is_susp=True)
        return Element.from_term(Word((sym,)))
    if space.kind == "named" and space.data[0] == "L4":
        sym = Sym("j_L", (space.data[1][0],), sphere(2), space)
        return Element.from_term(Word((sym,)))
    sym = Sym(f"jY_{stage}", tuple(), sphere(q), space)
    return Element.from_term(Word((sym,)))


def build_filtration(f: MapSpec, n: int,
                     ctx: Optional[rewrite.RuleContext] = None,
                     registry=None) -> FiltrationModel:
    """Stage spaces and attaching classes up to stage n.

    Stage r carries an r-th order bracket [j, j f, ..., j f]; the binary
    stage is rewritten immediately (it is single-valued).
    """
    if n < 1:
        raise FiltrationError("need at least one stage")
    ctx = ctx or rewrite.EMPTY_CONTEXT
    p = f.source.data[0]
    q = f.target.data[0]
    stages = [Stage(1, f.target, f.target.key, None, None)]
    for r in range(2, n + 1):
        cell = q + (r - 1) * p
        prev = stages[-1]
        j = bottom_inclusion(prev.space, q, r - 1, registry)
        jf = rewrite.compose(j, f.class_el, ctx)
        if r == 2:
            gamma = rewrite.whitehead(j, jf, ctx)
        else:
            gamma = rewrite.higher_bracket([j] + [jf] * (r - 1),
                                           tag=f"stage-{r}", ctx=ctx)
        stages.append(_stage(prev, gamma, cell, r))
    return FiltrationModel(f, stages)


def skeleton_of_fiber(f: MapSpec, m: int,
                      ctx: Optional[rewrite.RuleContext] = None,
                      registry=None):
    """Largest stage whose cells all sit in dimension <= m.

    pi_k of the fiber agrees with pi_k of that stage for
    k < (next cell dimension) - 1.
    """
    p = f.source.data[0]
    q = f.target.data[0]
    r = 1
    while q + r * p <= m:
        r += 1
    model = build_filtration(f, r, ctx, registry)
    return r, model.stages[-1]


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
                               corrupt_cell: Optional[int] = None,
                               ctx: Optional[rewrite.RuleContext] = None,
                               registry=None) -> bool:
    """Compare H_*(Sigma J_k) with the expected wedge of smash summands.

    The attaching classes are Whitehead brackets or torsion classes, so
    their Hurewicz images vanish and every suspended stage contributes a
    free summand; the check reduces to the multiset of cell dimensions.
    A corrupted model (``corrupt_cell`` shifts one cell) must fail.
    """
    model = build_filtration(f, k, ctx, registry)
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
