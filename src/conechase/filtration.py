"""Cell model for the filtration of the homotopy fiber of a pinch map.

For f : S^p -> S^q (both suspensions), the fiber of the pinch
C_f -> S^{p+1} is filtered by stages J_1 c J_2 c ...; stage r attaches
one cone of dimension q + (r-1)p along a class gamma_r which is an r-th
order Whitehead product [j, j f, ..., j f] of the bottom inclusion with
itself twisted by f.  gamma_2 is the binary generalized product and is
rewritten eagerly; higher stages keep the bracket node.
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
    bottom: Element              # inclusion of the bottom sphere


@dataclass
class FiltrationModel:
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


def _stage(prev: Stage, gamma: Element, cell: int, index: int,
           ctx: rewrite.RuleContext) -> Stage:
    """The stage attaching e^cell along gamma, with its bottom inclusion: a
    wedge when gamma vanishes on a sphere, the two-cell complex L4(m) when
    gamma = 2^m eta_2, and an anonymous stage otherwise."""
    q = prev.bottom.source
    if gamma.is_zero():
        name = f"{prev.space_name} v S^{cell}"
        if prev.space.kind == "sphere":
            space = wedge(q.data[0], cell)
            j = Sym(f"j1_{q.data[0]}{cell}", (), q, space, is_susp=True)
            return Stage(index, space, name, cell, gamma, _inclusion(j))
    else:
        name = f"{prev.space_name} u e^{cell}"
        sw = gamma.single_word()
        sym = sw[0].syms[0] if sw is not None and len(sw[0].syms) == 1 \
            else None
        if prev.space == sphere(2) and isinstance(sym, Sym) \
                and sym.name == "eta_2":
            m = abs(strip_odd(sw[1])).bit_length() - 1
            return Stage(index, named("L4", m), f"L4({m})", cell, gamma,
                         _inclusion(ctx.registry.make("j_L", (m,))))
    space = named("Jstage", index)
    return Stage(index, space, name, cell, gamma,
                 _inclusion(Sym(f"jY_{index}", (), q, space)))


def _inclusion(sym: Sym) -> Element:
    return Element.from_term(Word((sym,)))


def build_filtration(f: MapSpec, n: int,
                     ctx: rewrite.RuleContext) -> FiltrationModel:
    """Stage spaces and attaching classes up to stage n.

    Stage r carries an r-th order bracket [j, j f, ..., j f]; the binary
    stage is rewritten immediately (it is single-valued).
    """
    if n < 1:
        raise FiltrationError("need at least one stage")
    p = f.source.data[0]
    q = f.target.data[0]
    stages = [Stage(1, f.target, f.target.key, None, None,
                    Element.identity(f.target))]
    for r in range(2, n + 1):
        cell = q + (r - 1) * p
        prev = stages[-1]
        j = prev.bottom
        jf = rewrite.compose(j, f.class_el, ctx)
        if r == 2:
            gamma = rewrite.whitehead(j, jf, ctx)
        else:
            gamma = rewrite.higher_bracket([j] + [jf] * (r - 1), ctx)
        stages.append(_stage(prev, gamma, cell, r, ctx))
    return FiltrationModel(stages)


def skeleton_of_fiber(f: MapSpec, m: int, ctx: rewrite.RuleContext):
    """Largest stage whose cells all sit in dimension <= m.

    pi_k of the fiber agrees with pi_k of that stage for
    k < (next cell dimension) - 1.
    """
    p = f.source.data[0]
    q = f.target.data[0]
    r = 1
    while q + r * p <= m:
        r += 1
    model = build_filtration(f, r, ctx)
    return r, model.stages[-1]
