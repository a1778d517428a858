"""Cell model of the fiber filtration and its suspension splitting."""

import pytest

from conechase import filtration, rewrite
from conechase.filtration import FiltrationError, MapSpec
from conechase.terms import Element, sphere, wedge


def degree_map(catalog, env, r):
    return MapSpec(catalog.parser(env).parse(f"2^{r}*iota_2"))


def hopf_multiple(catalog, env, m):
    return MapSpec(catalog.parser(env).parse(f"2^{m}*eta_2"))


def test_mapspec_requires_suspensions(catalog, env):
    el = catalog.parser(env).parse("j_L(2)")
    with pytest.raises(FiltrationError, match="suspension"):
        MapSpec(el)


def test_cell_dimension_law(catalog, ctx, env):
    # cells of stage r sit in dimension q + (r-1)p, for any sphere pair
    from conechase.terms import Sym, Word
    for p in range(2, 7):
        for q in range(2, 7):
            if p == q:
                el = Element.identity(sphere(p)).scale(2)
            else:
                f = Sym(f"f{p}{q}", (), sphere(p), sphere(q))
                el = Element.from_term(Word((f,)))
            model = filtration.build_filtration(MapSpec(el), 5, ctx)
            for st in model.stages[1:]:
                assert st.cell_dim == q + (st.index - 1) * p
                assert st.gamma is not None
                if not st.gamma.is_zero() and st.index >= 3:
                    ((bracket, _),) = st.gamma.terms
                    assert bracket.arity == st.index


def test_cell_dimension_law_mixed(catalog, ctx, env):
    # q = 2, p = 3 (the Hopf-multiple family)
    spec = hopf_multiple(catalog, env, 2)
    model = filtration.build_filtration(spec, 4, ctx)
    assert [st.cell_dim for st in model.stages] == [None, 5, 8, 11]


def test_tower_for_degree_maps(catalog, env):
    ctx = catalog.rule_context(env)
    for r in range(1, 9):
        model = filtration.build_filtration(degree_map(catalog, env, r), 3,
                                            ctx)
        g2 = model.stages[1].gamma
        assert g2.render() == f"{2 ** (r + 1)}*eta_2"
        assert model.stages[1].space_name == f"L4({r + 1})"
        g3 = model.stages[2].gamma
        assert len(g3.terms) == 1
        bracket = g3.terms[0][0]
        assert bracket.arity == 3
        # every slot beyond the first is (first slot) . f
        first = bracket.slots[0]
        for s in bracket.slots[1:]:
            assert s == rewrite.normalize(
                rewrite.compose(first, Element.identity(sphere(2)).scale(2**r),
                                ctx), ctx)


def test_wedge_detection(catalog, env):
    ctx = catalog.rule_context(env)
    model = filtration.build_filtration(hopf_multiple(catalog, env, 3), 2, ctx)
    st = model.stages[1]
    assert st.gamma.is_zero()
    assert st.space == wedge(2, 5)
    assert "v S^5" in st.space_name


def test_single_stage(catalog, ctx, env):
    model = filtration.build_filtration(degree_map(catalog, env, 1), 1, ctx)
    assert len(model.stages) == 1
    assert model.stages[0].space == sphere(2)
    assert "J_1 = S2" in model.render()


def test_skeleton_of_fiber(catalog, env):
    ctx = catalog.rule_context(env)
    r, st = filtration.skeleton_of_fiber(degree_map(catalog, env, 2), 6, ctx)
    assert r == 3
    r, st = filtration.skeleton_of_fiber(hopf_multiple(catalog, env, 2), 6,
                                         ctx)
    assert r == 2
    r, st = filtration.skeleton_of_fiber(degree_map(catalog, env, 2), 1, ctx)
    assert r == 1


def test_suspend_gamma_is_zero(catalog, env):
    ctx = catalog.rule_context(env)
    for r in (1, 2, 3):
        model = filtration.build_filtration(degree_map(catalog, env, r), 4,
                                            ctx)
        for st in model.stages[1:]:
            if st.gamma.is_zero():
                continue
            assert rewrite.suspend(st.gamma, ctx).is_zero()


def test_splitting_check_all_shipped_mapspecs(catalog, env):
    ctx = catalog.rule_context(env)
    specs = [degree_map(catalog, env, r) for r in range(1, 9)]
    specs += [hopf_multiple(catalog, env, m) for m in range(0, 9)]
    for spec in specs:
        for k in (1, 2, 3, 4):
            assert filtration.suspension_splitting_check(
                spec, k, 14, ctx=ctx), \
                f"splitting fails for {spec.class_el.render()} at stage {k}"


def test_splitting_check_negative_control(catalog, env):
    ctx = catalog.rule_context(env)
    spec = degree_map(catalog, env, 2)
    assert not filtration.suspension_splitting_check(
        spec, 3, 12, corrupt_cell=1, ctx=ctx)
