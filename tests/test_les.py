"""Connecting-map evaluation and the golden reproduction table."""

import pathlib
import subprocess
import sys

import pytest

from conechase import les, rewrite
from conechase.kb import KbMissingFact


def value(catalog, env, head, params, text):
    ctx = catalog.rule_context(env)
    fib = les.fibration(catalog, env, head, params)
    gen = catalog.parser(env).parse(text)
    return les.boundary_value(catalog, env, fib, gen, ctx)


def test_boundary_on_suspensions_is_derived(catalog):
    env = {"m": 1, "sign": 1, "eps": 0, "x": 0, "y": 1}
    # the connecting map factors through the attaching class: j . f . (-)
    v = value(catalog, env, "F_p4", (1,), "Sigma_nu'")
    assert v.render() == "2*jp4(1) . nu'"
    v = value(catalog, env, "F_pL", (1,), "Sigma_nu'")
    assert v.render() == "2*j_pL(1) . eta_2 . nu'"
    # order-2 targets annihilate the even coefficients
    v = value(catalog, env, "F_pL", (1,), "eta_4^2")
    assert v.is_zero()
    env2 = {"m": 0, "sign": 1, "eps": 0, "x": 0, "y": 1}
    v = value(catalog, env2, "F_pL", (0,), "eta_4")
    assert v.render() == "j_pL(0) . eta_2 . eta_3"


def test_boundary_needs_fact_for_nonsuspensions(catalog):
    env = {"r": 1, "sign": 1, "eps": 0, "x": 0, "y": 1}
    v = value(catalog, env, "F_p", (1,), "nu'")
    assert v.render() == "j_p(1) . eta_2 . eta_3 . eta_4"
    # no fact covers a made-up class of the base sphere in this degree
    filtered = catalog.without_facts(lambda f: f.kind == "boundary_value")
    ctx = filtered.rule_context(env)
    fib = les.fibration(filtered, env, "F_p", (1,))
    gen = filtered.parser(env).parse("nu'")
    with pytest.raises(KbMissingFact, match="KB fact required"):
        les.boundary_value(filtered, env, fib, gen, ctx)


def test_transported_boundary_matches_direct_composition(catalog):
    env = {"r": 3, "s": 1, "sign": 1, "eps": 0, "x": 0, "y": 1}
    v = value(catalog, env, "F_p", (3,), "nu'")
    assert v.is_zero()  # 2^(2r-2) kills the order-2 class for r >= 2
    env1 = {"r": 1, "sign": 1, "eps": 0, "x": 0, "y": 1}
    v1 = value(catalog, env1, "F_p", (1,), "nu'")
    assert not v1.is_zero()


def test_golden_reproduction_table(catalog):
    """The full reproduction table is pinned as a golden file; any change
    to the shipped facts or scripts that moves a group must show up as a
    reviewed diff here."""
    out = subprocess.run(
        [sys.executable, "-m", "conechase.cli", "reproduce"],
        capture_output=True, text=True, check=True)
    got = out.stdout.splitlines()
    assert got[0].startswith("# kb digest:")
    golden = pathlib.Path(__file__).parent / "golden" / "reproduce.txt"
    assert got[1:] == golden.read_text().splitlines()


def test_lookup_surfaces(catalog):
    from conechase.terms import sphere
    env = {"m": 2, "sign": 1, "eps": 0, "x": 0, "y": 1}
    g, _, _ = catalog.group_fact(sphere(3), 6, env)
    assert g.render() == "Z/4" and g.labels == ("nu'",)
    v, _ = catalog.boundary_fact("F_p", (1,), catalog.parser(env).parse("nu'"),
                                 env)
    assert "eta_2" in v.render()
    # no stored value on a suspension class: the lookup misses
    assert catalog.boundary_fact(
        "F_p", (1,), catalog.parser(env).parse("eta_3"), env) is None


def test_attaching_class_comes_from_exactly_one_place(catalog):
    """FM declares no class, so a script passes one with attach=; a class
    from both the declaration and attach=, or from neither, is an error."""
    from conechase.terms import sphere
    env = {"r": 1, "sign": 1, "eps": 0, "x": 0, "y": 1}
    gamma = catalog.parser(env).parse("6*beta(2)")
    fib = les.fibration(catalog, env, "FM", (1,), attach=gamma)
    assert fib.f is gamma and fib.base == sphere(6)
    assert fib.j_p.render() == "jM(1)"
    with pytest.raises(les.LesError, match="exactly one"):
        les.fibration(catalog, env, "FM", (1,))
    with pytest.raises(les.LesError, match="exactly one"):
        les.fibration(catalog, env, "F_p", (1,), attach=gamma)


def test_boundary_on_suspension_refuses_nonsuspensions(catalog):
    env = {"m": 1, "sign": 1, "eps": 0, "x": 0, "y": 1}
    ctx = catalog.rule_context(env)
    fib = les.fibration(catalog, env, "F_p4", (1,))
    alpha = catalog.parser(env).parse("Sigma_nu'")
    v = les.boundary_on_suspension(fib, alpha, ctx)
    assert v.render() == "2*jp4(1) . nu'"
    with pytest.raises(KbMissingFact, match="not a suspension"):
        les.boundary_on_suspension(fib, catalog.parser(env).parse("nu_4"), ctx)


def test_exactness_audit_across_the_cone_family(catalog, runner):
    """|pi_k(cone)| = |coker(upper)| * |ker(lower)| in every window where
    all slots are materialized."""
    from conechase.les import assemble_segment, pi_group_from_fact, push_forward
    from conechase.terms import wedge
    for m in (1, 2, 3, 4):
        envm = {"m": m, "sign": 1, "eps": 0, "x": 0, "y": 1}
        ctx = catalog.rule_context(envm)
        fib = les.fibration(catalog, envm, "F_pL", (m,))
        jf = catalog.parser(envm).parse(f"j_F({m})")
        fiber_groups = {
            k: push_forward(
                pi_group_from_fact(catalog, envm, wedge(2, 5), k, ctx),
                jf, jf.target, ctx)
            for k in (4, 5, 6)}
        for k, script in ((5, "pi5_L4m"), (6, "pi6_L4m")):
            cone = runner.run(script, {"m": m}, sweep=False).group
            seg = assemble_segment(catalog, envm, fib, k, fiber_groups, ctx,
                                   cone_mid=cone)
            assert seg.d_upper is not None and seg.d_lower is not None
            assert seg.audit(), f"audit failed at m={m}, k={k}"
