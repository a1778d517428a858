"""The homotopy-class calculus: composition gates, degree-map tunneling,
Whitehead bilinearity, suspension, and confluence of the shipped rules."""

import random

import pytest

from conechase import rewrite
from conechase.rewrite import StrictExpansionError, compose, normalize, suspend, whitehead
from conechase.terms import Element, Word, sphere


def parse(catalog, env, text):
    return catalog.parser(env).parse(text)


def test_gamma2_for_all_r(catalog):
    # [iota_2, 2^r iota_2] = 2^(r+1) eta_2, with no boundary facts consumed
    for r in range(1, 9):
        notes = []
        ctx = catalog.rule_context({"r": r, "sign": 1, "eps": 0, "x": 0, "y": 1},
                                   on_rule=notes.append)
        w = whitehead(Element.identity(sphere(2)),
                      Element.identity(sphere(2)).scale(2**r), ctx)
        assert w.render() == f"{2 ** (r + 1)}*eta_2"
        assert not any(f.kind == "boundary_value" for f in notes)


def test_whitehead_vanishing_and_zero_slot(catalog, ctx, env):
    p = catalog.parser(env)
    w = whitehead(Element.identity(sphere(2)), p.parse("eta_2"), ctx)
    assert w.is_zero()  # [iota_2, eta_2] = 0
    z = Element.zero(sphere(3), sphere(2))
    w = whitehead(Element.identity(sphere(2)), z, ctx)
    assert w.is_zero()


def test_whitehead_bilinearity_over_scalars(catalog, env):
    ctx = catalog.rule_context(env)
    p = catalog.parser(env)
    f = p.parse("j1_25")
    g = p.parse("j2_25")
    for k in range(-3, 4):
        left = whitehead(f.scale(k), g, ctx)
        right = whitehead(f, g.scale(k), ctx)
        both = whitehead(f, g, ctx).scale(k)
        assert normalize(left, ctx) == normalize(right, ctx) == normalize(both, ctx)


def test_identity_compose(catalog, ctx, env):
    p = catalog.parser(env)
    g = p.parse("eta_3")
    out = compose(Element.identity(sphere(3)), g, ctx)
    assert out == normalize(g, ctx)


def test_degree_tunneling_exactness(catalog, env):
    ctx = catalog.rule_context(env)
    p = catalog.parser(env)
    # degree map through the Hopf class squares: deg(2,2).eta_2 = 4 eta_2
    out = compose(p.parse("deg(2,2)"), p.parse("eta_2"), ctx)
    assert out.render() == "4*eta_2"
    # through an H-space sphere it stays linear: deg(2,3).nu' = 2 nu'
    out = compose(p.parse("deg(2,3)"), p.parse("nu'"), ctx)
    assert out.render() == "2*nu'"
    # inner degree maps are plain scalars
    out = compose(p.parse("eta_2"), p.parse("deg(3,3)"), ctx)
    assert out.render() == "3*eta_2"


def test_order_reduction_by_suffix(catalog, ctx, env):
    p = catalog.parser(env)
    out = normalize(p.parse("2*j_L(m).eta_2^3"), ctx)
    assert out.is_zero()  # eta_2^3 has order 2
    out = normalize(p.parse("4*eta_2.nu'"), ctx)
    assert out.is_zero()  # eta_2 nu' has order 4
    out = normalize(p.parse("2*eta_2.nu'"), ctx)
    assert not out.is_zero()
    # (2^m eta_2) . eta_3 dies for every m >= 1 (the composite has order 2)
    for m in range(1, 5):
        out = compose(p.parse("eta_2").scale(2**m), p.parse("eta_3"), ctx)
        assert out.is_zero()
    out = compose(p.parse("eta_2"), p.parse("eta_3"), ctx)
    assert out.render() == "eta_2 . eta_3"


def test_strict_mode_blocks_ungated_expansion(catalog, env):
    ctx = catalog.rule_context(env)
    p = catalog.parser(env)
    two_terms = p.parse("j1_25.q1_25 + j2_25.q2_25")
    # eta_2 is not a suspension and not preceded by anything collapsible
    with pytest.raises(StrictExpansionError):
        compose(two_terms, p.parse("j1_25.eta_2"), ctx)


def test_wedge_annihilation(catalog, ctx, env):
    p = catalog.parser(env)
    assert compose(p.parse("q1_25"), p.parse("j2_25"), ctx).is_zero()
    out = compose(p.parse("q2_25"), p.parse("j2_25"), ctx)
    assert out == Element.identity(sphere(5))


def test_suspension_kills_brackets_randomized(catalog, env):
    ctx = catalog.rule_context(env)
    p = catalog.parser(env)
    pool = [Element.identity(sphere(n)) for n in (2, 3, 4, 5)]
    pool += [p.parse(t) for t in
             ("eta_3", "eta_4", "eta_5", "j1_25", "j2_25", "beta(2)",
              "j_L(2)", "2*eta_3", "3*j2_25")]
    rng = random.Random(99)
    checked = 0
    for _ in range(200):
        f = rng.choice(pool)
        g = rng.choice([e for e in pool if e.target == f.target] or [f])
        if g.target != f.target:
            continue
        w = whitehead(f, g, ctx)
        s = suspend(w, ctx)
        assert s.is_zero()
        checked += 1
    assert checked == 200


def test_suspension_facts(catalog, env):
    ctx = catalog.rule_context(env)
    p = catalog.parser(env)
    out = suspend(p.parse("j_L(m).eta_2^3"), ctx)
    assert out.render() == "2*Sj1(3) . nu'"
    env2 = dict(env, eps=1)
    ctx2 = catalog.rule_context(env2)
    out = suspend(parse(catalog, env2, "eta~_4(m)"), ctx2)
    assert "Sj2(3) . eta_5" in out.render() and "2*Sj1(3) . nu'" in out.render()


def test_compose_associativity_structural(catalog, env):
    """(a.b).c == a.(b.c) on randomly drawn compatible word triples."""
    ctx = catalog.rule_context(env)
    p = catalog.parser(env)
    rng = random.Random(5)
    pool = ["eta_2", "eta_3", "eta_4", "eta_5", "j_L(2)", "j_pL(2)",
            "jS5(2)", "tau_L(2)", "j_F(2)", "j1_25", "j2_25", "q1_25",
            "q2_25", "beta(2)", "nu'", "chib(2)", "iota_3", "deg(2,2)",
            "deg(3,3)"]
    els = [p.parse(t) for t in pool]
    triples = 0
    attempts = 0
    while triples < 60 and attempts < 20000:
        attempts += 1
        ea, eb, ec = rng.choice(els), rng.choice(els), rng.choice(els)
        if ec.target != eb.source or eb.target != ea.source:
            continue
        left = compose(compose(ea, eb, ctx), ec, ctx)
        right = compose(ea, compose(eb, ec, ctx), ctx)
        assert left == right, (ea.render(), eb.render(), ec.render())
        triples += 1
    assert triples >= 30


def test_confluence_of_overlapping_rules(catalog, env):
    """Rule applications commute on the shipped set: reducing either
    redex of an overlap first yields the same normal form."""
    ctx = catalog.rule_context(env)
    p = catalog.parser(env)
    overlaps = [
        "tau_L(2).j_F(2).j1_25",     # (tau.jF) vs (jF.j1)
        "tau_L(2).j_F(2).j2_25",
        "psi(1,2).j_p(1).eta_2^3",
        "chib(3).tau_L(3).j_pL(3)",  # (chib.tau) vs (tau.jpL)
        "chib(3).tau_L(3).j_F(3)",   # (chib.tau) vs (tau.jF)
        "I_3(2).j_L(3).eta_2^3",
    ]
    for text in overlaps:
        el = p.parse(text)
        (word, c), = el.terms
        base = rewrite.normalize_word(word, c, ctx)
        # apply every single applicable rule once, each as the first move,
        # then finish normalizing: all routes must agree
        syms = list(word.syms)
        routes = []
        for i in range(len(syms)):
            for length in (1, 2):
                if i + length > len(syms):
                    continue
                hit = ctx.word_rule(syms[i:i + length])
                if hit is None:
                    continue
                sw = hit[0].single_word()
                if sw is None:
                    continue
                w2, c2 = sw
                spliced = syms[:i] + list(w2.syms) + syms[i + length:]
                routes.append(rewrite.normalize_word(
                    Word(spliced), c * c2, ctx))
        assert routes, f"no overlap found in {text}"
        for out in routes:
            assert out == base, f"confluence broken on {text}"


def test_naturality_push_binary_equality(catalog, env):
    ctx = catalog.rule_context(env)
    p = catalog.parser(env)
    br = whitehead(p.parse("j1_25"), p.parse("j2_25"), ctx)
    pushed = rewrite.naturality_push(p.parse("j_F(2)"), br, ctx)
    assert pushed.render() == "[j_pL(2), jS5(2)]"
    # the identity pushes to the same bracket
    from conechase.terms import wedge
    same = rewrite.naturality_push(Element.identity(wedge(2, 5)), br, ctx)
    assert same == br


def test_triple_indeterminacy_guards():
    from conechase.groups import TwoLocalGroup
    triv = TwoLocalGroup([])
    assert rewrite.triple_indeterminacy([triv, triv, triv]).is_trivial()
    with pytest.raises(rewrite.RewriteError, match="KB fact required"):
        rewrite.triple_indeterminacy([triv, None, triv])
    with pytest.raises(rewrite.RewriteError):
        rewrite.triple_indeterminacy([triv, TwoLocalGroup([2]), triv])


def test_coefficient_reduction_idempotent(catalog, ctx, env):
    """Adding order * term does not change the normal form."""
    p = catalog.parser(env)
    for text, order in (("eta_3", 2), ("nu'", 4), ("eta_2.nu'", 4),
                        ("j_L(m).eta_2^3", 2)):
        el = p.parse(text)
        assert normalize(el + el.scale(order), ctx) == normalize(el, ctx)


def test_pair_map_and_bracket_restriction(catalog, env):
    """The wedge co-pairing evaluates on both inclusions, and slot
    restriction along suspensions composes into the slots."""
    from conechase.terms import Pair, Word
    ctx = catalog.rule_context(env)
    p = catalog.parser(env)
    wmap = Element.from_term(Word((Pair(p.parse("j_L(3)"),
                                        p.parse("3*beta(3)")),)))
    # evaluation on each wedge summand
    left = compose(wmap, p.parse("j1_25"), ctx)
    assert left.render() == "j_L(3)"
    right = compose(wmap, p.parse("4*j2_25"), ctx)
    assert right.render() == "12*beta(3)"
    # restriction of a product along (j1, iota_5)
    a0 = whitehead(Element.identity(p.parse("j1_25").target),
                   p.parse("4*j2_25"), ctx)
    a1 = rewrite.naturality_push(wmap, a0, ctx)
    rel = rewrite.bracket_restrict(
        a1, [p.parse("j1_25"), Element.identity(sphere(5))], ctx)
    assert rel.render() == "12*[j_L(3), beta(3)]"


def test_normalize_is_idempotent(catalog, env):
    ctx = catalog.rule_context(env)
    p = catalog.parser(env)
    corpus = [
        "j_L(m).eta_2^3", "3*beta(m)", "eta_2.nu'", "2*eta_2.nu'",
        "tau_L(m).j_F(m).j1_25.eta_2^2", "psi(1,2).j_p(1).eta_2^3",
        "chib(m).j_L(m).eta_2^3", "[j1_25, j2_25]",
        "sign*2^m*j2_25.q2_25 + j1_25.q1_25",
        "deg(6,2).eta_2", "lam(m).j6p4(m)",
    ]
    for text in corpus:
        el = normalize(p.parse(text), ctx)
        assert normalize(el, ctx) == el, f"normalize not stable on {text!r}"
