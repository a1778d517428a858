"""The homotopy-class calculus: composition gates, degree-map tunneling,
Whitehead bilinearity, suspension, and confluence of the shipped rules."""

import hashlib
import itertools
import random
from importlib import resources

import pytest

import checks
from conechase import rewrite
from conechase.derive import CANONICAL_TOKENS, SWEEP_GRID, default_catalog
from conechase.kb import KbError, load_catalog
from conechase.rewrite import StrictExpansionError, compose, normalize, suspend, whitehead
from conechase.terms import Bracket, Element, Sym, TermError, Word, named, sphere


def parse(catalog, env, text):
    return catalog.parser(env).parse(text)


def test_gamma2_for_all_r(catalog):
    # [iota_2, 2^r iota_2] = 2^(r+1) eta_2, with no boundary facts consumed
    for r in range(1, 9):
        ctx = catalog.rule_context(
            {"r": r, "sign": 1, "eps": 0, "x": 0, "y": 1})
        w, notes = ctx.citing(whitehead, Element.identity(sphere(2)),
                              Element.identity(sphere(2)).scale(2**r), ctx)
        assert w.render() == f"{2 ** (r + 1)}*eta_2"
        assert not any(f.kind == "boundary_value" for f in notes)


def test_products_need_suspension_sources(ctx):
    """A Whitehead product, binary or as a bracket node, is defined only
    on classes whose source is a suspension; a filtration stage is not
    recognised as one."""
    stage = Element.identity(named("Jstage", 3))
    with pytest.raises(TermError, match="needs suspension sources, got "
                                        "Jstage\\(3\\)"):
        whitehead(stage, stage, ctx)
    with pytest.raises(TermError, match="Jstage\\(3\\) is not a suspension"):
        Bracket([stage, stage])


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
    # deg(1,3) is the identity of S^3 and deg(0,3) is null
    assert normalize(p.parse("eta_2.deg(1,3)"), ctx).render() == "eta_2"
    assert normalize(p.parse("eta_2.deg(0,3)"), ctx).is_zero()
    # eta_3 = Sigma eta_2 is a suspension on S^4, so deg(2,3) . eta_3 =
    # eta_3 . deg(2,4); the Hopf map nu_4 is no suspension and S^4 is no
    # H-space, so the degree map stops in front of it
    out = normalize(p.parse("eta_2.deg(2,3).eta_3.nu_4"), ctx)
    assert out.render() == "eta_2 . eta_3 . deg(2,4) . nu_4"
    # into a bracket a degree map is an inner scalar:
    # [iota_2, iota_2] . deg(3,3) = 3 [iota_2, iota_2] = 3 * 2 eta_2
    out = compose(p.parse("[iota_2, iota_2]"), p.parse("deg(3,3)"), ctx)
    assert out.render() == "6*eta_2"


def test_a_rule_may_rewrite_a_word_to_an_identity(tmp_path, env):
    """With bb . aa = iota_3 stored, the word bb . aa normalises to the
    identity of S^3, the source of the rule's right side."""
    path = tmp_path / "retract.facts"
    path.write_text(
        "symbol aa : S3 -> S5\nsymbol bb : S5 -> S3\n"
        "fact map_identity | bb.aa | iota_3 | paper | q | loc\n")
    catalog = load_catalog(path)
    out = normalize(catalog.parser(env).parse("bb.aa"),
                    catalog.rule_context(env))
    assert out == Element.identity(sphere(3))
    assert out.render() == "id(S3)"


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


def test_order_bounds_come_from_cited_facts(tmp_path, env):
    """The order of a word's last symbol is bounded by the group fact that
    lists the symbol as a generator of finite order, and the bound is
    cited where it changes a coefficient and only there.  A group fact
    whose payload names a token bounds nothing, nor does a relation
    ``0*word = 0``."""
    path = tmp_path / "orders.facts"
    path.write_text(
        "symbol aa : S5 -> S3\nsymbol bb : S6 -> S3\nsymbol cc : S6 -> S4\n"
        "fact group | S3 @ 5 | Z/4{aa} | paper | q | loc\n"
        "fact group | S3 @ 6 | Z/2^(1+eps){bb} | paper | q | loc\n"
        "fact relation | 0*cc | 0 | paper | q | loc\n")
    catalog = load_catalog(path)
    ctx = catalog.rule_context(env)
    for text, want, lines in (("5*aa", "aa", [4]), ("4*aa", "0", [4]),
                              ("3*aa", "3*aa", []), ("4*bb", "4*bb", []),
                              ("2*cc", "2*cc", [])):
        out, cited = ctx.citing(normalize, parse(catalog, env, text), ctx)
        assert (out.render(), [f.line for f in cited]) == (want, lines)


def test_degree_maps_tunnel_only_as_facts_say(tmp_path, env):
    """Hilton's k -> k^2 twist through the Hopf class is a catalog rule,
    and a degree map on S^3 passes a map from a sphere only once the
    stored [iota_3, iota_3] is 0; that fact is cited whenever it is
    found, zero or not."""
    catalog = default_catalog()
    lacking = catalog.without_facts(lambda f: "Hilton" in f.locator)
    text = "deg(3,2).eta_2"
    for cat, want in ((catalog, "9*eta_2"), (lacking, "deg(3,2) . eta_2")):
        ctx = cat.rule_context(env)
        assert normalize(parse(cat, env, text), ctx).render() == want
    decl = "symbol aa : S6 -> S3\n"
    product = "fact relation | [iota_3, iota_3] | {} | paper | q | loc\n"
    for facts, want, lines in ((product.format("0"), "2*aa", [2]),
                               (product.format("eta_3^2"), "deg(2,3) . aa",
                                [2]),
                               ("", "deg(2,3) . aa", [])):
        path = tmp_path / "hspace.facts"
        path.write_text(decl + facts)
        cat = load_catalog(path)
        ctx = cat.rule_context(env)
        out, cited = ctx.citing(normalize, parse(cat, env, "deg(2,3).aa"),
                                ctx)
        assert (out.render(), [f.line for f in cited]) == (want, lines)


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


def test_resolve_triple_needs_a_trivial_ambient_group(catalog, ctx, env):
    """The triple product [j, j, j] on CP^2 is the singleton {sign*6*beta_0}
    (catalog line 75) only when the ambient group its indeterminacy lies
    in vanishes; with sign = 1 it resolves to 6*beta(0)."""
    from conechase.groups import TwoLocalGroup
    from conechase.kb import KbMissingFact
    triple = parse(catalog, env, "[j_L(0), j_L(0), j_L(0)]")
    got = rewrite.resolve_triple(triple, TwoLocalGroup([]), ctx)
    assert got.render() == "6*beta(0)"
    with pytest.raises(KbMissingFact, match="indeterminacy with nontrivial "
                                            "ambient groups"):
        rewrite.resolve_triple(triple, TwoLocalGroup([2]), ctx)


def test_resolve_triple_takes_degree_maps_out_of_its_slots(catalog, ctx,
                                                          env):
    """A slot precomposed with degree maps on S2, a suspension, resolves
    as that slot scaled by their degrees: j.deg(2,2) counts as 2*j."""
    from conechase.groups import TwoLocalGroup
    for slotted, scaled in (
            ("[j_L(0).deg(2,2), j_L(0), j_L(0)]",
             "[2*j_L(0), j_L(0), j_L(0)]"),
            ("[j_L(0), j_L(0).deg(4,2).deg(-1,2), j_L(0)]",
             "[j_L(0), -4*j_L(0), j_L(0)]")):
        got, want = (rewrite.resolve_triple(parse(catalog, env, text),
                                            TwoLocalGroup([]), ctx)
                     for text in (slotted, scaled))
        assert got == want
    assert got.render() == "-24*beta(0)"


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


def test_a_symbol_named_pair_is_not_a_co_pairing(tmp_path):
    """A co-pairing's symbol name is one no declaration can take, so a
    catalog that declares a symbol ``pair`` with an order bound finds no
    fact for a co-pairing and leaves it as it is."""
    from conechase.terms import Pair
    path = tmp_path / "pair.facts"
    path.write_text("symbol pair : S3 -> S2\n"
                    "fact relation | 2*pair | 0 | paper | q | loc\n")
    catalog = load_catalog(path)
    p = catalog.parser({})
    wmap = Element.from_term(Word((Pair(p.parse("eta_2"),
                                        p.parse("eta_2.eta_3.eta_4")),)))
    got = normalize(wmap, catalog.rule_context({}))
    assert got.render() == "pair(eta_2, eta_2 . eta_3 . eta_4)"
    assert normalize(p.parse("2*pair"), catalog.rule_context({})).is_zero()


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


# ---------------------------------------------------------------------------
# the catalog's memo of normal forms
# ---------------------------------------------------------------------------

def answer(catalog, text, **tokens):
    """(normal form, cited fact lines) of the single word ``text`` on a
    new context of ``catalog``, under the canonical tokens as changed by
    ``tokens``."""
    env = dict(CANONICAL_TOKENS, **tokens)
    ctx = catalog.rule_context(env)
    ((word, coeff),) = parse(catalog, env, text).terms
    out, notes = ctx.citing(rewrite.normalize_word, word, coeff, ctx)
    return out.render(), [f.line for f in notes]


def memo_entries(catalog):
    return sum(len(entries) for entries in catalog._normal_forms.values())


@pytest.mark.parametrize("text, token, values, line", [
    ("lam(3).j6p4(3)", "x", (0, 1), 87),    # the payload reads x and y
    ("chiJ2(3)", "eps", (0, 1), 85),        # the payload reads sign, eps
])
def test_memo_answers_follow_the_tokens_they_read(text, token, values, line):
    """Negative control on the shipped catalog: one catalog normalises a
    word under two values of a token its rule reads, and each answer and
    citation list must be a fresh catalog's.  A memo that ignored the
    tokens would serve the first answer to the second context."""
    catalog = default_catalog()
    got = [answer(catalog, text, **{token: v}) for v in values]
    want = [answer(default_catalog(), text, **{token: v}) for v in values]
    assert got == want
    assert got[0][0] != got[1][0]
    assert all(line in lines for _, lines in got)


def test_memo_answers_take_the_tokens_of_nested_normalisations(tmp_path):
    """A rule whose rhs is a sum normalises each summand in a nested
    call, and the token that call reads (x, here) belongs to the outer
    answer too: it must not serve a context with another x."""
    path = tmp_path / "nested.facts"
    path.write_text(
        "symbol f : S4 -> S3\nsymbol g : S4 -> S3\nsymbol h : S4 -> S3\n"
        "fact map_identity | f | g + h | paper | q | loc\n"
        "fact map_identity | g | x*h | paper | q | loc\n")
    catalog = load_catalog(path)
    got = [answer(catalog, "f", x=v) for v in (0, 1)]
    assert got == [answer(load_catalog(path), "f", x=v) for v in (0, 1)]
    assert got == [("h", [4, 5]), ("2*h", [4, 5])]


def test_memo_serves_a_token_free_word_to_every_context():
    """A word whose rules read no token is normalised once per catalog:
    a context under other token values executes nothing new and gets the
    same answer and citations."""
    catalog = default_catalog()
    text = "tau_L(3).j_pL(3).eta_2.nu'"
    first = answer(catalog, text)
    assert first[1] == [90]
    entries = memo_entries(catalog)
    assert answer(catalog, text, sign=-1, eps=1, x=-1, y=-3) == first
    assert memo_entries(catalog) == entries


def test_memo_tells_apart_words_that_print_alike(ctx):
    """The memo is keyed by word equality, which compares spaces: two
    stage inclusions named alike keep their own sources."""
    stage = named("Jstage", 3)
    for n in (3, 4):
        word = Word((Sym("jY_3", (), sphere(n), stage),))
        assert rewrite.normalize_word(word, 1, ctx).source == sphere(n)


# ---------------------------------------------------------------------------
# the kernel's normal-form table
# ---------------------------------------------------------------------------

# sha256 of ``normal_form_table`` on the shipped catalog; a change to the
# rewrite kernel may not change a normal form, an error or a citation
NORMAL_FORM_TABLE = (
    "4eabc60b24e5ebd7c69d327ef345d07b0b354ff41f7e3b735b2d6a34536cd730")


def table_symbols(catalog) -> list:
    """Every declared symbol at each parameter in 1..3, then eta_2..eta_6:
    110 symbols on the shipped catalog."""
    reg = catalog.registry
    syms = [reg.make(name, params) for name, spec in reg.specs.items()
            for params in itertools.product((1, 2, 3), repeat=spec.nvars)]
    return syms + [reg.make(f"eta_{n}", ()) for n in range(2, 7)]


def table_words(syms) -> list:
    """Every composable word of one to three of ``syms``."""
    words = [(s,) for s in syms]
    for start in (0, len(syms)):
        words += [w + (s,) for w in words[start:] for s in syms
                  if s.target == w[-1].source]
    return [Word(w) for w in words]


def normal_form_row(catalog, word) -> str:
    """One line of the table: the word, its normal form under the
    canonical tokens (or the error's class and message) and the lines of
    the facts it cited."""
    ctx = catalog.rule_context(CANONICAL_TOKENS)
    try:
        out, notes = ctx.citing(rewrite.normalize_word, word, 1, ctx)
    except (TermError, KbError) as e:
        return f"{word.render()}\t{type(e).__name__}: {e}"
    return (f"{word.render()}\t{out.render()} : {out.source.key} -> "
            f"{out.target.key}\t{[f.line for f in notes]}")


def test_the_normal_form_table_is_pinned():
    """Every composable word of up to three symbols normalises, raises and
    cites exactly as pinned, on one warm catalog view and on a fresh view
    per word alike."""
    catalog = default_catalog()
    words = table_words(table_symbols(catalog))
    assert len(words) == 1692
    warm = [normal_form_row(catalog, w) for w in words]
    fresh = [normal_form_row(default_catalog(), w) for w in words]
    assert warm == fresh
    assert sum("\t[" not in row for row in warm) == 141
    table = "\n".join(warm).encode()
    assert hashlib.sha256(table).hexdigest() == NORMAL_FORM_TABLE


# ---------------------------------------------------------------------------
# rewrite plans
# ---------------------------------------------------------------------------

PLAN_FACTS = """\
symbol plan_a : S4 -> S3
symbol plan_b : S5 -> S4
symbol plan_c : S5 -> S3
fact map_identity | plan_a.plan_b | plan_c | paper | q | loc
"""


def test_rewrite_plans_belong_to_one_catalog(tmp_path):
    """Negative control: a plan records which chunks the catalog's index
    holds, so a catalog lacking a word rule must not take the plan of one
    that has it, nor the other way round, whichever warms its table
    first.  On the shipped catalog the rule chib . j_L -> j_L(0) is
    planned on a warm view; a copy without it leaves the word stuck."""
    path = tmp_path / "plan.facts"
    path.write_text(PLAN_FACTS)
    for lacking_first in (True, False):
        full = load_catalog(path)
        lacking = full.without_facts(lambda f: True)
        assert full._plans is not lacking._plans
        want = {lacking: ("plan_a . plan_b", []), full: ("plan_c", [4])}
        order = [lacking, full] if lacking_first else [full, lacking]
        for catalog in order + order:
            assert answer(catalog, "plan_a.plan_b") == want[catalog]
    shipped = default_catalog()
    assert answer(shipped, "chib(3).j_L(3)") == ("j_L(0)", [82])
    assert ("chib", "j_L") in shipped._plans
    lacking = shipped.without_facts(lambda f: f.line == 82)
    assert answer(lacking, "chib(3).j_L(3)") == ("chib(3) . j_L(3)", [])
    assert answer(default_catalog(), "chib(3).j_L(3)") == ("j_L(0)", [82])


# ---------------------------------------------------------------------------
# completion rules of the comparison ladder
# ---------------------------------------------------------------------------

SHIPPED_FACTS = resources.files("conechase").joinpath(
    "data/paper.facts").read_text()
# the four completion rules, and the fold facts whose subjects their
# folded symbols stand for (j_pL, jS5, beta and J_LF)
COMPLETION_LINES = (121, 122, 123, 124)
FOLD_LINES = (88, 89, 91, 92)
COMPLETION_VALUES = (*range(1, 9), 62)


def test_completion_rules_rederive_from_their_parents():
    """Each completion rule is a ``derived`` fact whose locator names the
    fold facts its subject unfolds by, and it is a consequence of the
    catalog without it: its subject unfolded (beta(m) to
    tau_L(m).j_F(m).j2_25, by lines 91 and 89) and its payload have the
    same normal form at m = 1..8 and 62 under every sweep assignment."""
    catalog = default_catalog()
    folds = checks.fold_facts(catalog, FOLD_LINES)
    rules = [f for f in catalog.facts if f.line in COMPLETION_LINES]
    assert [(f.kind, f.trust, f.guard) for f in rules] == \
        [("map_identity", "derived", "m>=1")] * 4
    for rule in rules:
        _, used = checks.unfold_folds(rule.subject, folds)
        assert used and all(str(line) in rule.locator for line in used)
    assert checks.unfold_folds("chib(m).beta(m)", folds) == (
        "chib(m).tau_L(m).j_F(m).j2_25", [91, 89])
    assert checks.completion_mismatches(
        catalog, COMPLETION_LINES, FOLD_LINES, COMPLETION_VALUES,
        SWEEP_GRID) == []


@pytest.mark.parametrize("line", [122, 123, 124])
def test_a_flipped_completion_payload_is_caught(tmp_path, line):
    """Negative control: with the sign of one payload flipped, the rule no
    longer follows from its parents, at every value and assignment."""
    lines = SHIPPED_FACTS.splitlines(keepends=True)
    assert lines[line - 1].count("sign*2^m*") == 1
    lines[line - 1] = lines[line - 1].replace("sign*2^m*", "-sign*2^m*")
    path = tmp_path / "flipped.facts"
    path.write_text("".join(lines))
    bad = checks.completion_mismatches(
        load_catalog(path), COMPLETION_LINES, FOLD_LINES, COMPLETION_VALUES,
        SWEEP_GRID)
    assert len(bad) == len(COMPLETION_VALUES) * len(SWEEP_GRID)
    assert {entry[0] for entry in bad} == {line}
