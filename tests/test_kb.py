"""Fact catalog: loading, validation, lookups, round-trips."""

import re

import pytest

from conechase.kb import KbError, KbMissingFact, load_catalog
from conechase.terms import Sym, parse_space, sphere, wedge


def write(tmp_path, text, name="t.facts"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_shipped_catalog_size(catalog):
    assert len(catalog.facts) >= 40
    kinds = {f.kind for f in catalog.facts}
    assert kinds == {"group", "relation", "boundary_value",
                     "lift_certificate", "suspension_value", "map_identity"}


def test_provenance_constraints(catalog):
    for f in catalog.facts:
        assert f.quote.strip(), f"line {f.line} has an empty quote"
        assert len(f.quote) <= 200


def test_empty_file(tmp_path):
    cat = load_catalog(write(tmp_path, "# nothing here\n"))
    assert cat.facts == []


def test_duplicate_subject_rejected(tmp_path):
    text = (
        "fact group | S9 @ 10 | Z/2{eta_9} | classical_table | q | loc\n"
        "fact group | S9 @ 10 | Z/2{eta_9} | classical_table | q | loc\n")
    with pytest.raises(KbError, match="lines 1 and 2"):
        load_catalog(write(tmp_path, text))


def test_missing_provenance_rejected(tmp_path):
    text = "fact group | S9 @ 10 | Z/2{eta_9} | classical_table |  | loc\n"
    with pytest.raises(KbError, match="empty provenance"):
        load_catalog(write(tmp_path, text))


def test_bad_trust_rejected(tmp_path):
    text = "fact group | S9 @ 10 | Z/2{eta_9} | hearsay | q | loc\n"
    with pytest.raises(KbError, match="unknown trust"):
        load_catalog(write(tmp_path, text))


def test_derivable_boundary_value_rejected(tmp_path):
    # a boundary value on a class the connecting-map rule desuspends, an
    # identity of S^3 included, duplicates the rule and must not be stored;
    # one on iota_2, which it does not desuspend, loads
    for cls, payload in (("eta_3", "0"), ("iota_3", "5*j_p(r).eta_2")):
        text = ("symbol j_p(r) : S2 -> F_p(r)\n"
                f"fact boundary_value | F_p(r) : {cls} ? r>=1 | {payload} "
                "| paper | q | loc\n")
        with pytest.raises(KbError, match=f"line 2: boundary value for "
                           f"suspension class '{cls}' is derivable"):
            load_catalog(write(tmp_path, text))
    load_catalog(write(tmp_path, "symbol j_p(r) : S2 -> F_p(r)\nfact "
                       "boundary_value | F_p(r) : iota_2 ? r>=1 | 0 | paper "
                       "| q | loc\nfibration F_p(r) : 2^r*iota_2 "
                       "bottom=j_p(r)\n"))


def test_unresolvable_subjects_rejected_at_load(tmp_path):
    # a relation on an undeclared symbol, a non-integer degree, a wrong
    # arity, a guard variable the subject cannot bind, a literal longer
    # than any bounded integer and a variable named like a swept token
    for line, match in (
            ("fact relation | foo.eta_3 | 0", "unknown symbol 'foo'"),
            ("fact group | S2 @ x | Z/2{eta_2}", "not an integer"),
            ("fact relation | eta_3(r) | 0", "expects 0 parameter"),
            ("fact group | S3 @ 4 ? r>=1 | Z/2{eta_3}", "r not bound"),
            ("fact group | S3 @ %s | 0" % ("7" * 5000),
             "^line 1: integer literal of 5000 digits is over 309$"),
            ("fact relation | %s*eta_3 | 0" % ("7" * 5000),
             "^line 1: integer literal of 5000 digits is over 309$"),
            ("fact relation | deg(x,2).eta_2 | eta_2.deg(x^2,3)",
             "^line 1: 'x' is both a variable and a token$")):
        with pytest.raises(KbError, match=match):
            load_catalog(write(tmp_path, line + " | paper | q | loc\n"))


def test_rule_found_by_matching_not_by_guessed_assignments(tmp_path):
    """A rule whose variable is far from the run's parameters (m = r + 2
    under r = 1) still fires: bindings come from the word itself."""
    from conechase.rewrite import normalize
    text = ("symbol f(m) : S3 -> S3\n"
            "symbol g(m) : S3 -> S3\n"
            "fact map_identity | f(m) ? m>=3 | g(m) | paper | q | loc\n")
    cat = load_catalog(write(tmp_path, text))
    ctx = cat.rule_context({"r": 1})
    p = cat.parser({"r": 1})
    assert normalize(p.parse("f(r+2)"), ctx).render() == "g(3)"
    assert normalize(p.parse("f(2)"), ctx).render() == "f(2)"  # guard


def test_a_payload_may_square_a_subject_variable(tmp_path):
    """A payload's ``k^2`` reads the variable ``k`` that the subject binds,
    so the fact loads and its rhs squares the matched degree."""
    text = ("fact relation | deg(k,2).eta_2 | eta_2.deg(k^2,3) "
            "| classical_table | q | loc\n")
    cat = load_catalog(write(tmp_path, text))
    ((word, _),) = cat.parser({}).parse("deg(3,2).eta_2").terms
    rhs, fact = cat.rule_context({}).word_rule(word.syms)
    assert rhs.render() == "eta_2 . deg(9,3)" and fact.line == 1


def test_digit_arguments_match_only_their_value(tmp_path):
    """A digit in a subject matches exactly that parameter value, next to
    a variable that matching binds and the guard reads."""
    from conechase.rewrite import normalize
    text = ("symbol f(m) : S3 -> S3\n"
            "symbol g(m) : S3 -> S3\n"
            "symbol h(m) : S3 -> S3\n"
            "fact map_identity | f(2).g(m) ? m>=3 | h(m) | paper | q | loc\n")
    cat = load_catalog(write(tmp_path, text))
    ctx = cat.rule_context({})
    p = cat.parser({})
    assert normalize(p.parse("f(2).g(5)"), ctx).render() == "h(5)"
    for unchanged in ("f(3).g(5)", "f(2).g(1)"):
        el = p.parse(unchanged)
        assert normalize(el, ctx) == el


def test_group_lookup_examples(catalog, env, ctx):
    g, els, fact = catalog.group_fact(sphere(3), 6, ctx)
    assert g.render() == "Z/4"
    assert g.labels == ("nu'",)
    g, els, fact = catalog.group_fact(wedge(2, 5), 6, ctx)
    assert g.render() == "Z/2 + Z/4 + Z(2)"
    with pytest.raises(KbMissingFact, match="pi_9"):
        catalog.group_fact(sphere(3), 9, ctx)


def test_hurewicz_and_connectivity_builtin(catalog, env, ctx):
    from conechase.les import pi_group_from_fact
    pig = pi_group_from_fact(catalog, sphere(5), 5, ctx)
    assert pig.group.render() == "Z(2)"
    pig = pi_group_from_fact(catalog, sphere(5), 4, ctx)
    assert pig.group.is_trivial()


def test_boundary_fact_lookup(catalog, env):
    p = catalog.parser(env)
    hit = catalog.boundary_fact("F_p", (1,), p.parse("nu'"),
                                catalog.rule_context(env))
    assert hit is not None
    value, fact = hit
    assert "eta_2" in value.render()
    assert catalog.boundary_fact("F_p", (1,), p.parse("eta_3"),
                                 catalog.rule_context(env)) is None


def test_boundary_stored_values_match_source(catalog, env, ctx):
    """The stored connecting-map values, normalized, are the expected
    classes."""
    from conechase import les
    fib = les.fibration(catalog, "F_p4", (1,))
    p = catalog.parser(dict(env, m=1))
    val = les.boundary_value(catalog, fib, p.parse("nu_4"),
                             catalog.rule_context(dict(env, m=1)))
    # +-2^(m-1) j nu' + 2^m j6 at m=1: the j nu' coefficient is odd
    assert "jp4(1) . nu'" in val.render() and "2*j6p4(1)" in val.render()


def test_serialize_round_trip(catalog, tmp_path, env):
    text = catalog.serialize()
    cat2 = load_catalog(write(tmp_path, text, "round.facts"))
    assert len(cat2.facts) == len(catalog.facts)
    assert [f.subject for f in cat2.facts] == [f.subject for f in catalog.facts]
    assert [f.payload for f in cat2.facts] == [f.payload for f in catalog.facts]
    assert sorted(cat2.registry.specs) == sorted(catalog.registry.specs)
    # and the re-serialization is stable
    assert cat2.serialize() == text
    # fibration declarations survive, also in a catalog with facts removed
    fibs = [f.serialize() for f in catalog.registry.fibrations.values()]
    assert len(fibs) == 4
    ablated = catalog.without_facts(lambda f: f.line == 85).serialize()
    for out in (text, ablated):
        cat3 = load_catalog(write(tmp_path, out, "fib.facts"))
        assert [f.serialize() for f in cat3.registry.fibrations.values()] \
            == fibs
        assert all(line in out.splitlines() for line in fibs)


def test_closure_every_script_symbol_resolves(catalog, scripts, env):
    """Every symbol mentioned by a shipped derivation resolves in the
    catalog (no dangling generator names)."""
    import re
    p = catalog.parser
    names = set()
    for script in scripts.values():
        for step in script.steps:
            for v in step.args.values():
                for tok in re.findall(r"[A-Za-z][A-Za-z0-9_~'^]*\(", v):
                    names.add(tok[:-1])
    names -= {"fiber_group", "pair_map", "deg", "Z"}
    # spaces are named by the heads of declared symbols' sources and targets
    space_heads = {re.match(r"\w+", pat).group(0)
                   for s in catalog.registry.specs.values()
                   for pat in (s.source_pat, s.target_pat)}
    for name in sorted(names - set(catalog.registry.fibrations)
                       - space_heads):
        assert name in catalog.registry.specs or name.startswith("iota"), \
            f"dangling symbol {name!r}"
    # every fib= names a declared fibration
    fib_args = [step.args["fib"] for script in scripts.values()
                for step in script.steps if "fib" in step.args]
    assert fib_args
    for fib in fib_args:
        assert parse_space(fib, env).data[0] in catalog.registry.fibrations


def test_fibration_declared_as_data(catalog, tmp_path, env):
    """A new head declared only in a facts file, on F_p's attaching class
    with its own bottom inclusion, has F_p's boundary values with the
    bottom inclusion renamed."""
    from conechase import les
    text = catalog.serialize() + (
        "symbol j_q(r) : S2 -> F_q(r)\n"
        "fibration F_q(r) : 2^r*iota_2 bottom=j_q(r)\n")
    cat = load_catalog(write(tmp_path, text, "fq.facts"))
    assert "F_q" not in catalog.registry.fibrations
    for r in (1, 2, 3):
        envr = dict(env, r=r)
        ctx = cat.rule_context(envr)
        fp = les.fibration(cat, "F_p", (r,))
        fq = les.fibration(cat, "F_q", (r,))
        assert fq.base == fp.base == sphere(3)
        for cls in ("eta_3", "eta_3^2", "3*eta_3"):
            gen = cat.parser(envr).parse(cls)
            want = les.boundary_value(cat, fp, gen, ctx).render()
            got = les.boundary_value(cat, fq, gen, ctx).render()
            assert "j_p(" in want or want == "0"
            assert got == want.replace("j_p(", "j_q(")


def test_without_facts_filter(catalog):
    cat2 = catalog.without_facts(lambda f: f.kind == "lift_certificate")
    assert all(f.kind != "lift_certificate" for f in cat2.facts)
    assert len(cat2.facts) < len(catalog.facts)


def test_catalog_digest_tracks_content(catalog, tmp_path):
    text = catalog.serialize()
    c1 = load_catalog(write(tmp_path, text, "a.facts"))
    c2 = load_catalog(write(tmp_path, text + "# trailing comment\n",
                            "b.facts"))
    assert c1.digest != c2.digest


def test_degree_map_suspension_images(catalog, ctx, env):
    """Sigma deg(3,2) = deg(3,3), a degree map in final position, so it
    normalises to 3*id(S3).  deg(3,3) desuspends to deg(3,2); the terms
    have no S^1, so deg(3,2) has no desuspension image."""
    from conechase.rewrite import suspend
    from conechase.terms import deg_sym
    assert suspend(catalog.parser(env).parse("deg(3,2)"),
                   ctx).render() == "3*id(S3)"
    assert catalog.registry.desuspension_image(deg_sym(3, 3)) == deg_sym(3, 2)
    assert catalog.registry.desuspension_image(deg_sym(3, 2)) is None


def test_eta_and_declared_suspension_images(catalog):
    """eta_n suspends to eta_(n+1) and desuspends to eta_(n-1) from n = 3.
    A declared pair is read off its one ``susp_to=``: nu' suspends to
    Sigma_nu', which is declared ``susp`` and so desuspends to nu'.  Sj1
    is the image of j_L but is not declared ``susp``, so it desuspends to
    nothing; nor does j1_25, a ``susp`` symbol that no ``susp_to=``
    names.  A symbol without ``susp_to=``, declared or not, has no
    suspension image."""
    reg = catalog.registry
    eta2, eta3, eta4 = (reg.make(f"eta_{n}", ()) for n in (2, 3, 4))
    assert reg.suspension_image(eta2) is eta3
    assert reg.suspension_image(eta3) is eta4
    assert reg.desuspension_image(eta4) is eta3
    assert reg.desuspension_image(eta3) is eta2
    assert reg.desuspension_image(eta2) is None
    nu, snu = reg.make("nu'", ()), reg.make("Sigma_nu'", ())
    assert reg.suspension_image(nu) is snu
    assert reg.desuspension_image(snu) is nu
    assert reg.desuspension_image(nu) is None
    assert reg.suspension_image(reg.make("j_L", (2,))) is reg.make("Sj1",
                                                                   (2,))
    assert reg.desuspension_image(reg.make("Sj1", (2,))) is None
    assert reg.desuspension_image(reg.make("j1_25", ())) is None
    assert reg.suspension_image(snu) is None
    assert reg.suspension_image(Sym("jY_1", (), sphere(3), sphere(2))) is None


# ---------------------------------------------------------------------------
# reuse of the previous load's registry
# ---------------------------------------------------------------------------

_DECLS = "symbol aa(n) : S3 -> S5\nsymbol bb : S5 -> S3\n"
_GROUP = "fact group | S9 @ 10 | {} | classical_table | q | loc\n"
# a rewrite whose spaces are checked only when a lookup instantiates it
_MISFIT = "fact map_identity | bb.aa(n) | iota_5 | paper | q | loc\n"


def _misfit_error(cat) -> str:
    from conechase.rewrite import normalize
    with pytest.raises(KbError) as e:
        normalize(cat.parse_element("bb.aa(1)", {}), cat.rule_context({}))
    return str(e.value)


def test_suspension_value_on_a_moore_space_class(catalog, tmp_path, env):
    """A suspension value on a class into the Moore space P3(2) must map
    into P4(2): a subject without variables is checked at load, so a
    payload into S4 is refused there, and a payload into P4(2) is what
    suspending the class gives."""
    from conechase.rewrite import suspend
    fact = "fact suspension_value | xi_1 | {} | paper | q | loc\n"
    text = catalog.serialize()
    line = len(text.splitlines()) + 1
    with pytest.raises(KbError, match=f"^line {line}: eta_4\\^2 maps "
                                      "S6 -> S4, not S6 -> P4\\(2\\)$"):
        load_catalog(write(tmp_path, text + fact.format("eta_4^2")))
    cat = load_catalog(write(tmp_path, text + fact.format("eta~_4^2(1)"),
                             "moore.facts"))
    got = suspend(cat.parse_element("xi_1", env), cat.rule_context(env))
    assert (got.render(), got.source, got.target) == \
        ("eta~_4^2(1)", sphere(6), parse_space("P4(2)"))


def test_same_declarations_share_a_registry_and_its_facts(tmp_path):
    """A load whose declarations, line numbers included, equal the last
    load's takes its registry with the facts compiled under it; a payload
    edited in place and a fact moved to another line are compiled anew
    and take effect."""
    one = load_catalog(write(tmp_path, _DECLS + _GROUP.format("Z/2{eta_9}")
                             + _MISFIT))
    assert one.group_fact(sphere(9), 10, one.rule_context({}))[0].render() \
        == "Z/2"
    assert _misfit_error(one).startswith("line 4: ")
    two = load_catalog(write(tmp_path, _DECLS + _GROUP.format("Z/4{eta_9}")
                             + "\n" + _MISFIT, "two.facts"))
    assert two.registry is one.registry
    assert two.group_fact(sphere(9), 10, two.rule_context({}))[0].render() \
        == "Z/4"
    assert _misfit_error(two) == _misfit_error(one).replace("line 4",
                                                            "line 5")
    assert one.group_fact(sphere(9), 10, one.rule_context({}))[0].render() \
        == "Z/2"


def test_moved_declarations_get_a_fresh_registry(catalog, tmp_path):
    """A comment above a symbol line moves the declarations below it, so
    the load builds its own registry, whose declarations carry their new
    lines; a bad declaration there is refused naming its new line."""
    text = catalog.serialize()
    first = load_catalog(write(tmp_path, text))
    assert load_catalog(write(tmp_path, text, "again.facts")).registry is \
        first.registry
    moved = text.replace("\nsymbol ", "\n# moved\nsymbol ", 1)
    second = load_catalog(write(tmp_path, moved, "moved.facts"))
    assert second.registry is not first.registry
    for name, spec in first.registry.specs.items():
        assert second.registry.specs[name].line == spec.line + 1
    line = first.registry.specs["j_pL"].line
    old = "symbol j_pL(m) : S2 -> F_pL(m)\n"
    assert moved.count(old) == 1
    bad = moved.replace(old, old.replace("\n", " defn=j_F(m).j1_25\n"))
    with pytest.raises(KbError, match=f"^line {line + 1}: bad symbol "
                                      "attribute 'defn=j_F\\(m\\).j1_25'$"):
        load_catalog(write(tmp_path, bad, "bad.facts"))


def test_a_fact_that_fails_to_compile_fails_every_time(tmp_path):
    """Nothing is kept from a compile that raises: under a reused
    registry the same bad fact is refused again with the same error, and
    the good catalog still loads."""
    good = write(tmp_path, _DECLS + _GROUP.format("Z/2{eta_9}"))
    bad = write(tmp_path, _DECLS + _GROUP.format("Z/2{eta_9}")
                + _MISFIT.replace("bb.aa(n)", "bb.aa(1)"), "bad.facts")
    registry = load_catalog(good).registry
    errors = []
    for _ in range(2):
        with pytest.raises(KbError) as e:
            load_catalog(bad)
        errors.append(str(e.value))
    assert errors[0] == errors[1] == \
        "line 4: iota_5 maps S5 -> S5, not S3 -> S3"
    assert load_catalog(good).registry is registry
    assert len(registry.patterns) == 1


def test_other_declarations_release_the_old_registry(tmp_path):
    """The registry kept for reuse is the last one built: once a load
    with other declarations has built its own and the old catalogs are
    gone, the old registry is freed."""
    import gc
    import weakref
    cat = load_catalog(write(tmp_path, _DECLS + _GROUP.format("Z/2{eta_9}")))
    old = weakref.ref(cat.registry)
    filtered = cat.without_facts(lambda f: False)
    assert filtered.registry is cat.registry
    del cat, filtered
    gc.collect()
    assert old() is not None        # kept for the next load
    load_catalog(write(tmp_path, _GROUP.format("Z/2{eta_9}"), "other.facts"))
    gc.collect()
    assert old() is None


def test_resolve_builds_each_element_once(tmp_path, fresh_loads):
    """The term parser's resolver returns one element per name and
    parameters, an identity and an eta power included; a name it cannot
    resolve raises on every call with the same message and keeps
    nothing."""
    reg = load_catalog(write(tmp_path, "symbol f(n) : S4 -> S3\n")).registry
    for name, params in (("f", (2,)), ("iota_3", ()), ("eta_2^3", ()),
                         ("eta_3", ()), ("deg", (3, 2))):
        assert reg.resolve(name, params) is reg.resolve(name, params)
    assert reg.resolve("f", (2,)) is not reg.resolve("f", (3,))
    assert reg.resolve("eta_2^3", ()).render() == "eta_2 . eta_3 . eta_4"
    kept = dict(reg._resolved)
    for name, params, error, message in (
            ("g", (), KbMissingFact, "KB fact required: unknown symbol 'g'"),
            ("f", (), KbError, "f expects 1 parameter(s)"),
            ("f", (1, 2), KbError, "f expects 1 parameter(s)"),
            ("iota_3", (7,), KbError, "iota_3 expects 0 parameter(s)"),
            ("eta_2^3", (9,), KbError, "eta_2^3 expects 0 parameter(s)"),
            ("eta_3", (9,), KbError, "eta_3 expects 0 parameter(s)"),
            ("deg", (3,), KbError, "deg expects 2 parameter(s)"),
            ("eta_1^2", (), KbError, "eta_n needs n >= 2")):
        for _ in range(2):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                reg.resolve(name, params)
    assert reg._resolved == kept
