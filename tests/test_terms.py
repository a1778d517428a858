"""Term grammar, spaces, and integer expressions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conechase.terms import (
    Bracket,
    Element,
    Space,
    Sym,
    TermError,
    Word,
    deg_sym,
    eval_int_expr,
    moore,
    named,
    parse_space,
    sphere,
    wedge,
)


def test_eval_int_expr():
    assert eval_int_expr("2^(r+1)", {"r": 3}) == 16
    assert eval_int_expr("3*2^r", {"r": 2}) == 12
    assert eval_int_expr("-2^m", {"m": 3}) == -8
    assert eval_int_expr("m-1", {"m": 5}) == 4
    with pytest.raises(TermError):
        eval_int_expr("q+1", {})


def test_parse_space_forms():
    assert parse_space("S3") == sphere(3)
    assert parse_space("S2vS5") == wedge(2, 5)
    assert parse_space("P3(2^r)", {"r": 3}).key == "P3(8)"
    assert parse_space("L4(m)", {"m": 2}).key == "L4(2)"
    with pytest.raises(TermError):
        parse_space("P3(3)")  # not a power of two


def test_parser_basics(catalog, env):
    p = catalog.parser(env)
    el = p.parse("2^(r+1)*eta_2")
    assert el.render() == "8*eta_2"
    el = p.parse("j_L(m) . eta_2^3")
    assert el.render() == "j_L(3) . eta_2 . eta_3 . eta_4"
    el = p.parse("[iota_2, 2^r*iota_2]")
    # raw bracket: the scalar stays in the slot until rules run
    assert "[" in el.render()
    el = p.parse("Sj1(m).nu' + 2*Sj2(m).eta_5")
    assert len(el.terms) == 2
    el = p.parse("nu' + 2*nu'")
    assert el.render() == "3*nu'"
    assert p.parse("3*nu' - nu'").render() == "2*nu'"
    assert p.parse("eta_2 - 3*eta_2").render() == "-2*eta_2"


def test_parser_scalar_and_signs(catalog, env):
    p = catalog.parser(env)
    el = p.parse("sign*6*beta(0)")
    assert el.render() == "6*beta(0)"
    el = p.parse("-2*eta_3")
    ((term, c),) = el.terms
    assert c == -2


def test_parser_rejects_garbage(catalog, env):
    p = catalog.parser(env)
    with pytest.raises(Exception):
        p.parse("eta_2 .")
    with pytest.raises(Exception):
        p.parse("7")


def test_parser_rejects_negative_exponents(catalog):
    # 2^-2 is no integer scalar: refused, not truncated to 0
    for text, env in (("2^r*iota_2", {"r": -2}), ("r^r*iota_2", {"r": -1}),
                      ("2^(-2)*iota_2", {}), ("2^-1 iota_2", {})):
        with pytest.raises(TermError, match="negative exponent"):
            catalog.parser(env).parse(text)
    with pytest.raises(TermError, match="negative exponent"):
        eval_int_expr("2^(r-3)", {"r": 1})


def test_round_trip_of_fact_labels(catalog, env):
    """Every label shipped in a group fact parses and re-renders stably."""
    p = catalog.parser(env)
    for f in catalog.by_kind["group"]:
        payload = f.payload
        if payload.strip() == "0":
            continue
        for part in payload.split("+"):
            part = part.strip()
            label = part[part.index("{") + 1: part.rindex("}")]
            el = p.parse(label)
            again = p.parse(el.render())
            assert again == el, f"label {label!r} does not round-trip"


def test_round_trip_of_every_fact_payload(catalog):
    """Each element expression stored in the catalog parses, renders, and
    reparses to the same class."""
    env = {"r": 2, "s": 1, "m": 3, "sign": 1, "eps": 1, "x": 2, "y": 3}
    p = catalog.parser(env)
    checked = 0
    for f in catalog.facts:
        texts = []
        if f.kind in ("relation", "map_identity", "suspension_value"):
            if not f.subject.startswith("boundary("):
                subj = f.subject
                if "*" in subj and "[" not in subj:
                    subj = subj.split("*", 1)[1]  # order bounds: k*word
                texts.append(subj)
            if f.payload.strip() != "0" and "boundary(" not in f.payload:
                texts.append(f.payload)
        elif f.kind == "boundary_value":
            texts.append(f.subject.split(":", 1)[1])
            if f.payload.strip() != "0":
                texts.append(f.payload)
        elif f.kind == "lift_certificate":
            texts.append(f.subject.split(":", 1)[1])
        for text in texts:
            try:
                el = p.parse(text.strip())
            except TermError:
                continue  # guard excludes this binding
            again = p.parse(el.render())
            assert again == el, f"{text!r} does not round-trip"
            checked += 1
    assert checked >= 40


def test_element_space_discipline():
    a = Element.identity(sphere(2))
    b = Element.identity(sphere(3))
    with pytest.raises(TermError):
        a + b


def test_word_equality_agrees_with_symbol_equality():
    """Two stage inclusions that print alike but leave different spheres
    are different symbols, so their words differ too; the rendered key
    alone would identify them."""
    stage = named("Jstage", 3)
    a = Word((Sym("jY_3", (), sphere(3), stage),))
    b = Word((Sym("jY_3", (), sphere(4), stage),))
    assert a.syms[0] != b.syms[0]
    assert a.key() == b.key()
    assert a != b and len({a, b}) == 2
    same = Word((Sym("jY_3", (), sphere(3), stage),))
    assert a == same and hash(a) == hash(same)
    assert Word((), sphere(3)) != Word((), sphere(4))


def test_a_sum_with_a_zero_side_still_checks_spaces():
    eta = Element.from_term(Word((Sym("eta_2", (), sphere(3), sphere(2)),)))
    wrong = Element.zero(sphere(3), sphere(3))
    for a, b in ((wrong, eta), (eta, wrong)):
        with pytest.raises(TermError, match="different spaces"):
            a + b
    assert eta + Element.zero(sphere(3), sphere(2)) == eta


# ---------------------------------------------------------------------------
# interning: one object per value, equality and hashing still by value
# ---------------------------------------------------------------------------

def test_spaces_and_degree_maps_are_interned():
    assert sphere(3) is sphere(3)
    assert wedge(2, 5) is parse_space("S2vS5")
    assert parse_space("P3(2^r)", {"r": 2}) is moore(3, 4)
    assert named("L4", 2) is parse_space("L4(m)", {"m": 2})
    assert deg_sym(2, 3) is deg_sym(2, 3)


def test_registry_makes_each_symbol_once(catalog):
    make = catalog.registry.make
    assert make("j_L", (2,)) is make("j_L", (2,))
    assert make("j_L", (2,)) is not make("j_L", (3,))
    assert make("eta_3", ()) is make("eta_3", ())
    assert make("deg", (2, 3)) is deg_sym(2, 3)


def test_directly_built_values_equal_the_interned_ones(catalog):
    direct = Space("sphere", (3,))
    assert direct is not sphere(3)
    assert direct == sphere(3) and hash(direct) == hash(sphere(3))
    assert direct.key == "S3"
    made = catalog.registry.make("j_L", (2,))
    copy = Sym(made.name, made.params, Space(made.source.kind,
                                             made.source.data),
               made.target, made.order, made.is_susp, made.susp_name,
               made.desusp_name)
    assert copy is not made
    assert copy == made and hash(copy) == hash(made) and copy.key == made.key
    assert Word((copy,)) == Word((made,))
    assert Sym("deg", (2, 3), direct, direct, is_susp=True) == deg_sym(2, 3)
    assert Sym("deg", (2, 3), direct, direct) != deg_sym(2, 3)


# Terms S3 -> S2: words, a word that renders like another, and a bracket.
_S2, _S3 = sphere(2), sphere(3)
_ETA2 = Sym("eta_2", (), _S3, _S2)
_TERMS = (
    Word((_ETA2,)),
    Word((_ETA2, deg_sym(3, 3))),
    Word((deg_sym(-1, 2), _ETA2)),
    Word((Sym("eta_2", (), _S3, _S2, order=0),)),
    Bracket([Element.identity(_S2), Element.identity(_S2)]),
)
_sums = st.lists(st.tuples(st.sampled_from(range(len(_TERMS))),
                           st.integers(-4, 4)), max_size=6).map(
    lambda picks: [(_TERMS[i], c) for i, c in picks])


def _same(fast, checked):
    assert fast.terms == checked.terms
    assert [(t.render(), c) for t, c in fast.terms] == \
        [(t.render(), c) for t, c in checked.terms]
    assert fast.key() == checked.key() and hash(fast) == hash(checked)
    assert fast.is_suspension == checked.is_suspension
    assert (fast.source, fast.target) == (checked.source, checked.target)


@given(_sums, _sums, st.integers(-3, 3), st.booleans())
def test_trusted_constructions_equal_the_checked_merge(a, b, k, susp):
    """Each shortcut gives what the checked constructor gives on the
    terms it was handed before: the order of terms that render alike
    depends on that input, so it is the comparison that must hold."""
    ea = Element(_S3, _S2, a, is_suspension=susp)
    eb = Element(_S3, _S2, b)
    _same(ea + eb, Element(_S3, _S2, ea.terms + eb.terms))
    _same(ea.scale(k), Element(_S3, _S2, [(t, k * c) for t, c in ea.terms],
                               is_suspension=susp))
    zero = Element.zero(_S3, _S2)
    _same(zero, Element(_S3, _S2))
    _same(ea + zero, Element(_S3, _S2, ea.terms))
    _same(zero + ea, Element(_S3, _S2, ea.terms))
    _same(ea + Element(_S3, _S2, is_suspension=True),
          Element(_S3, _S2, ea.terms, is_suspension=susp))
    for t, c in a:
        _same(Element.from_term(t, c, is_suspension=susp),
              Element(_S3, _S2, [(t, c)], is_suspension=susp))
