"""Term grammar, spaces, and integer expressions."""

import pytest

from conechase.terms import (
    Element,
    TermError,
    eval_int_expr,
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
    assert parse_space("CP2").key == "L4(0)"
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
