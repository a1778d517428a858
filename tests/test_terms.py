"""Term grammar, spaces, and integer expressions."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import checks

from conechase.terms import (
    MAX_BITS,
    MAX_DIGITS,
    MAX_EXPONENT,
    Bracket,
    Element,
    Space,
    Sym,
    TermError,
    Word,
    compile_int_expr,
    compile_term,
    deg_sym,
    eval_int_expr,
    moore,
    named,
    parse_space,
    read_int,
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


class _Unbound(Exception):
    pass


def _num(n):
    return str(n), lambda env: n


def _var(name):
    def value(env):
        if name not in env:
            raise _Unbound(name)
        return env[name]
    return name, value


def _neg(a):
    return "-" + a[0], lambda env: -a[1](env)


def _pow(pair):
    (base, f), (exp, g) = pair

    def value(env):
        b, e = f(env), g(env)
        if e < 0:
            raise ArithmeticError
        return b ** e
    return f"{base}^{exp}", value


def _fold(first, rest):
    """``first op term op term ...``, evaluated left to right."""
    text, value = first
    for op, (t, f) in rest:
        text = f"{text}{op}{t}"
        value = (lambda a, b, o: lambda env: o(a(env), b(env)))(
            value, f, {"+": int.__add__, "-": int.__sub__,
                       "*": int.__mul__}[op])
    return text, value


# the grammar of integer expressions, each with its value in Python
# arithmetic: sums of products of powers atom^exponent
_names = st.sampled_from(["r", "m", "s"]).map(_var)
_exponents = st.one_of(st.integers(0, 3).map(_num), _names).flatmap(
    lambda a: st.sampled_from([a, a, _neg(a)]))


def _int_sums(atoms):
    powers = st.one_of(atoms, st.tuples(atoms, _exponents).map(_pow))
    products = st.lists(powers, min_size=1, max_size=3).map(
        lambda ps: _fold(ps[0], [("*", p) for p in ps[1:]]))
    return st.tuples(products, st.lists(
        st.tuples(st.sampled_from("+-"), products), max_size=2)).map(
        lambda p: _fold(*p))


_exprs = _int_sums(st.recursive(
    st.one_of(st.integers(0, 12).map(_num), _names),
    lambda atoms: st.one_of(atoms.map(_neg), _int_sums(atoms).map(
        lambda e: (f"({e[0]})", e[1]))), max_leaves=4))


# mostly every variable bound, sometimes one left out
_envs = st.tuples(
    st.fixed_dictionaries(dict.fromkeys("rms", st.integers(-3, 5))),
    st.sampled_from("rms" + "-" * 6)).map(
    lambda e: {k: v for k, v in e[0].items() if k != e[1]})


@given(_exprs, _envs)
@settings(max_examples=150, derandomize=True)
def test_compiled_int_expr_agrees_with_python(expr, env):
    """A compiled expression computes what Python integer arithmetic
    does, and fails as the reading parser failed: an unbound variable and
    a negative exponent with their messages, trailing tokens at compile
    time."""
    text, value = expr
    try:
        want = value(env)
    except _Unbound as e:
        with pytest.raises(TermError, match=re.escape(
                f"unbound variable {e.args[0]!r} in {text!r}")):
            eval_int_expr(text, env)
        return
    except ArithmeticError:
        with pytest.raises(TermError, match="^negative exponent$"):
            eval_int_expr(text, env)
        return
    assert eval_int_expr(text, env) == want
    assert eval_int_expr(f" {text}", env) == want
    with pytest.raises(TermError, match=re.escape(
            f"trailing tokens in integer expression {text + ' 7'!r}")):
        eval_int_expr(text + " 7", env)


_soups = st.lists(st.sampled_from(
    ["1", "2", "12", "r", "m", "q", "(", ")", "+", "-", "*", "^", " "]),
    max_size=9).map("".join)


@given(_soups, st.integers(-2, 4), st.integers(-2, 4))
@settings(max_examples=300, derandomize=True)
def test_compiled_int_expr_agrees_with_reading_it(text, r, m):
    """On any token soup, well formed or not, the compiled expression
    returns what evaluating while reading returns, or fails where it
    fails.  Only the order of two errors may differ: a syntax error is
    found when the text compiles, so it is reported even where the
    reading first met an unbound name or an exponent out of range."""
    env = {"r": r, "m": m}
    try:
        want = checks.reading_eval_int_expr(text, env)
    except TermError as e:
        with pytest.raises(TermError) as got:
            eval_int_expr(text, env)
        runtime = re.fullmatch(r"negative exponent|exponent \d+ is over \d+"
                               r"|integer of \d+ bits is over \d+"
                               r"|unbound variable '\w+' in .*", str(e))
        try:
            compile_int_expr(text)
        except TermError:
            if runtime:
                return  # two errors: the syntax one is reported
        assert str(got.value) == str(e)
        return
    assert eval_int_expr(text, env) == want


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


def test_parser_groups_a_parenthesised_element(catalog, env):
    """A sum in parentheses is one factor of a product: the scalar
    before it scales every term, and a lone class in parentheses is the
    class."""
    p = catalog.parser(env)
    assert p.parse("2^r*(Sj1(m).nu' + Sj2(m).eta_5)") == \
        p.parse("2^r*Sj1(m).nu' + 2^r*Sj2(m).eta_5")
    assert p.parse("-(j_L(m))") == p.parse("-j_L(m)")
    assert p.parse("(eta_2 - 3*eta_2)").render() == "-2*eta_2"


def test_an_exponent_may_nest_parentheses(catalog, env):
    """An exponent in parentheses may hold parentheses of its own, as
    ``2*(r-1)`` does."""
    p = catalog.parser(env)
    assert p.parse("2^(2*(r-1))*iota_3").render() == "4*id(S3)"
    assert p.parse("2^((r+1)-(r-1)) eta_2").render() == "4*eta_2"


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


def test_exponents_are_bounded(catalog):
    """An exponent over ``MAX_EXPONENT`` is refused before the power is
    evaluated, in a term, in an integer argument and in a bare integer
    expression alike; the bound itself evaluates."""
    assert MAX_EXPONENT == 256
    big = catalog.parser({}).parse(f"2^{MAX_EXPONENT}*iota_2")
    assert big == Element.identity(sphere(2)).scale(2 ** MAX_EXPONENT)
    for e in (MAX_EXPONENT + 1, 99999999):
        for text, env in ((f"2^{e}*iota_2", {}), ("2^r*iota_2", {"r": e}),
                          (f"j_L(2^{e})", {})):
            with pytest.raises(TermError, match=f"^exponent {e} is over "
                                                f"{MAX_EXPONENT}$"):
                catalog.parser(env).parse(text)
        with pytest.raises(TermError, match=f"^exponent {e} is over "):
            eval_int_expr(f"3^{e}", {})


def test_integers_are_bounded_in_bits(catalog):
    """A power or a product longer than ``MAX_BITS`` bits is refused when
    it is evaluated, in a term, in an integer argument and in a bare
    integer expression alike, so no coefficient nears the 4,300 digits
    Python refuses to print; a product of the bound's length evaluates."""
    assert MAX_BITS == 1024
    top = catalog.parser({}).parse("2^256*2^256*2^255*2^256*iota_2")
    assert top == Element.identity(sphere(2)).scale(2 ** (MAX_BITS - 1))
    for text, env, bits in (("100000000000000000000^256*iota_2", {}, 17009),
                            ("2^256*2^256*2^256*2^256*iota_2", {}, 1025),
                            ("2^r*2^256*2^256*2^256*iota_2", {"r": 256}, 1025),
                            ("j_L(2^256*2^256*2^256*2^256)", {}, 1025)):
        with pytest.raises(TermError, match=f"^integer of {bits} bits is "
                                            f"over {MAX_BITS}$"):
            catalog.parser(env).parse(text)
    with pytest.raises(TermError, match="^integer of 1025 bits is over "):
        eval_int_expr("2^256*2^256*2^256*2^256", {})


def test_literals_are_bounded_before_they_are_read(catalog):
    """Every decimal literal is read by ``read_int``: one of over
    ``MAX_DIGITS`` digits, the length of 2^MAX_BITS, is refused before
    ``int`` reads it, and one of over ``MAX_BITS`` bits after, in a term,
    a space key and an integer expression alike."""
    assert MAX_DIGITS == len(str(2 ** MAX_BITS)) == 309
    assert read_int(str(2 ** MAX_BITS - 1)) == 2 ** MAX_BITS - 1
    with pytest.raises(TermError, match="^integer of 1025 bits is over "):
        read_int(str(2 ** MAX_BITS))
    long = "7" * (MAX_DIGITS + 1)
    for read in (read_int, lambda t: eval_int_expr(t, {}),
                 lambda t: parse_space(f"S{t}"), lambda t: parse_space(
                     f"S2vS{t}"), lambda t: parse_space(f"P{t}(2)"),
                 lambda t: catalog.parser({}).parse(f"{t}*iota_2"),
                 lambda t: catalog.parser({}).parse(f"iota_{t}"),
                 lambda t: catalog.parser({}).parse(f"eta_2^{t}")):
        with pytest.raises(TermError, match="^integer literal of 310 digits "
                                            "is over 309$"):
            read(long)


def test_term_templates_are_keyed_by_the_names_the_env_binds(catalog):
    """A text compiles to one template per set of names the environment
    binds: a bound name is a scalar and any other a symbol.  A template
    serves every value of its scalars, and a catalog keys its parses by
    every name a parse reads, the ``r`` of ``r^2`` included."""
    assert catalog.parser({"x": 3}).parse("x*eta_2").render() == "3*eta_2"
    assert catalog.parser({"x": -1}).parse("x*eta_2").render() == "-eta_2"
    with pytest.raises(TermError, match="two map factors"):
        catalog.parser({}).parse("x*eta_2")
    assert [catalog.parse_element("deg(r^2,2)", {"r": r}).render()
            for r in (2, 3)] == ["deg(4,2)", "deg(9,2)"]


def test_a_compiled_term_reads_the_name_of_a_power():
    """An integer argument ``k^2`` reads the name ``k``, as ``term_names``
    splits the token, not a name ``k^2``."""
    assert compile_term("eta_2.deg(k^2,3)", {"k"})[2] == frozenset({"k"})


@pytest.mark.parametrize("text, message", [
    ("eta_2 .", "unexpected end of input in 'eta_2 .'"),
    ("eta_2 +", "unexpected end of input in 'eta_2 +'"),
    ("eta_2.)", "expected a symbol name, got ')' in 'eta_2.)'"),
    ("[iota_2, iota_2", "unexpected end of input in '[iota_2, iota_2'"),
    ("deg(2,", "unterminated argument list"),
    ("2^q*eta_2", "unbound scalar 'q'"),
    ("7", "pure scalar where a homotopy class was expected"),
    ("[iota_2, iota_3]", "bracket slots must share a target"),
])
def test_term_syntax_errors(catalog, text, message):
    with pytest.raises(TermError, match=f"^{re.escape(message)}$"):
        catalog.parser({}).parse(text)


def test_round_trip_of_fact_labels(catalog, env):
    """Every label shipped in a group fact parses and re-renders stably."""
    p = catalog.parser(env)
    for f in (f for f in catalog.facts if f.kind == "group"):
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


def test_terms_must_fit_their_element():
    """A term whose ends are not its element's is refused, with both
    named, and an empty word needs the space it is the identity of."""
    eta = Word((Sym("eta_2", (), sphere(3), sphere(2)),))
    with pytest.raises(TermError, match=r"^term eta_2 does not match element "
                                        r"spaces S3 -> S3$"):
        Element(sphere(3), sphere(3), [(eta, 1)])
    with pytest.raises(TermError, match="^identity word needs its space$"):
        Word(())


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
               made.target, made.is_susp)
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
    Word((Sym("eta_2", (), _S3, _S2, is_susp=True),)),
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
    assert (fast.source, fast.target) == (checked.source, checked.target)


@given(_sums, _sums, st.integers(-3, 3))
def test_trusted_constructions_equal_the_checked_merge(a, b, k):
    """Each shortcut gives what the checked constructor gives on the
    terms it was handed before: the order of terms that render alike
    depends on that input, so it is the comparison that must hold."""
    ea = Element(_S3, _S2, a)
    eb = Element(_S3, _S2, b)
    _same(ea + eb, Element(_S3, _S2, ea.terms + eb.terms))
    _same(ea.scale(k), Element(_S3, _S2, [(t, k * c) for t, c in ea.terms]))
    zero = Element.zero(_S3, _S2)
    _same(zero, Element(_S3, _S2))
    _same(ea + zero, Element(_S3, _S2, ea.terms))
    _same(zero + ea, Element(_S3, _S2, ea.terms))
    for t, c in a:
        _same(Element.from_term(t, c), Element(_S3, _S2, [(t, c)]))
