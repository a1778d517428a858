"""Command-line interface: outputs, formats, exit codes."""

import contextlib
import functools
import gc
import io
import json
import operator
import os
import random
import re
import subprocess
import sys
import weakref
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conechase import cli, derive, kb
from conechase.derive import default_catalog, load_scripts, scenarios
from conechase.kb import KbCatalog, KbError, load_catalog

from checks import bench_table


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_compute_examples(capsys):
    code, out, _ = run_cli(capsys, "compute", "--space", "P3", "--r", "1",
                           "--k", "5", "--no-sweep")
    assert code == 0 and out.strip() == "Z/2 + Z/2 + Z/2"
    code, out, _ = run_cli(capsys, "compute", "--space", "P3", "--r", "4",
                           "--k", "6", "--no-sweep")
    assert code == 0 and out.strip() == "Z/2 + Z/2 + Z/4 + Z/4 + Z/16"
    code, out, _ = run_cli(capsys, "compute", "--space", "L4", "--m", "0",
                           "--k", "5", "--no-sweep")
    assert code == 0 and out.strip() == "Z(2)"


def test_compute_formats_agree_for_every_scenario(capsys):
    scenarios = [
        ("P3", "5", "--r", "2"), ("P3", "6", "--r", "2"),
        ("L4", "5", "--m", "2"), ("L4", "6", "--m", "2"),
        ("J3", "6", "--r", "2"),
    ]
    for space, k, flag, val in scenarios:
        code, text_out, _ = run_cli(capsys, "compute", "--space", space,
                                    flag, val, "--k", k, "--no-sweep")
        code2, mach_out, _ = run_cli(capsys, "compute", "--space", space,
                                     flag, val, "--k", k, "--format",
                                     "machine", "--no-sweep")
        assert code == code2 == 0
        record = json.loads(mach_out)
        assert record["group"] == text_out.strip()
        assert "kb_digest" in record and "transcript_digest" in record


def test_compute_transcript_flag(capsys):
    code, out, _ = run_cli(capsys, "compute", "--space", "P3", "--r", "2",
                           "--k", "5", "--transcript", "--no-sweep")
    assert code == 0
    assert "derivation pi5_P3" in out and "uses " in out


def test_compute_validation_errors(capsys):
    code, _, err = run_cli(capsys, "compute", "--space", "P3", "--k", "7",
                           "--r", "1")
    assert code == cli.EXIT_VALIDATION and "no shipped scenario" in err
    code, _, err = run_cli(capsys, "compute", "--space", "P3", "--k", "5")
    assert code == cli.EXIT_VALIDATION
    assert err == "error: scenario pi5_P3 needs --r\n"
    code, _, err = run_cli(capsys, "compute", "--space", "P3", "--k", "5",
                           "--r", "0")
    assert code == cli.EXIT_VALIDATION
    assert err == "error: r must be in [1, 62]\n"
    code, _, err = run_cli(capsys, "compute", "--space", "P3", "--k", "5",
                           "--r", "70")
    assert code == cli.EXIT_VALIDATION  # the documented 2^r word-size cap
    assert err == "error: r must be in [1, 62]\n"
    # filtration takes a value some script declaring it admits: the four
    # r>=1 scripts give one range, and m>=0 with m>=1 give m>=0
    for argv, error in ((("--r", "0"), "r must be in [1, 62]"),
                        (("--m", "-1"), "m must be in [0, 62]")):
        assert run_cli(capsys, "filtration", "--f", "2*iota_2", "--n", "2",
                       *argv) == (cli.EXIT_VALIDATION, "", f"error: {error}\n")


def test_missing_triple_product_fact_exit_code(capsys, tmp_path):
    """A triple product with no stored base value is a missing fact (3),
    not a validation error (2)."""
    text = "\n".join(
        line for line in default_catalog().serialize().splitlines()
        if "[j_L(0), j_L(0), j_L(0)]" not in line) + "\n"
    p = tmp_path / "notriple.facts"
    p.write_text(text)
    for argv in (("--space", "P3", "--k", "5", "--r", "2"),
                 ("--space", "J3", "--k", "6", "--r", "1")):
        code, _, err = run_cli(capsys, "--kb", str(p), "compute", *argv,
                               "--no-sweep")
        assert code == cli.EXIT_MISSING_FACT
        assert "KB fact required: no stored value for the base product" \
            in err


def test_missing_kb_fact_exit_code(capsys, tmp_path):
    cat = default_catalog()
    text = "\n".join(
        line for line in cat.serialize().splitlines()
        if "nut'" not in line) + "\n"
    p = tmp_path / "nolift.facts"
    p.write_text(text)
    code, _, err = run_cli(capsys, "--kb", str(p), "compute", "--space",
                           "P3", "--r", "3", "--k", "6", "--no-sweep")
    assert code == cli.EXIT_MISSING_FACT
    assert "extension unresolved" in err


def test_a_missing_boundary_names_its_fibration_by_key(capsys, tmp_path):
    """Without the stored value of the connecting map of F_p(1) on nu'
    (shipped line 101) the chase stops with exit 3 and names the
    fibration as the catalog writes it."""
    p = tmp_path / "noboundary.facts"
    p.write_text(default_catalog().without_facts(
        lambda f: f.line == 101).serialize())
    code, _, err = run_cli(capsys, "--kb", str(p), "compute", "--space",
                           "P3", "--k", "5", "--r", "1", "--no-sweep")
    assert code == cli.EXIT_MISSING_FACT
    assert "KB fact required: boundary of F_p(1) on nu' " in err


def test_assertion_mismatch_exit_code(capsys, tmp_path):
    cat = default_catalog()
    text = cat.serialize().replace("Z/2{j2_25.eta_5}", "Z/4{j2_25.eta_5}")
    p = tmp_path / "corrupt.facts"
    p.write_text(text)
    code, _, err = run_cli(capsys, "--kb", str(p), "compute", "--space",
                           "L4", "--m", "3", "--k", "6", "--no-sweep")
    assert code == cli.EXIT_ASSERTION
    assert "computed" in err and "expected" in err


@pytest.mark.parametrize("space, k, r, where", [
    ("P3", "5", "2", "pi5_P3 step 1 (run): pi5_L4m(m=3)"),
    ("P3", "6", "2", "pi6_P3 step 1 (run): pi6_J3 step 1 (run): "
                     "pi5_L4m(m=3)"),
    ("J3", "6", "1", "pi6_J3 step 1 (run): pi5_L4m(m=2)"),
])
def test_a_swept_failure_names_the_steps_it_passed(capsys, tmp_path, space,
                                                   k, r, where):
    """An eps-dependent group read by pi5_L4m fails its assert under
    eps=1 only.  The callers read no token themselves, so the sweep first
    asks their cached canonical runs, whose subderivation now raises; the
    callers are then executed, and each ``run`` step on the way prefixes
    the error with its position."""
    old = "| S2vS5 @ 5 | Z/2{"
    text = default_catalog().serialize()
    assert old in text
    p = tmp_path / "eps.facts"
    p.write_text(text.replace(old, "| S2vS5 @ 5 | Z/2^(1+eps){"))
    code, out, err = run_cli(capsys, "--kb", str(p), "compute", "--space",
                             space, "--k", k, "--r", r)
    assert code == cli.EXIT_ASSERTION
    assert out == ""
    assert err == (f"error: {where}: computed Z/2 + Z/4 + Z(2) but expected "
                   f"Z/2 + Z/2 + Z(2)\n")


def test_filtration_examples(capsys):
    code, out, _ = run_cli(capsys, "filtration", "--f", "2^r*iota_2",
                           "--n", "3", "--r", "2")
    assert code == 0
    assert "J_2: attach e^4 via gamma_2 = 8*eta_2" in out
    assert "J_3: attach e^6" in out and "j_L(3)" in out
    code, out, _ = run_cli(capsys, "filtration", "--f", "2^m*eta_2",
                           "--n", "2", "--m", "3")
    assert code == 0 and "S2 v S^5" in out
    code, out, _ = run_cli(capsys, "filtration", "--f", "2^r*iota_2",
                           "--n", "1", "--r", "1")
    assert code == 0 and out.strip() == "J_1 = S2"


@pytest.mark.parametrize("argv", [
    ("--f", "2^r*iota_2", "--n", "3", "--r", "-2"),
    ("--f", "2^r*iota_2", "--n", "3", "--r", "63"),
    ("--f", "2^m*eta_2", "--n", "3", "--m", "-1"),
    ("--f", "2^(-2)*iota_2", "--n", "3"),
    ("--f", "2^r*iota_2", "--n", "3", "--r", "2", "--m", "-1"),
])
def test_filtration_rejects_bad_parameters_and_negative_exponents(capsys,
                                                                  argv):
    """A negative exponent or a parameter outside compute's range is a
    validation error, never a truncated attaching class."""
    code, out, err = run_cli(capsys, "filtration", *argv)
    assert code == cli.EXIT_VALIDATION
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("e", [257, 99999999])
def test_filtration_refuses_an_exponent_over_the_bound(capsys, e):
    """An exponent over the bound is exit 2 before it is evaluated, not a
    traceback from printing a coefficient of thousands of digits."""
    code, out, err = run_cli(capsys, "filtration", "--f", f"2^{e}*iota_2",
                             "--n", "4")
    assert code == cli.EXIT_VALIDATION and not out
    assert err == f"error: exponent {e} is over 256\n"


@pytest.mark.parametrize("f, bits", [
    ("100000000000000000000^256*iota_2", 17009),
    ("2^256*2^256*2^256*2^256*iota_2", 1025)])
def test_filtration_refuses_an_integer_over_the_bound(capsys, f, bits):
    """A power or a product longer than the bound is exit 2 when it is
    evaluated, not a traceback from printing a coefficient of over 4,300
    digits."""
    code, out, err = run_cli(capsys, "filtration", "--f", f, "--n", "2")
    assert code == cli.EXIT_VALIDATION and not out
    assert err == f"error: integer of {bits} bits is over 1024\n"


def test_a_bug_surfaces_from_every_command(monkeypatch):
    """``compute`` and ``reproduce`` report the same errors with an exit
    code, ``cli.ERRORS``; anything else is a bug and surfaces from both,
    rather than being reported by ``reproduce`` as a failed row."""
    def broken(problem):
        raise RuntimeError("broken solver")

    monkeypatch.setattr(derive, "solve_extension", broken)
    for argv in (["compute", "--space", "P3", "--k", "5", "--r", "1",
                  "--no-sweep"], ["reproduce"]):
        with pytest.raises(RuntimeError, match="broken solver"):
            cli.main(argv)


def test_filtration_rejects_nonsuspension(capsys):
    code, _, err = run_cli(capsys, "filtration", "--f", "j_L(2)", "--n", "2")
    assert code == cli.EXIT_VALIDATION


def test_filtration_reads_no_token(capsys):
    """The attaching class is parsed under the parameter flags alone, so
    a swept token is an unknown name there, as any other is: a command's
    term is not given an unswept, unrecorded token value."""
    errors = []
    for f in ("x*iota_2", "sign*iota_2", "q*iota_2"):
        code, out, err = run_cli(capsys, "filtration", "--f", f, "--n", "2")
        assert code == cli.EXIT_VALIDATION and out == ""
        errors.append(err)
    assert len(set(errors)) == 1 and errors[0].startswith("error: ")


def test_reproduce_text_and_machine(capsys):
    code, out, _ = run_cli(capsys, "reproduce")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# kb digest:")
    rows = [ln for ln in lines[1:] if ln]
    assert len(rows) == 49
    assert all("[pass]" in ln for ln in rows)

    code, out, _ = run_cli(capsys, "reproduce", "--format", "machine")
    assert code == 0
    records = [json.loads(ln) for ln in out.strip().splitlines()]
    assert len(records) == 49
    assert all(rec["status"] == "pass" for rec in records)
    digests = {rec["kb_digest"] for rec in records}
    assert len(digests) == 1


def test_reproduce_fails_without_the_lift(capsys, tmp_path):
    cat = default_catalog()
    text = "\n".join(
        line for line in cat.serialize().splitlines()
        if "nut'" not in line) + "\n"
    p = tmp_path / "nolift.facts"
    p.write_text(text)
    code, out, err = run_cli(capsys, "--kb", str(p), "reproduce")
    assert code == cli.EXIT_MISSING_FACT
    assert "FAIL" in out and "extension unresolved" in out


def test_validate_kb(capsys):
    code, out, _ = run_cli(capsys, "validate-kb")
    assert code == 0 and out.startswith("ok:")
    code, _, err = run_cli(capsys, "--kb", "/nonexistent/kb.facts",
                           "validate-kb")
    assert code == cli.EXIT_VALIDATION


def test_validate_kb_rejects_unresolvable_facts(capsys, tmp_path):
    """A relation on an undeclared symbol, a group fact whose degree is
    not an integer or whose order names an unbound variable, a fact line
    without fields and a symbol whose space key does not parse are
    refused at load, with exit 2."""
    for line in ("fact relation | foo.eta_3 | 0 | paper | q | loc",
                 "fact group | S2 @ x | Z/2{eta_2} | paper | q | loc",
                 "fact group | S2 @ 5 | Z/2^q{eta_2^3} | paper | q | loc",
                 "fact group",
                 "symbol xi : S5 -> P3(2^",
                 "symbol xi(r) : S5 -> P3(2^r) order=2^"):
        p = tmp_path / "bad.facts"
        p.write_text(line + "\n")
        code, out, err = run_cli(capsys, "--kb", str(p), "validate-kb")
        assert code == cli.EXIT_VALIDATION and not out
        assert "line 1" in err


MAPS = ("symbol aa : S3 -> S5\nsymbol bb : S5 -> S3\n"
        "symbol cc : S2 -> S3\n")


@pytest.mark.parametrize("fact, error", [
    ("map_identity | bb.aa | iota_5", "iota_5 maps S5 -> S5, not S3 -> S3"),
    ("suspension_value | cc | cc", "cc maps S2 -> S3, not S3 -> S4"),
    ("relation | [iota_2, iota_2] | eta_3",
     "eta_3 maps S4 -> S3, not S3 -> S2"),
])
def test_validate_kb_checks_the_spaces_of_a_rule(capsys, tmp_path, fact,
                                                  error):
    """A rewrite whose right side lives elsewhere than its subject (the
    subject's suspension for a suspension value, the bracket for a
    product) is refused at load when its subject binds no variable."""
    p = tmp_path / "rule.facts"
    p.write_text(MAPS + f"fact {fact} | paper | q | loc\n")
    for argv in (["validate-kb"],
                 ["compute", "--space", "L4", "--k", "5", "--m", "3"]):
        code, out, err = run_cli(capsys, "--kb", str(p), *argv)
        assert code == cli.EXIT_VALIDATION and not out
        assert err == f"error: line 4: {error}\n"


def test_a_rule_is_checked_where_it_is_instantiated(tmp_path):
    """A rule whose subject binds a variable is checked when a lookup
    instantiates it: normalising bb.aa(1).cc raises, where it returned cc
    and bb.aa(1) raised 'sum of elements with different spaces'.  A
    suspension value 0 is the zero map between the suspended spaces."""
    from conechase import rewrite
    p = tmp_path / "rule.facts"
    p.write_text(MAPS.replace("aa :", "aa(n) :")
                 + "fact map_identity | bb.aa(n) | iota_5 | paper | q | loc\n"
                 + "fact suspension_value | cc | 0 | paper | q | loc\n")
    cat = load_catalog(p)
    ctx = cat.rule_context({})
    for text in ("bb.aa(1).cc", "bb.aa(1)"):
        with pytest.raises(KbError, match=r"^line 4: iota_5 maps S5 -> S5, "
                                          r"not S3 -> S3$"):
            rewrite.normalize(cat.parse_element(text, {}), ctx)
    zero = rewrite.suspend(cat.parse_element("cc", {}), ctx)
    assert zero.is_zero() and (zero.source.key, zero.target.key) == ("S3",
                                                                      "S4")


def test_validate_kb_checks_payload_symbols(capsys, tmp_path):
    """A payload naming an undeclared symbol is refused at load with
    exit 2, not when a computation first parses it (exit 3)."""
    text = default_catalog().serialize()
    good = "| j_pL(m).eta_2 |"
    assert text.count(good) == 1
    p = tmp_path / "payload.facts"
    p.write_text(text.replace(good, "| j_pLL(m).eta_2 |"))
    for argv in (["validate-kb"],
                 ["compute", "--space", "L4", "--k", "6", "--m", "3"]):
        code, out, err = run_cli(capsys, "--kb", str(p), *argv)
        assert code == cli.EXIT_VALIDATION and not out
        assert "unknown symbol 'j_pLL'" in err


def test_validate_kb_checks_payload_arity(capsys, tmp_path):
    """A payload that gives a symbol the wrong number of parameters is
    refused at load with exit 2 and its line, not mid-chase."""
    good = "| j1_25.q1_25 + sign*2^m*j2_25.q2_25"
    assert SHIPPED_FACTS.count(good) == 1
    line = SHIPPED_FACTS[:SHIPPED_FACTS.index(good)].count("\n") + 1
    p = tmp_path / "arity.facts"
    p.write_text(SHIPPED_FACTS.replace(good, good.replace("j1_25.", "chiJ2.")))
    for argv in (["validate-kb"],
                 ["compute", "--space", "J3", "--k", "6", "--r", "2",
                  "--no-sweep"]):
        code, out, err = run_cli(capsys, "--kb", str(p), *argv)
        assert code == cli.EXIT_VALIDATION and not out
        assert err == (f"error: line {line}: payload: chiJ2 expects 1 "
                       "parameter(s)\n")


def test_validate_kb_refuses_a_file_that_is_not_utf8(capsys, tmp_path):
    """A facts file that does not decode is refused with exit 2 and the
    line of its first bad byte: a stray byte pair, and the head of the
    interpreter's own executable, whose bad byte is on its first line."""
    with open(sys.executable, "rb") as fh:
        binary = fh.read(300)
    for data, line in ((b"version 1\n\xff\xfe junk\n", 2), (binary, 1)):
        p = tmp_path / "bytes.facts"
        p.write_bytes(data)
        code, out, err = run_cli(capsys, "--kb", str(p), "validate-kb")
        assert (code, out) == (cli.EXIT_VALIDATION, "")
        assert err == f"error: line {line}: not UTF-8 text\n"


def test_validate_kb_checks_fibration_heads(capsys, tmp_path):
    """A boundary value or transport on an undeclared fibration, or a
    transport through an undeclared map, could never be reached: exit 2."""
    decls = ("symbol nu' : S6 -> S3\n"
             "symbol j_q(r) : S2 -> F_q(r)\n"
             "symbol psi(s,r) : F_q(s) -> F_q(r)\n"
             "fibration F_q(r) : 2^r*iota_2 bottom=j_q(r)\n")
    value = "fact boundary_value | {} : nu' | 0 | paper | q | loc\n"
    transport = ("fact map_identity | boundary({}) | {} . boundary({}) "
                 "| paper | q | loc\n")
    p = tmp_path / "fib.facts"
    p.write_text(decls + value.format("F_q(1)")
                 + transport.format("F_q(r)", "psi(1,r)", "F_q(1)"))
    assert run_cli(capsys, "--kb", str(p), "validate-kb")[0] == cli.EXIT_OK
    for bad in (value.format("F_zz(1)"), value.format("F_q(1,1)"),
                transport.format("F_yy(r)", "psi(1,r)", "F_q(1)"),
                transport.format("F_q(r)", "psi(1,r)", "F_xx(1)"),
                transport.format("F_q(r)", "phi(1,r)", "F_q(1)")):
        p.write_text(decls + bad)
        code, out, err = run_cli(capsys, "--kb", str(p), "validate-kb")
        assert code == cli.EXIT_VALIDATION and not out, bad
        assert err.startswith("error: line 5: "), err
    p.write_text("symbol nu' : S6 -> S3\n" + value.format("F_zz(1)")
                 + transport.format("F_yy(r)", "psi(1,r)", "F_xx(1)"))
    assert run_cli(capsys, "--kb", str(p), "validate-kb")[0] == \
        cli.EXIT_VALIDATION


_FIB_HEADER = "symbol j_q(r) : S2 -> F_q(r)\n"
_FIB_OK = "fibration F_q(r) : 2^r*iota_2 bottom=j_q(r)"
_bad_fibration_lines = st.one_of(
    # an undeclared bottom symbol
    st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True)
    .filter(lambda n: n != "j_q")
    .map(lambda n: f"fibration F_q(r) : 2^r*iota_2 bottom={n}(r)"),
    # a wrong arity, of the bottom symbol or of the head
    st.sampled_from(["", "r,r", "r,1,r"]).map(
        lambda a: f"fibration F_q(r) : 2^r*iota_2 bottom=j_q({a})"),
    st.sampled_from(["", "(r,s)", "(r,s,t)"]).map(
        lambda h: f"fibration F_q{h} : 2^r*iota_2 bottom=j_q(r)"),
    # a duplicate head
    st.sampled_from(["2^r*iota_2", "iota_2", ""]).map(
        lambda c: f"{_FIB_OK}\nfibration F_q(r) : {c} bottom=j_q(r)"),
    # an unparsable class
    st.text(alphabet="()[]*+-.,^", min_size=1).map(
        lambda junk: f"fibration F_q(r) : 2^r*iota_2{junk} bottom=j_q(r)"),
)


@given(_bad_fibration_lines)
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_malformed_fibration_lines_exit_2(capsys, tmp_path, line):
    p = tmp_path / "fib.facts"
    p.write_text(_FIB_HEADER + line + "\n")
    code, out, err = run_cli(capsys, "--kb", str(p), "validate-kb")
    assert code == cli.EXIT_VALIDATION and not out
    assert err.startswith("error: line ")
    p.write_text(_FIB_HEADER + _FIB_OK + "\n")
    assert run_cli(capsys, "--kb", str(p), "validate-kb")[0] == cli.EXIT_OK


SHIPPED_FACTS = resources.files("conechase").joinpath(
    "data/paper.facts").read_text()
_FACT_LINES = [i for i, line in enumerate(SHIPPED_FACTS.splitlines())
               if line.startswith("fact ")]
_SCENARIO_ARGV = [["--space", space, "--k", str(k),
                   "--m" if script.params == ["m"] else "--r"]
                  for (space, k), script in scenarios(load_scripts()).items()]
_JUNK = "()[]{}*+-.,^~'?:@=<> 0123rmsxyq"
# junk that often still parses, so that the chase runs on the result
_PLAUSIBLE = ["+1", "-1", "*2", "2*", "^2", "1", "0", "r", "m", "s", "x",
              "+ x*", "+ eps*", " + iota_2", ".eta_5", "eta_2.", ",1",
              "r+1", "2^", "(m)", ", m>=2", "<=3", "=1"]


@st.composite
def _mutated_fact_line(draw):
    """The shipped catalog with junk inserted into one fact line's
    payload, its subject with the argument expressions, or its guard (a
    line without one gains one)."""
    lines = SHIPPED_FACTS.splitlines()
    i = draw(st.sampled_from(_FACT_LINES))
    fields = lines[i].split("|")
    subject, sep, guard = fields[1].partition("?")
    junk = draw(st.one_of(st.text(alphabet=_JUNK, min_size=1, max_size=4),
                          st.sampled_from(_PLAUSIBLE)))
    where = draw(st.sampled_from(["payload", "subject", "guard"]))
    text = {"payload": fields[2], "subject": subject,
            "guard": guard if sep else " m>=1"}[where]
    at = draw(st.integers(0, len(text)))
    text = text[:at] + junk + text[at:]
    if where == "payload":
        fields[2] = text
    elif where == "subject":
        fields[1] = text + sep + guard
    else:
        fields[1] = subject.rstrip() + " ?" + text
    lines[i] = "|".join(fields)
    return "\n".join(lines) + "\n"


@given(_mutated_fact_line(), st.sampled_from(_SCENARIO_ARGV),
       st.integers(1, 3))
@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
def test_mutated_fact_lines_exit_only_with_documented_codes(
        capsys, tmp_path, text, argv, value):
    """A fact line with junk in its payload, subject or guard is refused
    at load or during a chase with a documented exit code, never with a
    traceback: the errors the compiled payloads, subjects and guards
    raise are all reported."""
    p = tmp_path / "mutated.facts"
    p.write_text(text)
    for args in (["validate-kb"], ["compute", *argv, str(value),
                                   "--no-sweep"]):
        code, _, err = run_cli(capsys, "--kb", str(p), *args)
        assert code in (0, 2, 3, 4), err
        assert "Traceback" not in err


_SYMBOLS = sorted({line.split()[1].partition("(")[0]
                   for line in SHIPPED_FACTS.splitlines()
                   if line.startswith("symbol ")})
_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_~']*")
_SCALAR = re.compile(r"\b(?:\d+|[mrs])\b")
_ARG_LIST = re.compile(r"[(\[]([^()\[\]{}]*)[)\]]")


def _token_mutation(rng):
    """The shipped catalog with one whole-token edit in one fact line's
    subject, guard or payload: a declared symbol swapped for another, an
    integer for another integer or a fact variable for another, or one
    argument, bracket slot or payload summand dropped or duplicated."""
    lines = SHIPPED_FACTS.splitlines()
    i = rng.choice(_FACT_LINES)
    fields = lines[i].split("|")
    edits = {"symbol": [], "scalar": [], "argument": []}
    for f in (1, 2):
        text = fields[f]
        for m in _NAME.finditer(text):
            if m.group() in _SYMBOLS:
                edits["symbol"].append((f, m.span(), [
                    s for s in _SYMBOLS if s != m.group()]))
        for m in _SCALAR.finditer(text):
            same = "01234" if m.group().isdigit() else "mrs"
            edits["scalar"].append((f, m.span(), [
                s for s in same if s != m.group()]))
        lists = [(m.span(1), ",") for m in _ARG_LIST.finditer(text)]
        if f == 2 and " + " in text:
            lists.append(((0, len(text)), " + "))
        for (a, b), sep in lists:
            args = text[a:b].split(sep)
            j = rng.randrange(len(args))
            edits["argument"].append((f, (a, b), [
                sep.join(args[:j] + args[j + 1:]),
                sep.join(args[:j + 1] + args[j:])]))
    kind = rng.choice([kind for kind, found in edits.items() if found])
    f, (a, b), options = rng.choice(edits[kind])
    fields[f] = fields[f][:a] + rng.choice(options) + fields[f][b:]
    lines[i] = "|".join(fields)
    return "\n".join(lines) + "\n"


def test_token_mutated_catalogs_reach_the_chase(capsys, tmp_path):
    """Whole-token edits mostly still parse, so unlike junk inserted
    mid-token they reach the chase and its error paths: of 100 seeded
    draws at least half load, and every load and every compute on what
    loads exits with a documented code, never a traceback.  The computes
    draw from a second generator, so the 100 catalogs do not depend on
    which of them load."""
    rng, pick = random.Random(0), random.Random(1)
    path = tmp_path / "mutated.facts"
    loaded = 0
    for _ in range(100):
        path.write_text(_token_mutation(rng))
        code, _, err = run_cli(capsys, "--kb", str(path), "validate-kb")
        assert code in (0, 2, 3, 4) and "Traceback" not in err, err
        if code == cli.EXIT_OK:
            loaded += 1
            code, _, err = run_cli(
                capsys, "--kb", str(path), "compute",
                *pick.choice(_SCENARIO_ARGV), str(pick.randint(1, 3)),
                "--no-sweep")
            assert code in (0, 2, 3, 4) and "Traceback" not in err, err
    assert loaded >= 50


_DECLARATIONS = [i for i, line in enumerate(SHIPPED_FACTS.splitlines())
                 if line.startswith(("symbol ", "version"))]
_DECL_TOKEN = re.compile(r"[A-Za-z0-9_~'^]+|\S")
_DECL_TOKENS = sorted({tok for i in _DECLARATIONS
                       for tok in _DECL_TOKEN.findall(
                           SHIPPED_FACTS.splitlines()[i])})


def _declaration_mutation(rng):
    """The shipped catalog with one token of one ``symbol`` or
    ``version`` line, other than its keyword, dropped, doubled or
    replaced by a token of another declaration."""
    lines = SHIPPED_FACTS.splitlines()
    i = rng.choice(_DECLARATIONS)
    spans = [m.span() for m in _DECL_TOKEN.finditer(lines[i])][1:]
    a, b = rng.choice(spans)
    tok = lines[i][a:b]
    new = rng.choice(["", f"{tok} {tok}" if tok.isalnum() else tok + tok,
                      rng.choice(_DECL_TOKENS)])
    lines[i] = lines[i][:a] + new + lines[i][b:]
    return "\n".join(lines) + "\n"


def test_mutated_declarations_exit_only_with_documented_codes(capsys,
                                                              tmp_path):
    """A catalog with one ``symbol`` or ``version`` line mutated is
    refused at load or computes with a documented exit code, never with
    a traceback (600 seeded draws; about an eighth load).  The computes
    draw from a second generator, so the 600 catalogs do not depend on
    which of them load."""
    rng, pick = random.Random(0), random.Random(1)
    path = tmp_path / "mutated.facts"
    loaded = 0
    for _ in range(600):
        path.write_text(_declaration_mutation(rng))
        code, _, err = run_cli(capsys, "--kb", str(path), "validate-kb")
        assert code in (0, 2, 3, 4) and "Traceback" not in err, err
        if code == cli.EXIT_OK:
            loaded += 1
            code, _, err = run_cli(
                capsys, "--kb", str(path), "compute",
                *pick.choice(_SCENARIO_ARGV), str(pick.randint(1, 3)),
                "--no-sweep")
            assert code in (0, 2, 3, 4) and "Traceback" not in err, err
    assert loaded >= 50


@pytest.mark.parametrize("old, new, error", [
    ("symbol Sj1(m) :", "symbol Sj1(m m) :",
     "line 28: bad parameter list (m m)"),
    ("S7 -> S4\n", "S7 -> S4\nsymbol eta_3 : S9 -> S3\n",
     "line 15: 'eta_3' is a built-in symbol"),
    # an order bound is a cited fact, so ``order=`` is no attribute
    ("S6 -> S3 susp_to", "S6 -> S3 order=4 susp_to",
     "line 12: bad symbol attribute 'order=4'"),
    ("susp_to=Sigma_nu'", "susp_to=Sigma_nu' susp_to=nu_4",
     "line 12: attribute susp_to= given twice"),
    # the inverse of ``susp_to=`` is derived, so ``desusp=`` is no attribute
    ("S7 -> S4 susp\n", "S7 -> S4 susp desusp=nu'\n",
     "line 13: bad symbol attribute \"desusp=nu'\""),
    # ``susp_to=`` names a declared symbol with as many parameters, on the
    # suspended spaces, that no other ``susp_to=`` names
    ("susp_to=Sigma_nu'", "susp_to=Sigma_nux",
     "line 12: susp_to=Sigma_nux: unknown symbol 'Sigma_nux'"),
    ("susp_to=Sj1", "susp_to=Sigma_nu'",
     "line 19: susp_to=Sigma_nu': Sigma_nu' takes 0 parameter(s), not 1"),
    ("susp_to=Sigma_beta", "susp_to=Sj1",
     "line 26: susp_to=Sj1: Sj1 maps S3 -> SigmaL4(1), not S6 -> SigmaL4(1)"),
    ("S7 -> S4\n", "S7 -> S4\nsymbol nu'' : S6 -> S3 susp_to=Sigma_nu'\n",
     "line 15: susp_to=Sigma_nu': Sigma_nu' is already the suspension of "
     "nu' (line 12)"),
    # an abbreviation is a fold fact, so ``defn=`` is no attribute
    ("S2 -> F_pL(m)\n", "S2 -> F_pL(m) defn=j_F(m).j1_25\n",
     "line 23: bad symbol attribute 'defn=j_F(m).j1_25'"),
    ("bottom=j_p(r)", "bottom=j_p(r) bottom=j_p(r)",
     "line 130: attribute bottom= given twice"),
    ("skeleton=j_F(m)", "skeleton=j_F(m) skeleton=j_F(m)",
     "line 131: attribute skeleton= given twice"),
])
def test_symbol_declarations_are_checked_at_load(capsys, tmp_path, old, new,
                                                 error):
    """Parameters are distinct names, every attribute is a known one, no
    declaration shadows a built-in, no keyed attribute is given twice, and
    each ``susp_to=`` declares one suspension pair: each is refused at
    load with exit 2, not met mid-chase or silently ignored."""
    assert SHIPPED_FACTS.count(old) == 1
    p = tmp_path / "decl.facts"
    p.write_text(SHIPPED_FACTS.replace(old, new))
    code, out, err = run_cli(capsys, "--kb", str(p), "validate-kb")
    assert code == cli.EXIT_VALIDATION and not out
    assert err == f"error: {error}\n"


def test_a_script_parameter_is_a_flag(capsys, monkeypatch):
    """Negative control: a script whose parameter is ``s`` gives
    ``compute`` and ``filtration`` an ``--s`` flag, and its ``require``
    is the domain the CLI accepts; the shipped scripts give none."""
    with pytest.raises(SystemExit):
        cli.main(["compute", "--space", "P3", "--k", "5", "--s", "2"])
    capsys.readouterr()
    extra = derive.parse_script(
        "derivation pi5_s\nparams s\nrequire s>=1, s<=5\ncomputes C(s) @ 5\n"
        "let g = run script=pi5_L4m; m=s\nreturn g\n")
    linked = derive.link_scripts([*load_scripts().values(), extra])
    monkeypatch.setattr(cli, "load_scripts", lambda: linked)
    compute = ("compute", "--space", "C", "--k", "5", "--no-sweep", "--s")
    assert run_cli(capsys, *compute, "2") == (cli.EXIT_OK,
                                               "Z/2 + Z/2 + Z(2)\n", "")
    # the CLI checks the lower bound and the cap, the runner the rest
    for value, error in (("0", "s must be in [1, 62]"),
                         ("6", "pi5_s: parameters violate 's>=1, s<=5'"),
                         ("63", "s must be in [1, 62]")):
        assert run_cli(capsys, *compute, value) == (
            cli.EXIT_VALIDATION, "", f"error: {error}\n")
    filtration = ("filtration", "--f", "2^s*iota_2", "--n", "2", "--s")
    code, out, _ = run_cli(capsys, *filtration, "1")
    assert code == cli.EXIT_OK and "gamma_2 = 4*eta_2" in out
    assert run_cli(capsys, *filtration, "0")[0] == cli.EXIT_VALIDATION


def test_fixed_names_every_attribute_the_parser_sets():
    """A script parameter named like one of ``cli.FIXED`` gets no flag,
    so ``FIXED`` must hold every attribute an option or subcommand sets:
    a flag of that name would conflict with it or overwrite it."""
    parser = cli._parser(("P3",), ())
    (commands,) = parser._subparsers._group_actions
    parsers = [parser, *commands.choices.values()]
    taken = {a.dest for p in parsers for a in p._actions}
    assert taken | {k for p in parsers for k in p._defaults} == set(cli.FIXED)


@pytest.mark.parametrize("space, k", sorted(scenarios(load_scripts())))
def test_a_parameter_outside_its_domain_is_refused_by_the_cli(
        capsys, monkeypatch, space, k):
    """Each scenario at its ``require`` lower bound less 1 and at
    ``R_CAP + 1`` exits 2 with a one-line error before any run; at the
    bound and at the cap the CLI asks the runner."""
    script = scenarios(load_scripts())[(space, k)]
    ((name, compare, low),) = kb.compile_guard(script.requires)
    assert compare is operator.ge

    class Asked(Exception):
        pass

    def asked(*_, **__):
        raise Asked

    monkeypatch.setattr(derive.Runner, "run", asked)
    for value in (low - 1, cli.R_CAP + 1):
        code, out, err = run_cli(capsys, "compute", "--space", space, "--k",
                                 str(k), f"--{name}", str(value))
        assert code == cli.EXIT_VALIDATION and out == ""
        assert err == f"error: {name} must be in [{low}, {cli.R_CAP}]\n"
    for value in (low, cli.R_CAP):
        with pytest.raises(Asked):
            cli.main(["compute", "--space", space, "--k", str(k),
                      f"--{name}", str(value)])


def test_version_line_needs_one_value(capsys, tmp_path):
    p = tmp_path / "version.facts"
    for line in ("version", "version 1 2"):
        p.write_text(SHIPPED_FACTS.replace("version 1\n", line + "\n"))
        code, out, err = run_cli(capsys, "--kb", str(p), "validate-kb")
        assert code == cli.EXIT_VALIDATION and not out
        assert err == "error: line 9: bad version line\n"


def test_a_bad_line_is_reported_before_a_bad_declaration(capsys, tmp_path):
    """Every line is read before the declarations are checked, so of two
    malformed lines an unrecognized one is reported first, though a bad
    declaration comes before it in the file."""
    old, new = "symbol nu_4 :", "symbol nu_4(m m) :"
    head = "# --- homotopy groups of spheres"
    assert SHIPPED_FACTS.count(old) == SHIPPED_FACTS.count(head) == 1
    p = tmp_path / "two_errors.facts"
    p.write_text(SHIPPED_FACTS.replace(old, new).replace(
        head, "garbage line\n" + head))
    code, out, err = run_cli(capsys, "--kb", str(p), "validate-kb")
    assert code == cli.EXIT_VALIDATION and not out
    assert err == "error: line 50: unrecognized line 'garbage line'\n"


def test_one_parser_serves_every_call(capsys):
    """The argument parser is built once per process: calls with
    different subcommands share it, and a bad argument after a good call
    still exits 2."""
    assert run_cli(capsys, "validate-kb")[0] == cli.EXIT_OK
    built = cli._parser.cache_info().misses
    code, out, _ = run_cli(capsys, "compute", "--space", "P3", "--k", "5",
                           "--r", "1", "--no-sweep")
    assert code == cli.EXIT_OK and out == "Z/2 + Z/2 + Z/2\n"
    with pytest.raises(SystemExit) as e:
        cli.main(["compute", "--space", "P3", "--k", "five"])
    assert e.value.code == 2
    assert cli._parser.cache_info().misses == built


def test_an_order_bound_must_be_zero(capsys, tmp_path):
    """An order bound k*word is cited only where it changes a
    coefficient, which is exact only because its payload is 0 and so
    reads no token: any other payload is refused at load."""
    text = default_catalog().serialize()
    for old, new in (("| 4*eta~_4(m) ? m>=1 | 0 |", "| 4*eta~_4(m) ? m>=1 | x |"),
                     ("| 2*Sigma_beta(2) | 0 |", "| 2*Sigma_beta(2) | 2 |")):
        assert text.count(old) == 1
        p = tmp_path / "bound.facts"
        p.write_text(text.replace(old, new))
        code, out, err = run_cli(capsys, "--kb", str(p), "validate-kb")
        assert code == cli.EXIT_VALIDATION and not out
        assert "an order bound k*word must equal 0" in err


def test_a_zero_order_bound_bounds_nothing(capsys, tmp_path):
    """``0*word = 0`` holds of every word and bounds nothing: with it in
    place of ``2*Sigma_beta(2) = 0`` (line 77) the catalog loads, and
    every scenario that reads line 77 computes, prints and fails as on
    the catalog without line 77, digests aside."""
    text = default_catalog().serialize()
    old = "fact relation | 2*Sigma_beta(2) | 0 |"
    assert text.count(old) == 1
    zero, lacking = tmp_path / "zero.facts", tmp_path / "lacking.facts"
    zero.write_text(text.replace(old, "fact relation | 0*Sigma_beta(2) | 0 |"))
    lacking.write_text(default_catalog().without_facts(
        lambda f: f.line == 77).serialize())
    assert run_cli(capsys, "--kb", str(zero), "validate-kb")[0] == 0
    codes = []
    for space, k in (("J3", "6"), ("P3", "5"), ("P3", "6")):
        for r in ("1", "2"):
            got = [run_cli(capsys, "--kb", str(path), "compute", "--space",
                           space, "--k", k, "--r", r, "--transcript")
                   for path in (zero, lacking)]
            masked = [re.sub("[0-9a-f]{64}", "<hex>", repr(g)) for g in got]
            assert masked[0] == masked[1]
            codes.append(got[0][0])
    assert codes == [cli.EXIT_VALIDATION, cli.EXIT_OK] * 3  # r = 1 needs it


@pytest.mark.parametrize("order", ["2", "3"])
def test_a_lift_order_below_or_off_the_powers_of_two_exits_2(capsys, tmp_path,
                                                            order):
    """A lift maps onto a quotient generator of order q, so its order is 0
    or a power of two >= q.  The extension solver checks each claimed
    lift order against the presented group, so the order-4 lift of nu'
    (paper.facts line 108) claimed with order 2 or 3 is refused, exit 2."""
    old = "| nut'(2) order=4 |"
    assert SHIPPED_FACTS.count(old) == 1
    line = SHIPPED_FACTS[:SHIPPED_FACTS.index(old)].count("\n") + 1
    assert line == 108
    p = tmp_path / "order.facts"
    p.write_text(SHIPPED_FACTS.replace(old, old.replace("4", order)))
    code, out, err = run_cli(capsys, "--kb", str(p), "compute", "--space",
                             "P3", "--k", "6", "--r", "2", "--no-sweep")
    assert (code, out) == (cli.EXIT_VALIDATION, "")
    assert err == (f"error: pi6_P3 step 9 (extension): certificate for nu' "
                   f"claims lift order {order} but the presentation gives "
                   f"4\n")


def test_payload_syntax_is_checked_at_load(capsys, tmp_path):
    """A payload that does not parse is refused when the catalog loads,
    with exit 2 and its line, not when a chase first instantiates it."""
    good = "| j_p(1).eta_2^3 |"
    assert SHIPPED_FACTS.count(good) == 1
    line = SHIPPED_FACTS[:SHIPPED_FACTS.index(good)].count("\n") + 1
    p = tmp_path / "syntax.facts"
    p.write_text(SHIPPED_FACTS.replace(good, "| j_p(1).eta_2^3.( |"))
    for argv in (["validate-kb"],
                 ["compute", "--space", "P3", "--k", "5", "--r", "1"]):
        code, out, err = run_cli(capsys, "--kb", str(p), *argv)
        assert code == cli.EXIT_VALIDATION and not out
        assert err == (f"error: line {line}: payload: expected a symbol "
                       "name, got '(' in 'j_p(1).eta_2^3.('\n")
    p.write_text(SHIPPED_FACTS.replace(good, "| j_p(1).eta_2. |"))
    code, _, err = run_cli(capsys, "--kb", str(p), "validate-kb")
    assert code == cli.EXIT_VALIDATION
    assert err == (f"error: line {line}: payload: unexpected end of input "
                   "in 'j_p(1).eta_2.'\n")


def test_a_malformed_lift_payload_is_refused_at_load(capsys, tmp_path):
    """A lift certificate is ``<class> order=<n> [rel=<class>]`` or a
    transport; anything else is exit 2 with its line at load."""
    good = "| xi_1 order=2 |"
    assert SHIPPED_FACTS.count(good) == 1
    line = SHIPPED_FACTS[:SHIPPED_FACTS.index(good)].count("\n") + 1
    p = tmp_path / "lift.facts"
    p.write_text(SHIPPED_FACTS.replace(good, "| xi_1 order two |"))
    code, out, err = run_cli(capsys, "--kb", str(p), "validate-kb")
    assert code == cli.EXIT_VALIDATION and not out
    assert err == f"error: line {line}: bad lift payload 'xi_1 order two'\n"


@pytest.mark.parametrize("text, message", [
    ("eta_2.(", "expected a symbol name, got '(' in 'eta_2.('"),
    ("eta_2.", "unexpected end of input in 'eta_2.'"),
    ("2^r*iota_2 iota_2", "trailing tokens in '2^r*iota_2 iota_2'"),
    # a built-in takes the parameter count loading checks, never drops one
    ("2*iota_3(7)", "iota_3 expects 0 parameter(s)"),
    ("2*eta_2^2(9).iota_4", "eta_2^2 expects 0 parameter(s)"),
    ("2*eta_2(9)", "eta_2 expects 0 parameter(s)"),
    # a power of eta is bounded as an exponent is
    ("eta_2^257", "exponent 257 is over 256"),
    # a decimal literal longer than any bounded integer is never read
    *(pytest.param(f, "integer literal of 5000 digits is over 309", id=name)
      for f, name in (("7" * 5000 + "*iota_2", "scalar literal"),
                      ("deg(" + "7" * 5000 + ",2)", "deg literal"),
                      ("eta_" + "7" * 5000, "eta literal"))),
])
def test_filtration_reports_term_syntax_errors(capsys, text, message):
    code, out, err = run_cli(capsys, "filtration", "--f", text, "--n", "2",
                             "--r", "1")
    assert code == cli.EXIT_VALIDATION and not out
    assert err == f"error: {message}\n"


def test_les_error_is_a_validation_exit(capsys, tmp_path):
    """Without [iota_3, iota_3] = 0 (shipped line 74) the pi6_L4m chase
    meets a term it cannot chart; that is exit 2, not a traceback."""
    p = tmp_path / "no_hspace.facts"
    p.write_text(default_catalog().without_facts(
        lambda f: f.line == 74).serialize())
    code, _, err = run_cli(capsys, "--kb", str(p), "compute", "--space",
                           "L4", "--k", "6", "--m", "2", "--no-sweep")
    assert code == cli.EXIT_VALIDATION
    assert err.startswith("error: ") and "Traceback" not in err


def _fresh_process(*argv):
    """(exit code, stdout, stderr) of ``python -m conechase`` in a new
    interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "conechase", *argv],
                          capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def test_warm_computes_print_what_a_fresh_process_prints(capsys):
    """After a reproduce pass in this process, a swept and an unswept
    compute with its transcript print, byte for byte, what a fresh
    interpreter prints: the shipped catalog they share keeps no memo
    from one command to the next."""
    assert run_cli(capsys, "reproduce")[0] == cli.EXIT_OK
    for extra in ((), ("--no-sweep",)):
        argv = ("compute", "--space", "P3", "--k", "6", "--r", "2",
                "--transcript", *extra)
        assert run_cli(capsys, *argv) == _fresh_process(*argv)


def test_commands_load_the_shipped_catalog_once(monkeypatch, capsys):
    """A process that runs several commands on the shipped catalog reads
    and compiles it once; each command gets a view with its own memos,
    which are gone when the command returns, and the loaded catalog's
    memo of normal forms stays empty."""
    loads, views = [], []
    load, view = derive.load_catalog, KbCatalog.view
    monkeypatch.setattr(derive, "load_catalog",
                        lambda path: loads.append(path) or load(path))
    monkeypatch.setattr(derive, "_shipped_catalog", functools.cache(
        derive._shipped_catalog.__wrapped__))
    monkeypatch.setattr(KbCatalog, "view", lambda self: views.append(
        weakref.ref(made := view(self))) or made)
    for argv in (("compute", "--space", "P3", "--k", "6", "--r", "2"),
                 ("compute", "--space", "J3", "--k", "6", "--r", "3",
                  "--no-sweep"),
                 ("filtration", "--f", "2^r iota_2", "--n", "3", "--r", "2"),
                 ("validate-kb",), ("reproduce",)):
        assert run_cli(capsys, *argv)[0] == cli.EXIT_OK
    gc.collect()
    assert len(loads) == 1 and len(views) == 5
    assert not any(ref() for ref in views)
    assert not derive._shipped_catalog()._normal_forms


def _ablated_catalogs(tmp_path) -> list:
    """The shipped catalog less one fact, one file per fact, as the
    ``ablation`` benchmark writes them: each has the declarations, line
    numbers included, of every other."""
    catalog = default_catalog()
    paths = []
    for fact in catalog.facts:
        path = tmp_path / f"without_line{fact.line}.facts"
        path.write_text(catalog.without_facts(
            lambda f, line=fact.line: f.line == line).serialize())
        paths.append(path)
    return paths


def test_ablated_catalogs_compute_as_if_each_were_loaded_alone(
        capsys, tmp_path):
    """Each shipped catalog less one fact, loaded in turn in one process,
    so that every load after the first takes the registry and compiled
    facts of the one before, computes what it computes from a fresh
    registry: the same exit code, stdout and stderr."""
    paths = _ablated_catalogs(tmp_path)
    argvs = [("--kb", str(path), "compute",
              *_SCENARIO_ARGV[i % len(_SCENARIO_ARGV)], "2",
              "--no-sweep", "--transcript") for i, path in enumerate(paths)]
    reused = [run_cli(capsys, *argv) for argv in argvs]
    assert len({code for code, _, _ in reused}) > 1
    # one registry served them all: a fact sits on one of two lines
    assert len(load_catalog(paths[0]).registry.patterns) > len(paths)
    for argv, got in zip(argvs, reused):
        kb._registry.cache_clear()
        assert run_cli(capsys, *argv) == got, argv


def test_ablated_catalogs_build_one_registry(monkeypatch, tmp_path):
    """Loading every ablated catalog in one process builds at most one
    symbol registry: their declarations are the same, so each load after
    the first takes the cached one."""
    paths = _ablated_catalogs(tmp_path)
    built = []
    init = kb.SymbolRegistry.__init__
    monkeypatch.setattr(kb.SymbolRegistry, "__init__",
                        lambda self, *a: built.append(a) or init(self, *a))
    for path in paths:
        assert len(load_catalog(path).facts) == len(paths) - 1
    assert len(built) <= 1
    assert len(paths) == 63


def test_python_m_conechase_help():
    out = subprocess.run([sys.executable, "-m", "conechase", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0 and "validate-kb" in out.stdout


def test_filtration_accepts_implicit_scalar_product(capsys):
    code, out, _ = run_cli(capsys, "filtration", "--f", "2^r iota_2",
                           "--n", "3", "--r", "2")
    assert code == 0 and "gamma_2 = 8*eta_2" in out
    code, out, _ = run_cli(capsys, "filtration", "--f", "2^m eta_2",
                           "--n", "2", "--m", "3")
    assert code == 0 and "v S^5" in out


def test_filtration_machine_format(capsys):
    code, out, _ = run_cli(capsys, "filtration", "--f", "2^r*iota_2",
                           "--n", "3", "--r", "2", "--format", "machine")
    assert code == 0
    records = [json.loads(ln) for ln in out.strip().splitlines()]
    assert [rec["stage"] for rec in records] == [1, 2, 3]
    assert records[1]["gamma"] == "8*eta_2"
    assert records[2]["cell_dim"] == 6


def test_benchmark_draws_only_declared_scenarios():
    """Every (space, k, script) the benchmark draws is a scenario the
    scripts declare."""
    drawn = bench_table("workloads", "SCENARIOS")
    declared = scenarios(load_scripts())
    assert drawn
    for space, k, script in drawn:
        assert declared[(space, k)].name == script


def test_traced_names_exist():
    """Every class the benchmark's tracer counts exists, and so do the two
    things its normalize_word hook reads: the word's key and the rule
    context's word rules.  ``test_source`` checks the functions it
    wraps."""
    import importlib
    import inspect

    from conechase import rewrite
    from conechase.terms import Word, sphere
    for module, cls, _ in bench_table("tracing", "COUNTED"):
        assert isinstance(
            getattr(importlib.import_module(f"conechase.{module}"), cls), type)
    assert list(inspect.signature(rewrite.normalize_word).parameters)[:3] \
        == ["word", "coeff", "ctx"]
    ctx = default_catalog().rule_context(
        {"sign": 1, "eps": 0, "x": 0, "y": 1})
    hash((id(ctx.word_rules), Word((), sphere(3)).key(), 1))


SCENARIO_DIGESTS = Path(__file__).parent / "golden" / "scenarios.txt"


def scenario_digest_lines():
    """One line per swept ``compute --format machine`` call, each scenario
    at r or m in {1, 2, 3, 30}: the script, its parameter, the group and
    the transcript digest.  ``tests/golden/scenarios.txt`` holds them;
    regenerate it with ``PYTHONPATH=src:tests python -c "import test_cli;
    test_cli.SCENARIO_DIGESTS.write_text(
    ''.join(test_cli.scenario_digest_lines()))"``."""
    out = []
    for argv in _SCENARIO_ARGV:
        for value in (1, 2, 3, 30):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert cli.main(["compute", *argv, str(value), "--format",
                                 "machine"]) == cli.EXIT_OK
            record = json.loads(buf.getvalue())
            out.append(f"{record['script']} {argv[-1][2:]}={value} "
                       f"{record['group']} | {record['transcript_digest']}\n")
    return out


def test_swept_scenarios_match_their_golden_digests():
    """Every scenario's group and full transcript, swept, at four
    parameters: a refactor that moves one transcript byte fails here."""
    assert "".join(scenario_digest_lines()) == SCENARIO_DIGESTS.read_text()
