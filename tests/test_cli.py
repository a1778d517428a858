"""Command-line interface: outputs, formats, exit codes."""

import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conechase import cli
from conechase.derive import default_catalog


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
    code, _, err = run_cli(capsys, "compute", "--space", "P3", "--k", "5",
                           "--r", "0")
    assert code == cli.EXIT_VALIDATION
    code, _, err = run_cli(capsys, "compute", "--space", "P3", "--k", "5",
                           "--r", "70")
    assert code == cli.EXIT_VALIDATION  # the documented 2^r word-size cap


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


def test_assertion_mismatch_exit_code(capsys, tmp_path):
    cat = default_catalog()
    text = cat.serialize().replace("Z/2{j2_25.eta_5}", "Z/4{j2_25.eta_5}")
    p = tmp_path / "corrupt.facts"
    p.write_text(text)
    code, _, err = run_cli(capsys, "--kb", str(p), "compute", "--space",
                           "L4", "--m", "3", "--k", "6", "--no-sweep")
    assert code == cli.EXIT_ASSERTION
    assert "computed" in err and "expected" in err


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


def test_filtration_rejects_nonsuspension(capsys):
    code, _, err = run_cli(capsys, "filtration", "--f", "j_L(2)", "--n", "2")
    assert code == cli.EXIT_VALIDATION


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
    not an integer and a fact line without fields are refused at load,
    with exit 2."""
    for line in ("fact relation | foo.eta_3 | 0 | paper | q | loc",
                 "fact group | S2 @ x | Z/2{eta_2} | paper | q | loc",
                 "fact group"):
        p = tmp_path / "bad.facts"
        p.write_text(line + "\n")
        code, out, err = run_cli(capsys, "--kb", str(p), "validate-kb")
        assert code == cli.EXIT_VALIDATION and not out
        assert "line 1" in err


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
