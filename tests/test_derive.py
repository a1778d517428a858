"""The shipped derivations: tables, transcripts, replays, and failure
modes."""

from dataclasses import replace

import pytest

from conechase import cli
from conechase.derive import (
    CANONICAL_TOKENS,
    SWEEP_GRID,
    AssertionMismatch,
    DeriveError,
    Runner,
    _render_value,
    parse_script,
)
from conechase.groups import ExtensionUnresolved, TwoLocalGroup
from conechase.kb import KbMissingFact, load_catalog


def q(*orders):
    return TwoLocalGroup(list(orders))


PI5_L4 = {0: q(0), 1: q(0, 4), **{m: q(0, 2, 2) for m in range(2, 9)}}
PI6_L4 = {1: q(2, 4, 2), 2: q(2, 2, 8, 2),
          **{m: q(2, 4, 2**m, 2) for m in range(3, 9)}}
PI6_F = {1: q(2, 2, 2, 2), **{r: q(2, 2, 4, 2**r) for r in range(2, 9)}}
PI5_P3 = {1: q(2, 2, 2), **{r: q(2, 2, 2, 2**r) for r in range(2, 9)}}
PI6_P3 = {1: q(2, 2, 2, 2, 2), **{r: q(2, 2, 4, 4, 2**r) for r in range(2, 9)}}


def test_pi5_of_the_two_cell_cone(runner):
    for m, want in PI5_L4.items():
        assert runner.run("pi5_L4m", {"m": m}).group == want


def test_pi6_of_the_two_cell_cone(runner):
    for m, want in PI6_L4.items():
        assert runner.run("pi6_L4m", {"m": m}).group == want


def test_gamma3_coefficient(runner):
    for r in range(1, 9):
        res = runner.run("gamma3", {"r": r})
        ((term, c),) = res.value.terms
        assert abs(c) == 3 * 2**r
        assert term.render() == f"beta({r + 1})"


def test_pi6_of_the_third_stage(runner):
    for r, want in PI6_F.items():
        res = runner.run("pi6_J3", {"r": r})
        assert res.group == want
        # the wedge-comparison square is verified on the nose in-run
        assert "check map=wmap" in res.transcript
        assert "[ok]" in res.transcript


def test_pi5_of_the_moore_space(runner):
    for r, want in PI5_P3.items():
        assert runner.run("pi5_P3", {"r": r}).group == want


def test_pi6_of_the_moore_space(runner):
    for r, want in PI6_P3.items():
        assert runner.run("pi6_P3", {"r": r}).group == want


def test_transcripts_cite_certified_facts(runner):
    res = runner.run("pi6_P3", {"r": 3}, sweep=False)
    text = res.transcript
    assert "uses lift_certificate" in text
    assert "order-4 lift of nu'" in text or "order=4" in text
    assert '"' in text  # citations are quoted verbatim


def test_replays_are_bit_identical(catalog, scripts):
    a = Runner(catalog, scripts).run("pi6_J3", {"r": 2}, sweep=False)
    b = Runner(catalog, scripts).run("pi6_J3", {"r": 2}, sweep=False)
    assert a.transcript == b.transcript
    assert a.transcript_digest() == b.transcript_digest()


def test_every_final_group_traces_to_steps_or_facts(runner):
    """Transcript completeness: each line is a step, a consumed fact, a
    subderivation, or the result."""
    res = runner.run("pi5_P3", {"r": 2}, sweep=False)
    for line in res.transcript.splitlines()[1:]:
        s = line.strip()
        assert s.startswith(("step", "uses", "=", "(subderivation",
                             "result:")), line


def test_removing_the_lift_of_nu_fails_unresolved(catalog, scripts):
    filtered = catalog.without_facts(
        lambda f: "nut'" in f.payload or "nut'" in f.subject)
    runner = Runner(filtered, scripts)
    for r in (2, 3):
        with pytest.raises(ExtensionUnresolved, match="extension unresolved"):
            runner.run("pi6_P3", {"r": r}, sweep=False)
    # pi_5 rows do not depend on that certificate
    assert runner.run("pi5_P3", {"r": 2}, sweep=False).group == PI5_P3[2]


def test_removing_eta4_certificates_breaks_the_cone_rows(catalog, scripts):
    filtered = catalog.without_facts(
        lambda f: f.kind == "lift_certificate" and ": eta_4" in f.subject
        and "@ 5" in f.subject)
    runner = Runner(filtered, scripts)
    with pytest.raises(ExtensionUnresolved):
        runner.run("pi5_L4m", {"m": 2}, sweep=False)


def test_wrong_table_fact_hits_the_assertion(catalog, scripts, tmp_path):
    """Corrupting a classical input makes the chase disagree with the
    asserted table, not silently pass."""
    text = catalog.serialize().replace(
        "Z/2{j2_25.eta_5}", "Z/4{j2_25.eta_5}")
    assert "Z/4{j2_25.eta_5}" in text
    p = tmp_path / "corrupt.facts"
    p.write_text(text)
    from conechase.kb import load_catalog
    bad = Runner(load_catalog(p), scripts)
    with pytest.raises((AssertionMismatch, DeriveError)):
        bad.run("pi6_L4m", {"m": 3}, sweep=False)


def test_sweep_invariance_under_sign_and_eps(runner):
    # full grid over sign/eps/x/y; identical groups required by run()
    for r in (1, 2):
        runner.run("pi5_P3", {"r": r}, sweep=True)
        runner.run("pi6_P3", {"r": r}, sweep=True)


def test_script_without_return_errors(catalog):
    s = parse_script("derivation broken\nparams m\n"
                     "let F5 = fiber_group fib=F_pL(m); k=5\n")
    r = Runner(catalog, {"broken": s})
    with pytest.raises(DeriveError, match="no terminal group"):
        r.run("broken", {"m": 2}, sweep=False)
    # malformed step arguments are parse errors that name the line
    for line in ("check map", "check map=a; with",
                 "assert F5 = { m=0 : Z(2) ; m>=1 Z/2 }"):
        with pytest.raises(DeriveError, match="broken:3: step argument"):
            parse_script(f"derivation broken\nparams m\n{line}\n")


def test_unknown_script_errors(runner):
    with pytest.raises(DeriveError, match="unknown derivation script"):
        runner.run("pi7_P3", {"r": 1}, sweep=False)


def test_segment_assembly_and_exactness_audit(catalog, runner):
    """The window around pi_5 of the cone: filled slots compose to the
    computed group, and the order audit holds."""
    from conechase import les
    from conechase.les import pi_group_from_fact, push_forward
    from conechase.terms import wedge
    m = 3
    envm = {"m": m, "sign": 1, "eps": 0, "x": 0, "y": 1}
    ctx = catalog.rule_context(envm)
    fib = les.fibration(catalog, envm, "F_pL", (m,))
    runner_res = runner.run("pi5_L4m", {"m": m}, sweep=False)
    jf = catalog.parser(envm).parse(f"j_F({m})")
    fiber_groups = {
        k: push_forward(pi_group_from_fact(catalog, envm, wedge(2, 5), k, ctx),
                        jf, jf.target, ctx)
        for k in (4, 5)}
    seg = les.assemble_segment(catalog, envm, fib, 5, fiber_groups, ctx,
                               cone_mid=runner_res.group)
    assert seg.base_upper.group == TwoLocalGroup([2])
    assert seg.base_mid.group == TwoLocalGroup([2])
    assert seg.d_upper is not None and seg.d_upper.is_zero()
    assert seg.audit()


def test_segment_below_connectivity_is_trivial(catalog, env):
    from conechase import les
    ctx = catalog.rule_context(env)
    fib = les.fibration(catalog, env, "F_pL", (3,))
    seg = les.assemble_segment(catalog, env, fib, 2, {}, ctx)
    assert seg.base_mid.group.is_trivial()


def test_step_errors_carry_the_step_index(catalog, scripts):
    filtered = catalog.without_facts(
        lambda f: "nut'" in f.payload or "nut'" in f.subject)
    runner = Runner(filtered, scripts)
    with pytest.raises(ExtensionUnresolved, match=r"step \d+ \(extension\)"):
        runner.run("pi6_P3", {"r": 2}, sweep=False)


def test_trivial_group_edges(catalog, env):
    from conechase.les import PiGroup, express
    from conechase.terms import Element, sphere
    ctx = catalog.rule_context(env)
    triv = PiGroup(TwoLocalGroup([]), sphere(3), 9, [])
    z = Element.zero(sphere(9), sphere(3))
    assert express(z, triv, ctx) == ()


def test_exactness_audit_for_the_moore_space_window(catalog, runner):
    """|pi_6(P^3(2^r))| = |coker d7| * |ker d6| with all slots computed."""
    from conechase.les import assemble_segment
    from conechase import les
    for r in (1, 2, 3):
        envr = {"r": r, "sign": 1, "eps": 0, "x": 0, "y": 1}
        ctx = catalog.rule_context(envr)
        fib = les.fibration(catalog, envr, "F_p", (r,))
        piC6 = runner.run("pi6_J3", {"r": r}, sweep=False).value
        # rebuild the stage-3 pi_5 chart exactly as the script does
        piL5 = runner.run("pi5_L4m", {"m": r + 1}, sweep=False).value
        g3 = runner.run("gamma3", {"r": r}, sweep=False).value
        from conechase.les import express, derived_pi_group, push_forward
        from conechase.groups import quotient_by_elements
        vec = express(g3, piL5, ctx)
        gq, proj = quotient_by_elements(piL5.group, [list(vec)])
        piJ5 = derived_pi_group(piL5, gq, proj)
        piJ5 = push_forward(piJ5, catalog.parser(envr).parse(f"I_3({r})"),
                            catalog.parser(envr).parse(f"I_3({r})").target,
                            ctx)
        cone6 = runner.run("pi6_P3", {"r": r}, sweep=False).group
        seg = assemble_segment(catalog, envr, fib, 6,
                               {5: piJ5, 6: piC6}, ctx, cone_mid=cone6)
        assert seg.d_upper is not None and seg.d_upper.is_zero()
        assert seg.d_lower is not None
        assert seg.audit(), f"pi_6 window audit failed at r={r}"


def test_golden_transcript(runner):
    """The full r=2 transcript is pinned; format or content drift must be
    reviewed as a diff."""
    import pathlib
    res = runner.run("pi6_P3", {"r": 2}, sweep=False)
    golden = (pathlib.Path(__file__).parent / "golden" /
              "pi6_P3_r2.transcript").read_text()
    assert res.transcript == golden


# ---------------------------------------------------------------------------
# sweep pruning: a cached run serves every assignment agreeing on the
# tokens it consumed
# ---------------------------------------------------------------------------

class CountingRunner(Runner):
    """A runner that keeps every run it executes."""

    def __init__(self, catalog, scripts):
        super().__init__(catalog, scripts)
        self.executed = []

    def _execute(self, name, env):
        result = super()._execute(name, env)
        self.executed.append(result)
        return result


@pytest.fixture(scope="module")
def pruned_pass(catalog, scripts):
    """A fresh runner after one reproduce pass."""
    runner = CountingRunner(catalog, scripts)
    for name, params in cli.REPRODUCE_ROWS:
        runner.run(name, params)
    return runner


def test_pruned_sweep_equals_the_full_sweep(pruned_pass, catalog, scripts):
    """Every row under every sweep assignment: the cached run the pruned
    sweep serves has the transcript and value of a fresh execution."""
    done = len(pruned_pass.executed)
    fresh = Runner(catalog, scripts)
    for name, params in cli.REPRODUCE_ROWS:
        for assign in SWEEP_GRID:
            env = dict(CANONICAL_TOKENS, **params, **assign)
            got = pruned_pass._run_cached(name, env)
            want = fresh._execute(name, env)
            assert got.transcript == want.transcript, (name, env)
            assert _render_value(got.value) == _render_value(want.value)
            assert all(got.env[t] == env[t] for t in got.tokens)
    assert len(pruned_pass.executed) == done  # the pass had them all


def test_runs_record_the_tokens_they_consume(pruned_pass):
    touched = {}
    for res in pruned_pass.executed:
        touched.setdefault(res.script, set()).update(res.tokens)
    assert touched == {
        "pi5_L4m": set(),
        "gamma3": {"sign", "eps"},
        "pi5_P3": {"sign", "eps"},
        "pi6_L4m": {"sign", "x", "y"},
        "pi6_J3": {"sign", "eps", "x", "y"},
        "pi6_P3": {"sign", "eps", "x", "y"},
    }
    for res in pruned_pass.executed:
        # a run depends on the tokens of each fact it cites
        for fact in res.consumed:
            assert fact.tokens <= res.tokens


def test_executions_per_swept_pass(pruned_pass, monkeypatch, capsys):
    assert len(pruned_pass.executed) == 402  # 1040 without pruning
    for name, params in pruned_pass._cache:
        if name in ("pi5_L4m", "pi6_L4m"):
            assert [k for k, _ in params] == ["m"], (name, params)
    executed = []
    execute = Runner._execute

    def counted(self, name, env):
        executed.append(name)
        return execute(self, name, env)

    monkeypatch.setattr(Runner, "_execute", counted)
    assert cli.main(["compute", "--space", "L4", "--k", "5", "--m", "3"]) == 0
    assert capsys.readouterr().out == "Z/2 + Z/2 + Z(2)\n"
    assert executed == ["pi5_L4m"]


def test_one_rule_context_per_token_assignment(pruned_pass):
    """Rules read only the swept tokens, so a pass shares one context per
    sweep assignment across every row, parameter and subderivation."""
    assert len(pruned_pass._ctx_cache) == len(SWEEP_GRID) == 16


def test_pruned_sweep_still_sees_a_token_dependence(catalog, scripts,
                                                     tmp_path):
    """Negative control: give a fact pi5_L4m consumes an eps-dependent
    group and drop the script's assert; the sweep must run both eps
    values and refuse the result."""
    old = "| S2vS5 @ 5 | Z/2{"
    text = catalog.serialize()
    assert old in text
    path = tmp_path / "eps.facts"
    path.write_text(text.replace(old, "| S2vS5 @ 5 | Z/2^(1+eps){"))
    script = scripts["pi5_L4m"]
    unchecked = dict(scripts, pi5_L4m=replace(
        script, steps=[st for st in script.steps if st.kind != "assert"]))
    runner = CountingRunner(load_catalog(path), unchecked)
    with pytest.raises(DeriveError, match="depends on the ambiguous tokens"):
        runner.run("pi5_L4m", {"m": 3})
    assert {res.tokens for res in runner.executed} == {frozenset({"eps"})}


def test_scripts_may_not_name_swept_tokens():
    head = "derivation bad\nparams m\n"
    for line in ("let F4 = fiber_group fib=F_pL(m); k=4+sign",
                 "let s = run script=pi5_L4m; m=m; x=1",
                 "require m>=0, eps=0",
                 "assert ans = { y>=1 : Z(2) }",
                 "assert ans = Z/2^x"):
        with pytest.raises(DeriveError, match="bad:3: names the swept token"):
            parse_script(head + line + "\nreturn ans\n")
