"""The shipped derivations: tables, transcripts, replays, and failure
modes."""

import re
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conechase import cli, derive, kb, rewrite, terms
from conechase.derive import (
    CANONICAL_TOKENS,
    SWEEP_GRID,
    AssertionMismatch,
    DeriveError,
    Runner,
    _render_value,
    _value_key,
    default_catalog,
    link_scripts,
    parse_group_literal,
    parse_script,
    reproduce_rows,
    scenarios,
)
from conechase.groups import (
    ExtensionUnresolved,
    GroupError,
    GroupHom,
    IntMat,
    TwoLocalGroup,
)
from conechase.kb import KbError, KbMissingFact, load_catalog
from conechase.les import Boundary, LesError, PiGroup
from conechase.rewrite import StrictExpansionError
from conechase.terms import Element, TermError, sphere

import checks


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


def test_extension_lifts_have_their_certified_orders(catalog, scripts,
                                                     monkeypatch):
    """Over a reproduce pass, every extension step's lift prototypes have
    in the group it returns the order their certificate claims, with a
    relation or without: the one solver's chart places the lifts."""
    problems = []

    def recording(p, solve=derive.solve_extension):
        problems.append(p)
        return solve(p)

    monkeypatch.setattr(derive, "solve_extension", recording)
    checked = []

    class Recording(Runner):
        def _extension(self, *args):
            before = len(problems)
            pig = super()._extension(*args)
            if len(problems) > before:
                checked.append((problems[-1], pig))
            return pig

    runner = Recording(catalog, scripts)
    for name, params in reproduce_rows(scripts):
        runner.run(name, params)
    for p, pig in checked:
        lifts = pig.protos[len(pig.protos) - p.quot.rank:]
        for c in p.certificates:
            assert pig.group.element_order(lifts[c.quot_index][1]) == \
                c.lift_order, (p, pig.group)
    assert {any(any(c.relation or ()) for c in p.certificates)
            for p, _ in checked} == {True, False}


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


def test_the_canonical_assignment_is_the_grids_first():
    """``Runner.run`` keeps the result of the grid's first assignment and
    records its transcript, so that assignment must be the canonical one."""
    assert SWEEP_GRID[0] == CANONICAL_TOKENS


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
    from checks import assemble_segment
    from conechase import les
    from conechase.les import pi_group_from_fact, push_forward
    from conechase.terms import wedge
    m = 3
    envm = {"m": m, "sign": 1, "eps": 0, "x": 0, "y": 1}
    ctx = catalog.rule_context(envm)
    fib = les.fibration(catalog, "F_pL", (m,))
    runner_res = runner.run("pi5_L4m", {"m": m}, sweep=False)
    jf = catalog.parser(envm).parse(f"j_F({m})")
    fiber_groups = {
        k: push_forward(pi_group_from_fact(catalog, wedge(2, 5), k, ctx),
                        jf, jf.target, ctx)
        for k in (4, 5)}
    seg = assemble_segment(catalog, fib, 5, fiber_groups, ctx,
                           cone_mid=runner_res.group)
    assert seg.base_upper.group == TwoLocalGroup([2])
    assert seg.base_mid.group == TwoLocalGroup([2])
    assert seg.d_upper is not None and seg.d_upper.is_zero()
    assert seg.audit()


def test_segment_below_connectivity_is_trivial(catalog, env):
    from checks import assemble_segment
    from conechase import les
    ctx = catalog.rule_context(env)
    fib = les.fibration(catalog, "F_pL", (3,))
    seg = assemble_segment(catalog, fib, 2, {}, ctx)
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
    from checks import assemble_segment
    from conechase import les
    for r in (1, 2, 3):
        envr = {"r": r, "sign": 1, "eps": 0, "x": 0, "y": 1}
        ctx = catalog.rule_context(envr)
        fib = les.fibration(catalog, "F_p", (r,))
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
        seg = assemble_segment(catalog, fib, 6,
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
# tokens it read itself under which its subderivations return equal values
# ---------------------------------------------------------------------------

class CountingRunner(Runner):
    """A runner that keeps every run it executes and counts the ``let``
    steps it evaluates."""

    def __init__(self, catalog, scripts):
        super().__init__(catalog, scripts)
        self.executed = []
        self.evaluated = 0

    def _execute(self, name, params, ctx):
        result = super()._execute(name, params, ctx)
        self.executed.append(result)
        return result

    def _eval_step(self, step, *args):
        self.evaluated += step.kind == "let"    # a ``check`` is evaluated too
        return super()._eval_step(step, *args)


@pytest.fixture(scope="module")
def pruned_pass(scripts):
    """A fresh runner on a fresh catalog after one reproduce pass."""
    runner = CountingRunner(default_catalog(), scripts)
    for name, params in reproduce_rows(scripts):
        runner.run(name, params)
    return runner


def test_pruned_sweep_equals_the_full_sweep(pruned_pass, scripts):
    """Every row under every sweep assignment: the cached run the pruned
    sweep serves has the transcript and value of a fresh execution.  The
    reference for each assignment runs on its own fresh catalog, so it
    shares no memo of normal forms with the pass or another assignment."""
    done = len(pruned_pass.executed)
    for assign in SWEEP_GRID:
        fresh = Runner(default_catalog(), scripts)
        assert not fresh.catalog._normal_forms
        assert not fresh.catalog._parse_cache
        for name, params in reproduce_rows(scripts):
            got = pruned_pass._run_cached(name, params, assign)
            want = fresh._execute(name, params, fresh._ctx(assign))
            assert got.transcript == want.transcript, (name, params, assign)
            assert _render_value(got.value) == _render_value(want.value)
            assert all(got.ctx.values[t] == assign[t] for t in got.reads)
    assert len(pruned_pass.executed) == done  # the pass had them all


def test_runs_record_the_tokens_they_consume(pruned_pass):
    """A run records the tokens it read itself; those its subderivations
    read are theirs.  Only pi6_L4m and gamma3 read a token themselves,
    and through their subderivations the other scripts depend on them."""
    def depends(res):
        return res.reads.union(*(depends(pruned_pass._run_cached(
            script, params, res.ctx.values))
            for script, params, _ in res.subs))

    read, touched = {}, {}
    for res in pruned_pass.executed:
        read.setdefault(res.script, set()).update(res.reads)
        touched.setdefault(res.script, set()).update(depends(res))
    assert read == {
        "pi5_L4m": set(), "gamma3": {"sign", "eps"}, "pi5_P3": set(),
        "pi6_L4m": {"sign", "x", "y"}, "pi6_J3": set(), "pi6_P3": set()}
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
            assert fact.tokens <= res.reads


def test_executions_per_swept_pass(pruned_pass, monkeypatch, capsys):
    # 1040 without pruning, 402 while a run was keyed on every token its
    # subderivations read
    assert len(pruned_pass.executed) == 138
    for name, params in pruned_pass._cache:
        if name in ("pi5_L4m", "pi6_L4m"):
            assert [k for k, _ in params] == ["m"], (name, params)
    executed = []
    execute = Runner._execute

    def counted(self, name, params, ctx):
        executed.append(name)
        return execute(self, name, params, ctx)

    monkeypatch.setattr(Runner, "_execute", counted)
    assert cli.main(["compute", "--space", "L4", "--k", "5", "--m", "3"]) == 0
    assert capsys.readouterr().out == "Z/2 + Z/2 + Z(2)\n"
    assert executed == ["pi5_L4m"]


def test_each_default_catalog_has_its_own_memos():
    """The shipped catalog is loaded once per process: two calls share
    what loading built and the rewrite plans its patterns decide, and
    each has its own memos, empty."""
    one, two = default_catalog(), default_catalog()
    for shared in ("registry", "facts", "_patterns", "_plans", "digest",
                   "version"):
        assert getattr(one, shared) is getattr(two, shared), shared
    for memo in ("_normal_forms", "_parse_cache"):
        assert getattr(one, memo) == getattr(two, memo) == {}
        assert getattr(one, memo) is not getattr(two, memo), memo


def test_a_failing_execution_is_not_repeated(catalog, scripts, tmp_path):
    """Within one ``Runner.run`` an execution that raised raises again,
    without executing, when ``_serves`` and then the caller's ``run``
    step ask for it: on the eps-dependent catalog a swept pi6_P3 at
    r = 2 executes each (script, environment) pair once, 11 in all (15
    while pi5_L4m under eps = 1 ran four times and pi6_J3 twice)."""
    path = tmp_path / "eps.facts"
    path.write_text(catalog.serialize().replace(
        "| S2vS5 @ 5 | Z/2{", "| S2vS5 @ 5 | Z/2^(1+eps){"))
    executed = []

    class Counting(Runner):
        def _execute(self, name, params, ctx):
            executed.append((name, tuple(sorted(
                dict(params, **ctx.values).items()))))
            return super()._execute(name, params, ctx)

    runner = Counting(load_catalog(path), scripts)
    with pytest.raises(AssertionMismatch, match=(
            r"^pi6_P3 step 1 \(run\): pi6_J3 step 1 \(run\): "
            r"pi5_L4m\(m=3\): computed Z/2 \+ Z/4 \+ Z\(2\) but")):
        runner.run("pi6_P3", {"r": 2})
    assert len(executed) == len(set(executed)) == 11
    assert not runner._errors     # cleared when run returns or raises


def test_normal_forms_per_swept_pass(pruned_pass):
    """The contexts of a pass share one memo of normal forms, and each
    entry is one execution of the rewriting: 729 of them.  678 (word,
    coefficient) keys are asked; the rest are second answers for words
    whose rules read a token."""
    memo = pruned_pass.catalog._normal_forms
    assert sum(len(entries) for entries in memo.values()) == 729
    assert len(memo) == 678


def test_rewrite_plans_per_swept_pass(scripts):
    """A pass meets 74 sequences of symbol names, so a catalog's table of
    rewrite plans holds 74 after one pass; a second pass, on a view with
    empty memos that shares the table, rewrites again and adds none.
    The copy has a table of its own, whatever other tests warmed."""
    catalog = default_catalog().without_facts(lambda f: False)
    for cat in (catalog, catalog.view()):
        runner = Runner(cat, scripts)
        for name, params in reproduce_rows(scripts):
            runner.run(name, params)
        assert cat._normal_forms
        assert len(catalog._plans) == 74


def test_steps_per_swept_pass(pruned_pass):
    """The 138 runs of a pass walk 1,184 ``let`` steps; the step memo
    serves 580 of them and 604 are evaluated, 96 of which are ``run``
    steps, which the memo never serves since they ask the run cache.
    (The 402 runs executed while a run was keyed on every token its
    subderivations read walked 4,016 steps and evaluated 828; 2,060 while
    the memo keyed a step on the tokens its input bindings read, not on
    their values.)  The memo lives for one ``Runner.run``: a swept
    (script, parameters) pair is in the run cache under every assignment
    by then."""
    walked = sum(step.kind == "let" for res in pruned_pass.executed
                 for step in pruned_pass.scripts[res.script].steps)
    assert walked == 1184
    assert pruned_pass.evaluated == 604
    assert sum(step.verb == "run" for res in pruned_pass.executed
               for step in pruned_pass.scripts[res.script].steps) == 96
    assert not pruned_pass._steps


def test_early_cutoff_in_a_swept_compute(scripts, monkeypatch, capsys):
    """A swept ``compute --space P3 --k 6 --r 3``: pi6_P3 and pi6_J3 read
    no token themselves, and under each of the 16 assignments the
    subderivations they ran return equal values, so each is executed
    once; their cached runs serve the other 15 assignments.  pi6_L4m and
    gamma3 read tokens, and are executed once per assignment of those
    (8 and 4).  Keying a run on every token its subderivations read
    executed pi6_P3 and pi6_J3 under all 16 assignments, and before the
    step memo compared input values, the cokernel of pi6_J3 (line 22) and
    the cokernel and extension of pi6_P3 (lines 16 and 19) were evaluated
    16 times each."""
    where = {id(step): (name, step.line, step.verb)
             for name, script in scripts.items() for step in script.steps}
    evaluated, executed = [], []
    eval_step, execute = Runner._eval_step, Runner._execute

    def counted(self, step, *args):
        evaluated.append(where[id(step)])
        return eval_step(self, step, *args)

    def counted_run(self, name, params, ctx):
        executed.append(name)
        return execute(self, name, params, ctx)

    monkeypatch.setattr(Runner, "_eval_step", counted)
    monkeypatch.setattr(Runner, "_execute", counted_run)
    assert cli.main(["compute", "--space", "P3", "--k", "6", "--r", "3"]) == 0
    assert capsys.readouterr().out == "Z/2 + Z/2 + Z/4 + Z/4 + Z/8\n"
    assert {name: executed.count(name) for name in executed} == {
        "pi6_P3": 1, "pi6_J3": 1, "pi5_L4m": 1, "pi6_L4m": 8, "gamma3": 4}
    for step in (("pi6_P3", 11, "run"), ("pi6_J3", 22, "cokernel"),
                 ("pi6_P3", 16, "cokernel"), ("pi6_P3", 19, "extension")):
        assert evaluated.count(step) == 1, step


def test_the_value_key_sees_what_equality_ignores(runner, catalog, env):
    """The step memo compares a step's inputs by ``_value_key``.  Each
    pair below is equal under ``==`` (the boundaries compare their homs
    by identity) but differs in something a step can read: the group
    labels, the space inside a bracket slot's word and one entry of a
    boundary's hom.  A value built again keeps its key, and a binding of
    another type has none."""
    pig = runner.run("pi5_L4m", {"m": 3}, sweep=False).value
    eta = catalog.parse_element("eta_3", env)
    s2 = terms.sphere(2)
    z2 = PiGroup(TwoLocalGroup([2], ["eta_3"]), eta.target, 4, [(eta, (1,))])

    def bracket(n):
        """[a . b, iota_2] with b : S^3 -> S^n."""
        via = terms.sphere(n)
        word = terms.Word((terms.Sym("a", (), via, s2),
                           terms.Sym("b", (), terms.sphere(3), via)))
        return Element.from_term(terms.Bracket(
            [Element.from_term(word), Element.identity(s2)]))

    def pair(second):
        return Element.from_term(terms.Word((terms.Pair(eta, second),)))

    def boundary(entry):
        return Boundary(z2, z2, [eta],
                        GroupHom(z2.group, z2.group, IntMat([[entry]])))

    relabelled = pig.group.with_labels([f"g{i}"
                                        for i in range(pig.group.rank)])
    pairs = [(pig, replace(pig, group=relabelled)),
             (bracket(4), bracket(5)), (boundary(1), boundary(0))]
    for a, b in pairs:
        assert a == b or isinstance(a, Boundary)
        assert _value_key(a) != _value_key(b), a
    for build in (lambda: replace(pig, protos=list(pig.protos)),
                  lambda: bracket(4), lambda: pair(eta),
                  lambda: boundary(1)):
        assert build() is not build()
        assert _value_key(build()) == _value_key(build())
    with pytest.raises(DeriveError, match="no value key for a str"):
        _value_key("eta_3")


def test_one_rule_context_per_token_assignment(pruned_pass, catalog,
                                               scripts):
    """Rules read only the swept tokens, so a pass shares one context per
    sweep assignment across every row, parameter and subderivation.  A
    context is built when a run executes under its assignment: a pass
    executes no run under the six assignments with eps=1 and x or y other
    than canonical, since no script reading eps reads x or y.  A runner
    that executes every row under every assignment builds all 16."""
    assert len(SWEEP_GRID) == 16
    assert sorted(pruned_pass._ctx_cache) == sorted(
        (a["sign"], a["eps"], a["x"], a["y"]) for a in SWEEP_GRID
        if a["eps"] == 0 or (a["x"], a["y"]) == (0, 1))
    full = Runner(catalog, scripts)
    for assign in SWEEP_GRID:
        full._execute("pi5_L4m", {"m": 0}, full._ctx(assign))
    assert len(full._ctx_cache) == 16


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
    assert {res.reads for res in runner.executed} == {frozenset({"eps"})}


WRAP = parse_script("derivation wrap\nparams m\n"
                    "let g = run script=pi5_L4m; m=m\nreturn g\n")


def test_a_cached_run_sees_a_flipped_generator(catalog, scripts, tmp_path):
    """Negative control for serving a cached run: a group fact whose free
    generator is ``sign*j2_25``.  pi5_L4m reads no token itself, but
    under sign=-1 it returns the same orders with beta(3) negated, so
    ``wrap``, which returns that group, is executed again; comparing the
    values by what the sweep compares would serve it stale."""
    old = "Z(2){j2_25}"
    text = catalog.serialize()
    assert text.count(old) == 1
    path = tmp_path / "sign.facts"
    path.write_text(text.replace(old, "Z(2){sign*j2_25}"))
    linked = dict(scripts, wrap=WRAP)
    runner = CountingRunner(load_catalog(path), linked)
    runner.run("wrap", {"m": 3})
    for assign in SWEEP_GRID:
        fresh = Runner(load_catalog(path), linked)
        want = fresh._execute("wrap", {"m": 3}, fresh._ctx(assign))
        assert runner._run_cached("wrap", {"m": 3}, assign).transcript == \
            want.transcript
    assert "-> Z/2{j_L(3) . eta_2 . eta_3 . eta_4} + Z/2{eta~_4(3)} + " \
           "Z(2){-beta(3)})" in want.transcript
    assert [res.script for res in runner.executed].count("wrap") == 2


def test_a_cached_run_sees_what_equality_ignores(catalog, scripts):
    """Negative control: a subderivation whose value, under y=-3, differs
    from the one a cached run used only in its group's labels, which
    ``==`` ignores and ``_value_key`` sees.  The cached run is not served
    there: ``wrap`` is executed again, and its transcript names the new
    labels."""
    class Relabelling(Runner):
        def _run_cached(self, name, params, assign):
            res = super()._run_cached(name, params, assign)
            if name != "pi5_L4m" or assign["y"] == 1:
                return res
            group = res.value.group
            return replace(res, value=replace(res.value, group=group
                           .with_labels([f"g{i}" for i in range(group.rank)])))

    runner = Relabelling(catalog, dict(scripts, wrap=WRAP))
    assert runner.run("wrap", {"m": 3}).group == PI5_L4[3]
    got = runner._run_cached("wrap", {"m": 3}, dict(CANONICAL_TOKENS, y=-3))
    assert got.ctx.values["y"] == -3
    assert "-> Z/2{g0} + Z/2{g1} + Z(2){g2})" in got.transcript


@pytest.mark.parametrize("carried", [True, False])
def test_step_memo_keys_on_the_bindings_it_names(catalog, scripts, tmp_path,
                                                 carried):
    """Negative control at step level: the eps-dependent group of the
    control above, read by the second step of pi5_L4m (its first two steps
    swapped, its assert dropped).  No other step reads a token; the eps
    dependence reaches the result only through the bindings d6, C and CL
    name.  The memo keys a step on the values of the bindings it names,
    not on the tokens they read, so under another eps those values differ,
    the steps are evaluated again and the sweep refuses.  With the names
    dropped (``carried`` false) the memo serves d6 and the rest stale and
    the wrong result passes."""
    old = "| S2vS5 @ 5 | Z/2{"
    path = tmp_path / "eps.facts"
    path.write_text(catalog.serialize().replace(old, "| S2vS5 @ 5 | Z/2^(1+eps){"))
    f5 = "let F5 = fiber_group fib=F_pL(m); k=5\n"
    f4 = "let F4 = fiber_group fib=F_pL(m); k=4\n"
    text = SHIPPED_TEXT["pi5_L4m"]
    assert f5 + f4 in text
    script = parse_script(text.replace(f5 + f4, f4 + f5), name_hint="pi5_L4m")
    steps = [st if carried else replace(st, names=frozenset())
             for st in script.steps if st.kind != "assert"]
    runner = CountingRunner(load_catalog(path),
                            dict(scripts, pi5_L4m=replace(script, steps=steps)))
    if carried:
        with pytest.raises(DeriveError,
                           match="depends on the ambiguous tokens"):
            runner.run("pi5_L4m", {"m": 3})
    else:
        assert runner.run("pi5_L4m", {"m": 3}).group == PI5_L4[3]
    assert {res.reads for res in runner.executed} == {frozenset({"eps"})}
    assert not runner._steps      # cleared when run returns or raises


def test_normal_forms_read_the_tokens_of_what_they_cite(pruned_pass):
    """Citations are the one record of what a normalisation used: after a
    pass, every memo entry's read tokens are the tokens of the facts it
    cites."""
    entries = [entry for entries in pruned_pass.catalog._normal_forms.values()
               for entry in entries]
    assert any(facts for _, facts, _ in entries)
    for _, facts, reads in entries:
        assert {t for t, _ in reads} == set().union(*(f.tokens
                                                      for f in facts))


def test_every_row_replays_on_the_facts_it_cites(catalog, scripts):
    """Citations are the whole record of what a run used: each reproduce
    row, swept, executes the same runs with byte-identical transcripts
    on the catalog of only the facts its runs cited under every
    assignment, subderivations included."""
    rows = reproduce_rows(scripts)
    assert len(rows) == 49
    assert checks.cited_only_mismatches(catalog, scripts, rows) == []


def test_an_uncited_read_fails_the_cited_only_replay(catalog, scripts,
                                                     monkeypatch):
    """Negative control: an S^3 tunnel that reads [iota_3, iota_3]
    without citing it makes the rows that rely on it fail the replay."""
    def uncited(ctx):
        hit = ctx.product_value([Element.identity(sphere(3))] * 2)
        return hit is not None and hit[0].is_zero()

    monkeypatch.setattr(rewrite.RuleContext, "s3_hspace", uncited)
    rows = [row for row in reproduce_rows(scripts) if row[0] == "pi6_L4m"]
    failed = checks.cited_only_mismatches(catalog, scripts, rows)
    assert [row[:2] for row in failed] == rows


def test_no_citation_hook_outlives_a_run(catalog, scripts, tmp_path,
                                         pruned_pass):
    """A step's citations are collected on the shared rule context and
    the hook is restored when the step ends, also when a run raises: the
    sweep's refusal of the eps control, and a missing certificate inside
    a step."""
    assert all(ctx.on_rule is None
               for ctx in pruned_pass._ctx_cache.values())
    path = tmp_path / "eps.facts"
    path.write_text(catalog.serialize().replace(
        "| S2vS5 @ 5 | Z/2{", "| S2vS5 @ 5 | Z/2^(1+eps){"))
    script = scripts["pi5_L4m"]
    unchecked = dict(scripts, pi5_L4m=replace(
        script, steps=[st for st in script.steps if st.kind != "assert"]))
    runner = Runner(load_catalog(path), unchecked)
    with pytest.raises(DeriveError, match="depends on the ambiguous tokens"):
        runner.run("pi5_L4m", {"m": 3})
    runner = Runner(catalog.without_facts(lambda f: "nut'" in f.payload),
                    scripts)
    with pytest.raises(ExtensionUnresolved):
        runner.run("pi6_P3", {"r": 2})
    assert runner._ctx_cache
    assert all(ctx.on_rule is None for ctx in runner._ctx_cache.values())


def test_scripts_may_not_name_swept_tokens():
    head = "derivation bad\nparams m\n"
    for line in ("let F4 = fiber_group fib=F_pL(m); k=4+sign",
                 "let s = run script=pi5_L4m; m=m; x=1",
                 "require m>=0, eps=0",
                 "assert ans = { y>=1 : Z(2) }",
                 "assert ans = Z/2^x"):
        with pytest.raises(DeriveError, match="bad:3: names the swept token"):
            parse_script(head + line + "\nreturn ans\n")


# ---------------------------------------------------------------------------
# script headers: what a script computes and its reproduce rows
# ---------------------------------------------------------------------------

EXTRA = """derivation pi5_cone
params m
require m>=1
computes C(m) @ 5
rows m=1..2
let g = run script=pi5_L4m; m=m
return g
"""


def test_shipped_scripts_declare_the_scenarios_and_the_rows(scripts):
    assert {key: s.name for key, s in scenarios(scripts).items()} == {
        ("L4", 5): "pi5_L4m", ("L4", 6): "pi6_L4m", ("J3", 6): "pi6_J3",
        ("P3", 5): "pi5_P3", ("P3", 6): "pi6_P3"}
    rows = reproduce_rows(scripts)
    assert len(rows) == 49
    assert list(dict.fromkeys(name for name, _ in rows)) == [
        "pi5_L4m", "pi6_L4m", "gamma3", "pi6_J3", "pi5_P3", "pi6_P3"]
    assert rows[:2] == [("pi5_L4m", {"m": 0}), ("pi5_L4m", {"m": 1})]
    assert rows[-1] == ("pi6_P3", {"r": 8})


def test_an_extra_script_joins_the_scenarios_and_the_rows(scripts,
                                                          monkeypatch,
                                                          capsys):
    """A new scenario is one more script: no table in the code names it."""
    extra = parse_script(EXTRA)
    linked = link_scripts([*scripts.values(), extra])
    assert scenarios(linked)[("C", 5)] is extra
    rows = reproduce_rows(linked)
    # it runs pi5_L4m, so it follows it; at its depth gamma3 declares
    # no target and sorts first
    assert len(rows) == 51
    assert rows[25:27] == [("pi5_cone", {"m": 1}), ("pi5_cone", {"m": 2})]
    monkeypatch.setattr(cli, "load_scripts", lambda: linked)
    assert cli.main(["compute", "--space", "C", "--k", "5", "--m", "2",
                     "--no-sweep"]) == 0
    assert capsys.readouterr().out == "Z/2 + Z/2 + Z(2)\n"
    assert cli.main(["reproduce", "--format", "machine"]) == 0
    assert capsys.readouterr().out.count('"script": "pi5_cone"') == 2


@pytest.mark.parametrize("line,match", [
    ("computes L4(m)", "bad:4: malformed computes line"),
    ("computes L4(m) @ k", "bad:4: malformed computes line"),
    ("computes L4(m) @ m+5", "bad:4: malformed computes line"),
    ("computes L4((m) @ 5", "bad:4: malformed computes line"),
    ("computes @ 5", "bad:4: malformed computes line"),
    ("rows r=1..8", "bad:4: rows parameter 'r' is not in params"),
    ("rows m=0..8", r"bad:4: rows m=0..8 leaves the domain 'm>=1'"),
    ("rows m=3..2", "bad:4: rows needs the form"),
    ("rows m=1", "bad:4: rows needs the form"),
    ("rows", "bad:4: unrecognized line"),
    # a decimal literal longer than any bounded integer, read nowhere
    pytest.param("rows m=1.." + "7" * 5000, "bad:4: integer literal of 5000 "
                 "digits is over 309", id="rows literal over the bound"),
    pytest.param("computes L4(m) @ " + "7" * 5000, "bad:4: malformed computes "
                 "line: integer literal", id="degree literal over the bound"),
])
def test_malformed_headers_are_errors_with_their_line(line, match):
    with pytest.raises(DeriveError, match=match):
        parse_script(f"derivation bad\nparams m\nrequire m>=1\n{line}\n"
                     "return ans\n")


def test_a_require_literal_over_the_bound_names_its_line():
    with pytest.raises(DeriveError, match="^bad:3: integer literal of 5000 "
                       "digits is over 309$"):
        parse_script("derivation bad\nparams m\nrequire m>=" + "7" * 5000
                     + "\nreturn ans\n")


def test_a_parameter_must_be_a_name():
    """A parameter that a guard or an expression could not read, and that
    would be no flag, is refused with its line."""
    for name in ("no-sweep", "a b", "2x", "_m"):
        with pytest.raises(DeriveError, match=f"^bad:2: parameter '{name}' "
                           "is not a name$"):
            parse_script(f"derivation bad\nparams m, {name}\nreturn m\n")


def test_scripts_are_checked_against_each_other(scripts):
    unknown = parse_script(EXTRA.replace("script=pi5_L4m", "script=pi5_L5m"))
    with pytest.raises(DeriveError,
                       match="pi5_cone:6: run names no loaded script "
                             "'pi5_L5m'"):
        link_scripts([*scripts.values(), unknown])
    twice = parse_script(EXTRA.replace("C(m) @ 5", "L4(m+1) @ 5"))
    with pytest.raises(DeriveError,
                       match="pi5_cone:4: computes the target of pi5_L4m"):
        link_scripts([*scripts.values(), twice])
    loop = parse_script(EXTRA.replace("script=pi5_L4m", "script=pi5_cone"))
    with pytest.raises(DeriveError, match="pi5_cone runs itself"):
        link_scripts([loop])


def test_a_parameter_the_cli_has_no_flag_for(scripts, monkeypatch, capsys):
    """A parameter named like a fixed option of the CLI gets no flag: its
    scenario is refused with exit 2, naming its ``params`` line, and the
    other commands are not touched."""
    for name in cli.FIXED:
        extra = parse_script(
            f"derivation pi5_cone\nparams {name}\ncomputes C({name}) @ 5\n"
            f"let g = run script=pi5_L4m; m={name}\nreturn g\n")
        linked = link_scripts([*scripts.values(), extra])
        monkeypatch.setattr(cli, "load_scripts", lambda: linked)
        assert cli.main(["compute", "--space", "C", "--k", "5", "--m",
                         "2"]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == (
            f"error: pi5_cone:2: parameter {name!r} is named like a fixed "
            "option\n")
        assert cli.main(["validate-kb"]) == cli.EXIT_OK
        capsys.readouterr()
    assert cli.main(["compute", "--space", "P3", "--k", "5", "--r", "1",
                     "--no-sweep"]) == cli.EXIT_OK
    assert capsys.readouterr().out == "Z/2 + Z/2 + Z/2\n"


def test_a_bad_script_is_a_validation_error_of_the_cli(scripts, monkeypatch,
                                                       capsys):
    twice = parse_script(EXTRA.replace("C(m) @ 5", "P3(2^m) @ 6"))
    monkeypatch.setattr(cli, "load_scripts",
                        lambda: link_scripts([*scripts.values(), twice]))
    assert cli.main(["validate-kb"]) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: pi5_cone:4: computes the target of pi6_P3\n")


# ---------------------------------------------------------------------------
# compiled texts
# ---------------------------------------------------------------------------

def test_each_text_is_compiled_once(monkeypatch, fresh_loads):
    """One reproduce pass, on a freshly loaded catalog and freshly parsed
    scripts, with every process-level syntax cache emptied: each integer
    expression, term text and space key is tokenised once, however often
    the pass evaluates it.  The term texts include the slots iota_2 and
    iota_3 of the product subjects that loading checks."""
    caches = (terms.compile_int_expr, terms._term_tokens, terms.term_names,
              terms._compile_term, terms.compile_space, kb.compile_guard)
    for cache in caches:
        cache.cache_clear()
    tokenised = {"_tokenize_expr": [], "_tokenize_term": []}
    for name, texts in tokenised.items():
        monkeypatch.setattr(terms, name, lambda text, f=getattr(terms, name),
                            seen=texts: seen.append(text) or f(text))
    scripts = link_scripts(parse_script(text, name_hint=name)
                           for name, text in SHIPPED_TEXT.items())
    shipped = resources.files("conechase").joinpath("data/paper.facts")
    with resources.as_file(shipped) as path:
        runner = Runner(load_catalog(path), scripts)
    for name, params in reproduce_rows(scripts):
        runner.run(name, params)
    for texts in tokenised.values():
        assert texts and len(texts) == len(set(texts))
    assert len(tokenised["_tokenize_expr"]) == \
        terms.compile_int_expr.cache_info().currsize == 21
    assert len(tokenised["_tokenize_term"]) == \
        terms._term_tokens.cache_info().currsize == 79
    for cache in caches:
        info = cache.cache_info()
        assert info.misses == info.currsize, cache   # nothing compiled twice
    # evaluated far oftener: term_names 2,171 hits on 79 misses and
    # compile_space 784 on 24 are the least, about 27 and 33 times
    for cache in (terms.compile_int_expr, terms.term_names,
                  terms.compile_space, kb.compile_guard):
        info = cache.cache_info()
        assert info.hits > 25 * info.misses, cache


def test_group_literals_split_at_top_level():
    """A ``+`` inside an order expression does not split the literal."""
    literal = parse_group_literal("Z/2 + Z/2^(r+1) + Z(2)")
    assert literal({"r": 2}) == q(2, 8, 0)
    assert parse_group_literal("0")({}) == q()
    with pytest.raises(KbError, match="bad group summand 'Z/2{eta_2}'"):
        parse_group_literal("Z/2{eta_2}")


def test_a_script_may_assert_a_shifted_order(catalog, scripts):
    """pi5_L4m at m = 1 is Z(2) + Z/4: an assert written ``Z/2^(m+1)``
    passes there, and fails, naming its values, at m = 2."""
    text = SHIPPED_TEXT["pi5_L4m"]
    old = "m=1 : Z(2) + Z/4 ;"
    assert old in text
    text = text.replace(old, "m=1 : Z(2) + Z/2^(m+1) ;")
    assert run_edited(catalog, scripts, "pi5_L4m", text,
                      value=1).group == q(0, 4)
    with pytest.raises(AssertionMismatch,
                       match=r"computed Z/2 \+ Z/2 \+ Z\(2\) but expected "
                             r"Z/8 \+ Z\(2\)"):
        run_edited(catalog, scripts, "pi5_L4m",
                   text.replace("m>=2 : Z(2) + Z/2 + Z/2",
                                "m>=2 : Z(2) + Z/2^(m+1)"))


@pytest.mark.parametrize("line, match", [
    ("assert ans = Z/2 + Y/4", "bad:5: bad group summand 'Y/4'"),
    ("assert ans = Z/2^(m+", "bad:5: bad integer expression: '2\\^\\(m\\+'"),
    ("assert ans = { m=1 : Z/2 ; m>> 2 : Z/4 }", "bad:5: bad guard 'm>> 2'"),
    ("assert ans = { m>=1 : Z/2^ }", "bad:5: bad integer expression"),
])
def test_a_malformed_assert_is_a_parse_error_with_its_line(line, match):
    with pytest.raises(DeriveError, match=match):
        parse_script("derivation bad\nparams m\nrequire m>=1\n"
                     f"let ans = run script=pi5_L4m; m=m\n{line}\n"
                     "return ans\n")


def test_a_malformed_require_is_a_parse_error_with_its_line():
    with pytest.raises(DeriveError, match="bad:3: bad guard 'm=>1'"):
        parse_script("derivation bad\nparams m\nrequire m=>1\nreturn m\n")


# ---------------------------------------------------------------------------
# malformed steps: documented errors that name the line, never a traceback
# ---------------------------------------------------------------------------

SHIPPED_TEXT = {entry.name[:-6]: entry.read_text()
                for entry in resources.files("conechase").joinpath(
                    "data").iterdir() if entry.name.endswith(".deriv")}
# what cli.main turns into exit codes 2, 3 and 4
DOCUMENTED = (DeriveError, GroupError, KbError, LesError, TermError)


def run_edited(catalog, scripts, name, text, value=2):
    """Run ``text`` in place of the shipped script ``name``, unswept, with
    every parameter ``value``."""
    script = parse_script(text, name_hint=name)
    linked = link_scripts([*(s for s in scripts.values() if s.name != name),
                           script])
    return Runner(catalog, linked).run(
        script.name, dict.fromkeys(script.params, value), sweep=False)


@pytest.mark.parametrize("name,old,new,match", [
    ("pi6_P3", "; k=7", "", "pi6_P3:15: missing step argument 'k'"),
    ("pi6_P3", "let K = kernel of=d6\n", "",
     "pi6_P3:18: missing binding 'K'"),
    ("gamma3", "let piL5 = run script=pi5_L4m; m=r+1\n", "",
     "gamma3:14: missing binding 'piL5'"),
    ("gamma3", "coeff=b; target", "coeff=piL5; target",
     "'piL5' is not an integer binding"),
    ("pi6_P3", "k=7; target", "k=6; k=7; target",
     "pi6_P3:15: repeated key 'k'"),
    ("pi6_P3", "r>=2 :", "r=1 : 0 ; r>=2 :", "pi6_P3:20: repeated key 'r=1'"),
    ("pi6_P3", "by=g3", "by=K",
     "pi6_P3:14: 'K' is bound only by this or a later step"),
    ("pi6_P3", "by=g3", "by=piJ5",
     "pi6_P3:14: 'piJ5' is bound only by this or a later step"),
])
def test_a_missing_argument_or_binding_names_its_line(catalog, scripts, name,
                                                      old, new, match):
    text = SHIPPED_TEXT[name]
    assert old in text
    with pytest.raises(DeriveError, match=match):
        run_edited(catalog, scripts, name, text.replace(old, new, 1))


@pytest.mark.parametrize("k", ["0", "-7"])
def test_a_degree_below_1_is_a_validation_error(catalog, scripts, monkeypatch,
                                                capsys, k):
    text = SHIPPED_TEXT["pi6_P3"]
    old = "let d7 = boundary fib=F_p(r); k=7;"
    assert old in text
    text = text.replace(old, old.replace("k=7", f"k={k}"))
    with pytest.raises(LesError, match=f"pi_{k}\\(S3\\): degrees start at 1"):
        run_edited(catalog, scripts, "pi6_P3", text)
    edited = parse_script(text, name_hint="pi6_P3")
    monkeypatch.setattr(cli, "load_scripts", lambda: link_scripts(
        [*(s for s in scripts.values() if s.name != "pi6_P3"), edited]))
    assert cli.main(["compute", "--space", "P3", "--k", "6", "--r", "2",
                     "--no-sweep"]) == cli.EXIT_VALIDATION
    assert "degrees start at 1" in capsys.readouterr().err


def test_a_slot_restriction_must_be_a_suspension(catalog, scripts,
                                                 monkeypatch, capsys):
    """``restrict_bracket`` composes each slot with its restriction only
    when that is a word of suspensions: ``eta_2`` in place of ``j1_25``
    in pi6_J3 is refused, and through the command line that is exit 2."""
    text = SHIPPED_TEXT["pi6_J3"]
    old = "by=j1_25, iota_5"
    assert old in text
    text = text.replace(old, "by=eta_2, iota_5")
    match = r"pi6_J3 step 8 \(restrict_bracket\): slot restrictions must be"
    with pytest.raises(StrictExpansionError, match=match):
        run_edited(catalog, scripts, "pi6_J3", text)
    edited = parse_script(text, name_hint="pi6_J3")
    monkeypatch.setattr(cli, "load_scripts", lambda: link_scripts(
        [*(s for s in scripts.values() if s.name != "pi6_J3"), edited]))
    assert cli.main(["compute", "--space", "J3", "--k", "6", "--r", "2",
                     "--no-sweep"]) == cli.EXIT_VALIDATION
    assert "slot restrictions must be suspensions" in capsys.readouterr().err


@pytest.mark.parametrize("name, old, new, match", [
    ("pi5_L4m", "m=1 : Z(2) + Z/4", "m=1 : Z(2) + Z/2^q",
     "pi5_L4m:17: '2\\^q' names q, not in params"),
    ("pi6_P3", "boundary fib=F_p(r); k=7", "boundary fib=F_p(r); k=q+1",
     "pi6_P3:15: 'q\\+1' names q, not in params"),
])
def test_a_variable_outside_params_is_a_parse_error(name, old, new, match):
    """An assert literal or an integer step argument may read only the
    script's parameters.  Run, the first edit fails only for m = 1 and
    the second only when its step runs; parsed, both fail for every
    parameter."""
    text = SHIPPED_TEXT[name]
    assert old in text
    with pytest.raises(DeriveError, match=match):
        parse_script(text.replace(old, new), name_hint=name)


@st.composite
def _mutated_script(draw):
    """A shipped script with one line deleted, cut short, stripped of one
    argument, or with one name in it replaced."""
    name = draw(st.sampled_from(sorted(SHIPPED_TEXT)))
    lines = SHIPPED_TEXT[name].splitlines()
    i = draw(st.sampled_from([i for i, line in enumerate(lines)
                              if line and not line.startswith("#")]))
    line = lines[i]
    how = draw(st.sampled_from(["delete", "cut", "drop argument", "rename"]))
    if how == "delete":
        del lines[i]
    elif how == "cut":
        lines[i] = line[:draw(st.integers(0, len(line)))]
    elif how == "drop argument":
        pieces = line.split(";")
        del pieces[draw(st.integers(0, len(pieces) - 1))]
        lines[i] = ";".join(pieces)
    else:
        names = re.findall(r"[A-Za-z_][A-Za-z0-9_']*", line)
        old = draw(st.sampled_from(names))
        new = draw(st.sampled_from(
            [old + "x", "b", "val", "piL5", "ans", "r", "k", "of"]))
        lines[i] = line.replace(old, new, 1)
    return name, "\n".join(lines) + "\n"


@given(_mutated_script())
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_mutated_scripts_fail_only_with_documented_errors(catalog, scripts,
                                                          edited):
    try:
        run_edited(catalog, scripts, *edited)
    except DOCUMENTED:
        pass


# ---------------------------------------------------------------------------
# the verb table: every step is checked when its script is parsed or linked
# ---------------------------------------------------------------------------

def load_edited(scripts, name, text):
    """The shipped scripts with ``text`` in place of ``name``, parsed and
    linked as ``load_scripts`` does; no step runs."""
    edited = parse_script(text, name_hint=name)
    return link_scripts([*(s for s in scripts.values() if s.name != name),
                         edited])


@pytest.mark.parametrize("old, new, match", [
    # an unknown argument, which a run ignored
    ("k=7; target=piC6", "k=7; target=piC6; tagret=piC6",
     "pi6_P3:15: boundary takes no argument 'tagret'"),
    # a misspelt optional argument, which a run took as absent (exit 3)
    ("certs=P3(2^r) @ 6", "cert=P3(2^r) @ 6",
     "pi6_P3:19: extension takes no argument 'cert'"),
    # a group where an element belongs, which a run parsed as a symbol
    ("by=g3; push", "by=piL5; push",
     "pi6_P3:14: 'piL5' is not an element binding"),
    ("let C = cokernel of=d7", "let C = cokernal of=d7",
     "pi6_P3:16: unknown verb 'cokernal'"),
    ("kernel of=d6", "kernel of=C",
     "pi6_P3:18: 'C' is not a boundary binding"),
    # an argument the subscript does not take, a second run-cache key
    ("script=pi5_L4m; m=r+1", "script=pi5_L4m; m=r+1; q=1",
     r"pi6_P3:12: run gives pi5_L4m \['m', 'q'\]; its params are \['m'\]"),
    ("script=pi5_L4m; m=r+1", "script=pi5_L4m; n=r+1",
     r"pi6_P3:12: run gives pi5_L4m \['n'\]; its params are \['m'\]"),
    ("; k=7", "", "pi6_P3:15: missing step argument 'k'"),
    ("; k=7", "; k=2^(r", "pi6_P3:15: bad integer expression"),
    ("push=I_3(r); space=F_p(r)", "push=I_3(r)",
     "pi6_P3:14: missing step argument 'space'"),
    ("return ans", "return K2", "pi6_P3:21: missing binding 'K2'"),
])
def test_a_malformed_step_is_refused_before_any_step_runs(
        catalog, scripts, monkeypatch, capsys, old, new, match):
    """Each edit of pi6_P3 is refused where the script is parsed or
    linked, with its line, and through the command line that is exit 2.
    Before the table, ``tagret=`` and ``q=1`` ran, ``cert=`` and
    ``by=piL5`` failed as exit 3, and all but the malformed ``k=`` failed
    only when a run reached their step."""
    text = SHIPPED_TEXT["pi6_P3"]
    assert old in text
    text = text.replace(old, new, 1)
    with pytest.raises(DeriveError, match=match):
        load_edited(scripts, "pi6_P3", text)
    monkeypatch.setattr(cli, "load_scripts",
                        lambda: load_edited(scripts, "pi6_P3", text))
    assert cli.main(["compute", "--space", "P3", "--k", "6", "--r", "2",
                     "--no-sweep"]) == cli.EXIT_VALIDATION
    assert re.search(match, capsys.readouterr().err)


def test_a_suspension_kill_solution_is_not_a_value(scripts):
    """``suspension_kill`` binds a solution, which no argument and no
    ``return`` takes, so no step memo or run cache compares one."""
    text = SHIPPED_TEXT["gamma3"]
    with pytest.raises(DeriveError,
                       match="gamma3:19: 'ac' is not a returnable binding"):
        load_edited(scripts, "gamma3",
                    text.replace("return g3", "return ac"))
    with pytest.raises(DeriveError,
                       match="gamma3:18: 'ac' is not an integer binding"):
        load_edited(scripts, "gamma3", text.replace(
            "group=piL5; gen=beta(r+1); coeff=b", "group=piL5; "
            "gen=beta(r+1); coeff=ac"))


# the words that start a line of a script other than a step's verb
KEYWORDS = {"derivation", "params", "require", "computes", "rows", "let",
            "assert", "return"}


@st.composite
def _misnamed_script(draw, scripts):
    """A shipped script with one ``let`` or ``check`` step rewritten: a
    required argument dropped, an argument key renamed or the verb
    renamed to one the table lacks; and that step's line."""
    name = draw(st.sampled_from(sorted(SHIPPED_TEXT)))
    step = draw(st.sampled_from([s for s in scripts[name].steps
                                 if s.kind in ("let", "check")]))
    verb, args = step.verb, dict(step.args)
    table = derive.VERBS[verb]
    required = [k for k in args if verb == "run" or not any(
        k in g for g in table.optional)]
    how = draw(st.sampled_from(["drop", "rename key", "rename verb"]))
    if how == "drop":
        del args[draw(st.sampled_from(required))]
    elif how == "rename key":
        old = draw(st.sampled_from(sorted(args)))
        new = draw(st.from_regex(r"[a-z]{1,6}", fullmatch=True).filter(
            lambda k: k not in table.args and k not in args))
        args = {new if k == old else k: v for k, v in args.items()}
    else:
        verb = draw(st.from_regex(r"[a-z_]{1,12}", fullmatch=True).filter(
            lambda v: v not in derive.VERBS and v not in KEYWORDS))
    body = "; ".join(f"{k}={v}" for k, v in args.items())
    lines = SHIPPED_TEXT[name].splitlines()
    lines[step.line - 1] = (f"{verb} {body}" if step.kind == "check" else
                            f"let {step.name} = {verb} {body}")
    return name, "\n".join(lines) + "\n", step.line


@given(st.data())
@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
def test_misnamed_steps_are_refused_at_load(scripts, data):
    """Seeded: dropping a required argument, renaming an argument key or
    renaming a verb in any step of a shipped script is a ``DeriveError``
    naming that step's line from ``parse_script`` or ``link_scripts``,
    before any step runs (the runner is never built)."""
    name, text, line = data.draw(_misnamed_script(scripts))
    with pytest.raises(DeriveError, match=f"^{name}:{line}: "):
        load_edited(scripts, name, text)


def test_each_verb_binds_the_kind_the_table_says(catalog, scripts):
    """Over the canonical reproduce pass every ``let`` binds a value of
    its verb's result kind (a ``run``, that of its script's return),
    which is what the load checks take on trust."""
    types = {derive.GROUP: PiGroup, derive.BOUNDARY: Boundary,
             derive.ELEMENT: Element, derive.INTEGER: int,
             derive.SOLUTION: tuple}
    returned = {"gamma3": derive.ELEMENT}
    seen = set()

    class Checking(Runner):
        def _eval_step(self, step, *args):
            value = super()._eval_step(step, *args)
            if step.kind == "let":
                table = derive.VERBS[step.verb]
                kind = (returned.get(step.args["script"], derive.GROUP)
                        if table.params else table.result)
                assert type(value) is types[kind], step.raw
                seen.add(step.verb)
            return value

    runner = Checking(catalog, scripts)
    for name, params in reproduce_rows(scripts):
        runner.run(name, params, sweep=False)
    assert seen == set(derive.VERBS) - {"check"}


README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_lists_the_verb_table():
    """README's verb reference is the table: each verb, its arguments in
    order with their kinds (optional ones in brackets, a bracket holding
    those given together) and what it binds."""
    rows = re.findall(r"^\| `(\w+)` \| (.*) \| (.*) \|$", README.read_text(),
                      re.M)
    listed = {}
    for verb, cell, binds in rows:
        args, optional = [], []
        for group, arg in re.findall(r"\[([^]]*)\]|([^,[\]]+)", cell):
            if not (group or arg).strip():
                continue
            pairs = [re.fullmatch(r"\s*`(\w+)` ([\w @]+?)\s*", piece).groups()
                     for piece in (group or arg).split(",")]
            args += pairs
            if group:
                optional.append(tuple(k for k, _ in pairs))
        listed[verb] = (args, tuple(optional), binds)
    want = {verb: (list(t.args.items()) + [("params", "expr")] * t.params,
                   t.optional, t.result or ("what its script returns"
                                            if t.params else "nothing"))
            for verb, t in derive.VERBS.items()}
    assert listed == want


HOPF_FACTS = """\
symbol j1_22 : S2 -> S2vS2 susp
symbol j2_22 : S2 -> S2vS2 susp
symbol q1_22 : S2vS2 -> S2 susp
fact group | S2vS2 @ 3 | Z(2){j1_22.eta_2} + Z(2){j2_22.eta_2} + \
Z(2){[j1_22, j2_22]} | classical_table | pi_3(S^2 v S^2) = Z{j_1 eta_2} + \
Z{j_2 eta_2} + Z{[j_1, j_2]} | Hilton's theorem
fact group | S2 @ 3 | Z(2){eta_2} | classical_table | pi_3(S^2) = Z{eta_2} \
| Hopf fibration
fact relation | [iota_2, iota_2] | 2*eta_2 | classical_table | \
[iota_2, iota_2] = 2 eta_2 | Whitehead square of S^2
"""
HOPF_SQUARE = parse_script(
    "derivation hopf_square\n"
    "let A = group space=S2vS2; k=3\n"
    "let T = group space=S2; k=3\n"
    "let w = whitehead id=S2; right=iota_2\n"
    "let b = solve_free group=A; map=q1_22; free=j1_22.eta_2; value=w; "
    "target=T\n"
    "return b\n")


def test_solve_free_passes_a_bracket_generator_through(tmp_path,
                                                        monkeypatch):
    """pi_3(S^2 v S^2) has the Whitehead product [j1, j2] among its free
    generators.  Solving [iota_2, iota_2] on the pinch to the first
    summand composes the pinch with every generator of the group, the
    bracket included; the pinch kills it and j2.eta_2, and the
    coefficient on j1.eta_2 is the Hopf invariant 2."""
    path = tmp_path / "hopf.facts"
    path.write_text(HOPF_FACTS)
    catalog = load_catalog(path)
    seen = []
    compose = rewrite.compose
    monkeypatch.setattr(rewrite, "compose", lambda f, g, ctx: (
        f.render() == "q1_22" and seen.append(g.render())
        or compose(f, g, ctx)))
    runner = Runner(catalog, link_scripts([HOPF_SQUARE]))
    assert runner.run("hopf_square", {}).value == 2
    # the generators, then the bracket's slots as the pinch enters it
    assert seen == ["j1_22 . eta_2", "j2_22 . eta_2", "[j1_22, j2_22]",
                    "j1_22", "j2_22"]


@pytest.mark.parametrize("gen, outcome", [
    ("j1_22.eta_2", 2),
    ("j2_22.eta_2", "value is not a multiple of the image"),
])
def test_solve_free_skips_a_zero_image_column(tmp_path, gen, outcome):
    """The fold j1 . q1 of S^2 v S^2 onto its first summand sends the
    free generator j1.eta_2 to itself, whose chart in pi_3(S^2 v S^2) is
    zero in the j2.eta_2 and [j1, j2] columns, and kills the other two
    generators.  2 j1.eta_2 is zero in those columns too, so they are
    skipped and the coefficient is 2; 2 j2.eta_2 is not, so it is no
    multiple of the image."""
    path = tmp_path / "hopf.facts"
    path.write_text(HOPF_FACTS)
    script = parse_script(
        "derivation fold\n"
        "let A = group space=S2vS2; k=3\n"
        "let T = group space=S2; k=3\n"
        "let w = whitehead id=S2; right=iota_2\n"
        "let two = solve_free group=A; map=q1_22; free=j1_22.eta_2; "
        "value=w; target=T\n"
        f"let v = scaled_generator group=A; gen={gen}; coeff=two\n"
        "let b = solve_free group=A; map=j1_22.q1_22; free=j1_22.eta_2; "
        "value=v; target=A\n"
        "return b\n")
    runner = Runner(load_catalog(path), link_scripts([script]))
    if isinstance(outcome, int):
        assert runner.run("fold", {}).value == outcome
    else:
        with pytest.raises(DeriveError, match="fold step 6 \\(solve_free\\): "
                           + outcome):
            runner.run("fold", {})


PAIR_CHECK = """derivation pair_check
params r
require r>=1
let wmap = pair_map first=j_L(r+1); second=3*beta(r+1)
let other = pair_map first=j_L(r+1); second=OTHER
check map=wmap; with=id(S2vS5); equals=other
let g = run script=pi5_L4m; m=r
return g
"""


@pytest.mark.parametrize("other, ok", [("3*beta(r+1)", True),
                                       ("beta(r+1)", False)])
def test_a_check_compares_co_pairings_by_their_components(catalog, scripts,
                                                          other, ok):
    """A co-pairing composed with the identity of its wedge stays a word
    holding the pair, and ``check`` compares such words by the keys of
    both components: the same pair passes, one with another second
    component fails."""
    script = parse_script(PAIR_CHECK.replace("OTHER", other))
    runner = Runner(catalog, link_scripts([*scripts.values(), script]))
    if ok:
        assert "[ok]" in runner.run("pair_check", {"r": 2}).transcript
        return
    with pytest.raises(AssertionMismatch, match=re.escape(
            "check failed: pair(j_L(3), 3*beta(3)) != pair(j_L(3), beta(3))")):
        runner.run("pair_check", {"r": 2})
