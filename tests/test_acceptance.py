"""Acceptance gate: every headline table and property, exact, one
criterion per test.  All comparisons are exact (no tolerances: the
arithmetic is integral).

Run with ``pytest tests/test_acceptance.py -v`` for one line per
criterion; each test also prints an ACCEPTANCE line.
"""

import random

import pytest

from conechase import filtration, rewrite
from conechase.derive import Runner
from conechase.groups import (
    ExtensionProblem,
    ExtensionUnresolved,
    IntMat,
    LiftCertificate,
    TwoLocalGroup,
    group_from_presentation,
    smith_normal_form,
    solve_extension,
)
from conechase.terms import Element, sphere


def q(*orders):
    return TwoLocalGroup(list(orders))


def ok(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_moore_space_tables(runner):
    """pi_5 and pi_6 of the mod-2^r Moore spaces, r = 1..8, exact."""
    for r in range(1, 9):
        want5 = q(2, 2, 2) if r == 1 else q(2, 2, 2, 2**r)
        assert runner.run("pi5_P3", {"r": r}).group == want5
        want6 = q(2, 2, 2, 2, 2) if r == 1 else q(2, 2, 4, 4, 2**r)
        assert runner.run("pi6_P3", {"r": r}).group == want6
    ok(1, "pi_5 and pi_6 of P^3(2^r) match for r in [1, 8]")


def test_criterion_2_pi5_of_the_cone(runner):
    expect = {0: q(0), 1: q(0, 4), **{m: q(0, 2, 2) for m in range(2, 9)}}
    for m, want in expect.items():
        assert runner.run("pi5_L4m", {"m": m}).group == want
    ok(2, "pi_5 of the two-cell cone matches for m in [0, 8]")


def test_criterion_3_pi6_of_the_cone(runner):
    expect = {1: q(2, 4, 2), 2: q(2, 2, 8, 2),
              **{m: q(2, 4, 2**m, 2) for m in range(3, 9)}}
    for m, want in expect.items():
        assert runner.run("pi6_L4m", {"m": m}).group == want
    ok(3, "pi_6 of the two-cell cone matches for m in [1, 8]")


def test_criterion_4_cokernel_three_case_display():
    """The three-case cokernel, computed purely by Smith reduction from
    the stated relation rows."""
    def coker(m):
        rows = [[4, 0, 0], [0, 2, 0], [2**m, 0, 0],
                [2 ** (m - 1), 0, 2**m]]
        group, _, _ = group_from_presentation(3, rows)
        return group

    assert coker(1) == q(2, 4)
    assert coker(2) == q(2, 2, 8)
    for m in range(3, 9):
        assert coker(m) == q(2, 4, 2**m)
    ok(4, "the three-case presentation quotient matches for m = 1, 2, >= 3")


def test_criterion_5_pi6_of_the_fiber(runner):
    for r in range(1, 9):
        want = q(2, 2, 2, 2) if r == 1 else q(2, 2, 4, 2**r)
        res = runner.run("pi6_J3", {"r": r})
        assert res.group == want
        # the quotient relation enters with its odd factor stripped
        assert "quotient of=piL6" in res.transcript
    ok(5, "pi_6 of the third filtration stage matches for r in [1, 8]")


def test_criterion_6_gamma2_rewrite(catalog):
    """[iota_2, 2^r iota_2] normalizes to 2^(r+1) eta_2 consuming no
    stored connecting-map values."""
    for r in range(1, 9):
        notes = []
        ctx = catalog.rule_context(
            {"r": r, "sign": 1, "eps": 0, "x": 0, "y": 1},
            on_rule=notes.append)
        got = rewrite.whitehead(Element.identity(sphere(2)),
                                Element.identity(sphere(2)).scale(2**r), ctx)
        assert got.render() == f"{2 ** (r + 1)}*eta_2"
        assert sum(1 for f in notes if f.kind == "boundary_value") == 0
    ok(6, "gamma_2 = 2^(r+1) eta_2 for r in [1, 8] with zero boundary facts")


def test_criterion_7_gamma3_and_invariance(catalog, scripts, runner):
    """The third attaching class has coefficient +-3*2^r on the free
    generator, nothing else; the downstream groups are invariant under
    the sign token and the suspension ambiguity eps."""
    for r in range(1, 9):
        res = runner.run("gamma3", {"r": r})  # sweeps sign/eps/x/y
        ((term, c),) = res.value.terms
        assert abs(c) == 3 * 2**r
        assert term.render() == f"beta({r + 1})"
    # explicit spot check: both signs and both eps give the same groups
    for assign in ({"sign": 1, "eps": 0}, {"sign": -1, "eps": 0},
                   {"sign": 1, "eps": 1}, {"sign": -1, "eps": 1}):
        env = {"r": 2, "x": 0, "y": 1, **assign}
        sub = Runner(catalog, scripts)
        a = sub._run_cached("pi5_P3", env).group
        b = sub._run_cached("pi6_P3", env).group
        assert a == q(2, 2, 2, 4) and b == q(2, 2, 4, 4, 4)
    ok(7, "gamma_3 coefficient is +-3*2^r with zero torsion part, "
          "and the tables are sign- and eps-invariant")


def test_criterion_8_property_suites(catalog, env):
    # (a) Smith normal form against the independent reduction oracle
    from test_groups import oracle_snf_diagonal, snf_diag
    rng = random.Random(424242)
    for _ in range(1000):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-20, 20) for _ in range(nc)] for _ in range(nr)]
        res = smith_normal_form(IntMat(rows, nc))
        assert res.u @ IntMat(rows, nc) @ res.v == res.d
        assert snf_diag(res) == oracle_snf_diagonal(rows, nc)

    # (b) suspension kills 200 random products
    ctx = catalog.rule_context(env)
    p = catalog.parser(env)
    pool = [Element.identity(sphere(n)) for n in (2, 3, 4, 5)]
    pool += [p.parse(t) for t in ("eta_3", "eta_4", "eta_5", "j1_25",
                                  "j2_25", "j_L(2)", "beta(2)", "2*eta_3")]
    rng = random.Random(31337)
    count = 0
    while count < 200:
        f = rng.choice(pool)
        g = rng.choice(pool)
        if f.target != g.target:
            continue
        w = rewrite.whitehead(f, g, ctx)
        assert rewrite.suspend(w, ctx).is_zero()
        count += 1

    # (c) the suspension splitting for every shipped attaching class
    for text, vals in (("2^r*iota_2", range(1, 9)), ("2^m*eta_2", range(0, 9))):
        for v in vals:
            var = "r" if "r" in text else "m"
            e = catalog.parser({var: v}).parse(text)
            spec = filtration.MapSpec(e)
            for k in (1, 2, 3, 4):
                assert filtration.suspension_splitting_check(
                    spec, k, 14, ctx=ctx)

    # (d) complete certificates always give the full-order group
    rng = random.Random(7)
    for _ in range(50):
        sub = q(*[rng.choice([2, 4, 8]) for _ in range(rng.randint(0, 3))])
        quot = q(*[rng.choice([2, 4]) for _ in range(rng.randint(1, 2))])
        certs = tuple(LiftCertificate(i, quot.orders[i])
                      for i in range(quot.rank))
        e = solve_extension(ExtensionProblem(sub, quot, certs))
        assert e.torsion_order() == sub.torsion_order() * quot.torsion_order()
    ok(8, "SNF oracle x1000, suspension-kill x200, splitting checks, "
          "extension order law")


def test_criterion_9_negative_controls(catalog, scripts, env):
    # removing the order-4 lift certificate breaks exactly the pi_6 rows
    filtered = catalog.without_facts(
        lambda f: "nut'" in f.payload or "nut'" in f.subject)
    sub = Runner(filtered, scripts)
    for r in (2, 5):
        with pytest.raises(ExtensionUnresolved, match="extension unresolved"):
            sub.run("pi6_P3", {"r": r}, sweep=False)
    assert sub.run("pi5_P3", {"r": 2}, sweep=False).group == q(2, 2, 2, 4)

    # corrupting a cell dimension falsifies the suspension splitting
    ctx = catalog.rule_context(env)
    spec = filtration.MapSpec(catalog.parser({"r": 2}).parse("2^r*iota_2"))
    assert filtration.suspension_splitting_check(
        spec, 3, 12, ctx=ctx)
    assert not filtration.suspension_splitting_check(
        spec, 3, 12, corrupt_cell=1, ctx=ctx)
    ok(9, "missing lift fails unresolved; corrupted cell fails the splitting")
