"""Group arithmetic: Smith normal form against an independent oracle,
kernels/cokernels, presentation quotients, extension resolution."""

import random
from math import gcd

import pytest

from conechase.groups import (
    ExtensionProblem,
    ExtensionUnresolved,
    GroupError,
    GroupHom,
    IntMat,
    LiftCertificate,
    TwoLocalGroup,
    cokernel,
    kernel,
    quotient_by_elements,
    smith_normal_form,
    solve_extension,
    strip_odd,
)

from checks import det, direct_sum, elements, vector


# -- independent oracle: plain gcd row/column elimination, diagonal only ----

def oracle_snf_diagonal(rows, ncols):
    a = [list(r) for r in rows]
    nr, nc = len(a), ncols

    def reduce_from(t):
        # move the smallest nonzero entry to (t,t), then gcd-eliminate;
        # remainders are strictly smaller, so re-picking terminates
        while True:
            pos = None
            for i in range(t, nr):
                for j in range(t, nc):
                    if a[i][j] and (pos is None or abs(a[i][j]) < abs(a[pos[0]][pos[1]])):
                        pos = (i, j)
            if pos is None:
                return False
            i, j = pos
            a[t], a[i] = a[i], a[t]
            for r in a:
                r[t], r[j] = r[j], r[t]
            # clear column t and row t by repeated remainder steps
            again = False
            for i in range(nr):
                if i != t and a[i][t]:
                    q = a[i][t] // a[t][t]
                    for c in range(nc):
                        a[i][c] -= q * a[t][c]
                    if a[i][t]:
                        again = True
            for j in range(nc):
                if j != t and a[t][j]:
                    q = a[t][j] // a[t][t]
                    for r in a:
                        r[j] -= q * r[t]
                    if a[t][j]:
                        again = True
            if not again:
                return True

    t = 0
    while t < min(nr, nc):
        if not reduce_from(t):
            break
        t += 1
    diag = [abs(a[i][i]) for i in range(min(nr, nc))]
    # fix divisibility by replacing pairs with (gcd, lcm)
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            for j in range(i + 1, len(diag)):
                if diag[i] and diag[j] % diag[i] != 0 or (diag[i] == 0 and diag[j] != 0):
                    g = gcd(diag[i], diag[j])
                    l = diag[i] * diag[j] // g if g else 0
                    diag[i], diag[j] = g, l
                    changed = True
    return diag


def snf_diag(res):
    d = res.d
    return [d.rows[i][i] for i in range(min(d.nrows, d.ncols))]


def test_snf_trivial_cases():
    r = smith_normal_form(IntMat([[0, 0], [0, 0]]))
    assert r.d.rows == [[0, 0], [0, 0]]
    assert r.u == IntMat.identity(2) and r.v == IntMat.identity(2)

    r = smith_normal_form(IntMat([[2, 0], [0, 4]]))
    assert snf_diag(r) == [2, 4]

    r = smith_normal_form(IntMat([[2, 4], [6, 8]]))
    assert snf_diag(r) == [2, 4]
    assert det(r.u) in (1, -1) and det(r.v) in (1, -1)


def test_snf_empty_shapes():
    for nr, nc in [(0, 3), (3, 0), (0, 0)]:
        m = IntMat([[0] * nc for _ in range(nr)], nc)
        r = smith_normal_form(m)
        assert r.d.nrows == nr and r.d.ncols == nc


def test_snf_against_oracle_random():
    rng = random.Random(20260809)
    for _ in range(1000):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        rows = [[rng.randint(-20, 20) for _ in range(nc)] for _ in range(nr)]
        m = IntMat(rows, nc)
        res = smith_normal_form(m)
        # exact decomposition and unimodularity
        assert res.u @ m @ res.v == res.d
        assert det(res.u) in (1, -1)
        assert det(res.v) in (1, -1)
        got = snf_diag(res)
        assert all(x >= 0 for x in got)
        for i in range(len(got) - 1):
            if got[i] == 0:
                assert got[i + 1] == 0
            elif got[i + 1] != 0:
                assert got[i + 1] % got[i] == 0
        assert got == oracle_snf_diagonal(rows, nc)


def test_snf_deterministic():
    rows = [[3, -1, 4], [1, 5, -9], [2, 6, 5]]
    a = smith_normal_form(IntMat(rows))
    b = smith_normal_form(IntMat(rows))
    assert a.u == b.u and a.v == b.v and a.d == b.d


def test_strip_odd_values():
    assert strip_odd(6) == 2
    assert strip_odd(3 * 2**5) == 2**5
    assert strip_odd(-3 * 2**5) == -(2**5)
    assert strip_odd(0) == 0
    assert strip_odd(1) == 1


def test_group_canonical_form_and_labels():
    g = TwoLocalGroup([4, 2, 0, 2], ["a", "b", "c", "d"])
    assert g.orders == (2, 2, 4, 0)
    assert g.labels == ("b", "d", "a", "c")
    assert g.render() == "Z/2 + Z/2 + Z/4 + Z(2)"
    with pytest.raises(GroupError):
        TwoLocalGroup([3])
    with pytest.raises(GroupError):
        TwoLocalGroup([6])


def test_group_equal_examples():
    assert TwoLocalGroup([2, 4]) == TwoLocalGroup([4, 2])
    assert TwoLocalGroup([4]) != TwoLocalGroup([2, 2])
    assert TwoLocalGroup([0]) != TwoLocalGroup([2**60])


def test_hom_validation_rejects_bad_column():
    z4 = TwoLocalGroup([4])
    z2 = TwoLocalGroup([2])
    GroupHom(z4, z2, IntMat([[1]]))  # 4*1 = 0 mod 2: fine
    zz = TwoLocalGroup([0])
    with pytest.raises(GroupError, match="column 0"):
        GroupHom(z4, zz, IntMat([[1]]))  # 4*1 != 0 in Z(2)


def test_cokernel_mult_2r():
    zz = TwoLocalGroup([0])
    for r in range(1, 9):
        g, p = cokernel(GroupHom(zz, zz, IntMat([[2**r]])))
        assert g == TwoLocalGroup([2**r])
        assert p.apply([1]) != (0,)


def test_cokernel_three_case_display():
    # target Z4 + Z2 + Z(2); image generated by (2^m,0,0) and (2^(m-1),0,2^m)
    target = TwoLocalGroup([4, 2, 0], ["x", "y", "z"])
    src = TwoLocalGroup([0, 0])

    def image_hom(m):
        cols = [vector(target, {"x": 2**m}),
                vector(target, {"x": 2 ** (m - 1), "z": 2**m})]
        mat = IntMat([[cols[j][i] for j in range(2)] for i in range(3)])
        return GroupHom(src, target, mat)

    g1, _ = cokernel(image_hom(1))
    assert g1 == TwoLocalGroup([2, 4])
    g2, _ = cokernel(image_hom(2))
    assert g2 == TwoLocalGroup([2, 2, 8])
    for m in range(3, 9):
        gm, _ = cokernel(image_hom(m))
        assert gm == TwoLocalGroup([2, 4, 2**m])


def test_cokernel_of_surjection_is_trivial():
    g = TwoLocalGroup([2, 4])
    h = GroupHom.identity(g)
    c, _ = cokernel(h)
    assert c.is_trivial()


def test_kernel_examples():
    z2 = TwoLocalGroup([2])
    g = TwoLocalGroup([4, 2])
    k, incl = kernel(GroupHom.zero(z2, g))
    assert k == TwoLocalGroup([2])
    assert incl.matrix.rows == [[1]]

    z4 = TwoLocalGroup([4])
    k, _ = kernel(GroupHom.identity(z4))
    assert k.is_trivial()

    k, incl = kernel(GroupHom(z4, z4, IntMat([[2]])))
    assert k == TwoLocalGroup([2])
    # the kernel generator must actually die
    vec = incl.apply([1])
    assert (2 * vec[0]) % 4 == 0 and vec[0] % 4 != 0


def test_kernel_of_free_to_finite():
    zz = TwoLocalGroup([0])
    z4 = TwoLocalGroup([4])
    k, incl = kernel(GroupHom(zz, z4, IntMat([[1]])))
    assert k == TwoLocalGroup([0])
    assert abs(incl.matrix.rows[0][0]) == 4


def brute_force_kernel_order(h):
    n = 0
    for vec in elements(h.source):
        if all(x == 0 for x in h.apply(vec)):
            n += 1
    return n


def test_kernel_against_enumeration():
    rng = random.Random(7)
    for _ in range(60):
        src_orders = [rng.choice([2, 4, 8]) for _ in range(rng.randint(1, 3))]
        tgt_orders = [rng.choice([2, 4, 8]) for _ in range(rng.randint(1, 3))]
        src = TwoLocalGroup(src_orders)
        tgt = TwoLocalGroup(tgt_orders)
        rows = []
        for i in range(tgt.rank):
            row = []
            for j in range(src.rank):
                # a compatible random entry: multiple of o_t / gcd(o_t, o_s)
                step = tgt.orders[i] // gcd(tgt.orders[i], src.orders[j])
                row.append(step * rng.randint(0, 3))
            rows.append(row)
        h = GroupHom(src, tgt, IntMat(rows, src.rank))
        k, incl = kernel(h)
        assert k.torsion_order() == brute_force_kernel_order(h)
        for j in range(k.rank):
            vec = incl.apply(tuple(1 if i == j else 0 for i in range(k.rank)))
            assert all(x == 0 for x in h.apply(vec))


def test_rank_nullity_free_parts():
    rng = random.Random(11)
    for _ in range(40):
        ns = rng.randint(1, 3)
        nt = rng.randint(1, 3)
        src = TwoLocalGroup([0] * ns)
        tgt = TwoLocalGroup([0] * nt)
        mat = IntMat([[rng.randint(-4, 4) for _ in range(ns)] for _ in range(nt)], ns)
        h = GroupHom(src, tgt, mat)
        k, _ = kernel(h)
        c, _ = cokernel(h)
        image_rank = nt - c.free_rank
        assert src.free_rank == k.free_rank + image_rank


def test_quotient_by_elements_strips_odd_content():
    g = TwoLocalGroup([0, 2, 2], ["beta", "u", "v"])
    for r in range(1, 9):
        q, _ = quotient_by_elements(g, [vector(g, {"beta": 3 * 2**r})])
        assert q == TwoLocalGroup([2**r, 2, 2])


def test_quotient_by_elements_paper_case_r1():
    g = TwoLocalGroup([2, 2, 8, 2], ["a", "b", "c", "d"])
    q, _ = quotient_by_elements(
        g, [vector(g, {"b": 2, "c": 4}), vector(g, {"c": 2})])
    assert q == TwoLocalGroup([2, 2, 2, 2])


def test_quotient_by_empty_list_is_identity():
    g = TwoLocalGroup([2, 8, 0])
    q, p = quotient_by_elements(g, [])
    assert q == g
    # projection is an isomorphism here
    for i in range(g.rank):
        vec = p.apply(tuple(1 if j == i else 0 for j in range(g.rank)))
        assert any(vec)


def test_quotient_order_divides_group_order():
    rng = random.Random(13)
    for _ in range(50):
        orders = [rng.choice([2, 4, 8]) for _ in range(rng.randint(1, 3))]
        g = TwoLocalGroup(orders)
        rels = [[rng.randint(-8, 8) for _ in range(g.rank)]
                for _ in range(rng.randint(0, 2))]
        q, _ = quotient_by_elements(g, rels)
        assert g.torsion_order() % q.torsion_order() == 0
        assert q.free_rank == 0


def test_solve_extension_split_and_failure():
    sub = TwoLocalGroup([2, 2**3, 0], ["a", "b", "c"])
    quot = TwoLocalGroup([2], ["eta"])
    cert = LiftCertificate(quot_index=0, lift_order=2, lift_label="lift-eta")
    e, _ = solve_extension(ExtensionProblem(sub, quot, (cert,)))
    assert e == TwoLocalGroup([2, 2, 8, 0])
    assert e.labels == ("a", "lift-eta", "b", "c")
    assert e.torsion_order() == sub.torsion_order() * quot.torsion_order()

    with pytest.raises(ExtensionUnresolved, match="extension unresolved"):
        solve_extension(ExtensionProblem(sub, quot, ()))
    # a lift of order 4 with no relation is not what the presentation gives
    big = LiftCertificate(quot_index=0, lift_order=4)
    with pytest.raises(GroupError, match="claims lift order 4 but the "
                                         "presentation gives 2"):
        solve_extension(ExtensionProblem(sub, quot, (big,)))
    short = LiftCertificate(0, lift_order=4, relation=(1, 0))
    with pytest.raises(GroupError, match="relation length mismatch"):
        solve_extension(ExtensionProblem(sub, quot, (short,)))
    # a free quotient generator admits no relation: 0 * lift = u would
    # kill u instead of extending Z(2) by Z/2
    free = LiftCertificate(0, 0, "l", (1,))
    with pytest.raises(GroupError, match="certificate for z gives a "
                                         "relation, but its order is 0"):
        solve_extension(ExtensionProblem(TwoLocalGroup([2], ["u"]),
                                         TwoLocalGroup([0], ["z"]), (free,)))
    with pytest.raises(GroupError, match="certificate for g0 gives"):
        solve_extension(ExtensionProblem(TwoLocalGroup([2], ["u"]),
                                         TwoLocalGroup([0]), (free,)))


def test_solve_extension_trivial_quot():
    sub = TwoLocalGroup([4])
    e, _ = solve_extension(ExtensionProblem(sub, TwoLocalGroup([]), ()))
    assert e == sub


def test_extension_order_property():
    rng = random.Random(17)
    for _ in range(30):
        sub = TwoLocalGroup([rng.choice([2, 4, 8]) for _ in range(rng.randint(0, 3))])
        quot = TwoLocalGroup([rng.choice([2, 4]) for _ in range(rng.randint(1, 2))])
        certs = tuple(LiftCertificate(i, quot.orders[i]) for i in range(quot.rank))
        e, _ = solve_extension(ExtensionProblem(sub, quot, certs))
        assert e.torsion_order() == sub.torsion_order() * quot.torsion_order()


def test_extension_solver_keeps_the_chart_contract():
    """Over random split problems and random problems with nonzero
    relations, the chart is onto and kills (quot order) * lift -
    relation, each sub unit vector goes to an element of the sub
    generator's order and each lift's to one of its certified order (the
    quotient order times the relation's order).  A split problem's chart
    is a permutation onto summands of the given orders, and the labels
    follow the chart exactly when it is a permutation."""
    rng = random.Random(29)
    seen = set()
    for trial in range(400):
        orders = [rng.choice([0, 2, 2, 4, 8]) for _ in range(rng.randint(0, 4))]
        sub = TwoLocalGroup(orders, [f"s{i}" for i in range(len(orders))]
                            if trial % 2 == 0 else None)
        quot = TwoLocalGroup([rng.choice([0, 2, 4])
                              for _ in range(rng.randint(1, 3))])
        split = trial % 4 < 2
        certs = []
        for i, q in enumerate(quot.orders):
            # a free generator's lift meets the sub nowhere
            rel = tuple(0 if split or not q else rng.randint(-3, 8)
                        for _ in range(sub.rank))
            certs.append(LiftCertificate(i, q * sub.element_order(rel),
                                         f"l{i}", rel))
        e, chart = solve_extension(ExtensionProblem(sub, quot, tuple(certs)))
        given = list(sub.orders) + list(quot.orders)
        n = len(given)
        units = [chart.apply([int(i == j) for i in range(n)])
                 for j in range(n)]
        assert cokernel(chart)[0].is_trivial()
        assert e.free_rank == sub.free_rank + quot.free_rank
        for j, o in enumerate(sub.orders):
            assert e.element_order(units[j]) == o
        for c in certs:
            q = quot.orders[c.quot_index]
            lift = [0] * quot.rank
            lift[c.quot_index] = q
            assert chart.apply([-x for x in c.relation] + lift) == \
                (0,) * e.rank
            assert e.element_order(units[sub.rank + c.quot_index]) == \
                c.lift_order
        permutation = e.rank == n and all(
            sorted(u) == [0] * (n - 1) + [1] for u in units)
        assert permutation or not split
        seen.add((split, permutation))
        if permutation:
            hits = [u.index(1) for u in units]
            assert [e.orders[i] for i in hits] == given
            assert [e.labels[i] for i in hits] == \
                [sub.label(i) for i in range(sub.rank)] + \
                [f"l{i}" for i in range(quot.rank)]
        else:
            assert e.labels is None
    assert seen == {(True, True), (False, True), (False, False)}


def test_extension_with_relation_nonsplit():
    # 0 -> Z2{u} + Z(2){beta} -> E -> Z2{eta} -> 0 with 2*lift = u
    sub = TwoLocalGroup([2, 0], ["u", "beta"])
    quot = TwoLocalGroup([2], ["eta"])
    cert = LiftCertificate(0, lift_order=4, lift_label="eta~",
                           relation=(1, 0))
    e, chart = solve_extension(ExtensionProblem(sub, quot, (cert,)))
    assert e == TwoLocalGroup([4, 0])
    assert e.describe() == "Z/4{g0} + Z(2){g1}"
    # the claimed order is checked: wrong claim must raise
    bad = LiftCertificate(0, lift_order=2, lift_label="eta~", relation=(1, 0))
    with pytest.raises(GroupError, match="claims lift order"):
        solve_extension(ExtensionProblem(sub, quot, (bad,)))


def test_direct_sum_merges_labels():
    a = TwoLocalGroup([2], ["x"])
    b = TwoLocalGroup([0], ["y"])
    s = direct_sum(a, b)
    assert s.orders == (2, 0)
    assert s.labels == ("x", "y")


def test_element_order():
    g = TwoLocalGroup([4, 2, 0], ["a", "b", "c"])
    assert g.element_order(vector(g, {"a": 1})) == 4
    assert g.element_order(vector(g, {"a": 2, "b": 1})) == 2
    assert g.element_order(vector(g, {"c": 1})) == 0
    assert g.element_order(vector(g, {})) == 1


def random_hom(rng, src, tgt):
    rows = []
    for i in range(tgt.rank):
        row = []
        for j in range(src.rank):
            if src.orders[j] == 0:
                row.append(rng.randint(-6, 6))
            else:
                step = tgt.orders[i] // gcd(tgt.orders[i], src.orders[j]) \
                    if tgt.orders[i] else 0
                row.append(step * rng.randint(0, 3) if tgt.orders[i] else 0)
        rows.append(row)
    return GroupHom(src, tgt, IntMat(rows, src.rank))


def test_hom_composition_associative_on_random_triples():
    rng = random.Random(23)
    for _ in range(60):
        gs = [TwoLocalGroup([rng.choice([2, 4, 8]) for _ in
                             range(rng.randint(1, 3))]) for _ in range(4)]
        f = random_hom(rng, gs[0], gs[1])
        g = random_hom(rng, gs[1], gs[2])
        h = random_hom(rng, gs[2], gs[3])
        left = h.compose(g).compose(f)
        right = h.compose(g.compose(f))
        assert left.matrix == right.matrix
        # and application agrees with matrix composition
        for vec in (tuple(1 if i == j else 0 for i in range(gs[0].rank))
                    for j in range(gs[0].rank)):
            assert h.apply(g.apply(f.apply(vec))) == left.apply(vec)


# -- a few law checks driven by hypothesis ----------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

orders_strategy = st.lists(
    st.sampled_from([0, 2, 4, 8, 16]), min_size=0, max_size=5)


@given(orders_strategy)
def test_canonical_form_idempotent(orders):
    g = TwoLocalGroup(orders)
    assert TwoLocalGroup(g.orders).orders == g.orders


@given(st.integers(-10**9, 10**9), st.integers(-10**6, 10**6))
def test_strip_odd_multiplicative(a, b):
    assert strip_odd(a * b) == strip_odd(a) * strip_odd(b)


@given(st.integers(-10**9, 10**9))
def test_strip_odd_is_two_part(n):
    s = strip_odd(n)
    if n:
        assert n % s == 0
        assert (n // s) % 2 != 0
        assert abs(s) & (abs(s) - 1) == 0


@given(orders_strategy, orders_strategy)
@settings(max_examples=40)
def test_direct_sum_order_additive(a, b):
    ga, gb = TwoLocalGroup(a), TwoLocalGroup(b)
    s = direct_sum(ga, gb)
    assert s.torsion_order() == ga.torsion_order() * gb.torsion_order()
    assert s.free_rank == ga.free_rank + gb.free_rank
