"""Exact arithmetic for finitely generated abelian groups localized at 2.

Groups are stored as lists of cyclic orders: ``0`` is an infinite cyclic
summand Z(2) (the 2-local integers), any other order must be a power of
two >= 2.  All computations (Smith normal form, kernels, cokernels,
presentation quotients, extension resolution) are done over the plain
integers; odd torsion produced by a presentation is invisible 2-locally
and is stripped from the invariant factors.

Everything here is immutable after construction and side-effect free.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from math import gcd, prod
from typing import Optional, Sequence


class GroupError(ValueError):
    pass


class ExtensionUnresolved(GroupError):
    """Raised when an extension problem lacks a matching lift certificate."""


def strip_odd(n: int) -> int:
    """Reduce an integer to its sign times its 2-part.

    Odd integers act invertibly 2-locally, so the cyclic subgroup
    generated by ``n * x`` equals the one generated by ``2^v2(n) * x``.

    >>> strip_odd(6)
    2
    >>> strip_odd(-24)
    -8
    >>> strip_odd(0)
    0
    >>> strip_odd(7)
    1
    """
    if n == 0:
        return 0
    sign = 1 if n > 0 else -1
    n = abs(n)
    return sign * (n & -n)


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


def canonical_order(orders: Sequence[int]) -> list:
    """The canonical summand order: finite orders ascending, then the free
    summands, ties kept in place.  Entry i is the old position of the
    summand that goes to position i.

    >>> canonical_order([0, 4, 2, 2])
    [2, 3, 1, 0]
    """
    return sorted(range(len(orders)),
                  key=lambda i: (orders[i] == 0, orders[i], i))


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def _identity_rows(n: int) -> list:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class IntMat:
    """A dense integer matrix that knows its shape even when empty."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[int]], ncols: Optional[int] = None):
        self.rows = [list(map(int, r)) for r in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise GroupError("ragged matrix")
            if ncols is not None and ncols != self.ncols:
                raise GroupError("ncols mismatch")
        else:
            if ncols is None:
                raise GroupError("empty matrix needs an explicit column count")
            self.ncols = ncols

    @classmethod
    def _trusted(cls, rows: list, ncols: int) -> "IntMat":
        """The matrix of ``rows`` as they stand.  Trusted: the caller
        guarantees fresh lists of ints, each ``ncols`` long."""
        m = object.__new__(cls)
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        return m

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        return cls(_identity_rows(n), n)

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "IntMat":
        return cls([[0] * ncols for _ in range(nrows)], ncols)

    def transpose(self) -> "IntMat":
        return IntMat._trusted([[self.rows[i][j] for i in range(self.nrows)]
                                for j in range(self.ncols)], self.nrows)

    def __matmul__(self, other: "IntMat") -> "IntMat":
        if self.ncols != other.nrows:
            raise GroupError("shape mismatch in product")
        out = []
        for i in range(self.nrows):
            ri = self.rows[i]
            out.append([sum(ri[k] * other.rows[k][j] for k in range(self.ncols))
                        for j in range(other.ncols)])
        return IntMat(out, other.ncols)

    def col(self, j: int) -> list:
        return [self.rows[i][j] for i in range(self.nrows)]

    def __eq__(self, other):
        return (isinstance(other, IntMat) and self.ncols == other.ncols
                and self.rows == other.rows)

    def __repr__(self):
        return f"IntMat({self.rows!r}, ncols={self.ncols})"


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SnfResult:
    """U @ m @ V == D with U, V unimodular and D a divisibility chain;
    U @ uinv == I and vinv @ V == I."""
    u: IntMat
    d: IntMat
    v: IntMat
    uinv: IntMat
    vinv: IntMat


def _pivot(a, t, nrows, ncols):
    """Smallest nonzero |entry| in a[t:,t:]; ties by lowest row, then column."""
    best = None
    for i in range(t, nrows):
        for j in range(t, ncols):
            e = a[i][j]
            if e != 0 and (best is None or abs(e) < abs(a[best[0]][best[1]])):
                best = (i, j)
    return best


def smith_normal_form(m: IntMat) -> SnfResult:
    """Smith normal form with transforms and their inverses: U @ m @ V == D,
    by unimodular row and column operations.

    Total on integer matrices (including empty shapes) and deterministic
    for a fixed input.

    >>> r = smith_normal_form(IntMat([[2, 4], [6, 8]]))
    >>> [r.d.rows[i][i] for i in range(2)]
    [2, 4]
    >>> r.u @ r.uinv == IntMat.identity(2) == r.vinv @ r.v
    True
    """
    nr, nc = m.nrows, m.ncols
    a = [r[:] for r in m.rows]
    u, uinv = _identity_rows(nr), _identity_rows(nr)
    v, vinv = _identity_rows(nc), _identity_rows(nc)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, q):
        # row_i += q * row_j
        for col in range(nc):
            a[i][col] += q * a[j][col]
        for col in range(nr):
            u[i][col] += q * u[j][col]
        for r in uinv:
            r[j] -= q * r[i]

    def row_neg(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_add(i, j, q):
        # col_i += q * col_j
        for r in a:
            r[i] += q * r[j]
        for r in v:
            r[i] += q * r[j]
        for col in range(nc):
            vinv[j][col] -= q * vinv[i][col]

    t = 0
    limit = min(nr, nc)
    while t < limit:
        pos = _pivot(a, t, nr, nc)
        if pos is None:
            break
        i, j = pos
        if i != t:
            row_swap(t, i)
        if j != t:
            col_swap(t, j)
        if a[t][t] < 0:
            row_neg(t)
        # Clear the pivot row and column; restart the pivot hunt whenever a
        # division leaves a remainder (the remainder is strictly smaller).
        dirty = False
        for i in range(t + 1, nr):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                row_add(i, t, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, nc):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                col_add(j, t, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # The pivot must divide every remaining entry.
        offender = None
        p = a[t][t]
        for i in range(t + 1, nr):
            for j in range(t + 1, nc):
                if a[i][j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)
            continue
        t += 1

    # every row was copied from ``m`` or an identity and kept its length
    trusted = IntMat._trusted
    return SnfResult(trusted(u, nr), trusted(a, nc), trusted(v, nc),
                     trusted(uinv, nr), trusted(vinv, nc))


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

class TwoLocalGroup:
    """A finitely generated module over the 2-local integers.

    ``orders`` lists cyclic summands in canonical form: finite orders
    (powers of two) ascending, then zeros for the Z(2) summands.  Labels,
    when given, travel with their summands through canonicalization.

    >>> TwoLocalGroup([4, 2, 0]).render()
    'Z/2 + Z/4 + Z(2)'
    >>> TwoLocalGroup([2, 4]) == TwoLocalGroup([4, 2])
    True
    """

    __slots__ = ("orders", "labels")

    def __init__(self, orders: Sequence[int], labels: Optional[Sequence[str]] = None):
        orders = [int(o) for o in orders]
        for o in orders:
            if o != 0 and not _is_power_of_two(o):
                raise GroupError(f"order {o} is not 0 or a power of two >= 2")
        if labels is not None:
            labels = list(labels)
            if len(labels) != len(orders):
                raise GroupError("labels and orders differ in length")
        idx = canonical_order(orders)
        self.orders = tuple(orders[i] for i in idx)
        self.labels = tuple(labels[i] for i in idx) if labels is not None else None

    @property
    def rank(self) -> int:
        return len(self.orders)

    @property
    def free_rank(self) -> int:
        return sum(1 for o in self.orders if o == 0)

    def torsion_order(self) -> int:
        return prod(o for o in self.orders if o != 0) if self.orders else 1

    def is_trivial(self) -> bool:
        return not self.orders

    def exponent(self) -> int:
        """Smallest e killing the torsion part (1 if torsion free)."""
        return max((o for o in self.orders if o != 0), default=1)

    def label(self, i: int) -> str:
        if self.labels is not None:
            return self.labels[i]
        return f"g{i}"

    def with_labels(self, labels: Sequence[str]) -> "TwoLocalGroup":
        if len(labels) != len(self.orders):
            raise GroupError("labels and orders differ in length")
        g = TwoLocalGroup.__new__(TwoLocalGroup)
        g.orders = self.orders
        g.labels = tuple(labels)
        return g

    def reduce_vector(self, vec: Sequence[int]) -> tuple:
        """Reduce coordinates modulo the summand orders."""
        if len(vec) != self.rank:
            raise GroupError("vector length does not match rank")
        return tuple(x % o if o else x for x, o in zip(vec, self.orders))

    def element_order(self, vec: Sequence[int]) -> int:
        """Order of the element with these coordinates (0 = infinite)."""
        vec = self.reduce_vector(vec)
        n = 1
        for x, o in zip(vec, self.orders):
            if x == 0:
                continue
            if o == 0:
                return 0
            n = max(n, o // gcd(o, x))
        return n

    def render(self) -> str:
        """Canonical textual form, e.g. ``'Z/2 + Z/4 + Z(2)'``."""
        if not self.orders:
            return "0"
        return " + ".join("Z(2)" if o == 0 else f"Z/{o}" for o in self.orders)

    def describe(self) -> str:
        """Rendering with generator labels attached."""
        if not self.orders:
            return "0"
        parts = []
        for i, o in enumerate(self.orders):
            head = "Z(2)" if o == 0 else f"Z/{o}"
            parts.append(f"{head}{{{self.label(i)}}}")
        return " + ".join(parts)

    def __eq__(self, other):
        return isinstance(other, TwoLocalGroup) and self.orders == other.orders

    def __hash__(self):
        return hash(self.orders)

    def __repr__(self):
        return f"TwoLocalGroup({list(self.orders)!r})"


class GroupHom:
    """A homomorphism stored as an integer matrix over the chosen bases.

    Rows are indexed by target generators, columns by source generators.
    A column for a source generator of finite order d must be killed by d
    in the target.  Every hom is checked when it is built, so a hom that
    exists is well defined.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: TwoLocalGroup, target: TwoLocalGroup,
                 matrix: IntMat):
        if matrix.nrows != target.rank or matrix.ncols != source.rank:
            raise GroupError("matrix shape does not match source/target ranks")
        rows = []
        for i in range(matrix.nrows):
            o = target.orders[i]
            rows.append([x % o if o else x for x in matrix.rows[i]])
        self.matrix = IntMat._trusted(rows, matrix.ncols)
        self.source = source
        self.target = target
        for j in range(source.rank):
            d = source.orders[j]
            if d == 0:
                continue
            for i in range(target.rank):
                o = target.orders[i]
                x = self.matrix.rows[i][j] * d
                if (o == 0 and x != 0) or (o != 0 and x % o != 0):
                    raise GroupError(
                        f"incompatible hom: column {j} ({source.label(j)}) "
                        f"of order {d} is not annihilated in the target")

    @classmethod
    def zero(cls, source: TwoLocalGroup, target: TwoLocalGroup) -> "GroupHom":
        return cls(source, target, IntMat.zero(target.rank, source.rank))

    @classmethod
    def identity(cls, g: TwoLocalGroup) -> "GroupHom":
        return cls(g, g, IntMat.identity(g.rank))

    def apply(self, vec: Sequence[int]) -> tuple:
        if len(vec) != self.source.rank:
            raise GroupError("vector length does not match source rank")
        return self.target.reduce_vector(
            [sum(map(operator.mul, row, vec)) for row in self.matrix.rows])

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self after inner (source of self must equal target of inner)."""
        if inner.target.orders != self.source.orders:
            raise GroupError("composition mismatch")
        return GroupHom(inner.source, self.target, self.matrix @ inner.matrix)

    def __repr__(self):
        return f"GroupHom({self.source!r} -> {self.target!r}, {self.matrix.rows!r})"


# ---------------------------------------------------------------------------
# presentation machinery
# ---------------------------------------------------------------------------

def group_from_presentation(n: int, relation_rows: Sequence[Sequence[int]]):
    """Quotient of Z^n by the row lattice of ``relation_rows``, 2-localized.

    Returns (group, proj, sect): ``proj`` (rank x n) maps old coordinates
    to canonical quotient coordinates, ``sect`` (n x rank) lifts canonical
    generators; proj @ sect == identity exactly.  Odd parts of invariant
    factors are units 2-locally and are dropped.
    """
    rel = IntMat(list(relation_rows), n)
    snf = smith_normal_form(rel)
    d, vinv = snf.d, snf.vinv
    # y = V^T x diagonalizes the relation lattice: x in L  iff  d_i | y_i.
    vt = snf.v.transpose()
    diag = [d.rows[i][i] for i in range(min(d.nrows, d.ncols))]
    orders = []
    proj_rows = []
    sect_rows = []  # row i of vinv lifts the generator with coordinate y_i
    for i in range(n):
        di = diag[i] if i < len(diag) else 0
        o = abs(strip_odd(di)) if di else 0
        if o == 1:
            continue  # odd-order summand, trivial 2-locally
        orders.append(o)
        proj_rows.append(vt.rows[i])
        sect_rows.append(vinv.rows[i])
    group = TwoLocalGroup(orders)
    idx = canonical_order(orders)
    proj_rows = [proj_rows[i] for i in idx]
    sect_rows = [sect_rows[i] for i in idx]
    reduced = []
    for i in range(group.rank):
        o = group.orders[i]
        reduced.append([x % o if o else x for x in proj_rows[i]])
    proj = IntMat(reduced, n)
    sect = IntMat([[sect_rows[j][i] for j in range(group.rank)]
                   for i in range(n)], group.rank)
    return group, proj, sect


def presentation_rows(g: TwoLocalGroup) -> list:
    rows = []
    for i, o in enumerate(g.orders):
        if o:
            row = [0] * g.rank
            row[i] = o
            rows.append(row)
    return rows


def cokernel(h: GroupHom):
    """Quotient of the target by the image, with the projection hom.

    >>> zz = TwoLocalGroup([0])
    >>> g, p = cokernel(GroupHom(zz, zz, IntMat([[8]])))
    >>> g.render()
    'Z/8'
    """
    n = h.target.rank
    rows = presentation_rows(h.target)
    for j in range(h.source.rank):
        rows.append(h.matrix.col(j))
    group, proj, _ = group_from_presentation(n, rows)
    return group, GroupHom(h.target, group, proj)


def kernel(h: GroupHom):
    """Subgroup of the source mapping to zero, with its inclusion hom."""
    ns, nt = h.source.rank, h.target.rank
    # Solve M x + T y = 0 where T carries the finite target orders.
    finite_t = [i for i in range(nt) if h.target.orders[i] != 0]
    ncols = ns + len(finite_t)
    rows = []
    for i in range(nt):
        row = list(h.matrix.rows[i])
        for ti in finite_t:
            row.append(h.target.orders[ti] if ti == i else 0)
        rows.append(row)
    sys = IntMat(rows, ncols) if rows else IntMat([], ncols)
    snf = smith_normal_form(sys)
    d, v = snf.d, snf.v
    srank = sum(1 for i in range(min(d.nrows, d.ncols)) if d.rows[i][i] != 0)
    # Solution lattice of the system = span of the last ncols-srank columns
    # of V; its x-parts generate the preimage lattice K'.
    gens = [[v.rows[i][j] for j in range(srank, ncols)] for i in range(ns)]
    bred = _column_basis(IntMat(gens, ncols - srank))
    k = bred.ncols
    # Relations: source order vectors written in the K' basis.
    rel_rows = []
    for i, o in enumerate(h.source.orders):
        if not o:
            continue
        target_vec = [o if i == r else 0 for r in range(ns)]
        rel_rows.append(_solve_in_lattice(bred, target_vec))
    group, _, sect = group_from_presentation(k, rel_rows)
    incl_src = bred @ sect
    reduced = []
    for i in range(ns):
        o = h.source.orders[i]
        reduced.append([x % o if o else x for x in incl_src.rows[i]])
    return group, GroupHom(group, h.source, IntMat(reduced, group.rank))


def _column_basis(m: IntMat) -> IntMat:
    """A basis (as columns) for the lattice spanned by the columns of m."""
    if m.ncols == 0:
        return m
    snf = smith_normal_form(m)
    d, uinv = snf.d, snf.uinv
    # m = Uinv D Vinv, so the column span equals the span of Uinv D.
    cols = []
    for j in range(min(d.nrows, d.ncols)):
        dj = d.rows[j][j]
        if dj == 0:
            continue
        cols.append([uinv.rows[i][j] * dj for i in range(m.nrows)])
    return IntMat([[c[i] for c in cols] for i in range(m.nrows)], len(cols))


def _solve_in_lattice(basis: IntMat, vec: Sequence[int]) -> list:
    """Coordinates of vec in the lattice spanned by the basis columns,
    which must be independent (``_column_basis`` gives such), so every
    pivot of their Smith form is nonzero."""
    snf = smith_normal_form(basis)  # u @ basis @ v == d
    u, d, v = snf.u, snf.d, snf.v
    w = [sum(u.rows[i][kk] * vec[kk] for kk in range(len(vec)))
         for i in range(basis.nrows)]
    z = []
    for j in range(basis.ncols):
        if w[j] % d.rows[j][j] != 0:
            raise GroupError("vector not in lattice")
        z.append(w[j] // d.rows[j][j])
    if any(w[basis.ncols:]):
        raise GroupError("vector not in lattice")
    return [sum(v.rows[i][j] * z[j] for j in range(basis.ncols))
            for i in range(basis.ncols)]


def quotient_by_elements(g: TwoLocalGroup, rels: Sequence[Sequence[int]]):
    """Quotient of g by the subgroup generated by the given coordinate vectors.

    Each vector's integer content is stripped of its odd part first (an odd
    unit times a generator spans the same 2-local cyclic subgroup).
    Returns (group, projection hom).

    >>> g = TwoLocalGroup([0, 2, 2], ["b", "x", "y"])
    >>> g.labels
    ('x', 'y', 'b')
    >>> q, _ = quotient_by_elements(g, [(0, 0, 24)])
    >>> q.render()
    'Z/2 + Z/2 + Z/8'
    """
    rows = presentation_rows(g)
    for v in rels:
        if len(v) != g.rank:
            raise GroupError("relation length does not match rank")
        content = 0
        for x in v:
            content = gcd(content, x)
        if content > 1:
            two = abs(strip_odd(content))
            v = [x // content * two for x in v]
        rows.append(list(v))
    group, proj, _ = group_from_presentation(g.rank, rows)
    return group, GroupHom(g, group, proj)


@dataclass(frozen=True)
class LiftCertificate:
    """Witness that a quotient generator lifts with a known order.

    ``relation`` (optional) gives the sub element equal to
    (quot order) * lift as coordinates in the sub; a nonzero relation
    means the extension is not split along this generator.
    """
    quot_index: int
    lift_order: int
    lift_label: str = ""
    relation: Optional[tuple] = None


@dataclass(frozen=True)
class ExtensionProblem:
    sub: TwoLocalGroup
    quot: TwoLocalGroup
    certificates: tuple


def solve_extension(p: ExtensionProblem):
    """Resolve 0 -> sub -> E -> quot -> 0 from lift certificates.

    E is presented by the sub generators plus one lift per quotient
    summand, with (quot order) * lift = relation (zero when the
    certificate gives none).  Returns (group, chart): ``chart`` maps
    (sub coords ++ lift coords) to E's canonical coordinates.  Each
    certificate's claimed lift order is checked against the presented
    group, a relation on the lift of a generator of order 0 (Z(2)) is
    refused, and a quotient generator without a certificate raises
    ExtensionUnresolved: the solver never guesses a middle group.  When
    the chart is a permutation, as for every split extension, E's
    summands carry the sub labels and the lift labels it permutes;
    otherwise they are positional.

    >>> sub = TwoLocalGroup([2, 0], ["u", "b"])
    >>> quot = TwoLocalGroup([2], ["eta"])
    >>> split = LiftCertificate(0, lift_order=2, lift_label="l")
    >>> solve_extension(ExtensionProblem(sub, quot, (split,)))[0].describe()
    'Z/2{u} + Z/2{l} + Z(2){b}'
    >>> twisted = LiftCertificate(0, 4, "l", relation=(1, 0))  # 2*l = u
    >>> solve_extension(ExtensionProblem(sub, quot, (twisted,)))[0].describe()
    'Z/4{g0} + Z(2){g1}'
    """
    ns, nq = p.sub.rank, p.quot.rank
    by_index = {c.quot_index: c for c in p.certificates}
    missing = [p.quot.label(i) for i in range(nq) if i not in by_index]
    if missing:
        raise ExtensionUnresolved(
            "extension unresolved: no lift certificate for "
            + ", ".join(missing))
    rows = [row + [0] * nq for row in presentation_rows(p.sub)]
    for i in range(nq):
        rel = by_index[i].relation or (0,) * ns
        if len(rel) != ns:
            raise GroupError("certificate relation length mismatch")
        if any(rel) and not p.quot.orders[i]:
            # 0 * lift = relation would kill the relation, not extend
            raise GroupError(f"certificate for {p.quot.label(i)} gives a "
                             "relation, but its order is 0")
        row = [-x for x in rel] + [0] * nq
        row[ns + i] = p.quot.orders[i]
        rows.append(row)
    n = ns + nq
    group, proj, _ = group_from_presentation(n, rows)
    for i in range(nq):
        got = group.element_order(proj.col(ns + i))
        if got != by_index[i].lift_order:
            raise GroupError(
                f"certificate for {p.quot.label(i)} claims lift order "
                f"{by_index[i].lift_order} but the presentation gives {got}")
    unit = [0] * (n - 1) + [1]
    hits = [row.index(1) for row in proj.rows if sorted(row) == unit]
    if len(hits) == n:
        # a permutation: order tied summands as the given coordinates
        names = [p.sub.label(i) for i in range(ns)] + [
            by_index[i].lift_label or f"lift({p.quot.label(i)})"
            for i in range(nq)]
        idx = sorted(range(n), key=lambda i: (group.orders[i] == 0,
                                              group.orders[i], hits[i]))
        proj = IntMat([proj.rows[i] for i in idx], n)
        group = group.with_labels([names[hits[i]] for i in idx])
    return group, GroupHom(TwoLocalGroup([0] * n), group, proj)
