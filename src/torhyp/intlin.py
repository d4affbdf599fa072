"""Exact integer and rational linear algebra on small dense matrices.

Everything here works with arbitrary-precision Python integers and
``fractions.Fraction``; no floating point is used anywhere.  Matrices at the
scale of this package are tiny (at most a handful of rows and columns), so
the algorithms favour clarity and exactness over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

Vec = tuple[int, ...]


class UnderdeterminedSystemError(ValueError):
    """The linear system has more than one solution."""


class _MatFields(NamedTuple):
    rows: int
    cols: int
    entries: tuple[int, ...]


class IntMat(_MatFields):
    """Dense integer matrix, row-major entries.

    Built only through the constructor, which checks the shape (``_make``
    and ``_replace`` would skip the check).
    """

    __slots__ = ()

    def __new__(cls, rows: int, cols: int, entries: tuple[int, ...]) -> "IntMat":
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match shape")
        return tuple.__new__(cls, (rows, cols, entries))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMat":
        rows = [tuple(int(x) for x in r) for r in rows]
        if not rows:
            return cls(0, 0, ())
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, tuple(x for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "IntMat":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vec:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> Vec:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def mul(self, other: "IntMat") -> "IntMat":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            out.append(
                [sum(ri[k] * other[k, j] for k in range(self.cols)) for j in range(other.cols)]
            )
        return IntMat.from_rows(out)

    def mul_vec(self, v: Sequence[int]) -> Vec:
        if self.cols != len(v):
            raise ValueError("shape mismatch")
        return tuple(sum(self.row(i)[k] * v[k] for k in range(self.cols)) for i in range(self.rows))

    def det(self) -> int:
        """Determinant by fraction-free Bareiss elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


class SnfDecomposition(NamedTuple):
    """Smith normal form U*M*V = S with unimodular U, V and divisibility chain."""

    u: IntMat
    s: IntMat
    v: IntMat

    def diagonal(self) -> Vec:
        k = min(self.s.rows, self.s.cols)
        return tuple(self.s[i, i] for i in range(k))


def smith_normal_form(m: IntMat) -> SnfDecomposition:
    """Compute U, S, V with U*M*V = S diagonal and d_i | d_{i+1}.

    Pivots are chosen by minimal absolute value, which keeps entries small at
    the sizes used here.  Once row and column t are clear, a later entry the
    pivot does not divide has its row added to row t, and clearing that row
    again leaves a smaller pivot; so d_t divides every entry left below and
    to the right, and with them every later diagonal entry.  U and V are
    built from elementary operations, so both have determinant +-1.
    """
    a = m.to_rows()
    nr, nc = m.rows, m.cols
    u = IntMat.identity(nr).to_rows()
    v = IntMat.identity(nc).to_rows()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):
        # row[dst] += q * row[src]
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, q):
        for r in a:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nr, nc):
        # Locate the submatrix pivot of minimal absolute value.
        pivot = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        # Kill the rest of row t and column t; repeat until clean and the
        # pivot divides the rest of the submatrix.
        while True:
            dirty = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = -(a[i][t] // a[t][t])
                    add_row(t, i, q)
                    if a[i][t] != 0:  # remainder became the smaller pivot
                        swap_rows(t, i)
                    dirty = True
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = -(a[t][j] // a[t][t])
                    add_col(t, j, q)
                    if a[t][j] != 0:
                        swap_cols(t, j)
                    dirty = True
            if dirty:
                continue
            bad = next(
                (i for i in range(t + 1, nr) for j in range(t + 1, nc) if a[i][j] % a[t][t]), None
            )
            if bad is None:
                break
            add_row(bad, t, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1

    s = IntMat.from_rows(a)
    return SnfDecomposition(IntMat.from_rows(u), s, IntMat.from_rows(v))


def rational_rank(m: IntMat) -> int:
    """Rank over the rationals, by exact Gaussian elimination."""
    rows = [[Fraction(x) for x in m.row(i)] for i in range(m.rows)]
    rank = 0
    col = 0
    while rank < len(rows) and col < m.cols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                f = rows[i][col] / pv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def integer_kernel(m: IntMat) -> list[Vec]:
    """Lattice basis of ker(m) intersected with Z^cols.

    The columns of the Smith transform V indexed past the rank are such a
    basis: m @ (V e_j) = U^-1 (S e_j) = 0 exactly when the diagonal entry
    vanishes or the index exceeds the number of rows.
    """
    snf = smith_normal_form(m)
    diag = snf.diagonal()
    basis = []
    for j in range(m.cols):
        if j >= len(diag) or diag[j] == 0:
            basis.append(snf.v.col(j))
    return basis


def solve_exact(m: IntMat, b: Sequence[int]) -> tuple[Fraction, ...] | None:
    """Unique exact rational solution of m @ x = b.

    Returns None when the system is inconsistent and raises
    UnderdeterminedSystemError when the solution is not unique.  The matrix
    must be square or overdetermined.
    """
    if m.rows < m.cols:
        raise UnderdeterminedSystemError("fewer equations than unknowns")
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    aug = [[Fraction(x) for x in m.row(i)] + [Fraction(b[i])] for i in range(m.rows)]
    n = m.cols
    rank = 0
    pivots = []
    for col in range(n):
        piv = next((i for i in range(rank, len(aug)) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[rank], aug[piv] = aug[piv], aug[rank]
        pv = aug[rank][col]
        aug[rank] = [x / pv for x in aug[rank]]
        for i in range(len(aug)):
            if i != rank and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(aug)):
        if aug[i][n] != 0:
            return None
    if rank < n:
        raise UnderdeterminedSystemError("solution space is positive-dimensional")
    x = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        x[col] = aug[r][n]
    return tuple(x)


def solve_3x3(rows: Sequence[Sequence[int]], b: Sequence[int]) -> tuple[Vec, int] | None:
    """Solve a 3x3 integer system by Cramer's rule.

    Returns (numerators, denominator) with denominator > 0, or None when the
    matrix is singular.  This is the hot path for cone membership and vertex
    enumeration, so it avoids Fraction entirely.
    """
    (a, bb, c), (d, e, f), (g, h, i) = rows
    det = a * (e * i - f * h) - bb * (d * i - f * g) + c * (d * h - e * g)
    if det == 0:
        return None
    b0, b1, b2 = b
    x = b0 * (e * i - f * h) - bb * (b1 * i - f * b2) + c * (b1 * h - e * b2)
    y = a * (b1 * i - f * b2) - b0 * (d * i - f * g) + c * (d * b2 - b1 * g)
    z = a * (e * b2 - b1 * h) - bb * (d * b2 - b1 * g) + b0 * (d * h - e * g)
    if det < 0:
        det, x, y, z = -det, -x, -y, -z
    return (x, y, z), det
