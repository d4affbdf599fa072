"""Exact integer and rational linear algebra on small dense matrices.

Everything here works with arbitrary-precision Python integers and
``fractions.Fraction``; no floating point is used anywhere.  Matrices at the
scale of this package are tiny (at most a handful of rows and columns), so
the algorithms favour clarity and exactness over asymptotics.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Sequence

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

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vec:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def col(self, j: int) -> Vec:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def mul_vec(self, v: Sequence[int]) -> Vec:
        if self.cols != len(v):
            raise ValueError("shape mismatch")
        return tuple(sum(self.row(i)[k] * v[k] for k in range(self.cols)) for i in range(self.rows))


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


def cone_rays(forms: Sequence[Vec]) -> Iterator[Vec]:
    """The primitive extremal rays of {x : <f, x> >= 0 for every form f} in
    Z^2 or Z^3, possibly repeated.  Each lies on two independent forms (in
    Z^2 on one), so it is the cross product of two distinct forms, or of
    (f, 0) with (0, 0, 1), with the sign that is >= 0 on every form; a
    candidate is dropped at its first form of each sign.  Forms in one
    plane yield its normal, a line in the set; parallel forms yield nothing.
    """
    planar = bool(forms) and len(forms[0]) == 2
    space = [(*f, 0) for f in forms] if planar else forms
    pairs = ((f, (0, 0, 1)) for f in space) if planar else combinations(space, 2)
    for (a, b, c), (x, y, z) in pairs:
        u, v, w = b * z - c * y, c * x - a * z, a * y - b * x
        if not (u or v or w):
            continue
        sign = 0
        for p, q, s in space:
            degree = p * u + q * v + s * w
            if degree * sign < 0:
                break
            sign = sign or degree
        else:
            g = gcd(u, v, w) if sign >= 0 else -gcd(u, v, w)
            yield (u // g, v // g, w // g)[:3 - planar]
