"""Divisor polytopes in H-representation, all arithmetic exact.

P(D) = {m : <m, u_rho> >= -a_rho for every ray}.  Every polytope over one
fan shares that fan's normals, so boundedness is decided once per normal
set.  Vertices are the feasible solutions of the inequality triples, by
Cramer's rule.  Lattice points come from integer scans over the ranges of
the projections that Fourier-Motzkin elimination gives, and volumes from
pyramids with a vertex as apex over fan-triangulated facets.  Triple
intersection numbers contract the intersection matrix that
``divisors.intersection_matrix`` reads off the walls.  Faces of P(D) and
their interior lattice points, counted by a strict-inequality scan, are
the independent check of the boundary genera that ``classify`` reads off
that matrix.
``idp_check`` names the first point of P(E+E') that is no sum of points
of P(E) and P(E'), or None.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import combinations
from operator import index
from typing import Iterator, NamedTuple, Sequence

from .divisors import TDivisor, intersection_matrix, is_nef
from .fans import FAN_CACHE_SIZE, Fan
from .intlin import cone_rays, solve_3x3

Vec3 = tuple[int, int, int]
QVec3 = tuple[Fraction, Fraction, Fraction]

LATTICE_SCAN_GUARD = 10**6
# Vertex sets are one per polytope and rarely asked for twice outside a
# face scan, so the cache stays small.
VERTICES_CACHE_SIZE = 1024


class UnboundedPolytopeError(ValueError):
    """The inequality system has a nonzero recession cone."""


class EnumerationGuardError(RuntimeError):
    """A lattice scan would exceed the candidate budget."""


class HPolytope(NamedTuple):
    """Intersection of half-spaces <m, normal_i> >= rhs_i."""

    normals: tuple[Vec3, ...]
    rhs: tuple[int, ...]

    def contains(self, m: Sequence) -> bool:
        return all(
            n[0] * m[0] + n[1] * m[1] + n[2] * m[2] >= r for n, r in zip(self.normals, self.rhs)
        )


def polytope_of(d: TDivisor) -> HPolytope:
    """H-representation of P(D), one inequality per ray in ray order."""
    return HPolytope(tuple(d.fan.rays), tuple(-c for c in d.coeffs))


def offset_polytope(fan: Fan, rhs: Sequence[int]) -> HPolytope:
    """{m : <m, u_rho> >= rhs_rho}; a non-integer offset, or other than
    one per ray, is a ValueError."""
    try:
        offsets = tuple(map(index, rhs))
    except TypeError:
        raise ValueError("polytope offsets are integers") from None
    if len(offsets) != fan.nrays:
        raise ValueError(f"{len(offsets)} polytope offsets given for {fan.nrays} rays")
    return HPolytope(tuple(fan.rays), offsets)


@lru_cache(maxsize=FAN_CACHE_SIZE)
def _bounded(normals: tuple[Vec3, ...]) -> bool:
    """Whether {<m, n_i> >= r_i} is bounded, which depends on the normals only.

    The system is bounded iff its recession cone {<m, n_i> >= 0} is {0},
    iff some normal triple is nonsingular and that cone has no extremal ray.
    """
    spanning = any(_dot(a, _cross(b, c)) for a, b, c in combinations(normals, 3))
    return spanning and next(cone_rays(normals), None) is None


def _cross(u, v) -> Vec3:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


@lru_cache(maxsize=VERTICES_CACHE_SIZE)
def vertices(p: HPolytope) -> tuple:
    """Exact rational vertex set, sorted; raises on unbounded input.

    Each nonsingular inequality triple is tight at one point, solved by
    Cramer's rule and kept when it satisfies every inequality.  Coordinates
    are plain ints whenever the vertex is integral (always the case for nef
    divisors on a smooth fan) and Fractions otherwise.
    """
    if not _bounded(p.normals):
        raise UnboundedPolytopeError("inequality system is unbounded")
    normals, rhs = p.normals, p.rhs
    seen = set()
    for i, j, k in combinations(range(len(normals)), 3):
        sol = solve_3x3((normals[i], normals[j], normals[k]), (rhs[i], rhs[j], rhs[k]))
        if sol is None:
            continue
        (x, y, z), den = sol
        # Feasibility of (x, y, z) / den, cross-multiplied by den > 0.
        if any(n[0] * x + n[1] * y + n[2] * z < r * den for n, r in zip(normals, rhs)):
            continue
        if x % den == 0 and y % den == 0 and z % den == 0:
            seen.add((x // den, y // den, z // den))
        else:
            seen.add((Fraction(x, den), Fraction(y, den), Fraction(z, den)))
    return tuple(sorted(seen))


def dimension(p: HPolytope) -> int:
    """Dimension of the affine hull of the vertex set; -1 when empty."""
    return _affine_dim(vertices(p))


def _eliminate(cons: list[tuple]) -> list[tuple]:
    """Fourier-Motzkin: rows (c_1, ..., c_k, r), meaning sum c_i x_i >= r,
    of the projection that drops x_k.  Rows free of x_k are kept, and each
    pair of a lower (c_k > 0) and an upper (c_k < 0) bound on x_k gives the
    positive combination that cancels x_k.  More pairs than
    LATTICE_SCAN_GUARD are refused before any is formed."""
    lower = [c for c in cons if c[-2] > 0]
    upper = [c for c in cons if c[-2] < 0]
    if len(lower) * len(upper) > LATTICE_SCAN_GUARD:
        raise EnumerationGuardError(
            f"{len(lower)} x {len(upper)} elimination pairs exceed the budget of {LATTICE_SCAN_GUARD}"
        )
    return [(*c[:-2], c[-1]) for c in cons if c[-2] == 0] + [
        tuple(-bk * x + ak * y for x, y in zip((*a, ar), (*b, br)))
        for *a, ak, ar in lower
        for *b, bk, br in upper
    ]


def lattice_points(p: HPolytope) -> tuple[Vec3, ...]:
    """All integer points of a bounded polytope, sorted (see ``_scan``)."""
    return tuple(_scan(p))


def has_lattice_point(p: HPolytope) -> bool:
    """Whether a bounded polytope holds an integer point; the scan stops at
    the first one."""
    return next(_scan(p), None) is not None


def _scan(p: HPolytope) -> Iterator[Vec3]:
    """The integer points of a bounded polytope in lexicographic order.

    Eliminating z projects P to the (x, y)-plane, and eliminating y from
    that projects it to the x-axis.  The scan walks x over that interval, y
    over the slice's interval in the plane projection, and z over the one
    the constraints leave at (x, y), so work is proportional to the slices
    and the output.  Unbounded input is rejected first: P is empty iff its
    x-projection is, and otherwise every interval read is bounded, so rows
    bounding it from both sides exist, while rows free of the coordinate
    read belong to the projection before and hold throughout the scan.
    Each (x, y) row and each point costs one unit of LATTICE_SCAN_GUARD,
    rows charged before they are scanned, so a thin polytope whose rows
    hold no point is refused as early as one full of points; an
    elimination step of more row pairs than that budget is refused before
    it is formed.
    """
    if not _bounded(p.normals):
        raise UnboundedPolytopeError("inequality system is unbounded")
    cons = [(*n, r) for n, r in zip(p.normals, p.rhs)]
    plane = _eliminate(cons)
    line = _eliminate(plane)
    if any(r > 0 for nx, r in line if nx == 0):
        return
    x_lo = max(-(-r // nx) for nx, r in line if nx > 0)
    x_hi = min(r // nx for nx, r in line if nx < 0)
    if x_hi - x_lo + 1 > LATTICE_SCAN_GUARD:
        raise EnumerationGuardError("x-range exceeds the scan budget")
    budget = LATTICE_SCAN_GUARD
    # A row bounds y (a plane row) or z (a row of P) below where that
    # coefficient is positive and above where it is negative.
    below = [c for c in cons if c[2] > 0]
    above = [c for c in cons if c[2] < 0]
    for x in range(x_lo, x_hi + 1):
        y_lo = max(-((nx * x - r) // ny) for nx, ny, r in plane if ny > 0)
        y_hi = min((r - nx * x) // ny for nx, ny, r in plane if ny < 0)
        budget -= max(y_hi - y_lo + 1, 0)
        if budget < 0:
            raise EnumerationGuardError("lattice scan exceeds the row and point budget")
        for y in range(y_lo, y_hi + 1):
            z_lo = max([-((nx * x + ny * y - r) // nz) for nx, ny, nz, r in below])
            z_hi = min([(r - nx * x - ny * y) // nz for nx, ny, nz, r in above])
            if z_lo > z_hi:
                continue
            budget -= z_hi - z_lo + 1
            if budget < 0:
                raise EnumerationGuardError("lattice scan exceeds the row and point budget")
            for z in range(z_lo, z_hi + 1):
                yield (x, y, z)


def idp_check(e: TDivisor, eprime: TDivisor) -> Vec3 | None:
    """The first lattice point of P(E+E') that is not a sum of points of
    P(E) and P(E'), or None when every point splits.  Inputs must be nef;
    more point pairs than the lattice scan budget are refused before any
    sum is formed."""
    if not (is_nef(e) and is_nef(eprime)):
        raise ValueError("the decomposition test applies to nef pairs")
    pts_e = lattice_points(polytope_of(e))
    pts_ep = lattice_points(polytope_of(eprime))
    if len(pts_e) * len(pts_ep) > LATTICE_SCAN_GUARD:
        raise EnumerationGuardError(
            f"{len(pts_e)} x {len(pts_ep)} point sums exceed the budget of {LATTICE_SCAN_GUARD}"
        )
    target = lattice_points(polytope_of(e + eprime))
    sums = {(a[0] + b[0], a[1] + b[1], a[2] + b[2]) for a in pts_e for b in pts_ep}
    return next((t for t in target if t not in sums), None)


# Faces.


class Face2(NamedTuple):
    """Face of P(D) where one ray attains its minimum."""

    polytope: HPolytope
    ray_index: int
    vertices: tuple[QVec3, ...]
    dim: int


def _dot(a, b) -> Fraction:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def min_face(d: TDivisor, ray_index: int) -> Face2:
    """Face of P(D) on which the given ray's pairing attains -a_rho.

    For nef divisors the minimum of <., u_rho> over P(D) is exactly -a_rho,
    so the face is the subset where that inequality is tight.
    """
    p = polytope_of(d)
    normal = p.normals[ray_index]
    rhs = p.rhs[ray_index]
    face_verts = tuple(v for v in vertices(p) if _dot(v, normal) == rhs)
    return Face2(p, ray_index, face_verts, _affine_dim(face_verts))


def _affine_dim(points: Sequence) -> int:
    """Affine dimension via cross products and dot products, no division."""
    if not points:
        return -1
    diffs = [_sub(v, points[0]) for v in points[1:]]
    for d1 in diffs:
        if any(d1):
            break
    else:
        return 0
    for d in diffs:
        c = _cross(d1, d)
        if any(c):
            break
    else:
        return 1
    for d in diffs:
        if _dot(c, d):
            return 3
    return 2


def interior_lattice_count(face: Face2) -> int:
    """Lattice points of the face with every other inequality strict.

    Points of faces of dimension 0 or 1 are tight on a second inequality,
    and so are all points of a flat polytope, so those count zero.
    """
    p = face.polytope
    count = 0
    for m in lattice_points(p):
        if _dot(m, p.normals[face.ray_index]) != p.rhs[face.ray_index]:
            continue
        strict = True
        for i, (n, r) in enumerate(zip(p.normals, p.rhs)):
            if i == face.ray_index:
                continue
            if _dot(m, n) <= r:
                # Tight or violated elsewhere: not interior.  Opposite or
                # repeated normals tight on the whole face land here too.
                strict = False
                break
        if strict:
            count += 1
    return count


# Volumes and intersection numbers.


def volume(p: HPolytope) -> Fraction:
    """Euclidean volume as a sum of pyramids over triangulated facets.

    Any point of P serves as the apex, so it is the first vertex.  A facet
    is fan-triangulated from its first vertex w0: seen from a vertex of a
    convex polygon the other vertices span less than a half-turn, so the
    sign of <normal, (a - w0) x (b - w0)> orders them totally.  Three
    vertices on the supporting plane of an inequality span a facet; a
    normal listed twice gives the same facet, which is counted once.
    """
    verts = vertices(p)
    if _affine_dim(verts) < 3:
        return Fraction(0)
    apex = verts[0]
    total = Fraction(0)
    seen_facets: set[frozenset] = set()
    for normal, rhs in zip(p.normals, p.rhs):
        fverts = [v for v in verts if _dot(v, normal) == rhs]
        key = frozenset(fverts)
        if len(fverts) < 3 or key in seen_facets:
            continue
        seen_facets.add(key)
        w0, rest = fverts[0], fverts[1:]
        rest.sort(key=cmp_to_key(
            lambda a, b: -1 if _dot(normal, _cross(_sub(a, w0), _sub(b, w0))) > 0 else 1
        ))
        for a, b in zip(rest, rest[1:]):
            total += abs(_dot(_sub(w0, apex), _cross(_sub(a, apex), _sub(b, apex))))
    return total / 6


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


@lru_cache(maxsize=FAN_CACHE_SIZE)
def intersection_tensor(fan: Fan) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Triple products D_a.D_b.D_c of the ray divisors, indexed [a][b][c]:
    a dense view stacking the intersection matrix of each D_a."""
    n = fan.nrays
    return tuple(intersection_matrix(TDivisor(fan, tuple(int(i == a) for i in range(n))))
                 for a in range(n))


def triple_intersection(d1: TDivisor, d2: TDivisor, d3: TDivisor) -> int:
    """Triple intersection number of three divisors: the coefficients of
    d2 and d3 contracted with the intersection matrix of d1."""
    if d2.fan.rays != d1.fan.rays or d3.fan.rays != d1.fan.rays:
        raise ValueError("arguments live on different fans")
    matrix = intersection_matrix(d1)
    return sum(
        y * sum(z * m for z, m in zip(d3.coeffs, row))
        for y, row in zip(d2.coeffs, matrix)
        if y
    )


def polytope_json(p: HPolytope) -> dict:
    verts = vertices(p)
    return {
        "normals": [list(n) for n in p.normals],
        "offsets": list(p.rhs),
        "vertices": [[str(c) if c.denominator != 1 else int(c) for c in v] for v in verts],
        "lattice_points": [list(m) for m in lattice_points(p)],
        "dimension": dimension(p),
    }
