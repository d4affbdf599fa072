"""Divisor polytopes in H-representation, all arithmetic exact.

P(D) = {m : <m, u_rho> >= -a_rho for every ray}.  Every polytope over one
fan shares that fan's normals, so each normal set is compiled once: its
boundedness and the adjugate of every nonsingular inequality triple.  The
vertices of a polytope are then integer dot products of its right-hand
sides with those adjugates, filtered by the full feasibility test.  Lattice
points come from sliced integer scans, and volumes from pyramids with a
vertex as apex over fan-triangulated facets.  Triple intersection numbers
come from the cones of the fan alone, as one cached integer tensor over
the ray divisors.  Faces of P(D) and their interior lattice points,
counted by a strict-inequality scan, are the independent check of the
boundary genera that ``classify`` reads off that tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import combinations
from typing import Sequence

from .divisors import TDivisor, divisor_from_class, is_nef
from .fans import Fan
from .intlin import solve_3x3

Vec3 = tuple[int, int, int]
QVec3 = tuple[Fraction, Fraction, Fraction]

LATTICE_SCAN_GUARD = 10**6
# Normal sets are one per fan; vertex sets one per polytope and rarely
# asked for twice outside a face scan, so both caches stay small.
COMPILED_CACHE_SIZE = 256
VERTICES_CACHE_SIZE = 1024


class UnboundedPolytopeError(ValueError):
    """The inequality system has a nonzero recession cone."""


class EnumerationGuardError(RuntimeError):
    """A lattice scan would exceed the candidate budget."""


@dataclass(frozen=True)
class HPolytope:
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
    return HPolytope(tuple(fan.rays), tuple(int(x) for x in rhs))


@lru_cache(maxsize=COMPILED_CACHE_SIZE)
def _compile(normals: tuple[Vec3, ...]) -> tuple[bool, tuple]:
    """Boundedness of the normal set and its solved inequality triples.

    The system is bounded iff its recession cone {<m, n_i> >= 0} is {0}: a
    nonzero recession vector exists iff no triple of normals is
    nonsingular (they lie in a plane) or some cross product of two normals,
    up to sign, pairs nonnegatively with every normal.  Each nonsingular
    triple (i, j, k) is kept with the columns of its adjugate, the cross
    products n_j x n_k, n_k x n_i, n_i x n_j, and its determinant, signs
    normalised so the determinant is positive: the point where the three
    inequalities are tight is (b_i c_i + b_j c_j + b_k c_k) / det.
    """
    triples = []
    for i, j, k in combinations(range(len(normals)), 3):
        ci = _cross(normals[j], normals[k])
        cj = _cross(normals[k], normals[i])
        ck = _cross(normals[i], normals[j])
        det = _dot(normals[i], ci)
        if det < 0:
            ci, cj, ck, det = _neg(ci), _neg(cj), _neg(ck), -det
        if det:
            triples.append((i, j, k, ci, cj, ck, det))
    bounded = bool(triples) and not any(
        all(_dot(n, w) >= 0 for n in normals)
        for u, v in combinations(normals, 2)
        for c in [_cross(u, v)]
        if c != (0, 0, 0)
        for w in (c, _neg(c))
    )
    return bounded, tuple(triples)


def _cross(u, v) -> Vec3:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _neg(u) -> Vec3:
    return (-u[0], -u[1], -u[2])


@lru_cache(maxsize=VERTICES_CACHE_SIZE)
def vertices(p: HPolytope) -> tuple:
    """Exact rational vertex set, sorted; raises on unbounded input.

    Every nonsingular triple of the compiled normal set is tight at one
    candidate point, kept when it satisfies every inequality.  Coordinates
    are plain ints whenever the vertex is integral (always the case for nef
    divisors on a smooth fan) and Fractions otherwise.
    """
    bounded, triples = _compile(p.normals)
    if not bounded:
        raise UnboundedPolytopeError("inequality system is unbounded")
    normals, rhs = p.normals, p.rhs
    seen = set()
    for i, j, k, ci, cj, ck, den in triples:
        bi, bj, bk = rhs[i], rhs[j], rhs[k]
        x = bi * ci[0] + bj * cj[0] + bk * ck[0]
        y = bi * ci[1] + bj * cj[1] + bk * ck[1]
        z = bi * ci[2] + bj * cj[2] + bk * ck[2]
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
    verts = vertices(p)
    return _affine_dim(verts)


def _ceil_frac(num: int, den: int) -> int:
    return -((-num) // den)


def _floor_frac(num: int, den: int) -> int:
    return num // den


def lattice_points(p: HPolytope) -> tuple[Vec3, ...]:
    """All integer points of a bounded polytope, sorted.

    The scan walks x over its exact range, bounds y per x-slice from the
    slice's 2-d vertices, then reads off the z-interval from the remaining
    single-variable constraints, so work is proportional to the number of
    slices and the output.
    """
    verts = vertices(p)
    if not verts:
        return ()
    xs = [v[0] for v in verts]
    x_lo, x_hi = _ceil_frac(min(xs).numerator, min(xs).denominator), _floor_frac(
        max(xs).numerator, max(xs).denominator
    )
    if x_hi - x_lo + 1 > LATTICE_SCAN_GUARD:
        raise EnumerationGuardError("x-range exceeds the scan budget")
    out: list[Vec3] = []
    budget = LATTICE_SCAN_GUARD
    for x in range(x_lo, x_hi + 1):
        # Constraints restricted to the slice: ny*y + nz*z >= r - nx*x.
        slice_cons = [(n[1], n[2], r - n[0] * x) for n, r in zip(p.normals, p.rhs)]
        feasible = True
        for ny, nz, r in slice_cons:
            if ny == 0 and nz == 0 and r > 0:
                feasible = False
                break
        if not feasible:
            continue
        y_lo = y_hi = None
        for (ay, az, ar), (by, bz, br) in combinations(slice_cons, 2):
            det = ay * bz - az * by
            if det == 0:
                continue
            # Slice vertex (ynum/det, znum/det); feasibility and bounds by
            # cross-multiplied integer comparisons only.
            ynum = ar * bz - az * br
            znum = ay * br - ar * by
            if det < 0:
                det, ynum, znum = -det, -ynum, -znum
            if all(cy * ynum + cz * znum >= cr * det for cy, cz, cr in slice_cons):
                lo = _ceil_frac(ynum, det)
                hi = _floor_frac(ynum, det)
                y_lo = lo if y_lo is None else min(y_lo, lo)
                y_hi = hi if y_hi is None else max(y_hi, hi)
        # Unbounded slices cannot occur for bounded p; empty ones can.
        if y_lo is None:
            continue
        for y in range(y_lo, y_hi + 1):
            z_lo, z_hi = None, None
            ok = True
            for ny, nz, r in slice_cons:
                c = r - ny * y
                if nz == 0:
                    if c > 0:
                        ok = False
                        break
                elif nz > 0:
                    bound = _ceil_frac(c, nz)
                    z_lo = bound if z_lo is None else max(z_lo, bound)
                else:
                    bound = _floor_frac(c, nz)
                    z_hi = bound if z_hi is None else min(z_hi, bound)
            if not ok or z_lo is None or z_hi is None or z_lo > z_hi:
                continue
            budget -= z_hi - z_lo + 1
            if budget < 0:
                raise EnumerationGuardError("lattice scan exceeds the point budget")
            for z in range(z_lo, z_hi + 1):
                out.append((x, y, z))
    return tuple(sorted(out))


@dataclass(frozen=True)
class IdpResult:
    ok: bool
    witness: Vec3 | None = None


def idp_check(e: TDivisor, eprime: TDivisor) -> IdpResult:
    """Does every lattice point of P(E+E') split as a sum of points of
    P(E) and P(E')?  Inputs must be nef; the first uncovered point is the
    witness on failure.  More point pairs than the lattice scan budget are
    refused before any sum is formed."""
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
    for t in target:
        if t not in sums:
            return IdpResult(False, t)
    return IdpResult(True)


# Faces.


@dataclass(frozen=True)
class Face2:
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


def minkowski_sum_polytope(p1: HPolytope, p2: HPolytope) -> HPolytope:
    """Minkowski sum computed from the V-representations.

    Both polytopes must share the same normal list (they come from divisors
    on one fan); the sum's support values are the minima of the pairwise
    vertex sums, which is exact because every facet normal of the sum is
    again one of the shared normals.
    """
    if p1.normals != p2.normals:
        raise ValueError("polytope normal lists differ")
    v1, v2 = vertices(p1), vertices(p2)
    if not v1 or not v2:
        raise ValueError("empty polytope in Minkowski sum")
    sums = [(a[0] + b[0], a[1] + b[1], a[2] + b[2]) for a in v1 for b in v2]
    rhs = []
    for nrm in p1.normals:
        rhs.append(min(_dot(s, nrm) for s in sums))
    if any(x.denominator != 1 for x in rhs):
        raise ValueError("non-integral support values")
    return HPolytope(p1.normals, tuple(int(x) for x in rhs))


@lru_cache(maxsize=None)
def intersection_tensor(fan: Fan) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Triple products D_a.D_b.D_c of the ray divisors of a smooth complete
    fan, indexed [a][b][c].

    Three distinct rays meet in one point when they span a maximal cone and
    not at all otherwise.  A repeated factor D_a is traded for a linearly
    equivalent sum: with sigma a maximal cone holding the other two factors
    and m the dual vector of u_a in sigma (integral, sigma being
    unimodular), div(chi^m) = D_a + sum(<m, u_rho> D_rho, rho outside sigma)
    is principal, and each D_rho with rho outside sigma is distinct from the
    other factors (Cox-Little-Schenck, Toric Varieties).
    """
    cones = {frozenset(c) for c in fan.max_cones}

    @lru_cache(maxsize=None)
    def product(key: tuple[int, int, int]) -> int:
        if len(set(key)) == 3:
            return 1 if frozenset(key) in cones else 0
        a = key[1]  # sorted with a repeat: the middle index repeats
        others = list(key)
        others.remove(a)
        sigma = next((c for c in fan.max_cones if set(others) <= set(c)), None)
        if sigma is None:
            return 0
        m, det = solve_3x3([fan.rays[i] for i in sigma], [int(i == a) for i in sigma])
        if det != 1:
            raise ValueError(f"cone {sigma} is not unimodular")
        return -sum(
            _dot(m, u) * product(tuple(sorted((rho, *others))))
            for rho, u in enumerate(fan.rays)
            if rho not in sigma
        )

    n = range(fan.nrays)
    return tuple(
        tuple(tuple(product(tuple(sorted((a, b, c)))) for c in n) for b in n) for a in n
    )


def intersection_matrix(d: TDivisor) -> tuple[tuple[int, ...], ...]:
    """The degrees D.D_a.D_b of D on the pairs of ray divisors, indexed [a][b]."""
    tensor = intersection_tensor(d.fan)
    n = range(d.fan.nrays)
    rows = [[0] * d.fan.nrays for _ in n]
    for c, x in enumerate(d.coeffs):
        if x:
            for a in n:
                row, t = rows[a], tensor[c][a]
                for b in n:
                    row[b] += x * t[b]
    return tuple(tuple(row) for row in rows)


def triple_intersection(d1, d2, d3) -> int:
    """Triple intersection number of three divisors or classes.

    A class is represented by its divisor on the basis rays; the ray
    coefficients are contracted with the fan's intersection tensor.
    """
    divs = [d if isinstance(d, TDivisor) else divisor_from_class(d) for d in (d1, d2, d3)]
    if any(d.fan.rays != divs[0].fan.rays for d in divs[1:]):
        raise ValueError("arguments live on different fans")
    matrix = intersection_matrix(divs[0])
    return sum(
        y * sum(z * m for z, m in zip(divs[2].coeffs, row))
        for y, row in zip(divs[1].coeffs, matrix)
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
