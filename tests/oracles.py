"""Slower independent algorithms kept as test oracles of the package.

``reference_verdict`` derives a verdict the way ``classify.derive_verdict``
did before members were compiled: from the surface divisor's own
intersection matrix (``boundary_genus_profile``, ``positivity_certificate``)
and the nef tests of ``divisors`` on each divisor.  The table lookup has
its own oracle in ``test_classify``.

``smith_normal_form`` and ``integer_kernel`` compute the lattice facts that
the package reads from 3x3 solves, ``minkowski_sum_polytope`` builds
P(D1 + D2) from the vertices of P(D1) and P(D2), and
``pairwise_difference_moves`` embeds the difference of every point pair of
P(E') on its own, as ``section_difference_moves`` did before it embedded
each distinct difference once.  ``all_minimal_nonfaces`` tries ray sets of
every size, or of up to four rays on every fan, where
``fans.minimal_nonfaces`` tries four-ray sets only on a fan of four rays.
``collection_levels`` is Batyrev's nef and ample test on a projective fan,
from the primitive collections and their relations, which
``divisors.is_nef`` and ``is_ample`` used before they read the walls.
``cone_intersection_tensor`` computes every triple product by a recursion
over ray triples through the maximal cones, as the package did before
``divisors.intersection_matrix`` read them off the walls.
``det`` is the Bareiss determinant of any square matrix, for the
Smith-form and unimodularity checks; the package computes its 3x3
determinants inline (``fans._det``).  ``PRINTED_CLASS_MAPS`` holds the
class map B of each case as the paper prints it, which the catalog
stored until ``divisors.picard_basis`` read B off the rays,
``PRINTED_MARKOV`` the printed Markov moves, which the catalog stored
until it kept their characters in Z^3, and ``PRINTED_CANONICAL`` the
printed coordinates of the canonical class, which the catalog stored
until the class was read off K.  ``PRINTED_BLOCKS`` and
``PRINTED_CONFIGS`` hold the parameter conditions of the table blocks and
of the connected-sections configurations as printed, which the catalog
stored as functions until it chose both by the first box that holds, and
``PRINTED_NEF`` the printed nef cone generators, which the catalog stored
until ``divisors.nef_generators`` read them off the walls, and
``PRINTED_EFF`` the printed effective cone generators, which the catalog
stored until ``divisors.eff_generators`` read them off the ray classes.
``PRINTED_EPRIME`` holds each configuration's E' as a function of the
parameters, and ``PRINTED_REQUIRES`` each parameter requirement as a
predicate with its former message; the catalog stored both as functions
beside their printed text until it read the text itself.
``PRINTED_RAYS`` holds the rays of each case and
``PRINTED_GENERAL_301_ROWS`` the parameter-dependent hyperbolic rows of
the general 3.0.1 block, as the functions of the parameters the catalog
stored until it kept rays and thresholds as their printed text.
"""

from functools import lru_cache
from itertools import combinations
from typing import NamedTuple

from torhyp.catalog import HYPERBOLIC, NOT_HYPERBOLIC, OPEN, TableRow, _ge
from torhyp.classify import (
    Verdict,
    applicable_configs,
    boundary_genus_profile,
    positivity_certificate,
    surface_divisor,
    table_lookup,
)
from torhyp.divisors import ample_reference, canonical_divisor, divisor, is_nef
from torhyp.fans import build_family_fan, minimal_nonfaces, primitive_relation
from torhyp.intlin import IntMat, Vec, solve_3x3
from torhyp.polytopes import HPolytope, _dot, lattice_points, offset_polytope, vertices
from torhyp.toric_ideal import DEFAULT_MARKOV_BOUND, section_certificate


# A configuration's certificate does not depend on the cell; kept per E'.
certificate = lru_cache(maxsize=1024)(section_certificate)


def reference_verdict(spec, coeffs, bound: int = DEFAULT_MARKOV_BOUND) -> Verdict:
    fan = build_family_fan(spec)
    table = table_lookup(spec, coeffs)
    d = surface_divisor(fan, coeffs)
    if not any(coeffs):
        return Verdict(NOT_HYPERBOLIC, {"reason": "trivial class"}, table)
    profile = boundary_genus_profile(d)
    if not profile["big"]:
        return Verdict(
            NOT_HYPERBOLIC,
            {"reason": "class not big: genus 0 boundary curve", "boundary": profile},
            table,
        )
    low = low_genus_entry(profile)
    if low is not None:
        return Verdict(
            NOT_HYPERBOLIC,
            {
                "reason": "boundary curve of genus <= 1",
                "ray": low["ray"],
                "face_dim": low["face_dim"],
                "genus": low["interior_count"],
                "boundary": profile,
            },
            table,
        )
    tried: list[dict] = []
    if not is_nef(d + canonical_divisor(fan)):
        return Verdict(OPEN, {"reason": "adjoint class not nef", "boundary": profile}, table)
    h = ample_reference(fan)
    for config in applicable_configs(fan):
        eprime = divisor(fan, config.eprime_coeffs(fan.family.as_dict()))
        e = d - eprime
        record = {"config": config.name}
        if not is_nef(eprime):
            record["skip"] = "E' not nef"
            tried.append(record)
            continue
        if not is_nef(e):
            record["skip"] = "E = D - E' not nef"
            tried.append(record)
            continue
        cert = certificate(eprime, bound)
        record["connected_sections"] = cert.as_json()
        if not cert.connected:
            tried.append(record)
            continue
        pos = positivity_certificate(d, e, h)
        record["positivity"] = pos
        tried.append(record)
        if pos["epsilon"] is not None:
            evidence = {
                "config": config.name,
                "eprime": eprime.label_dict(),
                "connected_sections": cert.as_json(),
                "adjoint_nef": True,
                "positivity": pos,
                "epsilon": pos["epsilon"],
                "boundary": profile,
            }
            return Verdict(HYPERBOLIC, evidence, table)
    return Verdict(OPEN, {"reason": "no derivation applies", "tried": tried}, table)


def low_genus_entry(profile: dict) -> dict | None:
    """The first boundary entry whose face carries a curve of genus at most one."""
    return next(
        (e for e in profile["entries"] if e["carries_curve"] and e["interior_count"] <= 1), None
    )


def det(m: IntMat) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = m.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def identity(n: int) -> IntMat:
    return IntMat(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))


def mat_mul(a: IntMat, b: IntMat) -> IntMat:
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    out = []
    for i in range(a.rows):
        ri = a.row(i)
        out.append([sum(ri[k] * b[k, j] for k in range(a.cols)) for j in range(b.cols)])
    return IntMat.from_rows(out)


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

    At step t the nonzero entry of least absolute value in the submatrix
    of rows and columns t.. becomes the pivot p at (t, t), and row t and
    column t are reduced by p to their nearest remainders, each at most
    |p|/2.  A nonzero remainder is a smaller entry, so the pivot is chosen
    again; when row and column t are clear and p fails to divide an entry
    below and to the right, that entry's row is added to row t, whose
    remainder is again smaller.  So |p| falls at every repeat, the loop
    ends, and every multiplier is a quotient by the least entry, which
    keeps the entries small.  Then d_t divides every entry left, and with
    them every later diagonal entry.  U and V are built from elementary
    operations, so both have determinant +-1.
    """
    a = m.to_rows()
    nr, nc = m.rows, m.cols
    u = identity(nr).to_rows()
    v = identity(nc).to_rows()

    def quotient(x: int, p: int) -> int:
        # The nearest integer to x / p, so |x - q p| <= |p| / 2.
        return (2 * x + p) // (2 * p)

    for t in range(min(nr, nc)):
        while True:
            nonzero = [(i, j) for i in range(t, nr) for j in range(t, nc) if a[i][j]]
            if not nonzero:
                break
            pi, pj = min(nonzero, key=lambda ij: abs(a[ij[0]][ij[1]]))
            a[t], a[pi], u[t], u[pi] = a[pi], a[t], u[pi], u[t]
            for rows in (a, v):
                for r in rows:
                    r[t], r[pj] = r[pj], r[t]
            p = a[t][t]
            for i in range(t + 1, nr):
                q = quotient(a[i][t], p)
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
            for j in range(t + 1, nc):
                q = quotient(a[t][j], p)
                if q:
                    for rows in (a, v):
                        for r in rows:
                            r[j] -= q * r[t]
            if any(a[i][t] for i in range(t + 1, nr)) or any(a[t][t + 1:]):
                continue
            bad = next((i for i in range(t + 1, nr) if any(x % p for x in a[i][t + 1:])), None)
            if bad is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[bad])]
            u[t] = [x + y for x, y in zip(u[t], u[bad])]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]

    s = IntMat.from_rows(a)
    return SnfDecomposition(IntMat.from_rows(u), s, IntMat.from_rows(v))


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


def pairwise_difference_moves(eprime) -> tuple[Vec, ...]:
    """The sign-normalised nonzero differences of the lattice points of
    P(E'), each point pair embedded by the ray pairing on its own."""
    fan = eprime.fan
    pts = lattice_points(offset_polytope(fan, tuple(-c for c in eprime.coeffs)))
    diffs: set[Vec] = set()
    for p in pts:
        for q in pts:
            if p == q:
                continue
            m = tuple(a - b for a, b in zip(p, q))
            emb = tuple(u[0] * m[0] + u[1] * m[1] + u[2] * m[2] for u in fan.rays)
            if emb < tuple(-x for x in emb):
                emb = tuple(-x for x in emb)
            diffs.add(emb)
    return tuple(sorted(diffs))


def all_minimal_nonfaces(fan, largest: int | None = None) -> set[frozenset[int]]:
    """Minimal non-faces of the cone complex among ray sets of every size,
    or of at most ``largest`` rays."""
    faces = {frozenset(sub) for cone in fan.max_cones for k in (1, 2, 3)
             for sub in combinations(cone, k)}
    return {
        frozenset(sub)
        for k in range(2, min(fan.nrays, largest or fan.nrays) + 1)
        for sub in combinations(range(fan.nrays), k)
        if frozenset(sub) not in faces
        and all(frozenset(t) in faces for t in combinations(sub, k - 1))
    }


def collection_relations(fan) -> list[dict]:
    """The positive relation of every primitive collection of the fan."""
    return [primitive_relation(fan, s) for s in sorted(minimal_nonfaces(fan), key=sorted)]


def collection_levels(relations: list[dict], coeffs) -> list[int]:
    """sum(a_rho, rho in P) - sum(c_s a_s) per primitive collection P with
    relation sum(u_P) = sum(c_s u_s): the degree of D on the curve class of
    the relation.  On a projective fan D is nef iff every level is >= 0 and
    ample iff every level is > 0 (Batyrev)."""
    return [
        sum(coeffs[i] for i in rel["rays"])
        - sum(c * coeffs[i] for i, c in zip(rel["relation_cone"], rel["relation_coeffs"]))
        for rel in relations
    ]


def cone_intersection_tensor(fan) -> tuple[tuple[tuple[int, ...], ...], ...]:
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

    # Keyed by sorted ray triples, C(nrays + 2, 3) at most, and dropped
    # with the call.
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


# The printed class maps B per case, a row per Picard basis ray and a
# column per ray; 3.0.1 and 3.0.2 share theirs.
PRINTED_CLASS_MAPS = {
    "2.0.1": lambda l: [[1, 1, 0, 0, 0], [-l, 0, 1, 1, 1]],
    "2.0.2": lambda l1, l2: [[1, 1, 1, 0, 0], [-l1, -l2, 0, 1, 1]],
    "3.0.1": lambda r, a, b: [[1, 1, -r, 0, -a, 0], [0, 0, 1, 1, -b, 0], [0, 0, 0, 0, 1, 1]],
    "3.1.1": lambda b1: [[1, 1, 0, 1, -b1 - 1, 0], [0, 0, 1, -1, 1, 0], [0, 0, 0, 0, 1, 1]],
    "3.1.2": lambda b1: [[1, 0, 1, 1, -b1 - 1, 0], [0, 1, -1, -1, 1, 0], [0, 0, 0, 0, 1, 1]],
    "3.1.3": lambda b1, c2: [[1, 0, 1, -b1 - 1, 0, -c2], [0, 1, -1, 1, 0, 0], [0, 0, 0, 1, 1, 1]],
    "3.1.4": lambda b1, b2: [
        [1, 0, 1, -b1 - 1, -b2 - 1, 0], [0, 1, -1, 1, 1, 0], [0, 0, 0, 1, 1, 1]
    ],
    "3.1.5": lambda b1: [[1, 0, 0, 1, -b1 - 1, 0], [0, 1, 1, -1, 1, 0], [0, 0, 0, 0, 1, 1]],
}
PRINTED_CLASS_MAPS["3.0.2"] = PRINTED_CLASS_MAPS["3.0.1"]

# The printed Markov move lists per case, a move per row and a column per
# ray; 3.0.1 and 3.0.2 share theirs.
PRINTED_MARKOV = {
    "2.0.1": lambda l: [[1, -1, 0, 0, l], [0, 0, 1, 0, -1], [0, 0, 0, 1, -1]],
    "2.0.2": lambda l1, l2: [[1, -1, 0, 0, l1 - l2], [0, 1, -1, 0, l2], [0, 0, 0, 1, -1]],
    "3.0.1": lambda r, a, b: [
        [1, -1, 0, 0, 0, 0], [0, r, 1, -1, 0, 0], [0, a + b * r, b, 0, 1, -1]
    ],
    "3.1.1": lambda b1: [[1, 0, -1, -1, 0, 0], [0, 1, -1, -1, 0, 0], [0, 0, b1, b1 + 1, 1, -1]],
    "3.1.2": lambda b1: [[1, -1, -1, 0, 0, 0], [0, 0, -1, 1, 0, 0], [0, b1, b1 + 1, 0, 1, -1]],
    "3.1.3": lambda b1, c2: [
        [1, -1, -1, 0, 0, 0], [0, b1, b1 + 1, 1, -1, 0], [0, b1 - c2, b1 + 1 - c2, 1, 0, -1]
    ],
    "3.1.4": lambda b1, b2: [
        [1, -1, -1, 0, 0, 0], [0, b1, b1 + 1, 1, 0, -1], [0, b1 - b2, b1 - b2, 1, -1, 0]
    ],
    "3.1.5": lambda b1: [[1, -1, 0, -1, 0, 0], [0, -1, 1, 0, 0, 0], [0, b1, 0, b1 + 1, 1, -1]],
}
PRINTED_MARKOV["3.0.2"] = PRINTED_MARKOV["3.0.1"]

# The printed canonical class per case in its Picard basis; 3.0.1 and
# 3.0.2 share theirs.
PRINTED_CANONICAL = {
    "2.0.1": lambda l: (-2, l - 3),
    "2.0.2": lambda l1, l2: (-3, l1 + l2 - 2),
    "3.0.1": lambda r, a, b: (-2 + a + r, -2 + b, -2),
    "3.1.1": lambda b1: (b1 - 2, -1, -2),
    "3.1.2": lambda b1: (b1 - 2, 0, -2),
    "3.1.3": lambda b1, c2: (b1 + c2 - 1, -1, -3),
    "3.1.4": lambda b1, b2: (b1 + b2, -2, -3),
    "3.1.5": lambda b1: (b1 - 1, -2, -2),
}
PRINTED_CANONICAL["3.0.2"] = PRINTED_CANONICAL["3.0.1"]

# The printed parameter condition of each table block, in the printed
# order; a member's block is the first whose condition holds.
PRINTED_BLOCKS = {
    "2.0.1": (
        ("l=0", lambda p: p["l"] == 0),
        ("l=1", lambda p: p["l"] == 1),
        ("l=2", lambda p: p["l"] == 2),
        ("l=3", lambda p: p["l"] == 3),
        ("l>=4", lambda p: p["l"] >= 4),
    ),
    "2.0.2": (
        ("l1=l2=0", lambda p: p["l1"] == 0 and p["l2"] == 0),
        ("l1=0,l2>=1", lambda p: p["l1"] == 0 and p["l2"] >= 1),
        ("l1>=1", lambda p: p["l1"] >= 1),
    ),
    "3.0.1": (
        ("(0,0,0)", lambda p: p["r"] == 0 and p["a"] == 0 and p["b"] == 0),
        ("(>=1,0,0)", lambda p: p["r"] >= 1 and p["a"] == 0 and p["b"] == 0),
        ("(>=3,>=3,>=1)", lambda p: p["r"] >= 3 and p["a"] >= 3 and p["b"] >= 1),
        ("general", lambda p: True),
    ),
    "3.0.2": (
        ("(0,0)", lambda p: p["r"] == 0 and p["a"] == 0),
        ("(0,>=1)", lambda p: p["r"] == 0 and p["a"] >= 1),
        ("(>=1,0)", lambda p: p["r"] >= 1 and p["a"] == 0),
        ("(>=1,1)", lambda p: p["r"] >= 1 and p["a"] == 1),
        ("(>=1,2)", lambda p: p["r"] >= 1 and p["a"] == 2),
        ("(>=1,>=3)", lambda p: p["r"] >= 1 and p["a"] >= 3),
    ),
    "3.1.1": (
        ("b1=0", lambda p: p["b1"] == 0),
        ("b1=1", lambda p: p["b1"] == 1),
        ("b1>=2", lambda p: p["b1"] >= 2),
    ),
    "3.1.3": (
        ("c2=0", lambda p: p["c2"] == 0 and p["b1"] >= 0),
        ("b1=0,c2=1", lambda p: p["b1"] == 0 and p["c2"] == 1),
        ("c2-positive", lambda p: (p["b1"] == 0 and p["c2"] >= 2) or (p["b1"] >= 1 and p["c2"] >= 1)),
    ),
    "3.1.4": (
        ("b1=b2=0", lambda p: p["b1"] == 0 and p["b2"] == 0),
        ("one-positive", lambda p: (p["b1"] >= 1 and p["b2"] == 0) or (p["b1"] == 0 and p["b2"] >= 1)),
        ("both-positive", lambda p: p["b1"] >= 1 and p["b2"] >= 1),
    ),
    "3.1.5": (("all", lambda p: p["b1"] >= 0),),
}
PRINTED_BLOCKS["3.1.2"] = PRINTED_BLOCKS["3.1.1"]

# The printed parameter condition of each connected-sections configuration;
# a member lists every configuration whose condition holds.
PRINTED_CONFIGS = {
    "2.0.1": (("D_2+D_3", lambda p: p["l"] == 0), ("D_2", lambda p: p["l"] >= 1)),
    "2.0.2": (
        ("D_3+D_4", lambda p: p["l1"] == 0 and p["l2"] == 0),
        ("D_3", lambda p: p["l2"] >= 1),
    ),
    "3.0.1": (
        ("D_1+D_4+D_6", lambda p: p["r"] == 0 and p["a"] == 0 and p["b"] == 0),
        ("D_4+D_6", lambda p: p["b"] == 0 and p["r"] + p["a"] >= 1),
        ("D_1+D_6", lambda p: p["b"] >= 1 and p["r"] + p["a"] == 0),
        ("D_6", lambda p: p["b"] >= 1 and p["r"] + p["a"] >= 1),
    ),
    "3.0.2": (
        ("D_1+D_6-bD_4", lambda p: p["r"] + p["a"] == 0),
        ("D_6-bD_4", lambda p: p["r"] + p["a"] >= 1),
    ),
    "3.1.1": (
        ("D_u1+D_z1", lambda p: p["b1"] == 0),
        ("D_v1+D_z1", lambda p: p["b1"] == 0),
        ("D_z1", lambda p: p["b1"] > 1),
    ),
    "3.1.3": (
        ("D_u1+D_z1", lambda p: p["b1"] == 0 and p["c2"] == 0),
        ("D_v1+D_z1", lambda p: p["b1"] == 0 and p["c2"] == 0),
        ("D_z1", lambda p: not (p["b1"] == 0 and p["c2"] == 0)),
    ),
    "3.1.4": (
        ("D_u1+D_z1", lambda p: p["b1"] == 0 and p["b2"] == 0),
        ("D_v1+D_z1", lambda p: p["b1"] == 0 and p["b2"] == 0),
        ("D_z1", lambda p: not (p["b1"] == 0 and p["b2"] == 0)),
    ),
}
PRINTED_CONFIGS["3.1.2"] = PRINTED_CONFIGS["3.1.5"] = PRINTED_CONFIGS["3.1.1"]

# The printed nef cone generators per case, in the printed order, each as
# its divisor on the Picard basis rays; 3.1.1 - 3.1.5 share theirs, which
# are nef at twists >= 0 only.
PRINTED_NEF = {
    "2.0.1": lambda **_: [{"D_2": 1}, {"D_3": 1}],
    "2.0.2": lambda **_: [{"D_3": 1}, {"D_4": 1}],
    "3.0.1": lambda **_: [{"D_1": 1}, {"D_4": 1}, {"D_6": 1}],
    "3.0.2": lambda r, a, b: [{"D_1": 1}, {"D_4": 1}, {"D_4": -b, "D_6": 1}],
}
PRINTED_NEF.update(dict.fromkeys(
    ("3.1.1", "3.1.2", "3.1.3", "3.1.4", "3.1.5"),
    lambda **_: [{"D_v1": 1}, {"D_z1": 1}, {"D_u1": 1, "D_z1": 1}],
))

# The printed effective cone generators per case, as ray labels in the
# printed order; 3.1.1, 3.1.2 and 3.1.5 share theirs.
PRINTED_EFF = {
    "2.0.1": lambda **_: ("D_1", "D_3"),
    "2.0.2": lambda **_: ("D_2", "D_4"),
    "3.0.1": lambda **_: ("D_1", "D_3", "D_5"),
    "3.0.2": lambda r, a, b: (
        ("D_1", "D_3", "D_6") if a + b * r <= 0 else ("D_1", "D_3", "D_5", "D_6")),
    "3.1.3": lambda b1, c2: (
        "D_u1", "D_y1", "D_z1" if max(b1, c2) < 0 else "D_t1" if b1 >= c2 else "D_z2"),
    "3.1.4": lambda b1, b2: (
        "D_u1", "D_y1", "D_z1" if max(b1, b2) < 0 else "D_t1" if b1 >= b2 else "D_t2"),
}
PRINTED_EFF.update(dict.fromkeys(
    ("3.1.1", "3.1.2", "3.1.5"),
    lambda b1: ("D_u1", "D_y1", "D_t1" if b1 >= 0 else "D_z1"),
))

# The E' of each connected-sections configuration per case, by its printed
# name, as label -> coefficient; 3.1.1 - 3.1.5 share theirs.
PRINTED_EPRIME = {
    "2.0.1": {"D_2+D_3": lambda p: {"D_2": 1, "D_3": 1}, "D_2": lambda p: {"D_2": 1}},
    "2.0.2": {"D_3+D_4": lambda p: {"D_3": 1, "D_4": 1}, "D_3": lambda p: {"D_3": 1}},
    "3.0.1": {
        "D_1+D_4+D_6": lambda p: {"D_1": 1, "D_4": 1, "D_6": 1},
        "D_4+D_6": lambda p: {"D_4": 1, "D_6": 1},
        "D_1+D_6": lambda p: {"D_1": 1, "D_6": 1},
        "D_6": lambda p: {"D_6": 1},
    },
    "3.0.2": {
        "D_1+D_6-bD_4": lambda p: {"D_1": 1, "D_4": -p["b"], "D_6": 1},
        "D_6-bD_4": lambda p: {"D_4": -p["b"], "D_6": 1},
    },
}
PRINTED_EPRIME.update(dict.fromkeys(("3.1.1", "3.1.2", "3.1.3", "3.1.4", "3.1.5"), {
    "D_u1+D_z1": lambda p: {"D_u1": 1, "D_z1": 1},
    "D_v1+D_z1": lambda p: {"D_v1": 1, "D_z1": 1},
    "D_z1": lambda p: {"D_z1": 1},
}))

# The parameter requirements per case as (predicate, message) pairs in the
# printed order, with the messages they raised before each named its case;
# 3.1.1 - 3.1.5 have none.
_REQUIRES_RA = (
    (lambda p: p["r"] >= 0, "r >= 0 required"),
    (lambda p: p["a"] >= 0, "a >= 0 required"),
)
PRINTED_REQUIRES = {
    "2.0.1": ((lambda p: p["l"] >= 0, "l >= 0 required"),),
    "2.0.2": (
        (lambda p: p["l1"] >= 0, "l1 >= 0 required"),
        (lambda p: p["l2"] >= p["l1"], "l2 >= l1 required"),
    ),
    "3.0.1": _REQUIRES_RA + ((lambda p: p["b"] >= 0, "b >= 0 required in case 3.0.1"),),
    "3.0.2": _REQUIRES_RA + ((lambda p: p["b"] < 0, "b < 0 required in case 3.0.2"),),
}
PRINTED_REQUIRES.update(dict.fromkeys(("3.1.1", "3.1.2", "3.1.3", "3.1.4", "3.1.5"), ()))

# The rays per case in the printed order; 3.0.1 and 3.0.2 share theirs.
PRINTED_RAYS = {
    "2.0.1": lambda l: [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (l, -1, -1)],
    "2.0.2": lambda l1, l2: [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1), (l1, l2, -1)],
    "3.0.1": lambda r, a, b: [(1, 0, 0), (-1, r, a), (0, 1, 0), (0, -1, b), (0, 0, 1), (0, 0, -1)],
    "3.1.1": lambda b1: [(1, 0, 0), (0, 1, 0), (-1, -1, b1), (-1, -1, b1 + 1), (0, 0, 1), (0, 0, -1)],
    "3.1.2": lambda b1: [(1, 0, 0), (-1, 0, b1), (-1, -1, b1 + 1), (0, 1, 0), (0, 0, 1), (0, 0, -1)],
    "3.1.3": lambda b1, c2: [
        (1, 0, 0), (-1, b1, c2), (-1, b1 + 1, c2), (0, 1, 0), (0, -1, -1), (0, 0, 1)
    ],
    "3.1.4": lambda b1, b2: [
        (1, 0, 0), (-1, b1, b2), (-1, b1 + 1, b2 + 1), (0, 1, 0), (0, 0, 1), (0, -1, -1)
    ],
    "3.1.5": lambda b1: [(1, 0, 0), (-1, -1, b1), (0, 1, 0), (-1, 0, b1 + 1), (0, 0, 1), (0, 0, -1)],
}
PRINTED_RAYS["3.0.2"] = PRINTED_RAYS["3.0.1"]


def PRINTED_GENERAL_301_ROWS(p):
    """Parameter-dependent hyperbolic thresholds of the general block.

    The whole column is guarded by e, f >= 2, so the thresholds are
    tightened to at least 2 coordinate-wise.
    """
    r, a, b = p["r"], p["a"], p["b"]
    lo = lambda t: _ge(max(2, t))
    return [
        TableRow(HYPERBOLIC, (_ge(4 - a - r), lo(4 - b), lo(3))),
        TableRow(HYPERBOLIC, (_ge(4 - a - r), lo(3 - b), lo(4))),
        TableRow(HYPERBOLIC, (_ge(3 - a - r), lo(4 - b), lo(4))),
    ]
