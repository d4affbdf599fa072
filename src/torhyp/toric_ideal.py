"""Gale-dual presentation matrices, fiber graphs, and Markov move checks.

The short exact sequence 0 -> Z^3 -> Z^r -> Z^k -> 0 of a catalog fan is
realised by the ray matrix A (rays as rows) and the class map B computed
from the chosen Picard basis.  A move set M in L = ker(B) is a Markov
basis when every fiber {v in Z^r_{>=0} : B v = t} is connected by M.  The
fan's reference move set is proven one by algebra: it spans L and its
binomial ideal is saturated, checked by binomial Buchberger runs.  Every
other set is decided by membership: it is a Markov basis iff it joins the
two sides of each reference move inside that move's fiber.  Where neither
settles the question, every fiber touched by a vector of coordinate sum
<= bound is searched.  A fiber is in bijection with the lattice points of
a bounded polytope in the character lattice Z^3 (bounded because the fan
is complete), and each move with one vector of Z^3, so every search runs
there on 3-d points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from itertools import chain
from math import comb, lcm
from operator import le, mul
from typing import Sequence

from .divisors import TDivisor, is_nef, picard_basis
from .fans import Fan, family_record, find_containing_cone
from .intlin import IntMat, smith_normal_form, solve_3x3
from .polytopes import (
    LATTICE_SCAN_GUARD,
    EnumerationGuardError,
    lattice_points,
    offset_polytope,
)

Vec = tuple[int, ...]

DEFAULT_MARKOV_BOUND = 6
# Fibers are enumerated for the public view and the tests; the Markov
# check itself works on lattice points and keeps none of them.
FIBER_CACHE_SIZE = 256
# One proof per fan, like the per-fan compiled inequality systems.
PROOF_CACHE_SIZE = 256
# A Buchberger run that needs more reductions and S-pairs than this is
# abandoned, and the move set goes to the bounded fiber search instead.
BUCHBERGER_STEP_BUDGET = 20_000


class InternalInconsistencyError(RuntimeError):
    """A recomputed matrix disagrees with the package's encoded tables."""


@dataclass(frozen=True)
class GaleMatrix:
    """Class map B of the presentation, with its ray and basis labels."""

    b: IntMat
    column_labels: tuple[str, ...]
    row_labels: tuple[str, ...]


@dataclass(frozen=True)
class FiberCertificate:
    """Outcome of a bounded fiber-connectivity verification."""

    degree_bound: int
    fibers_checked: int
    connected: bool
    failing_fiber: Vec | None = None

    def as_json(self) -> dict:
        return {
            "bound": self.degree_bound,
            "fibers_checked": self.fibers_checked,
            "connected": self.connected,
            "failing_fiber": list(self.failing_fiber) if self.failing_fiber else None,
        }


def encoded_gale_rows(fan: Fan) -> list[list[int]]:
    """The package's reference B per case, parameters substituted."""
    record, p = family_record(fan)
    return record.gale_rows(**p)


def markov_candidate(fan: Fan) -> tuple[Vec, ...]:
    """The reference Markov move set per case, parameters substituted."""
    record, p = family_record(fan)
    return tuple(tuple(c) for c in record.markov(**p))


@lru_cache(maxsize=None)
def gale_matrix(fan: Fan) -> GaleMatrix:
    """Class map recomputed from the ray matrix, checked against the
    encoded reference.  A mismatch means the package's own data is bad and
    raises InternalInconsistencyError."""
    basis = picard_basis(fan)
    b = basis.reduction
    encoded = encoded_gale_rows(fan)
    if b.to_rows() != encoded:
        raise InternalInconsistencyError(
            f"recomputed class map differs from the encoded matrix for "
            f"case {fan.family.case_id}: {b.to_rows()} vs {encoded}"
        )
    a = IntMat.from_rows(fan.rays)
    for j in range(3):
        if any(x != 0 for x in b.mul_vec(a.col(j))):
            raise InternalInconsistencyError("class map does not annihilate the ray matrix")
    return GaleMatrix(b, fan.ray_labels, basis.labels())


def _particular_solution(fan: Fan, image: Vec) -> Vec:
    """Integer preimage of an image vector: put it on the basis rays."""
    basis = picard_basis(fan)
    v = [0] * fan.nrays
    for c, i in zip(image, basis.basis_rays):
        v[i] = c
    return tuple(v)


@lru_cache(maxsize=FIBER_CACHE_SIZE)
def fiber_elements(fan: Fan, image: Vec) -> tuple[Vec, ...]:
    """The full fiber {v >= 0 : B v = image}, via a bounded polytope slice.

    Writing v = v0 + A m, nonnegativity becomes <m, u_rho> >= -v0_rho, a
    bounded polytope because the fan is complete; its lattice points are in
    bijection with the fiber.
    """
    v0 = _particular_solution(fan, image)
    pts = lattice_points(offset_polytope(fan, tuple(-c for c in v0)))
    out = []
    for m in pts:
        out.append(
            tuple(c + u[0] * m[0] + u[1] * m[1] + u[2] * m[2] for c, u in zip(v0, fan.rays))
        )
    return tuple(sorted(out))


def _connected_under(fiber: Sequence[Vec], moves: Sequence[Vec]) -> bool:
    """Connectivity of a finite point set under the signed moves.

    The points are fiber elements in Z^r or, equally, their lattice points
    in the character lattice Z^3 with the moves pulled back there.
    Elements are packed into single integers sum(v_i * base^i), base
    2 * offset + 1, so each search step is one integer addition and a set
    lookup.  The offset is the largest |coordinate| of the fiber plus that
    of the moves: every digit v_i + d_i + offset of a reached element plus
    a signed move then lies in [0, base), so a packed sum equals a packed
    member exactly when the vectors are equal (adding offset to every
    digit shifts all packed values by one constant).
    """
    if len(fiber) <= 1:
        return True
    if not moves:
        return False
    offset = max(map(abs, chain.from_iterable(fiber))) + max(map(abs, chain.from_iterable(moves)))
    weights = [(2 * offset + 1) ** i for i in range(len(fiber[0]))]
    unseen = {sum(map(mul, v, weights)) for v in fiber}
    deltas = {s * sum(map(mul, m, weights)) for m in moves for s in (1, -1)}
    deltas.discard(0)
    stack = [unseen.pop()]
    while stack and unseen:
        v = stack.pop()
        for dlt in deltas:
            w = v + dlt
            if w in unseen:
                unseen.remove(w)
                stack.append(w)
    return not unseen


def fiber_graph_connected(fan: Fan, moves: Sequence[Vec], image: Sequence[int]) -> bool:
    """Connectivity of one fiber under the given moves (and their negatives).

    Every move must lie in ker(B); the enumeration guard of the lattice
    scan propagates for pathological inputs.
    """
    b = gale_matrix(fan).b
    for mv in moves:
        if any(x != 0 for x in b.mul_vec(mv)):
            raise ValueError(f"move {mv} is not in the kernel of the class map")
    fiber = fiber_elements(fan, tuple(int(x) for x in image))
    return _connected_under(fiber, [m for m in moves if any(m)])


def _degree_images(fan: Fan, bound: int) -> list[Vec]:
    """Distinct images of nonnegative vectors with coordinate sum <= bound.

    There are C(bound + r, r) such vectors; past the lattice scan budget
    the enumeration is refused before it starts.
    """
    b = gale_matrix(fan).b
    r = fan.nrays
    if comb(bound + r, r) > LATTICE_SCAN_GUARD:
        raise EnumerationGuardError(
            f"degree bound {bound} would enumerate more than {LATTICE_SCAN_GUARD} vectors"
        )
    cols = [b.col(j) for j in range(r)]
    k = len(cols[0])
    images: set[Vec] = set()
    stack: list[tuple[int, Vec, int]] = [(0, (0,) * k, 0)]
    while stack:
        j, acc, used = stack.pop()
        if j == r:
            images.add(acc)
            continue
        for c in range(bound - used + 1):
            nxt = tuple(a + c * x for a, x in zip(acc, cols[j]))
            stack.append((j + 1, nxt, used + c))
    return sorted(images)


def _character_moves(fan: Fan, moves: Sequence[Vec]) -> list[Vec]:
    """The unique delta in Z^3 with <delta, u_rho> = move_rho for every ray,
    one per move.

    Moves in ker(B) lie in the image of the ray matrix because
    0 -> M -> Z^r -> Pic -> 0 is exact.  delta solves the three equations
    of the fan's first maximal cone, whose rays are a lattice basis, and
    is then checked on every ray.
    """
    cone = fan.max_cones[0]
    rows = [fan.rays[i] for i in cone]
    out = []
    for mv in moves:
        sol = solve_3x3(rows, [mv[i] for i in cone])
        if sol is None or sol[1] != 1:
            raise InternalInconsistencyError(f"maximal cone {cone} is not unimodular")
        delta = sol[0]
        if any(sum(map(mul, ray, delta)) != x for ray, x in zip(fan.rays, mv)):
            raise InternalInconsistencyError(f"move {mv} is not in the image of the ray matrix")
        out.append(delta)
    return out


def _grading(fan: Fan) -> Vec:
    """A positive grading omega >= 1 with omega . move = 0 on ker(B).

    The fan is complete, so each -u_rho lies in some maximal cone:
    -u_rho = sum c_i u_i with c_i >= 0.  Each relation u_rho + sum c_i u_i = 0
    (denominators cleared) pairs to zero with every move A delta, and their
    sum has every coordinate at least one.
    """
    omega = [0] * fan.nrays
    for rho, u in enumerate(fan.rays):
        hit = find_containing_cone(fan, tuple(-x for x in u))
        if hit is None:
            raise InternalInconsistencyError(f"-u_{rho} lies in no maximal cone")
        cone, coords = hit
        den = lcm(*(c.denominator for c in coords))
        omega[rho] += den
        for i, c in zip(cone, coords):
            omega[i] += int(c * den)
    return tuple(omega)


def _saturated_in(moves: Sequence[Vec], omega: Vec, i: int) -> bool | None:
    """Whether I_M : x_i^inf = I_M, by one binomial Buchberger run.

    The term order is omega-graded reverse lexicographic with x_i last.  The
    ideal is omega-homogeneous, so a Groebner basis divided by the highest
    powers of x_i is a Groebner basis of I_M : x_i^inf (Sturmfels, Groebner
    Bases and Convex Polytopes, Lemma 12.1), and the two ideals agree iff no
    leading term is divisible by x_i.  A binomial x^a - x^b is kept as the
    pair (a, b) with x^a the leading term; common factors are never
    cancelled, since that would saturate.  None when the run needs more
    than BUCHBERGER_STEP_BUDGET reductions and S-pairs.
    """
    order = [i, *(k for k in reversed(range(len(omega))) if k != i)]

    def key(a: Vec) -> tuple:
        return (sum(map(mul, omega, a)), *(-a[k] for k in order))

    basis: list[tuple[Vec, Vec]] = []
    pairs: list[tuple[tuple, int, int]] = []
    steps = 0

    def add(a: Vec, b: Vec) -> bool:
        # Top-reduce x^a - x^b by the basis; keep a nonzero remainder.
        nonlocal steps
        while a != b:
            if key(a) < key(b):
                a, b = b, a
            for lead, trail in basis:
                if all(map(le, lead, a)):
                    steps += 1
                    if steps > BUCHBERGER_STEP_BUDGET:
                        return False
                    a = tuple(x - y + z for x, y, z in zip(a, lead, trail))
                    break
            else:
                n = len(basis)
                for j, (lead, _) in enumerate(basis):
                    # Coprime leading terms give an S-pair that reduces to 0.
                    if any(map(min, lead, a)):
                        heappush(pairs, (key(tuple(map(max, lead, a))), j, n))
                basis.append((a, b))
                return True
        return True

    for m in moves:
        if not add(tuple(max(x, 0) for x in m), tuple(max(-x, 0) for x in m)):
            return None
    while pairs:
        steps += 1
        _, j, k = heappop(pairs)
        (a1, b1), (a2, b2) = basis[j], basis[k]
        c = tuple(map(max, a1, a2))
        if steps > BUCHBERGER_STEP_BUDGET or not add(
            tuple(x - y + z for x, y, z in zip(c, a1, b1)),
            tuple(x - y + z for x, y, z in zip(c, a2, b2)),
        ):
            return None
    return not any(lead[i] for lead, _ in basis)


def _markov_proof(fan: Fan, moves: Sequence[Vec]) -> bool:
    """Whether the moves, all in ker(B), provably form a Markov basis.

    A set M spanning L = ker(B) is a Markov basis iff its binomial ideal
    I_M equals I_M : (x_1 ... x_r)^inf (Diaconis-Sturmfels 1998, Thm 3.1,
    with Sturmfels, Lemma 12.2), which holds iff I_M : x_i^inf = I_M for
    every variable.  L is saturated of rank 3, so M spans it iff the
    Smith invariants of M are three ones.  False also when a Buchberger
    run exceeds its step budget: the proof is then left undone.
    """
    invariants = smith_normal_form(IntMat.from_rows(moves)).diagonal()
    if [d for d in invariants if d] != [1, 1, 1]:
        return False
    omega = _grading(fan)
    return all(_saturated_in(moves, omega, i) for i in range(fan.nrays))


@lru_cache(maxsize=PROOF_CACHE_SIZE)
def _proven_candidate(fan: Fan) -> tuple[Vec, ...] | None:
    """The fan's reference move set if _markov_proof holds for it."""
    moves = tuple(m for m in markov_candidate(fan) if any(m))
    return moves if _markov_proof(fan, moves) else None


def _is_markov(fan: Fan, moves: Sequence[Vec]) -> bool:
    """Whether moves in ker(B) form a Markov basis, decided by membership.

    With a proven basis M, I_{M'} is I_L iff every x^{m+} - x^{m-}, m in M,
    lies in I_{M'}, i.e. iff m+ and m- are joined by M' inside their one
    fiber.  That holds iff M' connects each such fiber: a Markov basis
    connects every fiber, and a connected fiber joins m+ to m-.  The fiber
    of m+ is the lattice points of {<d, u_rho> >= -m+_rho}.  False when
    the fan's reference set is not proven or a fiber exceeds the lattice
    scan budget; the caller then searches the bounded fibers.
    """
    proven = _proven_candidate(fan)
    if proven is None:
        return False
    given = set(moves) | {tuple(-x for x in m) for m in moves}
    pending = [m for m in proven if m not in given]
    if not pending:
        return True
    deltas = _character_moves(fan, moves)
    for m in pending:
        try:
            points = lattice_points(offset_polytope(fan, tuple(-max(x, 0) for x in m)))
        except EnumerationGuardError:
            return False
        if not _connected_under(points, deltas):
            return False
    return True


def _bounded_search(fan: Fan, moves: Sequence[Vec], images: Sequence[Vec], bound: int) -> FiberCertificate:
    """Connectivity of every fiber over the given images, in their order.

    The fiber of an image t is in bijection with the lattice points m of
    {<m, u_rho> >= -v0_rho}, v = v0 + A m, and a move mv = A delta acts
    there as m -> m + delta, so each move is pulled back to Z^3 once and
    the search runs on the lattice points.  Connectivity is first
    attempted with a small subset of short moves and falls back to the
    full set per fiber, which never changes the verdict, only the running
    time.
    """
    primary = sorted(set(moves), key=lambda m: sum(abs(x) for x in m))[:8]
    primary, moves = _character_moves(fan, primary), _character_moves(fan, moves)
    checked = 0
    for image in images:
        v0 = _particular_solution(fan, image)
        points = lattice_points(offset_polytope(fan, tuple(-c for c in v0)))
        checked += 1
        if len(points) <= 1:
            continue
        if _connected_under(points, primary):
            continue
        if not _connected_under(points, moves):
            return FiberCertificate(bound, checked, False, image)
    return FiberCertificate(bound, checked, True)


def markov_verify(fan: Fan, candidate: Sequence[Vec], bound: int = DEFAULT_MARKOV_BOUND) -> FiberCertificate:
    """Markov verification of a move set in ker(B), reported up to a bound.

    The certificate states that every fiber reached by a vector of
    coordinate sum <= bound is connected, or names the first that is not.
    A set that is a Markov basis connects every fiber of every degree, so
    when the fan's reference set is proven (_markov_proof) and the given
    set is decided Markov by membership (_is_markov), every fiber up to
    the bound is connected and none is searched.  Otherwise the bounded
    search runs and names the first disconnected fiber, exactly as a
    proof-free check would; this covers sets that are not Markov bases
    and fans whose reference set is not proven.  A bound below one would
    certify nothing, so it is rejected.
    """
    if bound < 1:
        raise ValueError(f"the Markov bound must be at least 1, got {bound}")
    b = gale_matrix(fan).b
    moves = []
    for mv in candidate:
        mv = tuple(int(x) for x in mv)
        if any(x != 0 for x in b.mul_vec(mv)):
            raise ValueError(f"candidate move {mv} is not in the kernel of the class map")
        if any(mv):
            moves.append(mv)
    images = _degree_images(fan, bound)
    if _is_markov(fan, moves):
        return FiberCertificate(bound, len(images), True)
    return _bounded_search(fan, moves, images, bound)


@dataclass(frozen=True)
class ConnectedSectionsReport:
    """Result of the sufficient connected-sections criterion.

    The move set is the difference set of the embedded lattice points of
    P(E'); the configuration (E+E', E) has connected sections whenever that
    set passes the Markov verification.
    """

    moves: tuple[Vec, ...]
    certificate: FiberCertificate
    idp_ok: bool | None

    @property
    def ok(self) -> bool:
        return self.certificate.connected and self.idp_ok is not False

    def as_json(self) -> dict:
        return {
            "moves": [list(m) for m in self.moves],
            "certificate": self.certificate.as_json(),
            "idp_checked": self.idp_ok,
            "passes": self.ok,
        }


def section_difference_moves(eprime: TDivisor) -> tuple[Vec, ...]:
    """Difference set i(P(E') cap Z^3) - itself, embedded by the ray pairing.

    The embedding m -> (<m, u_rho>)_rho identifies lattice points of P(E')
    with their monomial exponent vectors; differences land in ker(B).
    Moves are normalised up to sign and deduplicated, zero dropped.
    """
    fan = eprime.fan
    pts = lattice_points(
        offset_polytope(fan, tuple(-c for c in eprime.coeffs))
    )
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


def connected_sections_check(
    e: TDivisor,
    eprime: TDivisor,
    bound: int = DEFAULT_MARKOV_BOUND,
    verify_idp: bool = True,
) -> ConnectedSectionsReport:
    """Sufficient criterion for (E+E', E) to have connected sections.

    Both divisors must be nef; the decomposition property of the pair holds
    on these fans for every nef pair and is re-checked by enumeration when
    verify_idp is set.
    """
    if not (is_nef(e) and is_nef(eprime)):
        raise ValueError("connected-sections check needs a nef pair")
    idp_ok: bool | None = None
    if verify_idp:
        from .polytopes import idp_check

        idp_ok = idp_check(e, eprime).ok
    moves = section_difference_moves(eprime)
    cert = markov_verify(e.fan, moves, bound)
    return ConnectedSectionsReport(moves, cert, idp_ok)
