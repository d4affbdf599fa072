"""Gale-dual presentation matrices, fiber graphs, and Markov move checks.

The short exact sequence 0 -> Z^3 -> Z^r -> Z^k -> 0 of a catalog fan is
realised by the ray matrix A (rays as rows) and the class map B
(``gale_matrix``, which ``divisors.picard_basis`` builds from the rays,
a column per ray and a row per Picard basis ray).  A move set M in
L = ker(B) is a Markov basis when every fiber {v in Z^r_{>=0} : B v = t}
is connected by M.  L = im(A), so each move is A delta for one character
delta in Z^3, and moves are kept as characters: the catalog stores them,
a given move is pulled back once (``divisors.character``).  The fan's
reference set is proven once by algebra: it spans L and its binomial
ideal is saturated, checked by binomial Buchberger runs.  A set that
holds each proven move up to sign is then a Markov basis, certified
without a search; for the difference set of P(E') each membership is one
existence scan, so ``section_certificate`` forms that set only when a
move is missing.  Every other set is searched: each fiber touched by a
vector of coordinate sum <= bound is in bijection with the lattice
points of a polytope in Z^3 (bounded because the fan is complete), on
which a move translates by its character.  ``connected_sections_check``
returns the document that ``connected-sections`` prints.
"""

from __future__ import annotations

from functools import lru_cache
from heapq import heappop, heappush
from itertools import combinations
from math import comb, gcd
from operator import index, le, mul
from typing import Callable, Collection, NamedTuple, Sequence

from .catalog import integers
from .divisors import TDivisor, character, divisor_from_class, is_nef, picard_basis
from .fans import (
    FAN_CACHE_SIZE,
    Fan,
    InternalInconsistencyError,
    _det,
    family_record,
    find_containing_cone,
)
from .intlin import IntMat
from .polytopes import (
    LATTICE_SCAN_GUARD,
    EnumerationGuardError,
    has_lattice_point,
    idp_check,
    lattice_points,
    offset_polytope,
)

Vec = tuple[int, ...]

DEFAULT_MARKOV_BOUND = 6
# Fibers are enumerated for the public view and the tests; the Markov
# check itself works on lattice points and keeps none of them.
FIBER_CACHE_SIZE = 256
# A Buchberger run that needs more reductions and S-pairs than this is
# abandoned, and the move set goes to the bounded fiber search instead.
BUCHBERGER_STEP_BUDGET = 20_000


class FiberCertificate(NamedTuple):
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


def _reference_characters(fan: Fan) -> tuple[Vec, ...]:
    """The catalog's characters of the reference moves, parameters substituted."""
    record, p = family_record(fan)
    try:
        return tuple(integers(delta, p) for delta in record.markov)
    except ValueError as exc:
        raise InternalInconsistencyError(f"case {fan.family.case_id}: {exc}") from None


def _embed(fan: Fan, delta: Vec) -> Vec:
    """The move A delta, whose entries are the pairings <delta, u_rho>."""
    x, y, z = delta
    return tuple(u[0] * x + u[1] * y + u[2] * z for u in fan.rays)


def markov_candidate(fan: Fan) -> tuple[Vec, ...]:
    """The reference Markov move set per case: the catalog's characters
    embedded by the ray matrix, so every move lies in ker(B) = im(A)."""
    return tuple(_embed(fan, d) for d in _reference_characters(fan))


def gale_matrix(fan: Fan) -> IntMat:
    """Class map B, columns the rays and rows the Picard basis rays, as
    ``picard_basis`` reads it off the rays."""
    return picard_basis(fan).reduction


@lru_cache(maxsize=FIBER_CACHE_SIZE)
def fiber_elements(fan: Fan, image: Vec) -> tuple[Vec, ...]:
    """The full fiber {v >= 0 : B v = image}, via a bounded polytope slice.

    Writing v = v0 + A m, nonnegativity becomes <m, u_rho> >= -v0_rho, a
    bounded polytope because the fan is complete; its lattice points are in
    bijection with the fiber.
    """
    v0 = divisor_from_class(fan, image).coeffs
    pts = lattice_points(offset_polytope(fan, tuple(-c for c in v0)))
    out = []
    for m in pts:
        out.append(
            tuple(c + u[0] * m[0] + u[1] * m[1] + u[2] * m[2] for c, u in zip(v0, fan.rays))
        )
    return tuple(sorted(out))


def _connected_under(points: Sequence[Vec], deltas: Collection[Vec]) -> bool:
    """Connectivity of a finite set of points in Z^3 under the signed moves.

    The points are the lattice points of one fiber in the character
    lattice and the deltas the characters of the moves, so a step is three
    integer additions and a set lookup.
    """
    steps = {d for dx, dy, dz in deltas for d in ((dx, dy, dz), (-dx, -dy, -dz))}
    unseen = set(points)
    if not unseen:
        return True
    stack = [unseen.pop()]
    while stack and unseen:
        x, y, z = stack.pop()
        for dx, dy, dz in steps:
            w = (x + dx, y + dy, z + dz)
            if w in unseen:
                unseen.remove(w)
                stack.append(w)
    return not unseen


def check_bound(bound: int) -> None:
    """Refuse a Markov bound below one, which would certify nothing."""
    if bound < 1:
        raise ValueError(f"the Markov bound must be at least 1, got {bound}")


def _degree_images(fan: Fan, bound: int) -> tuple[list[int], Callable[[int], Vec]]:
    """Distinct images of nonnegative vectors with coordinate sum <= bound,
    packed as integers in ascending order, with the decoder of a packed
    image.

    Every coordinate of such an image is at most bound * max|B| in absolute
    value, so an image t is packed as sum t_i R^(k-1-i) with balanced digits
    in the odd base R = 2 bound max|B| + 1.  That packing is one to one,
    adds as the vectors add, and orders the images as their vectors are
    ordered lexicographically.  The images of sum j are those of sum j - 1
    plus one packed column of B, so they are built level by level as
    integer sums.  There are C(bound + r, r) such vectors; past the
    lattice scan budget the enumeration is refused before it starts.
    """
    r = fan.nrays
    if comb(bound + r, r) > LATTICE_SCAN_GUARD:
        raise EnumerationGuardError(
            f"degree bound {bound} would enumerate more than {LATTICE_SCAN_GUARD} vectors"
        )
    b = gale_matrix(fan)
    radix = 2 * bound * max(map(abs, b.entries)) + 1

    def unpack(x: int) -> Vec:
        digits = []
        for _ in range(b.rows):
            x, d = divmod(x, radix)
            if 2 * d > radix:
                x, d = x + 1, d - radix
            digits.append(d)
        return tuple(reversed(digits))

    cols = {sum(d * radix**i for i, d in enumerate(reversed(b.col(j)))) for j in range(r)}
    level = {0}
    images = set(level)
    for _ in range(bound):
        level = {t + c for t in level for c in cols}
        images |= level
    return sorted(images), unpack


@lru_cache(maxsize=FAN_CACHE_SIZE)
def _degree_image_count(fan: Fan, bound: int) -> int:
    """The number of fibers up to the bound, the count of _degree_images,
    which a Markov set's certificate reports without searching them."""
    return len(_degree_images(fan, bound)[0])


def _grading(fan: Fan) -> Vec:
    """A positive grading omega >= 1 with omega . move = 0 on ker(B).

    The fan is complete, so each -u_rho lies in some maximal cone:
    -den u_rho = sum n_i u_i with n_i >= 0 and den >= 1.  Each relation
    den u_rho + sum n_i u_i = 0 pairs to zero with every move A delta, and
    their sum has every coordinate at least one.
    """
    omega = [0] * fan.nrays
    for rho, u in enumerate(fan.rays):
        hit = find_containing_cone(fan, tuple(-x for x in u))
        if hit is None:
            raise InternalInconsistencyError(f"-u_{rho} lies in no maximal cone")
        cone, nums, den = hit
        omega[rho] += den
        for i, n in zip(cone, nums):
            omega[i] += n
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


def _markov_proof(fan: Fan, deltas: Sequence[Vec]) -> bool:
    """Whether the moves A delta provably form a Markov basis.

    A set M spanning L = ker(B) is a Markov basis iff its binomial ideal
    I_M equals I_M : (x_1 ... x_r)^inf (Diaconis-Sturmfels 1998, Thm 3.1,
    with Sturmfels, Lemma 12.2), which holds iff I_M : x_i^inf = I_M for
    every variable.  The ray matrix A maps Z^3 onto L, one to one, so M
    spans L iff the characters span Z^3, that is iff their 3x3
    determinants have gcd 1.  False also when a Buchberger run exceeds its
    step budget: the proof is then left undone.
    """
    if gcd(*(_det(*t) for t in combinations(deltas, 3))) != 1:
        return False
    omega = _grading(fan)
    moves = [_embed(fan, d) for d in deltas]
    return all(_saturated_in(moves, omega, i) for i in range(fan.nrays))


@lru_cache(maxsize=FAN_CACHE_SIZE)
def _proven_candidate(fan: Fan) -> tuple[Vec, ...] | None:
    """The fan's nonzero reference characters if _markov_proof holds for them."""
    deltas = tuple(d for d in _reference_characters(fan) if any(d))
    return deltas if _markov_proof(fan, deltas) else None


def _proven_certificate(fan: Fan, holds: Callable[[Vec], bool], bound: int) -> FiberCertificate | None:
    """The certificate of a move set that holds each proven move up to
    sign, as ``holds`` tells of its character; None when the fan's
    reference set is not proven or the set lacks one of its moves.

    Such a set generates the ideal of the proven basis, which is I_L, so it
    is a Markov basis: it connects every fiber of every degree, and the
    fibers up to the bound are reported connected without a search.
    """
    proven = _proven_candidate(fan)
    if proven is None or not all(map(holds, proven)):
        return None
    return FiberCertificate(bound, _degree_image_count(fan, bound), True)


def _bounded_search(fan: Fan, deltas: Collection[Vec], bound: int) -> FiberCertificate:
    """Connectivity under the moves A delta of every fiber touched by a
    vector of coordinate sum <= bound, in the order of the packed images
    (``_degree_images``); the first disconnected one is named with the
    count checked so far.

    A fiber {v >= 0 : B v = t} is in bijection with the lattice points d of
    {<d, u_rho> >= -v0_rho}, v = v0 + A d, and a move A delta acts there as
    d -> d + delta, so each search runs on the lattice points.
    """
    packed, unpack = _degree_images(fan, bound)
    for i, t in enumerate(packed):
        rhs = tuple(-c for c in divisor_from_class(fan, unpack(t)).coeffs)
        if not _connected_under(lattice_points(offset_polytope(fan, rhs)), deltas):
            return FiberCertificate(bound, i + 1, False, unpack(t))
    return FiberCertificate(bound, len(packed), True)


def markov_verify(fan: Fan, candidate: Sequence[Vec], bound: int = DEFAULT_MARKOV_BOUND) -> FiberCertificate:
    """Markov verification of a move set in ker(B), reported up to a bound.

    The certificate states that every fiber reached by a vector of
    coordinate sum <= bound is connected, or names the first that is not.
    Each move is pulled back once to its character; a move that has none
    is outside ker(B) = im(A) and is refused.  A set that holds the proven
    reference moves up to sign is certified without a search
    (``_proven_certificate``); every other set, on any fan, goes to the
    bounded search.  A bound below one would certify nothing, so it is
    rejected.
    """
    check_bound(bound)
    deltas = set()
    for mv in candidate:
        try:
            mv = tuple(map(index, mv))
        except TypeError:
            raise ValueError(f"candidate move {mv} has a non-integer entry") from None
        if len(mv) != fan.nrays:
            raise ValueError(f"candidate move {mv} has {len(mv)} entries for {fan.nrays} rays")
        delta = character(fan, mv)
        if delta is None:
            raise ValueError(f"candidate move {mv} is not in the kernel of the class map")
        if any(delta):
            deltas.add(delta)
    given = deltas | {(-x, -y, -z) for x, y, z in deltas}
    cert = _proven_certificate(fan, given.__contains__, bound)
    return cert or _bounded_search(fan, deltas, bound)


def _section_differences(eprime: TDivisor) -> set[Vec]:
    """The distinct differences of two distinct lattice points of P(E'),
    each pair taken in one order; an E' with more point pairs than the
    lattice scan budget is refused before any difference is formed."""
    pts = lattice_points(offset_polytope(eprime.fan, tuple(-c for c in eprime.coeffs)))
    if len(pts) ** 2 > LATTICE_SCAN_GUARD:
        raise EnumerationGuardError(
            f"{len(pts)}^2 point differences exceed the budget of {LATTICE_SCAN_GUARD}"
        )
    return {(a - x, b - y, c - z) for i, (a, b, c) in enumerate(pts) for x, y, z in pts[i + 1:]}


def section_difference_moves(eprime: TDivisor) -> tuple[Vec, ...]:
    """Difference set i(P(E') cap Z^3) - itself, embedded by the ray pairing.

    The embedding m -> (<m, u_rho>)_rho identifies lattice points of P(E')
    with their monomial exponent vectors; differences land in ker(B).
    Moves are normalised up to sign; the distinct differences in Z^3 are
    collected first (``_section_differences``) and each is embedded once.
    """
    embedded = (_embed(eprime.fan, d) for d in _section_differences(eprime))
    return tuple(sorted({max(emb, tuple(-c for c in emb)) for emb in embedded}))


def section_certificate(eprime: TDivisor, bound: int = DEFAULT_MARKOV_BOUND) -> FiberCertificate:
    """markov_verify(fan, section_difference_moves(eprime), bound), decided
    without forming the difference set when it holds the proven moves.

    The difference set of P(E') is closed under negation, so it contains a
    proven move m = A delta up to sign iff delta is a difference of two
    lattice points of P(E').  Those are the lattice points d of
    P(E') cap (P(E') - delta), the polytope {<d, u_rho> >= -e'_rho + m-_rho},
    one scan that stops at its first point: the membership test
    ``_proven_certificate`` is given.  When a scan fails, the differences
    are formed under their pair guard, past which EnumerationGuardError is
    raised, and searched.
    """
    check_bound(bound)
    fan = eprime.fan

    def holds(delta: Vec) -> bool:
        rhs = [max(-x, 0) - c for x, c in zip(_embed(fan, delta), eprime.coeffs)]
        return has_lattice_point(offset_polytope(fan, rhs))

    cert = _proven_certificate(fan, holds, bound)
    return cert or _bounded_search(fan, _section_differences(eprime), bound)


def connected_sections_check(
    e: TDivisor,
    eprime: TDivisor,
    bound: int = DEFAULT_MARKOV_BOUND,
    verify_idp: bool = True,
) -> dict:
    """Sufficient criterion for (E+E', E) to have connected sections: the
    difference set of P(E') passes the Markov verification, as
    ``section_certificate`` decides it.

    Both divisors must be nef; the decomposition property of the pair holds
    on these fans for every nef pair and is re-checked by enumeration when
    verify_idp is set (``idp_checked`` is None otherwise).  The report
    lists every difference move, so the pair guard of
    section_difference_moves refuses a large E' before the decomposition
    test runs.
    """
    if not (is_nef(e) and is_nef(eprime)):
        raise ValueError("connected-sections check needs a nef pair")
    moves = section_difference_moves(eprime)
    idp_ok = idp_check(e, eprime) is None if verify_idp else None
    cert = section_certificate(eprime, bound)
    return {
        "moves": [list(m) for m in moves],
        "certificate": cert.as_json(),
        "idp_checked": idp_ok,
        "passes": cert.connected and idp_ok is not False,
    }
