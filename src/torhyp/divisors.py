"""Torus-invariant divisors: positivity, intersection numbers, Picard classes.

A divisor is a per-ray integer coefficient vector D = sum a_rho D_rho.  Its
class lives in Pic, the cokernel of 0 -> M -> Z^r -> Pic -> 0, where M =
Z^3 maps to the principal divisors m -> (<m, u_rho>)_rho.  On a catalog fan
Pic is free of rank 2 or 3, and a class is the tuple of its coordinates in
the case's basis of ray divisors, read through the class map B that
``picard_basis`` builds from the rays.  On any fan, ``character`` tests for
the zero class by solving for m, and the wall curves (``fans.walls``)
give nef and ample and, with one dual vector per ray, every triple
product (``intersection_matrix``), so bigness too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import index, mul
from typing import Mapping, NamedTuple, Sequence

from .fans import (
    FAN_CACHE_SIZE,
    Fan,
    InternalInconsistencyError,
    cone_coordinates,
    family_record,
    json_int,
    walls,
)
from .intlin import IntMat, cone_rays, solve_3x3, solve_exact


class _DivisorFields(NamedTuple):
    fan: Fan
    coeffs: tuple[int, ...]


class TDivisor(_DivisorFields):
    """Torus-invariant divisor as one integer coefficient per ray.

    Built only through the constructor, which checks the length (``_make``
    and ``_replace`` would skip the check).  ``+``, ``-`` and ``k * D`` are
    divisor arithmetic; ``D * k`` is refused, not tuple repetition.
    """

    __slots__ = ()

    def __new__(cls, fan: Fan, coeffs: tuple[int, ...]) -> "TDivisor":
        if len(coeffs) != fan.nrays:
            raise ValueError("coefficient vector length must equal ray count")
        return tuple.__new__(cls, (fan, coeffs))

    def __add__(self, other: "TDivisor") -> "TDivisor":
        self._same_fan(other)
        return TDivisor(self.fan, tuple(x + y for x, y in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TDivisor") -> "TDivisor":
        self._same_fan(other)
        return TDivisor(self.fan, tuple(x - y for x, y in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "TDivisor":
        return TDivisor(self.fan, tuple(-x for x in self.coeffs))

    def __rmul__(self, k: int) -> "TDivisor":
        return TDivisor(self.fan, tuple(k * x for x in self.coeffs))

    def __mul__(self, other):
        return NotImplemented

    def _same_fan(self, other: "TDivisor") -> None:
        if self.fan.rays != other.fan.rays:
            raise ValueError("divisors live on different fans")

    def label_dict(self) -> dict[str, int]:
        return {lab: c for lab, c in zip(self.fan.ray_labels, self.coeffs) if c != 0}


def divisor(fan: Fan, coeffs: Mapping[str, int] | Sequence[int]) -> TDivisor:
    """Divisor from coefficients or a label -> coeff map; non-integers, and
    two labels of one ray (a label and its D_k alias), are a ValueError."""
    try:
        if isinstance(coeffs, Mapping):
            vec, given = [0] * fan.nrays, {}
            for label, c in coeffs.items():
                i = fan.label_index(label)
                if given.setdefault(i, label) != label:
                    raise ValueError(f"ray {i} is given twice, as {given[i]!r} and {label!r}")
                vec[i] = index(c)
            return TDivisor(fan, tuple(vec))
        return TDivisor(fan, tuple(map(index, coeffs)))
    except TypeError:
        raise ValueError("divisor coefficients are integers") from None


def ray_divisor(fan: Fan, label: str) -> TDivisor:
    return divisor(fan, {label: 1})


def is_nef(d: TDivisor) -> bool:
    """D.V(tau) >= 0 on the curve of every wall tau; these curves span the
    Mori cone of any complete toric variety, so the test is exact on every
    fan, projective or not."""
    return min(wall_degrees(d.fan, d.coeffs)) >= 0


def is_ample(d: TDivisor) -> bool:
    """Ample test (toric Kleiman criterion): D.V(tau) > 0 on every wall;
    no divisor passes on a fan that is not projective."""
    return min(wall_degrees(d.fan, d.coeffs)) > 0


def wall_degrees(fan: Fan, coeffs: Sequence[int]) -> list[int]:
    """D.V(tau) = a_a + a_b + c_i a_i + c_j a_j over the walls tau of the
    fan, in the order of ``fans.walls``; linear in the coefficients."""
    return [coeffs[a] + coeffs[b] + ci * coeffs[i] + cj * coeffs[j]
            for i, j, a, b, ci, cj in walls(fan)]


def intersection_matrix(d: TDivisor) -> tuple[tuple[int, ...], ...]:
    """The degrees D.D_i.D_j of D on the pairs of ray divisors, indexed
    [i][j], read off the walls.

    For i != j, D_i and D_j meet in the curve V(tau) of the wall tau =
    {i, j} when that is a 2-face of the fan, and are disjoint otherwise,
    so D.D_i.D_j is the wall degree of tau or 0.  For the diagonal take a
    maximal cone (rho, p, q) and solve <m, u_rho> = 1, <m, u_p> = <m, u_q>
    = 0, integrally as the cone is unimodular.  div chi^m = sum_k <m, u_k>
    D_k is principal, so D_rho ~ -sum_{k != rho} <m, u_k> D_k and
    D.D_rho^2 = -sum_{k != rho} <m, u_k> D.D_rho.D_k, where only the k
    with {rho, k} a wall contribute.  So each wall adds its degree to two
    off-diagonal entries and one term to each of its two diagonal entries
    (Cox, Little and Schenck, Toric Varieties, 6.3-6.4).
    """
    fan = d.fan
    rays, n = fan.rays, fan.nrays
    dual: dict[int, tuple[int, ...]] = {}
    for cone in fan.max_cones:
        for rho in cone:
            if rho not in dual:
                dual[rho] = solve_3x3([rays[k] for k in cone], [int(k == rho) for k in cone])[0]
    rows = [[0] * n for _ in range(n)]
    for (i, j, *_), degree in zip(walls(fan), wall_degrees(fan, d.coeffs)):
        if degree:
            rows[i][j] = rows[j][i] = degree
            rows[i][i] -= sum(map(mul, dual[i], rays[j])) * degree
            rows[j][j] -= sum(map(mul, dual[j], rays[i])) * degree
    return tuple(map(tuple, rows))


def is_big(d: TDivisor) -> bool:
    """A nef divisor is big iff its top self-intersection D^3 is positive."""
    if not is_nef(d):
        raise ValueError("bigness via D^3 assumes a nef divisor")
    matrix = intersection_matrix(d)
    return sum(x * sum(map(mul, d.coeffs, row)) for x, row in zip(d.coeffs, matrix) if x) > 0


class PicBasis(NamedTuple):
    """Chosen ray-divisor basis of the Picard group with its class map.

    reduction is the k x r integer matrix B sending a coefficient vector to
    its class coordinates; it kills the three relation vectors (the columns
    of the ray matrix) and sends each basis divisor to a unit vector.
    """

    fan: Fan
    basis_rays: tuple[int, ...]
    reduction: IntMat

    @property
    def rank(self) -> int:
        return len(self.basis_rays)

    def labels(self) -> tuple[str, ...]:
        return tuple(self.fan.ray_labels[i] for i in self.basis_rays)


@lru_cache(maxsize=FAN_CACHE_SIZE)
def picard_basis(fan: Fan) -> PicBasis:
    """Basis of Pic for a catalog fan with its class map B, read off the rays.

    Let A be the ray matrix (rays as rows, the map M = Z^3 -> Z^r), S the
    record's basis rays and T the other rays.  T must be three rays that
    form a lattice basis; then each u_s is sum_t lambda_st u_t with integer
    lambda_s (``fans.cone_coordinates``), and B has the row e_s - sum_t
    lambda_st e_t for each s in S.  So B A = 0 and B is the identity on the
    columns S by construction.  A_T unimodular makes A injective and gives,
    for every v in Z^r, an m with (A m)_T = v_T, so Z^r = im A + Z^S.  B is
    onto, and v = A m + w with w on S lies in ker B only if w = B w = 0.  So
    ker B = im A, the sequence 0 -> M -> Z^r -> Z^k -> 0 is exact and D_S
    is a basis of the free cokernel Pic (Cox, Little and Schenck, Toric
    Varieties, 4.1.3).  A record whose T is no lattice basis raises
    InternalInconsistencyError.
    """
    if fan.family is None:
        raise ValueError("picard_basis needs a catalog fan")
    record, _ = family_record(fan)
    try:
        basis = tuple(fan.label_index(lab) for lab in record.pic_basis)
    except ValueError as exc:
        raise InternalInconsistencyError(f"Picard basis: {exc}") from exc
    others = [i for i in range(fan.nrays) if i not in basis]
    sols = len(others) == 3 and [cone_coordinates(fan, others, fan.rays[s]) for s in basis]
    if not sols or any(sol is None or sol[1] != 1 for sol in sols):
        raise InternalInconsistencyError("basis complement is not a lattice basis; fan data corrupt")
    rows = [[0] * fan.nrays for _ in basis]
    for row, s, (lam, _) in zip(rows, basis, sols):
        row[s] = 1
        for t, x in zip(others, lam):
            row[t] = -x
    return PicBasis(fan, basis, IntMat.from_rows(rows))


def class_of(d: TDivisor) -> tuple[int, ...]:
    """Coordinates of the class of D in the fan's Picard basis."""
    return picard_basis(d.fan).reduction.mul_vec(d.coeffs)


def divisor_from_class(fan: Fan, coords: Sequence[int]) -> TDivisor:
    """The representative of a class supported on the basis rays."""
    basis = picard_basis(fan)
    if len(coords) != basis.rank:
        raise ValueError("class coordinate length must equal the Picard rank")
    return divisor(fan, dict(zip(basis.labels(), coords)))


def character(fan: Fan, coeffs: Sequence[int]) -> tuple[int, int, int] | None:
    """The m in Z^3 with <m, u_rho> = coeffs_rho on every ray, or None.

    sum(coeffs_rho D_rho) is principal, the divisor of chi^m, iff such an m
    exists, so this is the zero-class test on any smooth complete fan.  m
    solves the three equations of the first maximal cone, whose rays are a
    lattice basis, and is then checked on every ray.
    """
    cone = fan.max_cones[0]
    sol = solve_3x3([fan.rays[i] for i in cone], [coeffs[i] for i in cone])
    if sol is None or sol[1] != 1:
        raise InternalInconsistencyError(f"maximal cone {cone} is not unimodular")
    m = sol[0]
    if any(sum(map(mul, u, m)) != x for u, x in zip(fan.rays, coeffs)):
        return None
    return m


def canonical_divisor(fan: Fan) -> TDivisor:
    """Minus the sum of all ray divisors."""
    return TDivisor(fan, (-1,) * fan.nrays)


@lru_cache(maxsize=FAN_CACHE_SIZE)
def nef_generators(fan: Fan) -> tuple[TDivisor, ...]:
    """The extremal rays of the nef cone, read off the walls, each as its
    representative on the basis rays.

    A class is nef iff its degree on every wall curve is >= 0 (``is_nef``),
    an integer form on the class coordinates whose entries are the degrees
    of the basis ray divisors.  The rays the forms cut out (``cone_rays``)
    are sorted by their reversed class coordinates, the printed order; other
    than rank-many rays raise InternalInconsistencyError.
    """
    basis = picard_basis(fan)
    units = [[int(i == s) for i in range(fan.nrays)] for s in basis.basis_rays]
    forms = list({f for f in zip(*(wall_degrees(fan, u) for u in units)) if any(f)})
    rays = set(cone_rays(forms))
    if len(rays) != basis.rank:
        raise InternalInconsistencyError(
            f"expected {basis.rank} extremal rays of the nef cone, the walls give {len(rays)}")
    return tuple(divisor_from_class(fan, v) for v in sorted(rays, key=lambda v: v[::-1]))


@lru_cache(maxsize=FAN_CACHE_SIZE)
def eff_generators(fan: Fan) -> tuple[TDivisor, ...]:
    """The extremal rays of the effective cone, each as a ray divisor, in
    ray order.  The ray classes (the columns of B) generate the cone (Cox,
    Little and Schenck, Toric Varieties, 15.1); the rays of its dual are its
    facet normals and theirs are its rays.  A ray is the first ray divisor
    whose primitive class lies on it, or the one ``eff_ties`` names there.
    """
    reduction = picard_basis(fan).reduction
    try:
        ties = [fan.label_index(lab) for lab in family_record(fan)[0].eff_ties]
    except ValueError as exc:
        raise InternalInconsistencyError(f"effective cone tie: {exc}") from exc
    classes = [tuple(x // gcd(*c) for x in c) for c in map(reduction.col, range(fan.nrays))]
    chosen = {next(j for j in [*ties, *range(fan.nrays)] if classes[j] == ray)
              for ray in cone_rays(list(set(cone_rays(list(set(classes))))))}
    return tuple(ray_divisor(fan, fan.ray_labels[j]) for j in sorted(chosen))


def nef_combination(fan: Fan, combo: Sequence[int]) -> TDivisor:
    """The divisor sum(c_i * N_i) over the nef cone generators N_i."""
    columns = zip(*(g.coeffs for g in nef_generators(fan)))
    return TDivisor(fan, tuple(sum(map(mul, combo, col)) for col in columns))


def ample_reference(fan: Fan) -> TDivisor:
    """The fixed ample class used for degree normalisation: the sum of the
    nef cone generators."""
    return nef_combination(fan, [1] * picard_basis(fan).rank)


def nef_coordinates(fan: Fan, coords: Sequence[int]) -> tuple[Fraction, ...]:
    """Coordinates of a class in the nef-generator basis (exact rationals)."""
    return _nef_coordinates_cached(fan, tuple(coords))


@lru_cache(maxsize=100_000)
def _nef_coordinates_cached(fan: Fan, coords: tuple[int, ...]) -> tuple[Fraction, ...]:
    gens = nef_generators(fan)
    gen_classes = [class_of(g) for g in gens]
    mat = IntMat.from_rows([[gc[i] for gc in gen_classes] for i in range(len(coords))])
    sol = solve_exact(mat, list(coords))
    if sol is None:
        raise ValueError("class outside the span of the nef generators")
    return tuple(int(x) if x.denominator == 1 else x for x in sol)


def divisor_from_json(fan: Fan, data: Mapping) -> TDivisor:
    """Parse {"coeffs": {label: int}} or {"class": [ints]}; input of any
    other shape, or a value that is not an integer, is a ValueError."""
    if not isinstance(data, Mapping):
        raise ValueError("divisor JSON must be an object with a 'coeffs' or 'class' key")
    if "coeffs" in data:
        coeffs = data["coeffs"]
        if not isinstance(coeffs, Mapping):
            raise ValueError("divisor JSON 'coeffs' must map ray labels to integers")
        return divisor(fan, {k: json_int(v, f"coefficient {k}") for k, v in coeffs.items()})
    if "class" in data:
        coords = data["class"]
        if not isinstance(coords, list):
            raise ValueError("divisor JSON 'class' must be a list of integers")
        return divisor_from_class(fan, [json_int(x, "class coordinate") for x in coords])
    raise ValueError("divisor JSON needs a 'coeffs' or 'class' key")
