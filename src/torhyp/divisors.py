"""Torus-invariant divisors: support functions, positivity, Picard classes.

A divisor is a per-ray integer coefficient vector D = sum a_rho D_rho.  The
Picard group of every catalog fan is free of rank 2 or 3; classes are taken
in a fixed basis of ray divisors so that the reference cone generators and
canonical representatives below have stable coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .fans import Fan, InternalInconsistencyError, family_record, find_containing_cone, json_int
from .intlin import IntMat, smith_normal_form, solve_exact


class NotInFanError(ValueError):
    """A vector lies in no cone of the fan."""


@dataclass(frozen=True)
class TDivisor:
    """Torus-invariant divisor as one integer coefficient per ray."""

    fan: Fan
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) != self.fan.nrays:
            raise ValueError("coefficient vector length must equal ray count")

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

    def _same_fan(self, other: "TDivisor") -> None:
        if self.fan.rays != other.fan.rays:
            raise ValueError("divisors live on different fans")

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coeffs)

    def label_dict(self) -> dict[str, int]:
        return {lab: c for lab, c in zip(self.fan.ray_labels, self.coeffs) if c != 0}


def divisor(fan: Fan, coeffs: Mapping[str, int] | Sequence[int]) -> TDivisor:
    """Build a divisor from a coefficient sequence or a label -> coeff map."""
    if isinstance(coeffs, Mapping):
        vec = [0] * fan.nrays
        for label, c in coeffs.items():
            vec[fan.label_index(label)] = int(c)
        return TDivisor(fan, tuple(vec))
    return TDivisor(fan, tuple(int(c) for c in coeffs))


def ray_divisor(fan: Fan, label: str) -> TDivisor:
    return divisor(fan, {label: 1})


def support_function_eval(d: TDivisor, u: Sequence[int]) -> Fraction:
    """Value at u of the piecewise-linear function taking -a_rho on each ray."""
    if tuple(u) == (0, 0, 0):
        return Fraction(0)
    hit = find_containing_cone(d.fan, u)
    if hit is None:
        raise NotInFanError(f"{tuple(u)} lies in no maximal cone")
    cone, coords = hit
    return sum((c * -d.coeffs[i] for i, c in zip(cone, coords)), Fraction(0))


def is_nef(d: TDivisor) -> bool:
    """Nef test: one inequality per primitive collection.

    For a collection P with relation sum(u_P) = sum(c_s u_s) the divisor is
    nef iff sum(a_rho, rho in P) >= sum(c_s a_s), for every collection.
    """
    return _positivity(d, strict=False)


def is_ample(d: TDivisor) -> bool:
    return _positivity(d, strict=True)


def _positivity(d: TDivisor, strict: bool) -> bool:
    if not d.fan.collections:
        raise ValueError("fan carries no primitive collections")
    for coll in d.fan.collections:
        lhs = sum(d.coeffs[i] for i in coll.rays)
        rhs = sum(c * d.coeffs[i] for i, c in zip(coll.relation_cone, coll.relation_coeffs))
        if lhs < rhs or (strict and lhs == rhs):
            return False
    return True


def is_big(d: TDivisor) -> bool:
    """A nef divisor is big iff its top self-intersection D^3 is positive."""
    if not is_nef(d):
        raise ValueError("bigness via D^3 assumes a nef divisor")
    from .polytopes import triple_intersection

    return triple_intersection(d, d, d) > 0


@dataclass(frozen=True)
class PicBasis:
    """Chosen ray-divisor basis of the Picard group with its reduction map.

    reduction is the k x r integer matrix sending a coefficient vector to
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


@dataclass(frozen=True)
class PicClass:
    basis: PicBasis
    coords: tuple[int, ...]

    def __add__(self, other: "PicClass") -> "PicClass":
        return PicClass(self.basis, tuple(x + y for x, y in zip(self.coords, other.coords)))

    def __sub__(self, other: "PicClass") -> "PicClass":
        return PicClass(self.basis, tuple(x - y for x, y in zip(self.coords, other.coords)))

    def is_zero(self) -> bool:
        return all(x == 0 for x in self.coords)


def ray_matrix(fan: Fan) -> IntMat:
    """Rays as rows: the matrix of the lattice-pairing map M -> Z^rays."""
    return IntMat.from_rows(fan.rays)


@lru_cache(maxsize=None)
def picard_basis(fan: Fan) -> PicBasis:
    """Basis of Pic for a catalog fan, verified against the ray matrix.

    The reduction map B is determined by B @ A = 0 (A = rays as rows) and
    B restricted to the basis columns being the identity; freeness of the
    cokernel is confirmed through the Smith form of A.  A catalog record
    that fails these checks raises InternalInconsistencyError.
    """
    if fan.family is None:
        raise ValueError("picard_basis needs a catalog fan")
    a = ray_matrix(fan)
    snf = smith_normal_form(a)
    if snf.diagonal() != (1, 1, 1):
        raise InternalInconsistencyError("ray matrix cokernel is not free; fan data corrupt")
    try:
        basis = tuple(fan.label_index(lab) for lab in family_record(fan)[0].pic_basis)
    except KeyError as exc:
        raise InternalInconsistencyError(f"Picard basis: {exc.args[0]}") from exc
    others = tuple(i for i in range(fan.nrays) if i not in basis)
    k = fan.nrays - 3
    # Solve for the non-basis columns: B_T = -A_S (A_T)^{-1}, entrywise exact.
    a_t = IntMat.from_rows([fan.rays[i] for i in others])
    a_s = IntMat.from_rows([fan.rays[i] for i in basis])
    cols: dict[int, tuple[int, ...]] = {}
    for pos, i in enumerate(basis):
        cols[i] = tuple(1 if j == pos else 0 for j in range(k))
    # Row c of B restricted to the complement T solves A_T^t x = -u_{S_c},
    # since the row must pair to zero against every lattice relation.
    at_t = a_t.transpose()
    bt_rows = []
    for c in range(k):
        rhs = [-a_s[c, m] for m in range(3)]
        sol = solve_exact(at_t, rhs)
        if sol is None or any(x.denominator != 1 for x in sol):
            raise InternalInconsistencyError("basis complement is not unimodular; fan data corrupt")
        bt_rows.append([int(x) for x in sol])
    for pos, i in enumerate(others):
        cols[i] = tuple(bt_rows[c][pos] for c in range(k))
    reduction = IntMat.from_rows([[cols[i][c] for i in range(fan.nrays)] for c in range(k)])
    # The reduction must kill every relation row m -> <m, u_rho>.
    for j in range(3):
        if any(x != 0 for x in reduction.mul_vec(a.col(j))):
            raise InternalInconsistencyError("reduction map does not kill the lattice relations")
    return PicBasis(fan, basis, reduction)


def class_of(d: TDivisor) -> PicClass:
    basis = picard_basis(d.fan)
    return PicClass(basis, basis.reduction.mul_vec(d.coeffs))


def class_from_coords(fan: Fan, coords: Sequence[int]) -> PicClass:
    basis = picard_basis(fan)
    if len(coords) != basis.rank:
        raise ValueError("class coordinate length must equal the Picard rank")
    return PicClass(basis, tuple(int(c) for c in coords))


def divisor_from_class(cls: PicClass) -> TDivisor:
    """Representative supported on the basis rays."""
    vec = [0] * cls.basis.fan.nrays
    for i, c in zip(cls.basis.basis_rays, cls.coords):
        vec[i] = c
    return TDivisor(cls.basis.fan, tuple(vec))


def canonical_divisor(fan: Fan) -> TDivisor:
    """Minus the sum of all ray divisors."""
    return TDivisor(fan, (-1,) * fan.nrays)


def canonical_class(fan: Fan) -> PicClass:
    return class_of(canonical_divisor(fan))


# Reference data from the case catalog: nef and effective cone generators
# and the canonical representative in the chosen basis.


def nef_generators(fan: Fan) -> list[TDivisor]:
    record, p = family_record(fan)
    return [divisor(fan, g) for g in record.nef(**p)]


def eff_generators(fan: Fan) -> list[TDivisor]:
    record, p = family_record(fan)
    return [ray_divisor(fan, lab) for lab in record.eff(**p)]


def canonical_reference_coords(fan: Fan) -> tuple[int, ...]:
    """Reference coordinates of the canonical class in the case basis."""
    record, p = family_record(fan)
    return record.canonical(**p)


def nef_combination(fan: Fan, combo: Sequence[int]) -> TDivisor:
    """The divisor sum(c_i * N_i) over the nef cone generators N_i."""
    record, p = family_record(fan)
    coeffs = [0] * fan.nrays
    for c, gen in zip(combo, record.nef(**p)):
        for label, x in gen.items():
            coeffs[fan.label_index(label)] += c * x
    return TDivisor(fan, tuple(coeffs))


def ample_reference(fan: Fan) -> TDivisor:
    """The fixed ample class used for degree normalisation: the sum of the
    nef cone generators."""
    return nef_combination(fan, [1] * picard_basis(fan).rank)


def nef_coordinates(fan: Fan, cls: PicClass) -> tuple[Fraction, ...]:
    """Coordinates of a class in the nef-generator basis (exact rationals)."""
    return _nef_coordinates_cached(fan, cls.coords)


@lru_cache(maxsize=100_000)
def _nef_coordinates_cached(fan: Fan, coords: tuple[int, ...]) -> tuple[Fraction, ...]:
    gens = nef_generators(fan)
    gen_classes = [class_of(g) for g in gens]
    mat = IntMat.from_rows([[gc.coords[i] for gc in gen_classes] for i in range(len(coords))])
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
        return divisor_from_class(
            class_from_coords(fan, [json_int(x, "class coordinate") for x in coords])
        )
    raise ValueError("divisor JSON needs a 'coeffs' or 'class' key")
