"""Fans of the nine classified toric threefold families.

A family is selected by a case id (a key of ``catalog.CASES``) together
with its integer parameters.  Rays are primitive integer 3-vectors, maximal
cones are 3-element ray index sets, and primitive collections (the minimal
ray sets not spanning a cone) are stored with their exact positive relations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .catalog import CASES, Case
from .intlin import solve_3x3

Vec3 = tuple[int, int, int]

CASE_IDS = tuple(CASES)


class ParameterError(ValueError):
    """A family parameter violates its allowed range."""

    def __init__(self, violation: str):
        super().__init__(violation)
        self.violation = violation


class FanGeometryError(ValueError):
    """The combinatorial data does not assemble into a smooth complete fan."""


class InternalInconsistencyError(RuntimeError):
    """A recomputation disagrees with the package's encoded tables."""


@dataclass(frozen=True)
class FamilySpec:
    """One of the nine classified cases with its integer parameters."""

    case_id: str
    params: tuple[tuple[str, int], ...]

    @classmethod
    def make(cls, case_id: str, **params: int) -> "FamilySpec":
        if case_id not in CASE_IDS:
            raise ParameterError(f"unknown case id {case_id!r}")
        names = CASES[case_id].params
        missing = [n for n in names if n not in params]
        extra = [n for n in params if n not in names]
        if missing:
            raise ParameterError(f"case {case_id} needs parameter(s) {', '.join(missing)}")
        if extra:
            raise ParameterError(f"case {case_id} does not take parameter(s) {', '.join(extra)}")
        spec = cls(case_id, tuple((n, int(params[n])) for n in names))
        spec.validate()
        return spec

    def __getitem__(self, name: str) -> int:
        for n, v in self.params:
            if n == name:
                return v
        raise KeyError(name)

    def as_dict(self) -> dict[str, int]:
        return dict(self.params)

    def validate(self) -> None:
        p = self.as_dict()
        for ok, violation in CASES[self.case_id].requires:
            if not ok(p):
                raise ParameterError(violation)


@dataclass(frozen=True)
class PrimitiveCollection:
    """Minimal non-face of the fan together with its positive relation.

    The ray sum u_{rho_1} + ... + u_{rho_k} equals
    sum(c * u_sigma for sigma, c in zip(relation_cone, relation_coeffs))
    with every coefficient strictly positive; both sides are empty exactly
    when the ray sum is zero.
    """

    rays: tuple[int, ...]
    relation_cone: tuple[int, ...] = ()
    relation_coeffs: tuple[int, ...] = ()


@dataclass(frozen=True)
class Fan:
    """Smooth complete fan in R^3 with labelled rays."""

    rays: tuple[Vec3, ...]
    max_cones: tuple[tuple[int, int, int], ...]
    ray_labels: tuple[str, ...]
    collections: tuple[PrimitiveCollection, ...] = ()
    family: FamilySpec | None = None

    @property
    def nrays(self) -> int:
        return len(self.rays)

    def label_index(self, label: str) -> int:
        for i, lab in enumerate(self.ray_labels):
            if lab == label:
                return i
        # Numeric aliases D_1 ... D_n are always accepted.
        if label.startswith("D_"):
            tail = label[2:]
            if tail.isdigit() and 1 <= int(tail) <= self.nrays:
                return int(tail) - 1
        raise KeyError(f"no ray labelled {label!r}")


@dataclass(frozen=True)
class FanValidation:
    """Report from verify_smooth_complete: per-cone determinants and
    per-2-face incidence counts, with the failures spelled out."""

    cone_dets: tuple[tuple[tuple[int, int, int], int], ...]
    face_incidence: tuple[tuple[tuple[int, int], int], ...]
    failures: tuple[str, ...]

    @property
    def smooth(self) -> bool:
        return all(abs(d) == 1 for _, d in self.cone_dets)

    @property
    def complete(self) -> bool:
        return all(c == 2 for _, c in self.face_incidence) and bool(self.face_incidence)

    @property
    def ok(self) -> bool:
        return not self.failures


def _gcd_vec(v: Sequence[int]) -> int:
    from math import gcd

    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def verify_smooth_complete(fan: Fan) -> FanValidation:
    failures: list[str] = []
    for i, u in enumerate(fan.rays):
        if _gcd_vec(u) != 1:
            failures.append(f"ray {i} is not primitive")
    dets = []
    for cone in fan.max_cones:
        rows = [fan.rays[i] for i in cone]
        (a, b, c), (d, e, f), (g, h, i) = rows
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        dets.append((cone, det))
        if abs(det) != 1:
            failures.append(f"cone {cone} has |det| = {abs(det)}")
    incidence: dict[tuple[int, int], int] = {}
    for cone in fan.max_cones:
        s = sorted(cone)
        for pair in ((s[0], s[1]), (s[0], s[2]), (s[1], s[2])):
            incidence[pair] = incidence.get(pair, 0) + 1
    for pair, count in sorted(incidence.items()):
        if count != 2:
            failures.append(f"2-face {pair} lies in {count} maximal cones")
    if not fan.max_cones:
        failures.append("fan has no maximal cones")
    return FanValidation(tuple(dets), tuple(sorted(incidence.items())), tuple(failures))


def cone_coordinates(fan: Fan, cone: Sequence[int], u: Sequence[int]):
    """Exact coordinates of u in the cone's ray basis, or None if singular."""
    rows = [[fan.rays[i][k] for i in cone] for k in range(3)]
    return solve_3x3(rows, tuple(u))


def find_containing_cone(fan: Fan, u: Sequence[int]):
    """First maximal cone containing u, with its nonnegative coordinates.

    Returns (cone, coords) where coords are Fractions; None if u lies in no
    cone (the fan is then not complete).
    """
    from fractions import Fraction

    for cone in fan.max_cones:
        sol = cone_coordinates(fan, cone, u)
        if sol is None:
            continue
        nums, den = sol
        if all(n >= 0 for n in nums):
            return cone, tuple(Fraction(n, den) for n in nums)
    return None


def cones_from_collections(
    rays: Sequence[Vec3], collections: Sequence[Sequence[int]]
) -> tuple[tuple[int, int, int], ...]:
    """Maximal cones = 3-subsets of rays containing no collection.

    The result is checked for smoothness and completeness; inconsistent
    input raises FanGeometryError.
    """
    from itertools import combinations

    csets = [frozenset(c) for c in collections]
    cones = tuple(
        trip
        for trip in combinations(range(len(rays)), 3)
        if not any(c <= frozenset(trip) for c in csets)
    )
    fan = Fan(tuple(tuple(u) for u in rays), cones, tuple(f"D_{i+1}" for i in range(len(rays))))
    report = verify_smooth_complete(fan)
    if not report.ok:
        raise FanGeometryError("; ".join(report.failures))
    _check_single_cover(fan)
    return cones


def _check_single_cover(fan: Fan) -> None:
    """Spot-check that generic points lie in exactly one maximal cone."""
    probes = [(97, 61, 31), (-89, 53, -29), (41, -103, 67), (-59, -71, -113), (13, 37, 101)]
    for p in probes:
        hits = 0
        boundary = False
        for cone in fan.max_cones:
            sol = cone_coordinates(fan, cone, p)
            if sol is None:
                continue
            nums, _ = sol
            if all(n > 0 for n in nums):
                hits += 1
            elif all(n >= 0 for n in nums):
                boundary = True
        if boundary:
            continue
        if hits != 1:
            raise FanGeometryError(f"probe point {p} lies in {hits} cone interiors")


def minimal_nonfaces(fan: Fan) -> set[frozenset[int]]:
    """Recompute primitive collections as minimal non-faces of the cone complex."""
    from itertools import combinations

    faces = set()
    for cone in fan.max_cones:
        for k in range(1, 4):
            for sub in combinations(sorted(cone), k):
                faces.add(frozenset(sub))
    nonfaces = []
    for k in range(2, fan.nrays + 1):
        for sub in combinations(range(fan.nrays), k):
            s = frozenset(sub)
            if s in faces:
                continue
            if all(frozenset(t) in faces for t in combinations(sub, k - 1)):
                nonfaces.append(s)
    return set(nonfaces)


def primitive_relation(fan: Fan, rays: Sequence[int]) -> PrimitiveCollection:
    """Fill in the positive relation of a primitive collection.

    Finds the smallest cone containing the ray sum and the unique expansion
    with positive integer coefficients; the identity is re-verified by
    substitution.
    """
    idx = tuple(sorted(rays))
    total = tuple(sum(fan.rays[i][k] for i in idx) for k in range(3))
    if total == (0, 0, 0):
        return PrimitiveCollection(idx)
    hit = find_containing_cone(fan, total)
    if hit is None:
        raise FanGeometryError(f"ray sum {total} lies in no cone; fan not complete")
    cone, coords = hit
    support = [(i, c) for i, c in zip(cone, coords) if c != 0]
    if any(c < 0 or c.denominator != 1 for _, c in support):
        raise FanGeometryError(f"relation for {idx} has a non-positive or fractional coefficient")
    rel_cone = tuple(i for i, _ in support)
    rel_coeffs = tuple(int(c) for _, c in support)
    check = tuple(
        sum(cf * fan.rays[i][k] for i, cf in zip(rel_cone, rel_coeffs)) for k in range(3)
    )
    if check != total:
        raise FanGeometryError("relation substitution failed")
    return PrimitiveCollection(idx, rel_cone, rel_coeffs)


def is_splitting(collections: Sequence[PrimitiveCollection]) -> bool:
    """True when no two primitive collections share a ray."""
    seen: set[int] = set()
    for c in collections:
        if seen & set(c.rays):
            return False
        seen |= set(c.rays)
    return True


def family_record(fan: Fan) -> tuple[Case, dict[str, int]]:
    """The catalog record of a family fan, with the family's parameters."""
    if fan.family is None:
        raise ValueError("operation needs a catalog fan")
    return CASES[fan.family.case_id], fan.family.as_dict()


@lru_cache(maxsize=None)
def build_family_fan(spec: FamilySpec) -> Fan:
    """Construct and validate the fan of a classified family.

    Primitive collections are part of the stored classification data; the
    reconstruction of the maximal cones from them, plus the recomputation of
    minimal non-faces, serves as the consistency check.  Parameters are
    validated first, so geometry that fails past that point is corrupt
    catalog data and raises InternalInconsistencyError.
    """
    spec.validate()
    record = CASES[spec.case_id]
    rays, labels, colls = tuple(record.rays(**spec.as_dict())), record.labels, record.collections
    try:
        cones = cones_from_collections(rays, colls)
        fan = Fan(rays, cones, labels, family=spec)
        filled = tuple(primitive_relation(fan, c) for c in colls)
    except FanGeometryError as exc:
        raise InternalInconsistencyError(f"case {spec.case_id}: {exc}") from exc
    fan = Fan(rays, cones, labels, collections=filled, family=spec)
    if minimal_nonfaces(fan) != {frozenset(c) for c in colls}:
        raise InternalInconsistencyError(
            f"case {spec.case_id}: stored collections disagree with recomputed minimal non-faces"
        )
    return fan


def family_fan(case_id: str, **params: int) -> Fan:
    return build_family_fan(FamilySpec.make(case_id, **params))


def generic_fan(rays: Sequence[Sequence[int]], max_cones: Sequence[Sequence[int]],
                labels: Sequence[str] | None = None) -> Fan:
    """Fan from raw data (hand-written input); collections are recomputed."""
    rays_t = tuple(tuple(int(x) for x in u) for u in rays)
    cones_t = tuple(tuple(sorted(int(i) for i in c)) for c in max_cones)
    if labels is None:
        labels = [f"D_{i+1}" for i in range(len(rays_t))]
    fan = Fan(rays_t, cones_t, tuple(labels))
    report = verify_smooth_complete(fan)
    if not report.ok:
        raise FanGeometryError("; ".join(report.failures))
    colls = tuple(
        primitive_relation(fan, tuple(sorted(s))) for s in sorted(minimal_nonfaces(fan), key=sorted)
    )
    return Fan(rays_t, cones_t, tuple(labels), collections=colls)


def fan_to_json(fan: Fan) -> dict:
    out: dict = {
        "rays": [list(u) for u in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
        "ray_labels": list(fan.ray_labels),
        "collections": [
            {
                "rays": list(c.rays),
                "relation_cone": list(c.relation_cone),
                "relation_coeffs": list(c.relation_coeffs),
            }
            for c in fan.collections
        ],
    }
    if fan.family is not None:
        out["case"] = fan.family.case_id
        out["params"] = fan.family.as_dict()
    return out


def json_int(value, what: str) -> int:
    """An integer read from JSON input; floats, booleans and strings are
    refused rather than truncated or coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def _json_triples(data: Mapping, key: str) -> list[Vec3]:
    value = data.get(key)
    if not isinstance(value, list) or not all(isinstance(t, list) and len(t) == 3 for t in value):
        raise ValueError(f"fan JSON needs {key!r} as a list of integer triples")
    return [tuple(json_int(x, f"an entry of {key!r}") for x in t) for t in value]


def fan_from_json(data: Mapping) -> Fan:
    """Fan from {"case", "params"} or {"rays", "max_cones", "ray_labels"?};
    input of any other shape is a ValueError."""
    if not isinstance(data, Mapping):
        raise ValueError("fan JSON must be an object")
    if "case" in data:
        params = data.get("params", {})
        if not isinstance(params, Mapping):
            raise ValueError("fan JSON 'params' must map parameter names to integers")
        return family_fan(data["case"], **{k: json_int(v, k) for k, v in params.items()})
    rays, cones = _json_triples(data, "rays"), _json_triples(data, "max_cones")
    if any(not 0 <= i < len(rays) for cone in cones for i in cone):
        raise ValueError(f"a maximal cone indexes a ray outside 0..{len(rays) - 1}")
    labels = data.get("ray_labels")
    if labels is not None and (
        not isinstance(labels, list)
        or len(labels) != len(rays)
        or not all(isinstance(x, str) for x in labels)
    ):
        raise ValueError("fan JSON 'ray_labels' must list one string per ray")
    return generic_fan(rays, cones, labels)


def fan_from_json_str(text: str) -> Fan:
    return fan_from_json(json.loads(text))
