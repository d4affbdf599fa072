"""Fans of the nine classified toric threefold families.

A family is selected by a case id (a key of ``catalog.CASES``) together
with its integer parameters.  Rays are primitive integer 3-vectors and
maximal cones are 3-element ray index sets.

Every fan is built by ``generic_fan``, which checks it exactly
(``verify_smooth_complete``); nef and ample read its wall relations
(``walls``).  A family's cones are the ray triples that hold none of its
stored primitive collections (the minimal ray sets not spanning a cone),
which must be the fan's minimal non-faces (``build_family_fan``).
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import index
from typing import Mapping, NamedTuple, Sequence

from .catalog import CASES, Case, integers, satisfied
from .intlin import solve_3x3

Vec3 = tuple[int, int, int]

CASE_IDS = tuple(CASES)
# The size of every per-fan cache (fans, wall relations, Picard bases, nef
# and effective cone generators, Markov proofs, fiber counts, boundedness of
# normal sets, the dense view of the triple products, compiled members): one
# entry per family member in use; the criterion-1 grid has 186.
# Intersection matrices are not cached.
FAN_CACHE_SIZE = 256


class ParameterError(ValueError):
    """A family parameter violates its allowed range."""


class FanGeometryError(ValueError):
    """The combinatorial data does not assemble into a smooth complete fan."""


class InternalInconsistencyError(RuntimeError):
    """A recomputation disagrees with the package's encoded tables."""


class FamilySpec(NamedTuple):
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
        try:
            spec = cls(case_id, tuple((n, index(params[n])) for n in names))
        except TypeError:
            raise ParameterError(f"case {case_id} takes integer parameters") from None
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
        for requirement in CASES[self.case_id].requires:
            try:
                ok = satisfied(requirement, p)
            except ValueError as exc:
                raise InternalInconsistencyError(f"{requirement!r} in case {self.case_id}: {exc}") from None
            if not ok:
                raise ParameterError(f"{requirement} required in case {self.case_id}")


class Fan(NamedTuple):
    """Smooth complete fan in R^3 with labelled rays."""

    rays: tuple[Vec3, ...]
    max_cones: tuple[tuple[int, int, int], ...]
    ray_labels: tuple[str, ...]
    family: FamilySpec | None = None

    @property
    def nrays(self) -> int:
        return len(self.rays)

    def label_index(self, label: str) -> int:
        for i, lab in enumerate(self.ray_labels):
            if lab == label:
                return i
        # The aliases D_1 ... D_n, in ASCII digits with no leading zero.
        tail = label[2:] if label.startswith("D_") else ""
        if tail.isascii() and tail.isdigit() and tail[0] != "0" and int(tail) <= self.nrays:
            return int(tail) - 1
        raise ValueError(f"no ray labelled {label!r}")


def _det(u: Sequence[int], v: Sequence[int], w: Sequence[int]) -> int:
    """det(u, v, w) of three integer 3-vectors (the rows)."""
    return (u[0] * (v[1] * w[2] - v[2] * w[1]) - u[1] * (v[0] * w[2] - v[2] * w[0])
            + u[2] * (v[0] * w[1] - v[1] * w[0]))


def _two_faces(fan: Fan) -> tuple[list[int], dict[tuple[int, int], list[tuple[int, int]]]]:
    """The determinant of each maximal cone, and per 2-face {i, j} the
    (apex, side) of each maximal cone on it: the apex is the cone's third
    ray and the side the sign of det(u_i, u_j, u_apex), which is
    det(u_a, u_b, u_c) for the sorted cone up to the permutation's sign."""
    rays = fan.rays
    dets, faces = [], {}
    for cone in fan.max_cones:
        a, b, c = sorted(cone)
        d = _det(rays[a], rays[b], rays[c])
        for pair, apex, side in (((a, b), c, d), ((a, c), b, -d), ((b, c), a, d)):
            faces.setdefault(pair, []).append((apex, side))
        dets.append(d)
    return dets, faces


def verify_smooth_complete(fan: Fan) -> tuple[str, ...]:
    """The failures of the smoothness and completeness checks, spelled out:
    a ray that is no 3-vector (reported alone), a ray that is not
    primitive or lies in no maximal cone, a cone that
    repeats a ray (reported alone, as it has no three 2-faces), a cone of
    |det| other than 1, a 2-face in other than two maximal cones or with
    both on one side, a point inside the first cone that another cone
    holds, or no maximal cones; empty when none.

    The test is exact.  Let every cone be unimodular and every 2-face
    {i, j} lie in two cones with apexes a, b on opposite sides (det(u_i,
    u_j, u_a) and det(u_i, u_j, u_b) of opposite signs).  Crossing a 2-face
    then leaves one cone and enters the other, so off the 2-faces every
    point lies in the same number k of cones.  The sum of the first cone's
    rays lies inside it, so k = 1 when no other closed cone holds it.  By
    the same count the cones at a ray cover a neighbourhood of it, so no
    ray lies in a cone without it; cones that cover space once and hold no
    ray but their own meet in common faces, so they form a fan.
    """
    rays, cones = fan.rays, fan.max_cones
    short = [f"ray {i} has {len(u)} coordinates, not 3" for i, u in enumerate(rays) if len(u) != 3]
    if short:
        return tuple(short)
    failures: list[str] = []
    used = {i for cone in cones for i in cone}
    for i, u in enumerate(rays):
        if gcd(*u) != 1:
            failures.append(f"ray {i} is not primitive")
        if i not in used:
            failures.append(f"ray {i} lies in no maximal cone")
    repeats = [f"cone {c} repeats a ray" for c in cones if len(set(c)) < 3]
    if repeats:
        return (*failures, *repeats)
    dets, faces = _two_faces(fan)
    failures += [f"cone {c} has |det| = {abs(d)}" for c, d in zip(cones, dets) if abs(d) != 1]
    for pair, sides in sorted(faces.items()):
        if len(sides) != 2:
            failures.append(f"2-face {pair} lies in {len(sides)} maximal cones")
        elif sides[0][1] * sides[1][1] > 0:
            failures.append(f"2-face {pair} has both its cones on one side")
    if not cones:
        failures.append("fan has no maximal cones")
    elif all(abs(d) == 1 for d in dets):
        point = tuple(sum(rays[i][k] for i in cones[0]) for k in range(3))
        hits = sum(min(cone_coordinates(fan, cone, point)[0]) >= 0 for cone in cones)
        if hits != 1:
            failures.append(f"point {point} inside cone {cones[0]} lies in {hits} maximal cones")
    return tuple(failures)


@lru_cache(maxsize=FAN_CACHE_SIZE)
def walls(fan: Fan) -> tuple[tuple[int, int, int, int, int, int], ...]:
    """(i, j, a, b, c_i, c_j) per wall, the 2-face {i, j} with apexes a
    and b, in sorted order, from u_a + u_b + c_i u_i + c_j u_j = 0.

    The wall's curve meets D = sum a_rho D_rho in a_a + a_b + c_i a_i +
    c_j a_j, and these curves span the Mori cone of any complete toric
    variety (Cox, Little and Schenck, Toric Varieties, 6.3-6.4).  On a
    smooth complete fan d = det(u_i, u_j, u_a) = +-1 and u_b lies across
    the wall, so u_a + u_b = -c_i u_i - c_j u_j gives c_i, c_j by Cramer.
    """
    rays = fan.rays
    out = []
    for (i, j), ((a, d), (b, _)) in sorted(_two_faces(fan)[1].items()):
        u, v, w = rays[i], rays[j], rays[a]
        s = (w[0] + rays[b][0], w[1] + rays[b][1], w[2] + rays[b][2])
        out.append((i, j, a, b, -d * _det(s, v, w), -d * _det(u, s, w)))
    return tuple(out)


def cone_coordinates(fan: Fan, cone: Sequence[int], u: Sequence[int]):
    """Exact coordinates of u in the cone's ray basis, or None if singular."""
    rows = [[fan.rays[i][k] for i in cone] for k in range(3)]
    return solve_3x3(rows, tuple(u))


def find_containing_cone(fan: Fan, u: Sequence[int]):
    """First maximal cone containing u, with its nonnegative coordinates.

    Returns (cone, nums, den): u = sum(n * u_i for i, n in zip(cone, nums)) / den
    with den > 0 (1 on a unimodular cone); None if u lies in no cone (the
    fan is then not complete).
    """
    for cone in fan.max_cones:
        sol = cone_coordinates(fan, cone, u)
        if sol is None:
            continue
        nums, den = sol
        if all(n >= 0 for n in nums):
            return cone, nums, den
    return None


def cones_from_collections(
    rays: Sequence[Vec3], collections: Sequence[Sequence[int]]
) -> tuple[tuple[int, int, int], ...]:
    """Maximal cones = 3-subsets of rays containing no collection."""
    csets = [frozenset(c) for c in collections]
    return tuple(
        trip
        for trip in combinations(range(len(rays)), 3)
        if not any(c <= frozenset(trip) for c in csets)
    )


def minimal_nonfaces(fan: Fan) -> set[frozenset[int]]:
    """Recompute primitive collections as minimal non-faces of the cone complex.

    Every proper subset of a minimal non-face is a cone of at most three
    rays, so no minimal non-face has more than four.  A four-ray one has
    all four of its triples as cones; those close a sphere, which in a
    smooth complete fan is the whole fan, so it occurs only on four rays.
    """
    faces = set()
    for cone in fan.max_cones:
        for k in range(1, 4):
            for sub in combinations(sorted(cone), k):
                faces.add(frozenset(sub))
    nonfaces = []
    for k in range(2, (4 if fan.nrays == 4 else min(fan.nrays, 3)) + 1):
        for sub in combinations(range(fan.nrays), k):
            s = frozenset(sub)
            if s in faces:
                continue
            if all(frozenset(t) in faces for t in combinations(sub, k - 1)):
                nonfaces.append(s)
    return set(nonfaces)


def primitive_relation(fan: Fan, rays: Sequence[int]) -> dict:
    """The positive relation of a primitive collection, as ``describe``
    prints it: the ray sum u_{rho_1} + ... + u_{rho_k} over ``"rays"``
    equals sum(c * u_sigma) over ``"relation_cone"`` and
    ``"relation_coeffs"``, every c strictly positive; both lists are empty
    exactly when the ray sum is zero.

    Finds the smallest cone containing the ray sum and its unique expansion
    there, which Cramer's rule gives exactly; a fractional coefficient
    (possible only on a cone that is not unimodular) is refused.
    """
    idx = sorted(rays)
    total = tuple(sum(fan.rays[i][k] for i in idx) for k in range(3))
    if total == (0, 0, 0):
        return {"rays": idx, "relation_cone": [], "relation_coeffs": []}
    hit = find_containing_cone(fan, total)
    if hit is None:
        raise FanGeometryError(f"ray sum {total} lies in no cone; fan not complete")
    cone, nums, den = hit
    support = [(i, n) for i, n in zip(cone, nums) if n]
    if any(n % den for _, n in support):
        raise FanGeometryError(f"relation for {tuple(idx)} has a fractional coefficient")
    return {"rays": idx, "relation_cone": [i for i, _ in support],
            "relation_coeffs": [n // den for _, n in support]}


def is_splitting(collections: Sequence[Sequence[int]]) -> bool:
    """True when no two primitive collections share a ray."""
    seen: set[int] = set()
    for c in collections:
        if seen & set(c):
            return False
        seen |= set(c)
    return True


def family_record(fan: Fan) -> tuple[Case, dict[str, int]]:
    """The catalog record of a family fan, with the family's parameters."""
    if fan.family is None:
        raise ValueError("operation needs a catalog fan")
    return CASES[fan.family.case_id], fan.family.as_dict()


@lru_cache(maxsize=FAN_CACHE_SIZE)
def build_family_fan(spec: FamilySpec) -> Fan:
    """Construct and validate the fan of a classified family.

    Primitive collections are part of the stored classification data: the
    maximal cones are the ray triples holding none of them, ``generic_fan``
    checks that fan, and its minimal non-faces must be the stored
    collections.  Parameters are validated first, so a fan or labels that
    fail past that point are corrupt catalog data and raise
    InternalInconsistencyError.
    """
    spec.validate()
    record = CASES[spec.case_id]
    try:
        rays = tuple(integers(ray, spec.as_dict()) for ray in record.rays)
        fan = generic_fan(rays, cones_from_collections(rays, record.collections), record.labels)
    except ValueError as exc:  # rays that do not read, a FanGeometryError, or unfit labels
        raise InternalInconsistencyError(f"case {spec.case_id}: {exc}") from exc
    if minimal_nonfaces(fan) != {frozenset(c) for c in record.collections}:
        raise InternalInconsistencyError(
            f"case {spec.case_id}: stored collections disagree with recomputed minimal non-faces"
        )
    return fan._replace(family=spec)


def family_fan(case_id: str, **params: int) -> Fan:
    return build_family_fan(FamilySpec.make(case_id, **params))


def generic_fan(rays: Sequence[Sequence[int]], max_cones: Sequence[Sequence[int]],
                labels: Sequence[str] | None = None) -> Fan:
    """Fan from raw data, checked by ``verify_smooth_complete`` (a failure
    is a FanGeometryError); a non-integer entry is a ValueError, and so are
    labels other than one string per ray, or a label or alias D_k that
    names two rays."""
    try:
        rays_t = tuple(tuple(map(index, u)) for u in rays)
        cones_t = tuple(tuple(sorted(map(index, c))) for c in max_cones)
    except TypeError:
        raise ValueError("fan rays and cones hold integers") from None
    if labels is None:
        labels = [f"D_{i+1}" for i in range(len(rays_t))]
    elif (not isinstance(labels, (list, tuple)) or len(labels) != len(rays_t)
          or not all(isinstance(x, str) for x in labels)):
        raise ValueError("ray labels must list one string per ray")
    else:
        # Each label, and each alias D_k, must name its own ray.
        named: dict[str, int] = {}
        for i, label in enumerate(labels):
            for name in (label, f"D_{i + 1}"):
                if (j := named.setdefault(name, i)) != i:
                    raise ValueError(f"ray label {name!r} names both ray {j} and ray {i}")
    fan = Fan(rays_t, cones_t, tuple(labels))
    failures = verify_smooth_complete(fan)
    if failures:
        raise FanGeometryError("; ".join(failures))
    return fan


def fan_to_json(fan: Fan) -> dict:
    """Rays, cones and labels; a catalog fan adds its stored primitive
    collections with their relations, its case and its parameters."""
    out: dict = {
        "rays": [list(u) for u in fan.rays],
        "max_cones": [list(c) for c in fan.max_cones],
        "ray_labels": list(fan.ray_labels),
    }
    if fan.family is not None:
        colls = CASES[fan.family.case_id].collections
        out["collections"] = [primitive_relation(fan, c) for c in colls]
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
    return generic_fan(rays, cones, data.get("ray_labels"))


def fan_from_json_str(text: str) -> Fan:
    return fan_from_json(json.loads(text))
