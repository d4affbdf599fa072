import itertools
import re
from fractions import Fraction

import pytest

from torhyp.catalog import CASES
from torhyp.fans import (
    CASE_IDS,
    FamilySpec,
    Fan,
    FanGeometryError,
    ParameterError,
    build_family_fan,
    cones_from_collections,
    family_fan,
    fan_from_json,
    fan_to_json,
    generic_fan,
    is_splitting,
    minimal_nonfaces,
    primitive_relation,
    verify_smooth_complete,
    walls,
)

from oracles import all_minimal_nonfaces

PARAM_GRID = {
    "2.0.1": [{"l": l} for l in (0, 1, 2, 3)],
    "2.0.2": [{"l1": l1, "l2": l2} for l1 in (0, 1, 2) for l2 in (l1, l1 + 1, 3) if l2 >= l1],
    "3.0.1": [{"r": r, "a": a, "b": b} for r in (0, 2) for a in (0, 1) for b in (0, 3)],
    "3.0.2": [{"r": r, "a": a, "b": b} for r in (0, 2) for a in (0, 1) for b in (-1, -3)],
    "3.1.1": [{"b1": b1} for b1 in (-2, -1, 0, 1, 3)],
    "3.1.2": [{"b1": b1} for b1 in (-2, -1, 0, 1, 3)],
    "3.1.3": [{"b1": b1, "c2": c2} for b1 in (-1, 0, 2) for c2 in (-1, 0, 2)],
    "3.1.4": [{"b1": b1, "b2": b2} for b1 in (-1, 0, 2) for b2 in (-1, 0, 2)],
    "3.1.5": [{"b1": b1} for b1 in (-2, -1, 0, 1, 3)],
}

ALL_SPECS = [(case, params) for case in CASE_IDS for params in PARAM_GRID[case]]

# The fan of P^3 with a fifth ray, (1, 1, 1), that no maximal cone uses.
UNUSED_RAY_FAN = {
    "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [1, 1, 1]],
    "max_cones": [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]],
}

# P^3 with cone (0, 1, 2) replaced by the three cones around a new ray
# (1, 1, -1), which lies inside cone (0, 1, 3): each 2-face lies in two
# cones, but (0, 1, 3) and (0, 1, 4) sit on one side of 2-face (0, 1).
FOLDED_FAN = {
    "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1], [1, 1, -1]],
    "max_cones": [[0, 1, 3], [0, 2, 3], [1, 2, 3], [0, 1, 4], [1, 2, 4], [2, 0, 4]],
}

# One unimodular cone listed twice: each 2-face lies in two cones, and the
# cones cover the octant twice.
DUPLICATED_CONE_FAN = {
    "rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "max_cones": [[0, 1, 2], [0, 1, 2]],
}

# A cone that repeats a ray: it has no three 2-faces to check.
REPEATED_RAY_FAN = {"rays": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "max_cones": [[0, 0, 1]]}

# Fulton's smooth complete fan that is not projective: the cones around
# (1, 1, 1) are twisted, so the curves of the walls {2, 4}, {1, 6} and
# {0, 5} have classes summing to zero and no divisor meets all three
# positively.
TWISTED_FAN = {
    "rays": [[-1, 0, 0], [0, -1, 0], [0, 0, -1], [1, 1, 1], [0, 1, 1], [1, 0, 1], [1, 1, 0]],
    "max_cones": [[0, 1, 2], [0, 1, 5], [0, 2, 4], [0, 4, 5], [1, 2, 6], [1, 5, 6], [2, 4, 6],
                  [3, 4, 5], [3, 4, 6], [3, 5, 6]],
}


def p3_subdivision(nrays: int) -> dict:
    """Fan JSON of P^3 blown up at torus-fixed points until it has nrays
    rays: each step replaces the oldest cone (a, b, c) by the three cones
    through the new ray u_a + u_b + u_c, so every cone stays unimodular."""
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    cones = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    while len(rays) < nrays:
        a, b, c = cones.pop(0)
        rays.append(tuple(x + y + z for x, y, z in zip(rays[a], rays[b], rays[c])))
        n = len(rays) - 1
        cones += [(a, b, n), (a, c, n), (b, c, n)]
    return {"rays": [list(u) for u in rays], "max_cones": [list(c) for c in cones]}


def test_case_201_l0_printed_data():
    fan = family_fan("2.0.1", l=0)
    assert fan.rays == ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, -1))
    assert minimal_nonfaces(fan) == {frozenset((0, 1)), frozenset((2, 3, 4))}
    assert len(fan.max_cones) == 6


def test_case_301_product_of_lines():
    fan = family_fan("3.0.1", r=0, a=0, b=0)
    assert set(fan.rays) == {
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    }
    assert len(fan.max_cones) == 8
    assert is_splitting(CASES["3.0.1"].collections)
    assert len(minimal_nonfaces(fan)) == 3


def test_parameter_violations():
    # A violated requirement is named as printed, with its case.
    with pytest.raises(ParameterError, match=r"^l2 >= l1 required in case 2\.0\.2$"):
        FamilySpec.make("2.0.2", l1=3, l2=1)
    with pytest.raises(ParameterError, match=r"^l >= 0 required in case 2\.0\.1$"):
        FamilySpec.make("2.0.1", l=-1)
    with pytest.raises(ParameterError, match=r"^b < 0 required in case 3\.0\.2$"):
        FamilySpec.make("3.0.2", r=0, a=0, b=0)
    with pytest.raises(ParameterError, match=r"^a >= 0 required in case 3\.0\.1$"):
        FamilySpec.make("3.0.1", r=0, a=-1, b=0)
    with pytest.raises(ParameterError, match=r"^case 2\.0\.1 does not take parameter\(s\) l2$"):
        FamilySpec.make("2.0.1", l=1, l2=0)


@pytest.mark.parametrize("bad", [2.5, "3", None, Fraction(7, 2)], ids=repr)
def test_non_integer_parameters_refused(bad):
    # int() would read 2.5 as l = 2 and "3" as l = 3.
    with pytest.raises(ParameterError, match="integer parameters"):
        FamilySpec.make("2.0.1", l=bad)


@pytest.mark.parametrize("case,params", ALL_SPECS)
def test_family_fan_smooth_complete(case, params):
    fan = family_fan(case, **params)
    assert verify_smooth_complete(fan) == ()


@pytest.mark.parametrize("case,params", ALL_SPECS)
def test_minimal_nonfaces_match_collections(case, params):
    fan = family_fan(case, **params)
    assert minimal_nonfaces(fan) == {frozenset(c) for c in CASES[case].collections}


@pytest.mark.parametrize("nrays", [4, 5, 6, 7, 9, 12])
def test_minimal_nonfaces_match_every_size(nrays):
    # P^3 itself has the four-ray collection; its blow-ups have two-ray ones.
    fan = fan_from_json(p3_subdivision(nrays))
    assert minimal_nonfaces(fan) == all_minimal_nonfaces(fan)


@pytest.mark.parametrize("nrays", [4, 5, 6, 8, 12, 17, 24, 30])
def test_minimal_nonfaces_match_four_ray_search(nrays):
    # Only the four-ray fan is searched among four-ray sets.
    fan = fan_from_json(p3_subdivision(nrays))
    assert minimal_nonfaces(fan) == all_minimal_nonfaces(fan, largest=4)


def fan_of(document: dict) -> Fan:
    return Fan(tuple(map(tuple, document["rays"])), tuple(map(tuple, document["max_cones"])),
               tuple(f"D_{i + 1}" for i in range(len(document["rays"]))))


def test_folded_fan_refused():
    failures = verify_smooth_complete(fan_of(FOLDED_FAN))
    assert "2-face (0, 1) has both its cones on one side" in failures
    with pytest.raises(FanGeometryError, match=r"2-face \(0, 1\) has both its cones on one side"):
        fan_from_json(FOLDED_FAN)


def test_duplicated_cone_refused():
    failures = verify_smooth_complete(fan_of(DUPLICATED_CONE_FAN))
    assert "point (1, 1, 1) inside cone (0, 1, 2) lies in 2 maximal cones" in failures
    assert "2-face (0, 1) has both its cones on one side" in failures


@pytest.mark.parametrize("case,params", [("2.0.1", {"l": 1}), ("3.0.1", {"r": 1, "a": 2, "b": 3}),
                                         ("3.1.4", {"b1": 1, "b2": 0})])
def test_mirrored_apex_refused(case, params):
    # Negating one ray flips the side of every cone at it across the 2-face
    # opposite the ray, while the cone on the other side stays put.
    fan = family_fan(case, **params)
    for a in range(fan.nrays):
        rays = tuple(tuple(-x for x in u) if i == a else u for i, u in enumerate(fan.rays))
        failures = verify_smooth_complete(fan._replace(rays=rays))
        opposite = {tuple(i for i in cone if i != a) for cone in fan.max_cones if a in cone}
        for pair in opposite:
            assert f"2-face {pair} has both its cones on one side" in failures, (a, failures)


def test_every_criterion_1_fan_is_smooth_complete():
    from test_acceptance import PARAM_GRIDS, iter_specs

    specs = list(iter_specs(PARAM_GRIDS))
    assert len(specs) == 186
    for spec in specs:
        assert verify_smooth_complete(build_family_fan(spec)) == (), spec


@pytest.mark.parametrize("nrays", [4, 5, 8, 16, 24, 32, 48])
def test_p3_subdivisions_are_smooth_complete(nrays):
    assert verify_smooth_complete(fan_of(p3_subdivision(nrays))) == ()


def test_repeated_ray_named():
    assert verify_smooth_complete(fan_of(REPEATED_RAY_FAN)) == (
        "ray 2 lies in no maximal cone", "cone (0, 0, 1) repeats a ray",
    )


def test_twisted_fan_is_smooth_complete():
    assert verify_smooth_complete(fan_of(TWISTED_FAN)) == ()
    assert fan_from_json(TWISTED_FAN).nrays == 7


def wall_vectors(fan: Fan) -> dict[tuple[int, int], list[int]]:
    """Per wall {i, j}, the degrees D_rho.V(tau) over the rays."""
    vectors = {}
    for i, j, a, b, ci, cj in walls(fan):
        v = [0] * fan.nrays
        v[a], v[b], v[i], v[j] = 1, 1, ci, cj
        vectors[i, j] = v
    return vectors


def test_twisted_fan_walls_sum_to_zero():
    # D.V1 + D.V2 + D.V3 = 0 for every D: the witness that none is ample.
    vectors = wall_vectors(fan_from_json(TWISTED_FAN))
    assert [sum(x) for x in zip(vectors[2, 4], vectors[1, 6], vectors[0, 5])] == [0] * 7


@pytest.mark.parametrize("nrays", [4, 5, 8, 24])
def test_wall_relations_hold(nrays):
    # sum_rho (D_rho.V) u_rho = 0 on each wall, with 1 at both apexes.
    fan = fan_from_json(p3_subdivision(nrays))
    vectors = wall_vectors(fan)
    assert len(vectors) == 3 * len(fan.max_cones) // 2
    for v in vectors.values():
        assert [sum(x * u[k] for x, u in zip(v, fan.rays)) for k in range(3)] == [0, 0, 0]


def test_unused_ray_detected():
    rays, cones = UNUSED_RAY_FAN["rays"], UNUSED_RAY_FAN["max_cones"]
    fan = Fan(tuple(map(tuple, rays)), tuple(map(tuple, cones)), ("a", "b", "c", "d", "e"))
    assert verify_smooth_complete(fan) == ("ray 4 lies in no maximal cone",)


@pytest.mark.parametrize("case,params", ALL_SPECS)
def test_splitting_predicate(case, params):
    fan = family_fan(case, **params)
    expected = case in ("2.0.1", "2.0.2", "3.0.1", "3.0.2")
    assert is_splitting(CASES[case].collections) is expected


@pytest.mark.parametrize("case,params", ALL_SPECS)
def test_relations_substitute_exactly(case, params):
    fan = family_fan(case, **params)
    for rays in CASES[case].collections:
        coll = primitive_relation(fan, rays)
        total = tuple(sum(fan.rays[i][k] for i in coll["rays"]) for k in range(3))
        expansion = tuple(
            sum(c * fan.rays[i][k] for i, c in zip(coll["relation_cone"], coll["relation_coeffs"]))
            for k in range(3)
        )
        assert total == expansion
        assert all(c > 0 for c in coll["relation_coeffs"])


def test_relation_201_collections():
    fan = family_fan("2.0.1", l=2)
    assert primitive_relation(fan, (0, 1))["relation_cone"] == []
    assert primitive_relation(fan, (2, 3, 4))["relation_cone"] == [0]
    assert primitive_relation(fan, (2, 3, 4))["relation_coeffs"] == [2]
    fan0 = family_fan("2.0.1", l=0)
    assert primitive_relation(fan0, (2, 3, 4))["relation_cone"] == []


def test_relation_311_zero_pair():
    fan = family_fan("3.1.1", b1=1)
    t1 = fan.label_index("D_t1")
    z1 = fan.label_index("D_z1")
    assert {t1, z1} in map(set, CASES["3.1.1"].collections)
    assert primitive_relation(fan, (t1, z1))["relation_cone"] == []
    # y1 + z1 = u1 with coefficient 1
    y1 = fan.label_index("D_y1")
    u1 = fan.label_index("D_u1")
    assert {y1, z1} in map(set, CASES["3.1.1"].collections)
    assert primitive_relation(fan, (y1, z1))["relation_cone"] == [u1]
    assert primitive_relation(fan, (y1, z1))["relation_coeffs"] == [1]


def test_cones_from_collections_oracle_201():
    fan = family_fan("2.0.1", l=1)
    # Exhaustive filter: one of {0,1} and two of {2,3,4}.
    expected = {
        tuple(sorted((a,) + pair))
        for a in (0, 1)
        for pair in itertools.combinations((2, 3, 4), 2)
    }
    assert set(fan.max_cones) == expected


def test_cones_from_collections_oracle_301():
    fan = family_fan("3.0.1", r=1, a=2, b=3)
    assert len(fan.max_cones) == 8
    assert (0, 2, 4) in fan.max_cones
    assert (0, 1, 2) not in fan.max_cones


def test_octant_fan_incomplete():
    fan = Fan(((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2),), ("D_1", "D_2", "D_3"))
    failures = verify_smooth_complete(fan)
    assert failures and all("2-face" in f for f in failures)


def test_nonsmooth_cone_detected():
    rays = ((1, 0, 0), (0, 1, 0), (0, 0, 2))
    fan = Fan(rays, ((0, 1, 2),), ("D_1", "D_2", "D_3"))
    failures = verify_smooth_complete(fan)
    assert any("|det| = 2" in f for f in failures)
    assert any("not primitive" in f for f in failures)


def test_ray_that_is_no_3_vector_detected():
    # A wrong-length ray is reported alone; the determinant test would
    # index past its end.
    with pytest.raises(FanGeometryError, match="ray 0 has 2 coordinates, not 3"):
        generic_fan([(1, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2)])


def test_cones_from_collections_rejects_garbage():
    rays = [(1, 0, 0), (-1, 0, 0), (0, 1, 0)]
    with pytest.raises(FanGeometryError):
        generic_fan(rays, cones_from_collections(rays, [(0, 1)]))


P3 = ([(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


@pytest.mark.parametrize("labels, message", [
    (["x", "x", "y", "z"], "'x' names both ray 0 and ray 1"),
    (["D_2", "a", "b", "c"], "'D_2' names both ray 0 and ray 1"),
    (["x", "y", "z"], "must list one string per ray"),
    (["x", "y", "z", 4], "must list one string per ray"),
], ids=["repeated", "alias-shadow", "short", "not-a-string"])
def test_generic_fan_refuses_labels_that_do_not_name_one_ray_each(labels, message):
    # The Python entry point checks labels as a fan file's are checked, and
    # the message names no JSON, which a Python caller never gave.
    with pytest.raises(ValueError, match=re.escape(message)) as refusal:
        generic_fan(*P3, labels)
    assert "JSON" not in str(refusal.value)
    assert generic_fan(*P3, ["x", "y", "z", "D_4"]).label_index("D_4") == 3


def test_primitive_relation_rejects_incomplete():
    # A ray outside the only cone: its "relation" has no containing cone.
    fan = Fan(
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)),
        ((0, 1, 2),),
        ("a", "b", "c", "d"),
    )
    with pytest.raises(FanGeometryError):
        primitive_relation(fan, (0, 3))


def test_primitive_relation_rejects_fractional():
    # The fan of P(1, 1, 1, 2): u_0 + u_1 + u_2 + 2 u_3 = 0, and the ray sum
    # (0, 0, -1) = (u_0 + u_1 + u_2) / 2 lies in a cone of determinant 2.
    rays = ((1, 0, 0), (0, 1, 0), (-1, -1, -2), (0, 0, 1))
    fan = Fan(rays, tuple(itertools.combinations(range(4), 3)), ("a", "b", "c", "d"))
    with pytest.raises(FanGeometryError, match="fractional coefficient"):
        primitive_relation(fan, (0, 1, 2, 3))


def test_json_roundtrip_catalog():
    fan = family_fan("3.1.4", b1=1, b2=0)
    data = fan_to_json(fan)
    again = fan_from_json(data)
    assert again.rays == fan.rays
    assert again.max_cones == fan.max_cones


def test_json_generic_fan():
    fan = family_fan("2.0.1", l=1)
    data = fan_to_json(fan)
    del data["case"], data["params"]
    again = fan_from_json(data)
    assert again.rays == fan.rays
    assert "collections" not in fan_to_json(again)
    assert minimal_nonfaces(again) == minimal_nonfaces(fan)


def test_label_aliases_31x():
    fan = family_fan("3.1.5", b1=2)
    assert fan.label_index("D_v1") == 0
    assert fan.label_index("D_1") == 0
    assert fan.label_index("D_z1") == 5
    assert fan.label_index("D_6") == 5
