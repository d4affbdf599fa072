import itertools
import random
from fractions import Fraction

import pytest

from torhyp.classify import boundary_genus_profile
from torhyp.divisors import class_of, divisor, is_nef, nef_generators, ray_divisor
from torhyp.fans import build_family_fan, family_fan
from torhyp.intlin import solve_3x3
from torhyp.polytopes import (
    HPolytope,
    UnboundedPolytopeError,
    dimension,
    idp_check,
    interior_lattice_count,
    lattice_points,
    min_face,
    minkowski_sum_polytope,
    offset_polytope,
    polytope_of,
    triple_intersection,
    vertices,
    volume,
)
from torhyp.toric_ideal import _degree_images, _particular_solution

# One member per case, nonnegative parameters.
MEMBERS = [
    ("2.0.1", {"l": 2}),
    ("2.0.2", {"l1": 1, "l2": 3}),
    ("3.0.1", {"r": 2, "a": 1, "b": 2}),
    ("3.0.2", {"r": 1, "a": 2, "b": -3}),
    ("3.1.1", {"b1": 1}),
    ("3.1.2", {"b1": 2}),
    ("3.1.3", {"b1": 2, "c2": 1}),
    ("3.1.4", {"b1": 2, "b2": 1}),
    ("3.1.5", {"b1": 1}),
]


def brute_lattice_points(p: HPolytope):
    """Bounding-box oracle used to cross-check the sliced scan."""
    verts = vertices(p)
    if not verts:
        return ()
    lo = [min(v[i] for v in verts) for i in range(3)]
    hi = [max(v[i] for v in verts) for i in range(3)]
    out = []
    for x in range(-(-lo[0].numerator // lo[0].denominator), hi[0].numerator // hi[0].denominator + 1):
        for y in range(-(-lo[1].numerator // lo[1].denominator), hi[1].numerator // hi[1].denominator + 1):
            for z in range(-(-lo[2].numerator // lo[2].denominator), hi[2].numerator // hi[2].denominator + 1):
                if p.contains((x, y, z)):
                    out.append((x, y, z))
    return tuple(sorted(out))


def test_constraints_201():
    fan = family_fan("2.0.1", l=2)
    d = divisor(fan, {"D_2": 3, "D_3": 4})
    p = polytope_of(d)
    assert p.normals == fan.rays
    assert p.rhs == (0, -3, -4, 0, 0)


def test_vertices_201_instance():
    fan = family_fan("2.0.1", l=2)
    p = polytope_of(divisor(fan, {"D_2": 2, "D_3": 4}))
    vs = set(vertices(p))
    for expected in [(0, -4, 0), (2, 4, 0), (2, -4, 8)]:
        assert tuple(map(Fraction, expected)) in vs
    assert len(vs) == 6
    assert dimension(p) == 3


def test_zero_divisor_polytope():
    fan = family_fan("2.0.1", l=0)
    p = polytope_of(divisor(fan, {}))
    assert vertices(p) == ((0, 0, 0),)
    assert dimension(p) == 0
    assert lattice_points(p) == ((0, 0, 0),)


def test_dimension_two_when_a_zero():
    fan = family_fan("2.0.1", l=1)
    p = polytope_of(divisor(fan, {"D_3": 2}))
    assert dimension(p) == 2
    assert all(v[0] == 0 for v in vertices(p))


def brute_vertices(p: HPolytope):
    """Oracle: every inequality triple solved by Cramer's rule, the feasible
    solutions kept."""
    seen = set()
    for trip in itertools.combinations(range(len(p.normals)), 3):
        sol = solve_3x3([p.normals[i] for i in trip], [p.rhs[i] for i in trip])
        if sol is not None:
            cand = tuple(Fraction(x, sol[1]) for x in sol[0])
            if p.contains(cand):
                seen.add(cand)
    return tuple(sorted(seen))


def test_vertices_match_triple_enumeration_on_fibers():
    """The compiled system against the triple oracle on every fiber
    polytope of degree <= 4, one member per case."""
    checked = fractional = 0
    for case, params in MEMBERS:
        fan = family_fan(case, **params)
        for image in _degree_images(fan, 4):
            p = offset_polytope(fan, [-c for c in _particular_solution(fan, image)])
            got = vertices(p)
            assert got == brute_vertices(p), (case, params, image)
            for v in got:
                integral = all(Fraction(c).denominator == 1 for c in v)
                assert {type(c) for c in v} == {int if integral else Fraction}
            fractional += any(type(v[0]) is Fraction for v in got)
            checked += 1
    assert checked == 858
    assert fractional > 100, fractional


def test_unbounded_signalled():
    p = HPolytope(((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0))
    with pytest.raises(UnboundedPolytopeError):
        vertices(p)


@pytest.mark.parametrize(
    "normals",
    [
        ((1, 0, 0), (-1, 0, 0)),
        ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (1, 1, 0)),
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, 0)),
        # (1, 2, 3) pairs nonnegatively with each of the six normals.
        ((1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 0), (3, 0, -1), (-1, -1, 1)),
    ],
    ids=["two-normals", "planar", "half-space-recession", "six-normals"],
)
def test_unbounded_generic_system_signalled(normals):
    p = HPolytope(normals, tuple(-1 for _ in normals))
    with pytest.raises(UnboundedPolytopeError):
        vertices(p)


def test_bounded_empty_system_has_no_vertices():
    cube = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))
    assert vertices(HPolytope(cube, (1, 0, 0, 0, 0, 0))) == ()
    assert vertices(HPolytope(cube, (0, -1, 0, -1, 0, -1))) == brute_vertices(
        HPolytope(cube, (0, -1, 0, -1, 0, -1))
    )


def test_lattice_scan_guard():
    from torhyp.polytopes import EnumerationGuardError

    fan = family_fan("3.0.1", r=0, a=0, b=0)
    huge = divisor(fan, {"D_1": 10**7, "D_4": 10**7, "D_6": 10**7})
    with pytest.raises(EnumerationGuardError):
        lattice_points(polytope_of(huge))


def test_lattice_points_201_count9():
    fan = family_fan("2.0.1", l=1)
    p = polytope_of(divisor(fan, {"D_2": 1, "D_3": 1}))
    pts = lattice_points(p)
    assert len(pts) == 9
    assert pts == brute_lattice_points(p)


def test_unit_cube_translate_301():
    fan = family_fan("3.0.1", r=0, a=0, b=0)
    d = divisor(fan, {"D_1": 1, "D_4": 1, "D_6": 1})
    p = polytope_of(d)
    vs = vertices(p)
    assert len(vs) == 8
    assert len(lattice_points(p)) == 8
    assert volume(p) == 1


@pytest.mark.parametrize(
    "case,params,coeffs",
    [
        ("2.0.1", {"l": 0}, {"D_2": 1}),
        ("2.0.1", {"l": 3}, {"D_2": 2, "D_3": 1}),
        ("2.0.2", {"l1": 1, "l2": 2}, {"D_3": 2, "D_4": 1}),
        ("3.0.2", {"r": 1, "a": 0, "b": -2}, {"D_1": 1, "D_4": 2, "D_6": 1}),
        ("3.1.3", {"b1": 1, "c2": 1}, {"D_v1": 2, "D_z1": 2}),
    ],
)
def test_lattice_scan_matches_box_oracle(case, params, coeffs):
    fan = family_fan(case, **params)
    p = polytope_of(divisor(fan, coeffs))
    assert lattice_points(p) == brute_lattice_points(p)


def test_idp_small_cases():
    fan = family_fan("2.0.1", l=3)
    e = divisor(fan, {"D_2": 1})
    ep = divisor(fan, {"D_3": 1})
    assert idp_check(e, ep).ok
    zero = divisor(fan, {})
    assert idp_check(zero, zero).ok
    with pytest.raises(ValueError):
        idp_check(divisor(fan, {"D_2": -1}), ep)


def test_idp_314_instance():
    fan = family_fan("3.1.4", b1=0, b2=0)
    e = divisor(fan, {"D_z1": 1})
    ep = divisor(fan, {"D_v1": 1, "D_u1": 1, "D_z1": 2})
    assert idp_check(e, ep).ok


def facet_counts_201(fan, a, b):
    d = divisor(fan, {"D_2": a, "D_3": b})
    return [interior_lattice_count(min_face(d, i)) for i in range(5)]


def test_lemma_counts_201_l2_a2_b4():
    fan = family_fan("2.0.1", l=2)
    assert facet_counts_201(fan, 2, 4) == [3, 21, 5, 5, 5]


def test_min_face_degenerate_b0():
    fan = family_fan("2.0.1", l=2)
    d = divisor(fan, {"D_2": 4})
    f1 = min_face(d, 0)
    assert f1.dim == 0
    assert interior_lattice_count(f1) == 0
    f3 = min_face(d, 2)
    assert f3.dim == 2
    assert interior_lattice_count(f3) == 9


def test_boundary_profile_agrees_with_face_scan():
    # 3.1.2 at b1 = -1 lies outside the reference domain: there the sum of
    # the listed nef generators is not ample, so a face dimension read
    # through it reports 0 for an edge.
    rng = random.Random(3)
    fan_cases = [
        family_fan("2.0.1", l=2),
        family_fan("2.0.2", l1=0, l2=2),
        family_fan("3.0.1", r=1, a=1, b=1),
        family_fan("3.1.1", b1=1),
        family_fan("3.1.2", b1=-1),
    ]
    for _ in range(50):
        fan = rng.choice(fan_cases)
        gens = nef_generators(fan)
        d = divisor(fan, [0] * fan.nrays)
        for g in gens:
            d = d + rng.randint(0, 3) * g
        if class_of(d).is_zero() or not is_nef(d):
            continue
        profile = boundary_genus_profile(d)
        for i, entry in enumerate(profile.entries):
            face = min_face(d, i)
            assert entry.face_dim == face.dim, (fan.family, d.coeffs, i)
            assert entry.interior_count == interior_lattice_count(face), (fan.family, d.coeffs, i)


def test_volume_prism_201():
    fan = family_fan("2.0.1", l=0)
    d = divisor(fan, {"D_2": 1, "D_3": 1})
    assert volume(polytope_of(d)) == Fraction(1, 2)
    assert triple_intersection(d, d, d) == 3


@pytest.mark.parametrize("normals,rhs,expected", [
    # The cube [-1, 1]^3 with its first normal listed twice.
    (((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1), (1, 0, 0)),
     (-1, -1, -1, -1, -1, -1, -1), 8),
    # The octahedron |x| + |y| + |z| <= 1: triangular facets only.
    (tuple((-a, -b, -c) for a in (1, -1) for b in (1, -1) for c in (1, -1)), (-1,) * 8,
     Fraction(4, 3)),
    # A hexagon of area 3 times [0, 1]: two six-vertex facets.
    (((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (1, 1, 0), (-1, -1, 0), (0, 0, 1),
      (0, 0, -1)), (-1, -1, -1, -1, -1, -1, 0, -1), 3),
    # The simplex x, y, z >= 0, 2(x + y + z) <= 1: fractional vertices.
    (((1, 0, 0), (0, 1, 0), (0, 0, 1), (-2, -2, -2)), (0, 0, 0, -1), Fraction(1, 48)),
])
def test_volume_of_known_solids(normals, rhs, expected):
    assert volume(HPolytope(normals, rhs)) == expected


def test_self_intersection_is_six_times_volume():
    """D^3 from the cone tensor against the volume of P(D), for nef
    D = sum(c_i N_i) with c_i in {0, 1, 2} on the criterion-1 grid,
    including the out-of-domain b1 = -1 members of 3.1.1, 3.1.2 and 3.1.5."""
    from test_acceptance import PARAM_GRIDS, iter_specs

    checked = 0
    for spec in iter_specs(PARAM_GRIDS):
        fan = build_family_fan(spec)
        gens = nef_generators(fan)
        for combo in itertools.product((0, 1, 2), repeat=len(gens)):
            d = divisor(fan, [0] * fan.nrays)
            for c, g in zip(combo, gens):
                d = d + c * g
            if not is_nef(d):
                continue
            assert triple_intersection(d, d, d) == 6 * volume(polytope_of(d)), (spec, combo)
            checked += 1
        vertices.cache_clear()
    assert checked > 4000


def test_triple_unit_301():
    fan = family_fan("3.0.1", r=0, a=0, b=0)
    d1, d4, d6 = (ray_divisor(fan, lab) for lab in ("D_1", "D_4", "D_6"))
    assert triple_intersection(d1, d4, d6) == 1


def test_triple_zero_class():
    fan = family_fan("2.0.1", l=1)
    zero = divisor(fan, {})
    d = divisor(fan, {"D_2": 2, "D_3": 3})
    assert triple_intersection(zero, d, d) == 0


def test_triple_maximal_cone_rays_give_one():
    for case, params in [
        ("2.0.1", {"l": 2}),
        ("2.0.2", {"l1": 1, "l2": 3}),
        ("3.0.2", {"r": 2, "a": 1, "b": -1}),
        ("3.1.2", {"b1": 2}),
        ("3.1.5", {"b1": 0}),
    ]:
        fan = family_fan(case, **params)
        for cone in fan.max_cones:
            ds = [ray_divisor(fan, fan.ray_labels[i]) for i in cone]
            assert triple_intersection(*ds) == 1


def test_triple_symmetry_and_multilinearity():
    fan = family_fan("3.1.3", b1=1, c2=1)
    rng = random.Random(5)
    from torhyp.divisors import class_from_coords

    for _ in range(25):
        c1 = class_from_coords(fan, [rng.randint(-3, 3) for _ in range(3)])
        c2 = class_from_coords(fan, [rng.randint(-3, 3) for _ in range(3)])
        c3 = class_from_coords(fan, [rng.randint(-3, 3) for _ in range(3)])
        base = triple_intersection(c1, c2, c3)
        assert base == triple_intersection(c3, c1, c2)
        assert base == triple_intersection(c2, c1, c3)
        c1p = class_from_coords(fan, [rng.randint(-3, 3) for _ in range(3)])
        lhs = triple_intersection(
            class_from_coords(fan, [a + b for a, b in zip(c1.coords, c1p.coords)]), c2, c3
        )
        assert lhs == base + triple_intersection(c1p, c2, c3)


def test_minkowski_volume_consistency():
    fan = family_fan("2.0.1", l=2)
    d1 = divisor(fan, {"D_2": 1, "D_3": 2})
    d2 = divisor(fan, {"D_2": 2, "D_3": 1})
    p = minkowski_sum_polytope(polytope_of(d1), polytope_of(d2))
    assert volume(p) == volume(polytope_of(d1 + d2))


def test_lattice_count_invariant_under_principal_translation():
    fan = family_fan("2.0.2", l1=1, l2=1)
    d = divisor(fan, {"D_3": 2, "D_4": 1})
    base = len(lattice_points(polytope_of(d)))
    for m in [(1, 0, 0), (0, -1, 1), (2, 1, -1)]:
        shifted = divisor(
            fan,
            tuple(
                c + sum(mi * ui for mi, ui in zip(m, u))
                for c, u in zip(d.coeffs, fan.rays)
            ),
        )
        assert len(lattice_points(polytope_of(shifted))) == base
