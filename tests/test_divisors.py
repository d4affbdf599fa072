import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from torhyp.catalog import CASES as CATALOG
from torhyp.divisors import (
    TDivisor,
    ample_reference,
    canonical_divisor,
    class_of,
    divisor,
    divisor_from_json,
    eff_generators,
    intersection_matrix,
    is_ample,
    is_big,
    is_nef,
    nef_combination,
    nef_coordinates,
    nef_generators,
    picard_basis,
    ray_divisor,
)
from torhyp.fans import (
    FamilySpec,
    ParameterError,
    build_family_fan,
    family_fan,
    fan_from_json,
    find_containing_cone,
)

from oracles import (
    PRINTED_CANONICAL,
    PRINTED_CLASS_MAPS,
    collection_levels,
    collection_relations,
    cone_intersection_tensor,
    det,
)
from test_fans import TWISTED_FAN, p3_subdivision

CASES = [
    ("2.0.1", {"l": 0}),
    ("2.0.1", {"l": 2}),
    ("2.0.2", {"l1": 0, "l2": 0}),
    ("2.0.2", {"l1": 1, "l2": 2}),
    ("3.0.1", {"r": 0, "a": 0, "b": 0}),
    ("3.0.1", {"r": 2, "a": 1, "b": 3}),
    ("3.0.2", {"r": 1, "a": 1, "b": -2}),
    ("3.1.1", {"b1": 0}),
    ("3.1.1", {"b1": 2}),
    ("3.1.2", {"b1": 1}),
    ("3.1.3", {"b1": 1, "c2": 2}),
    ("3.1.4", {"b1": 0, "b2": 1}),
    ("3.1.5", {"b1": 3}),
]


@pytest.fixture(params=CASES, ids=lambda c: f"{c[0]}-{c[1]}")
def fan(request):
    case, params = request.param
    return family_fan(case, **params)


def support_function_eval(d, u):
    """Value at u of the piecewise-linear function taking -a_rho on each
    ray, read from the coordinates of u in its containing cone."""
    cone, nums, den = find_containing_cone(d.fan, u)
    return Fraction(-sum(n * d.coeffs[i] for i, n in zip(cone, nums)), den)


def test_support_function_on_rays(fan):
    d = divisor(fan, [1] * fan.nrays)
    for u in fan.rays:
        assert support_function_eval(d, u) == -1
    assert support_function_eval(d, (0, 0, 0)) == 0


def test_support_function_201_collection_sum():
    fan = family_fan("2.0.1", l=2)
    d = divisor(fan, {"D_2": 3, "D_3": 5})
    # u_3 + u_4 + u_5 = 2 e_1 and the coefficient of D_1 is zero.
    assert support_function_eval(d, (2, 0, 0)) == 0


def test_support_function_signals_missing_cone():
    from torhyp.fans import Fan

    octant = Fan(((1, 0, 0), (0, 1, 0), (0, 0, 1)), ((0, 1, 2),), ("D_1", "D_2", "D_3"))
    assert find_containing_cone(octant, (1, 2, 3)) == ((0, 1, 2), (1, 2, 3), 1)
    assert find_containing_cone(octant, (-1, 0, 0)) is None


def test_nef_examples_201():
    fan = family_fan("2.0.1", l=1)
    assert is_nef(divisor(fan, {"D_2": 2, "D_3": 3}))
    assert is_ample(divisor(fan, {"D_2": 2, "D_3": 3}))
    assert not is_nef(divisor(fan, {"D_2": -1}))
    zero = divisor(fan, {})
    assert is_nef(zero) and not is_ample(zero)


def test_pic_reduction_kills_relations(fan):
    basis = picard_basis(fan)
    for j in range(3):
        assert basis.reduction.mul_vec([u[j] for u in fan.rays]) == (0,) * basis.rank
    for pos, i in enumerate(basis.basis_rays):
        unit = tuple(1 if t == pos else 0 for t in range(basis.rank))
        assert class_of(ray_divisor(fan, fan.ray_labels[i])) == unit


def small_members():
    """Every member with parameters in -4..4, as (case, params, spec)."""
    for case, record in CATALOG.items():
        for values in product(range(-4, 5), repeat=len(record.params)):
            params = dict(zip(record.params, values))
            try:
                yield case, params, FamilySpec.make(case, **params)
            except ParameterError:
                pass


def test_class_map_is_the_printed_one_on_small_members():
    # Every member with parameters in -4..4: the class map read off the
    # rays is the matrix the paper prints, so a mistyped ray fails here.
    checked = 0
    for case, params, spec in small_members():
        reduction = picard_basis(build_family_fan(spec)).reduction
        assert reduction.to_rows() == PRINTED_CLASS_MAPS[case](**params), spec
        checked += 1
    assert checked == 434


def test_canonical_class_is_the_printed_one_on_small_members():
    # The catalog stores no canonical class: the class of K on every member
    # with parameters in -4..4 is the one the paper prints.
    checked = 0
    for case, params, spec in small_members():
        fan = build_family_fan(spec)
        assert class_of(canonical_divisor(fan)) == PRINTED_CANONICAL[case](**params), spec
        checked += 1
    assert checked == 434


def test_class_of_201_printed_relations():
    fan = family_fan("2.0.1", l=2)
    assert class_of(ray_divisor(fan, "D_1")) == (1, -2)
    assert class_of(ray_divisor(fan, "D_4")) == (0, 1)
    assert class_of(ray_divisor(fan, "D_5")) == (0, 1)
    assert class_of(divisor(fan, {})) == (0, 0)


def test_canonical_classes_match_reference(fan):
    printed = PRINTED_CANONICAL[fan.family.case_id](**fan.family.as_dict())
    assert class_of(canonical_divisor(fan)) == printed
    assert canonical_divisor(fan).coeffs == (-1,) * fan.nrays


def test_canonical_201_202_315_values():
    f1 = family_fan("2.0.1", l=2)
    assert class_of(canonical_divisor(f1)) == (-2, -1)
    f2 = family_fan("2.0.2", l1=1, l2=2)
    assert class_of(canonical_divisor(f2)) == (-3, 1)
    f3 = family_fan("3.1.5", b1=3)
    assert class_of(canonical_divisor(f3)) == (2, -2, -2)


def test_nef_generators_are_nef(fan):
    for g in nef_generators(fan):
        assert is_nef(g)
    h = ample_reference(fan)
    assert is_ample(h)


def test_nef_generator_combos(fan):
    gens = nef_generators(fan)
    rank = len(gens)
    from itertools import product

    for combo in product(range(5), repeat=rank):
        d = divisor(fan, [0] * fan.nrays)
        for c, g in zip(combo, gens):
            d = d + c * g
        assert is_nef(d)
    for flip in range(rank):
        for other in (0, 2, 4):
            d = divisor(fan, [0] * fan.nrays)
            for i, g in enumerate(gens):
                d = d + (-1 if i == flip else other) * g
            assert not is_nef(d)


def rays_outside_eff_cone(fan):
    """Ray labels whose class is no nonnegative combination of the
    effective generators' classes, tried over every basis among them
    (Caratheodory)."""
    from itertools import combinations

    from torhyp.intlin import IntMat, solve_exact

    rank = picard_basis(fan).rank
    gen_classes = [class_of(g) for g in eff_generators(fan)]
    bases = [IntMat.from_rows(list(zip(*subset))) for subset in combinations(gen_classes, rank)]
    bases = [mat for mat in bases if det(mat) != 0]
    return [
        label for label in fan.ray_labels
        if not any(min(solve_exact(mat, list(class_of(ray_divisor(fan, label))))) >= 0
                   for mat in bases)
    ]


def test_eff_generators_cover_all_rays(fan):
    """Every ray divisor class decomposes nonnegatively over the
    effective generators."""
    assert rays_outside_eff_cone(fan) == []


def test_eff_generators_generate_at_negative_twists():
    # The ray classes generate the effective cone, so the derived
    # generators do iff every ray class lies in their cone.  The criterion-1
    # grid has b1 = -1 in 3.1.1, 3.1.2 and 3.1.5; 3.1.3 and 3.1.4 are
    # added with both twists negative, of mixed sign, or zero.
    from test_acceptance import PARAM_GRIDS, iter_specs

    twists = [(b1, x) for b1 in (-2, -1, 0) for x in (-3, -1, 0)]
    specs = list(iter_specs(PARAM_GRIDS))
    specs += [FamilySpec.make("3.1.3", b1=b1, c2=x) for b1, x in twists]
    specs += [FamilySpec.make("3.1.4", b1=b1, b2=x) for b1, x in twists]
    specs += [FamilySpec.make(case, b1=-3) for case in ("3.1.1", "3.1.2", "3.1.5")]
    for spec in specs:
        assert rays_outside_eff_cone(build_family_fan(spec)) == [], spec


def test_nef_coordinates_roundtrip(fan):
    gens = nef_generators(fan)
    d = gens[0] + 2 * gens[-1]
    coords = nef_coordinates(fan, class_of(d))
    assert coords[0] == 1 and coords[-1] == 2


def test_table2_nef_generators_302():
    fan = family_fan("3.0.2", r=1, a=1, b=-2)
    gens = nef_generators(fan)
    assert class_of(gens[2]) == (0, 2, 1)  # D_6 - b D_4 with b = -2


def test_is_big_examples():
    fan = family_fan("2.0.1", l=1)
    assert is_big(divisor(fan, {"D_2": 1, "D_3": 1}))
    assert not is_big(divisor(fan, {}))
    assert not is_big(divisor(fan, {"D_3": 1}))
    with pytest.raises(ValueError):
        is_big(divisor(fan, {"D_2": -1}))
    # P^3 blown up at a point: the pulled-back hyperplane class is big, and
    # the class of the projection from the point is nef but not big.
    fan = fan_from_json(p3_subdivision(5))
    assert is_big(divisor(fan, [0, 0, 0, 1, 0]))
    assert not is_big(divisor(fan, [0, 0, 0, 1, -1]))


def test_divisor_from_json():
    fan = family_fan("2.0.1", l=1)
    d = divisor_from_json(fan, {"coeffs": {"D_2": 2, "D_3": 3}})
    assert d.coeffs == (0, 2, 3, 0, 0)
    d2 = divisor_from_json(fan, {"class": [2, 3]})
    assert class_of(d2) == (2, 3)
    with pytest.raises(ValueError):
        divisor_from_json(fan, {"what": 1})


def test_divisor_checks_its_length():
    fan = family_fan("2.0.1", l=2)
    assert TDivisor(fan=fan, coeffs=(0, 1, 0, 0, 0)) == ray_divisor(fan, "D_2")
    for coeffs in [(1, 2), (0,) * 6]:
        with pytest.raises(ValueError, match="coefficient vector length must equal ray count"):
            TDivisor(fan, coeffs)


def test_divisor_and_class_arithmetic():
    # A divisor is a tuple underneath: * scales by an integer on the left
    # and is never tuple repetition.  Its class is a coordinate tuple,
    # linear in the divisor.
    fan = family_fan("2.0.1", l=2)
    d = divisor(fan, {"D_2": 1, "D_3": 2, "D_5": -1})
    with pytest.raises(TypeError):
        d * 2
    assert 2 * d == d + d
    assert (-d) + d == d - d and (d - d).coeffs == (0,) * 5 and any(d.coeffs)
    e = ray_divisor(fan, "D_1")
    assert class_of(3 * d - e) == tuple(3 * x - y for x, y in zip(class_of(d), class_of(e)))
    assert class_of(-d) == tuple(-x for x in class_of(d))


def perturbed(rng: random.Random, fan, base) -> tuple[int, ...]:
    """base with up to two coefficients moved by one, plus a principal
    divisor <m, u_rho> with m in -2..2, which leaves the class alone."""
    coeffs = list(base)
    for _ in range(rng.randint(0, 2)):
        coeffs[rng.randrange(fan.nrays)] += rng.choice((-1, 1))
    m = [rng.randint(-2, 2) for _ in range(3)]
    return tuple(x + sum(p * q for p, q in zip(m, u)) for x, u in zip(coeffs, fan.rays))


def assert_walls_match_collections(fan, divisors, counts: Counter) -> None:
    relations = collection_relations(fan)
    for coeffs in divisors:
        d = divisor(fan, coeffs)
        levels = collection_levels(relations, coeffs)
        assert (is_nef(d), is_ample(d)) == (min(levels) >= 0, min(levels) > 0), coeffs
        counts[is_nef(d), is_ample(d)] += 1


def test_walls_match_collection_levels_on_criterion_1_members():
    # Every member of the criterion-1 grid, negative twists included, over
    # nef combinations moved off and on the cone's boundary.
    from test_acceptance import PARAM_GRIDS, iter_specs

    rng = random.Random("walls:catalog")
    counts: Counter = Counter()
    for spec in iter_specs(PARAM_GRIDS):
        fan = build_family_fan(spec)
        rank = len(nef_generators(fan))
        bases = [nef_combination(fan, [rng.randint(0, 3) for _ in range(rank)]) for _ in range(100)]
        assert_walls_match_collections(fan, [perturbed(rng, fan, b.coeffs) for b in bases], counts)
    assert sum(counts.values()) == 18_600
    assert min(counts[False, False], counts[True, False], counts[True, True]) > 1000, counts


def ample_on_subdivision(nrays: int) -> list[int]:
    """An ample divisor on ``p3_subdivision(nrays)``: D_4 on P^3, then at
    each blow-up 3 pi*D - E.  Scaled by 3, every edge of the polytope is at
    least 3 long, so cutting the blown-up vertex back by 1 leaves a
    polytope of the same normal fan as the new one."""
    cones = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    coeffs = [0, 0, 0, 1]
    while len(coeffs) < nrays:
        a, b, c = cones.pop(0)
        coeffs = [3 * x for x in coeffs] + [3 * (coeffs[a] + coeffs[b] + coeffs[c]) - 1]
        n = len(coeffs) - 1
        cones += [(a, b, n), (a, c, n), (b, c, n)]
    return coeffs


@pytest.mark.parametrize("nrays", [4, 5, 6, 8, 12, 16, 24, 32, 48])
def test_walls_match_collection_levels_on_subdivisions(nrays):
    # The pull-back of the hyperplane class (nef, not ample past four
    # rays), its multiples and an ample class, each moved by one.
    rng = random.Random(f"walls:{nrays}")
    fan = fan_from_json(p3_subdivision(nrays))
    hyperplane = [max(0, -min(u)) for u in fan.rays]
    ample = ample_on_subdivision(nrays)
    assert is_ample(divisor(fan, ample)) and is_nef(divisor(fan, hyperplane))
    bases = [[k * h for h in hyperplane] for k in range(4)] + [ample] * 2
    counts: Counter = Counter()
    divisors = [perturbed(rng, fan, bases[i % len(bases)]) for i in range(300)]
    assert_walls_match_collections(fan, divisors, counts)
    assert counts[False, False] and counts[True, False] and counts[True, True], counts


def assert_matrix_matches_cone_tensor(rng: random.Random, fan, count: int) -> None:
    tensor = cone_intersection_tensor(fan)
    n = range(fan.nrays)
    for _ in range(count):
        coeffs = [rng.randint(-4, 4) for _ in n]
        expected = tuple(
            tuple(sum(x * tensor[k][a][b] for k, x in enumerate(coeffs) if x) for b in n)
            for a in n
        )
        assert intersection_matrix(divisor(fan, coeffs)) == expected, coeffs


def test_intersection_matrix_matches_cone_tensor_on_criterion_1_members():
    from test_acceptance import PARAM_GRIDS, iter_specs

    rng = random.Random("matrix:catalog")
    for spec in iter_specs(PARAM_GRIDS):
        assert_matrix_matches_cone_tensor(rng, build_family_fan(spec), 10)


@pytest.mark.parametrize("nrays", [None, 4, 5, 6, 8, 12, 16, 24, 32, 48],
                         ids=lambda n: "twisted" if n is None else str(n))
def test_intersection_matrix_matches_cone_tensor_on_generic_fans(nrays):
    # Subdivisions of P^3, and Fulton's fan, which is not projective.
    fan = fan_from_json(TWISTED_FAN if nrays is None else p3_subdivision(nrays))
    assert_matrix_matches_cone_tensor(random.Random(f"matrix:{nrays}"), fan, 6)
