"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  The table-comparison
criteria report the excluded cell classes (ambiguous permutation cells,
certified printed-table defects, and beyond-boundary reference rows) in
their PASS lines.
"""

import hashlib
import itertools
import json
import random
import time

import pytest

from torhyp.classify import (
    AMBIGUOUS,
    HYPERBOLIC,
    NOT_HYPERBOLIC,
    OPEN,
    UNLISTED,
    applicable_configs,
    boundary_genus_profile,
    derive_verdict,
    positivity_certificate,
    surface_divisor,
    table_lookup,
)
from torhyp.divisors import (
    ample_reference,
    canonical_divisor,
    class_of,
    divisor,
    divisor_from_class,
    eff_generators,
    is_nef,
    nef_generators,
    picard_basis,
    ray_divisor,
)
from torhyp.fans import CASE_IDS, FamilySpec, build_family_fan, family_fan
from torhyp.intlin import IntMat, UnderdeterminedSystemError, rational_rank, solve_exact
from torhyp.polytopes import (
    idp_check,
    interior_lattice_count,
    lattice_points,
    min_face,
    polytope_of,
    triple_intersection,
    vertices,
    volume,
)
from torhyp.toric_ideal import (
    fiber_elements,
    gale_matrix,
    markov_candidate,
    markov_verify,
    section_certificate,
    section_difference_moves,
)

from oracles import (
    PRINTED_CANONICAL,
    PRINTED_CLASS_MAPS,
    PRINTED_MARKOV,
    det,
    integer_kernel,
    mat_mul,
    minkowski_sum_polytope,
    smith_normal_form,
)

BOUND = 6
# sha256 over the sorted-key JSON of every criterion-6 verdict, cell by cell
# in sweep order: a change to any output byte of the sweep shows here.
CRITERION_6_DIGEST = "1c51d3a0e3661ab578802a6d11909e63ff54d420ba417aeb0f966f8c905ae37d"

# Four-value parameter grids per case, including 0 and negatives where the
# reference data admits them.  3.0.2 requires b < 0.  The reference data of
# cases 3.1.3 and 3.1.4 is only valid on nonnegative parameters: a negative
# first parameter breaks the printed move set (a disconnected fiber exists)
# and a negative second parameter makes the listed auxiliary divisor
# non-nef, so those grids stay nonnegative.
PARAM_GRIDS: dict[str, list[dict[str, int]]] = {
    "2.0.1": [{"l": l} for l in (0, 1, 2, 3)],
    "2.0.2": [
        {"l1": l1, "l2": l2} for l1 in (0, 1, 2, 3) for l2 in (0, 1, 2, 3) if l2 >= l1
    ],
    "3.0.1": [
        {"r": r, "a": a, "b": b} for r in (0, 1, 2, 3) for a in (0, 1, 2, 3) for b in (0, 1, 2, 3)
    ],
    "3.0.2": [
        {"r": r, "a": a, "b": b}
        for r in (0, 1, 2, 3)
        for a in (0, 1, 2, 3)
        for b in (-1, -2, -3, -4)
    ],
    "3.1.1": [{"b1": b1} for b1 in (-1, 0, 1, 2)],
    "3.1.2": [{"b1": b1} for b1 in (-1, 0, 1, 2)],
    "3.1.3": [{"b1": b1, "c2": c2} for b1 in (0, 1, 2, 3) for c2 in (0, 1, 2, 3)],
    "3.1.4": [{"b1": b1, "b2": b2} for b1 in (0, 1, 2, 3) for b2 in (0, 1, 2, 3)],
    "3.1.5": [{"b1": b1} for b1 in (-1, 0, 1, 2)],
}

# Verdict-sweep grids: free parameters over {0..3} plus the negative-b grid
# for 3.0.2, coefficients over {0..8}.
SWEEP_GRIDS: dict[str, list[dict[str, int]]] = {
    "2.0.1": [{"l": l} for l in (0, 1, 2, 3)],
    "2.0.2": [
        {"l1": l1, "l2": l2} for l1 in (0, 1, 2, 3) for l2 in (0, 1, 2, 3) if l2 >= l1
    ],
    "3.0.1": PARAM_GRIDS["3.0.1"],
    "3.0.2": PARAM_GRIDS["3.0.2"],
    "3.1.1": [{"b1": b1} for b1 in (0, 1, 2, 3)],
    "3.1.2": [{"b1": b1} for b1 in (0, 1, 2, 3)],
    "3.1.3": [{"b1": b1, "c2": c2} for b1 in (0, 1, 2, 3) for c2 in (0, 1, 2, 3)],
    "3.1.4": [{"b1": b1, "b2": b2} for b1 in (0, 1, 2, 3) for b2 in (0, 1, 2, 3)],
    "3.1.5": [{"b1": b1} for b1 in (0, 1, 2, 3)],
}


def iter_specs(grids):
    for case in CASE_IDS:
        for params in grids[case]:
            yield FamilySpec.make(case, **params)


# Build time of each module fixture, for the PASS line of its first user.
FIXTURE_SECONDS: dict[str, float] = {}


@pytest.fixture(scope="module")
def catalog_certificates():
    """Markov and configuration certificates for every grid member.

    Fiber enumerations are cleared between parameter sets to keep memory
    flat; the certificates themselves are tiny and stay cached for the
    verdict sweep.
    """
    t0 = time.time()
    results = {}
    for spec in iter_specs(PARAM_GRIDS):
        fan = build_family_fan(spec)
        gale_matrix(fan)  # raises InternalInconsistencyError on a corrupt basis
        cand = markov_candidate(fan)
        markov_cert = markov_verify(fan, cand, BOUND)
        configs = []
        for config in applicable_configs(fan):
            eprime = divisor(fan, config.eprime_coeffs(fan.family.as_dict()))
            assert is_nef(eprime), (spec, config.name)
            moves = section_difference_moves(eprime)
            cert = section_certificate(eprime, BOUND)
            configs.append((config.name, eprime, moves, cert))
        results[spec] = (markov_cert, configs)
        fiber_elements.cache_clear()
        vertices.cache_clear()
    FIXTURE_SECONDS["catalog_certificates"] = time.time() - t0
    return results


def test_criterion_1_presentation_and_markov(catalog_certificates):
    """The class maps B read off the rays are the printed ones and
    annihilate the ray map, the catalog's Markov characters embed to the
    printed move sets, and those pass the bounded Markov verification on
    the full grids."""
    t0 = time.time()
    checked = 0
    for spec, (markov_cert, _) in catalog_certificates.items():
        fan = build_family_fan(spec)
        b = gale_matrix(fan)
        assert b.to_rows() == PRINTED_CLASS_MAPS[spec.case_id](**spec.as_dict()), spec
        a = IntMat.from_rows(fan.rays)
        for j in range(3):
            assert b.mul_vec(a.col(j)) == (0,) * b.rows
        printed = PRINTED_MARKOV[spec.case_id](**spec.as_dict())
        assert markov_candidate(fan) == tuple(map(tuple, printed)), spec
        assert markov_cert.connected, (spec, markov_cert)
        assert markov_cert.degree_bound == BOUND
        checked += 1
    print(
        f"\nACCEPTANCE 1 PASS: printed presentation matrices and move sets match the rays and "
        f"{checked} move-set certificates connect all fibers at bound {BOUND} "
        f"({FIXTURE_SECONDS['catalog_certificates'] + time.time() - t0:.1f}s with the "
        f"certificate fixture)"
    )


def test_criterion_2_cone_table():
    """Picard rank, nef generators, effective generators and canonical
    representatives match the reference data exactly, over the reference
    domain (a negative twist in the five-collection cases flips the nef
    cone, so those grids are nonnegative here)."""
    from itertools import combinations

    t0 = time.time()
    count = 0
    for spec in iter_specs(SWEEP_GRIDS):
        fan = build_family_fan(spec)
        basis = picard_basis(fan)
        assert basis.rank == (2 if spec.case_id.startswith("2") else 3)
        for g in nef_generators(fan):
            assert is_nef(g), (spec, g.label_dict())
        gens = eff_generators(fan)
        gen_classes = [class_of(g) for g in gens]
        for i in range(fan.nrays):
            target = class_of(ray_divisor(fan, fan.ray_labels[i]))
            ok = False
            for subset in combinations(range(len(gens)), basis.rank):
                mat = IntMat.from_rows(
                    [[gen_classes[j][c] for j in subset] for c in range(basis.rank)]
                )
                try:
                    sol = solve_exact(mat, list(target))
                except UnderdeterminedSystemError:
                    continue
                if sol is not None and all(x >= 0 for x in sol):
                    ok = True
                    break
            assert ok, (spec, fan.ray_labels[i])
        printed = PRINTED_CANONICAL[spec.case_id](**spec.as_dict())
        assert class_of(canonical_divisor(fan)) == printed
        count += 1
    print(
        f"\nACCEPTANCE 2 PASS: cone and canonical reference data exact on "
        f"{count} family members ({time.time() - t0:.1f}s)"
    )


def test_criterion_3_facet_count_closed_forms():
    """Interior counts of the five minimum faces match the closed forms
    for 1 <= a,b <= 6 and 0 <= l <= 4, both in the boundary profile read
    off the intersection form and by direct enumeration of each face."""
    t0 = time.time()
    cells = 0
    for l in range(0, 5):
        fan = family_fan("2.0.1", l=l)
        for a in range(1, 7):
            for b in range(1, 7):
                d = divisor(fan, {"D_2": a, "D_3": b})
                expected = [
                    (b - 1) * (b - 2) // 2,
                    (l * a + b - 2) * (l * a + b - 1) // 2,
                    (a - 1) * (b - 1) + l * a * (a - 1) // 2,
                    (a - 1) * (b - 1) + l * a * (a - 1) // 2,
                    (a - 1) * (b - 1) + l * a * (a - 1) // 2,
                ]
                profile = boundary_genus_profile(d)
                for i, entry in enumerate(profile["entries"]):
                    face = min_face(d, i)
                    scan = interior_lattice_count(face)
                    assert entry["interior_count"] == scan == expected[i], (l, a, b, i)
                    assert entry["face_dim"] == face.dim, (l, a, b, i)
                cells += 1
        vertices.cache_clear()
    print(
        f"\nACCEPTANCE 3 PASS: facet interior counts equal the closed forms on "
        f"{cells} parameter cells, face enumeration and the intersection-form profile agreeing ({time.time() - t0:.1f}s)"
    )


IDP_REPRESENTATIVES = [
    ("2.0.1", {"l": 2}),
    ("2.0.2", {"l1": 1, "l2": 2}),
    ("3.0.1", {"r": 1, "a": 1, "b": 1}),
    ("3.0.2", {"r": 1, "a": 1, "b": -1}),
    ("3.1.1", {"b1": 1}),
    ("3.1.2", {"b1": 1}),
    ("3.1.3", {"b1": 1, "c2": 1}),
    ("3.1.4", {"b1": 1, "b2": 1}),
    ("3.1.5", {"b1": 1}),
]


def test_criterion_4_idp_sweep():
    """Every pair of nef divisors with generator coefficients in {0,1,2}
    has the decomposition property, in all nine cases."""
    t0 = time.time()
    pairs = 0
    for case, params in IDP_REPRESENTATIVES:
        fan = family_fan(case, **params)
        gens = nef_generators(fan)
        combos = list(itertools.product((0, 1, 2), repeat=len(gens)))
        divisors = []
        for combo in combos:
            d = divisor(fan, [0] * fan.nrays)
            for c, g in zip(combo, gens):
                d = d + c * g
            divisors.append(d)
        points = [set(lattice_points(polytope_of(d))) for d in divisors]
        sums = {}
        for i, j in itertools.combinations_with_replacement(range(len(divisors)), 2):
            target = set(lattice_points(polytope_of(divisors[i] + divisors[j])))
            key = (i, j)
            sumset = {
                (p[0] + q[0], p[1] + q[1], p[2] + q[2])
                for p in points[i]
                for q in points[j]
            }
            assert sumset == target, (case, params, combos[i], combos[j])
            pairs += 1
        vertices.cache_clear()
    print(
        f"\nACCEPTANCE 4 PASS: decomposition property verified for {pairs} nef pairs "
        f"across the nine cases ({time.time() - t0:.1f}s)"
    )


def test_criterion_5_connected_sections_catalog(catalog_certificates):
    """Every applicable configuration row passes the bounded sufficient
    criterion on the full parameter grids; the rank-2 twisted family's
    move set contains the three displayed difference vectors."""
    t0 = time.time()
    rows = 0
    for spec, (_, configs) in catalog_certificates.items():
        for name, eprime, moves, cert in configs:
            assert cert.connected, (spec, name, cert)
            rows += 1
        if spec.case_id == "2.0.1" and spec["l"] >= 1:
            (name, eprime, moves, cert) = configs[0]
            l = spec["l"]
            required = [(1, -1, 0, 0, l), (0, 0, 1, -1, 0), (0, 0, 0, 1, -1)]
            normalised = set(moves)
            for vec in required:
                neg = tuple(-x for x in vec)
                assert vec in normalised or neg in normalised, (spec, vec)
    # One full-report run per case with the explicit decomposition check.
    for case, params in IDP_REPRESENTATIVES:
        from torhyp.toric_ideal import connected_sections_check

        fan = family_fan(case, **params)
        configs = applicable_configs(fan)
        if not configs:
            continue
        eprime = divisor(fan, configs[0].eprime_coeffs(fan.family.as_dict()))
        e = eprime
        for g in nef_generators(fan):
            e = e + g
        rep = connected_sections_check(e, eprime, BOUND, verify_idp=True)
        assert rep["passes"] and rep["idp_checked"] is True, (case, params)
    print(
        f"\nACCEPTANCE 5 PASS: {rows} configuration rows pass the connected-sections "
        f"criterion at bound {BOUND} ({time.time() - t0:.1f}s)"
    )


def test_criterion_6_verdict_sweep(catalog_certificates):
    """Derived verdicts never contradict the reference tables outside the
    certified defect cells; reference not-hyperbolic cells coincide with
    the boundary characterisation away from degenerate coordinates."""
    t0 = time.time()
    cells = 0
    ambiguous = 0
    unlisted = 0
    defects = []
    beyond_boundary = []
    agreements = {HYPERBOLIC: 0, NOT_HYPERBOLIC: 0, OPEN: 0}
    digest = hashlib.sha256()
    for spec in iter_specs(SWEEP_GRIDS):
        fan = build_family_fan(spec)
        h = ample_reference(fan)
        ncoef = 2 if spec.case_id.startswith("2") else 3
        for coeffs in itertools.product(range(0, 9), repeat=ncoef):
            cells += 1
            v = derive_verdict(spec, coeffs, BOUND)
            digest.update(json.dumps(v.as_json(), sort_keys=True).encode())
            t = v.table
            derived_low = v.outcome == NOT_HYPERBOLIC
            if t.ambiguous:
                ambiguous += 1
                continue
            if t.value == UNLISTED:
                unlisted += 1
                continue
            if v.outcome == t.value:
                agreements[v.outcome] += 1
            if v.contradicts_table:
                # Only the direction "exact boundary witness versus printed
                # hyperbolic cell" may occur, on degenerate coordinates, in
                # the two known defective row families; each witness curve
                # must actually exist (positive degree).
                assert v.outcome == NOT_HYPERBOLIC and t.value == HYPERBOLIC, (spec, coeffs)
                assert min(coeffs) == 0, (spec, coeffs)
                assert (spec.case_id == "3.0.1" and t.block == "general") or (
                    spec.case_id == "3.1.1"
                ), (spec, coeffs, t.block)
                ev = v.evidence
                assert ev.get("face_dim") in (1, 2), (spec, coeffs, ev.get("reason"))
                d = surface_divisor(fan, coeffs)
                witness_ray = ray_divisor(fan, ev["ray"])
                assert triple_intersection(d, witness_ray, h) >= 1, (spec, coeffs)
                defects.append((spec.case_id, spec.as_dict(), coeffs))
                continue
            if derived_low and min(coeffs) >= 1:
                assert t.value == NOT_HYPERBOLIC, (spec, coeffs, t.value)
            if t.value == NOT_HYPERBOLIC and not t.imported:
                if not derived_low:
                    assert min(coeffs) == 0, (spec, coeffs)
                    beyond_boundary.append((spec.case_id, spec.as_dict(), coeffs))
            # Rank-2 own results: exact two-way coincidence everywhere.
            if spec.case_id.startswith("2") and not t.imported:
                assert derived_low == (t.value == NOT_HYPERBOLIC), (spec, coeffs)
        vertices.cache_clear()
        fiber_elements.cache_clear()
    assert agreements[HYPERBOLIC] > 0 and agreements[NOT_HYPERBOLIC] > 0
    assert digest.hexdigest() == CRITERION_6_DIGEST
    print(
        f"\nACCEPTANCE 6 PASS: {cells} cells swept; zero uncertified contradictions; "
        f"exact agreements by outcome {agreements}; excluded and reported: "
        f"{ambiguous} permutation-ambiguous cells, {unlisted} unlisted cells, "
        f"{len(defects)} certified printed-table defects (all at a zero coordinate, "
        f"witnessed by an exact genus<=1 boundary curve), "
        f"{len(beyond_boundary)} beyond-boundary reference rows (all at a zero "
        f"coordinate) ({time.time() - t0:.1f}s)"
    )


# Regions of the two classification pictures for the rank-2 twisted family,
# in lattice-point semantics: a cell belongs to a region when its (a, b)
# pair satisfies any of the listed predicates.
FIGURE_REGIONS = {
    0: {
        "not_hyperbolic": [
            lambda a, b: a <= 1,
            lambda a, b: b <= 3,
            lambda a, b: a <= 2 and b <= 4,
        ],
        "hyperbolic": [
            lambda a, b: a >= 2 and b >= 5,
            lambda a, b: a >= 3 and b >= 4,
        ],
        "open": [],
    },
    2: {
        "not_hyperbolic": [
            lambda a, b: a <= 1,
            lambda a, b: 1 <= b <= 3,
            lambda a, b: 1 <= a <= 2 and 0 <= b <= 1,
        ],
        "hyperbolic": [
            lambda a, b: a >= 3 and b >= 4,
            lambda a, b: a >= 4 and b == 0,
            lambda a, b: a >= 2 and b >= 7,
        ],
        "open": [
            lambda a, b: (a, b) in ((2, 4), (2, 5), (2, 6), (3, 0)),
        ],
    },
}


def test_criterion_7_figure_regions():
    """The l = 0 and l = 2 pictures for the rank-2 twisted family match the
    table lookup cell-for-cell on the 9 x 9 grid."""
    t0 = time.time()
    outcome_of = {"not_hyperbolic": NOT_HYPERBOLIC, "hyperbolic": HYPERBOLIC, "open": OPEN}
    for l, regions in FIGURE_REGIONS.items():
        spec = FamilySpec.make("2.0.1", l=l)
        for a in range(0, 9):
            for b in range(0, 9):
                hits = {
                    outcome_of[name]
                    for name, preds in regions.items()
                    if any(p(a, b) for p in preds)
                }
                assert len(hits) == 1, (l, a, b, hits)
                t = table_lookup(spec, (a, b))
                assert not t.ambiguous and t.value == hits.pop(), (l, a, b, t.value)
    print(
        f"\nACCEPTANCE 7 PASS: both pictures reproduce the table cell-for-cell on "
        f"all 81 cells each ({time.time() - t0:.1f}s)"
    )


def test_criterion_8_symbolic_spot_checks():
    """Pairing and degree polynomials for the rank-2 twisted family match
    the intersection computation for 20 random parameter choices."""
    t0 = time.time()
    rng = random.Random(2026)
    for _ in range(20):
        l = rng.randint(0, 4)
        a = rng.randint(2, 8)
        b = rng.randint(max(0, 3 - l), 8)
        fan = family_fan("2.0.1", l=l)
        d = divisor(fan, {"D_2": a, "D_3": b})
        e = divisor(fan, {"D_2": a - 1, "D_3": b})
        cert = positivity_certificate(d, e, ample_reference(fan))
        assert cert["pairings"] == [
            b * (b + l - 3),
            l * a * (a - 3) + a * (b + l - 3) + (a - 3) * b,
        ], (l, a, b)
        assert cert["degrees"] == [b, a + b + a * l], (l, a, b)
    print(f"\nACCEPTANCE 8 PASS: 20 random pairing/degree spot checks exact ({time.time() - t0:.1f}s)")


PROPERTY_FANS = [
    ("2.0.1", {"l": 1}),
    ("2.0.1", {"l": 3}),
    ("2.0.2", {"l1": 0, "l2": 2}),
    ("3.0.1", {"r": 1, "a": 2, "b": 1}),
    ("3.0.2", {"r": 2, "a": 0, "b": -2}),
    ("3.1.1", {"b1": 1}),
    ("3.1.3", {"b1": 1, "c2": 2}),
    ("3.1.5", {"b1": 0}),
]


def test_criterion_9_randomised_property_suites():
    """Five randomised exact-equality suites, 1000 instances each."""
    t0 = time.time()
    rng = random.Random(97)

    # Smith form re-multiplication.
    for _ in range(1000):
        nr, nc = rng.randint(1, 5), rng.randint(1, 5)
        m = IntMat(nr, nc, tuple(rng.randint(-9, 9) for _ in range(nr * nc)))
        snf = smith_normal_form(m)
        assert mat_mul(mat_mul(snf.u, m), snf.v).entries == snf.s.entries
        assert abs(det(snf.u)) == 1 and abs(det(snf.v)) == 1
        diag = snf.diagonal()
        for x, y in zip(diag, diag[1:]):
            assert (x == 0 and y == 0) or (x != 0 and y % x == 0)

    # Kernel membership and rank.
    for _ in range(1000):
        nr, nc = rng.randint(1, 4), rng.randint(1, 6)
        m = IntMat(nr, nc, tuple(rng.randint(-6, 6) for _ in range(nr * nc)))
        basis = integer_kernel(m)
        for v in basis:
            assert m.mul_vec(v) == (0,) * nr
        assert len(basis) == nc - rational_rank(m)

    fans = [family_fan(case, **params) for case, params in PROPERTY_FANS]

    # Minkowski-sum volume consistency for nef pairs.
    for i in range(1000):
        fan = fans[i % len(fans)]
        gens = nef_generators(fan)
        d1 = divisor(fan, [0] * fan.nrays)
        d2 = divisor(fan, [0] * fan.nrays)
        for g in gens:
            d1 = d1 + rng.randint(0, 3) * g
            d2 = d2 + rng.randint(0, 3) * g
        p = minkowski_sum_polytope(polytope_of(d1), polytope_of(d2))
        assert volume(p) == volume(polytope_of(d1 + d2))
        if i % 100 == 99:
            vertices.cache_clear()

    # Triple intersection symmetry and multilinearity.
    for i in range(1000):
        fan = fans[i % len(fans)]
        rank = picard_basis(fan).rank
        c1, c2, c3, c4 = (
            divisor_from_class(fan, [rng.randint(-4, 4) for _ in range(rank)]) for _ in range(4)
        )
        base = triple_intersection(c1, c2, c3)
        assert base == triple_intersection(c2, c3, c1) == triple_intersection(c3, c2, c1)
        assert triple_intersection(c1 + c4, c2, c3) == base + triple_intersection(c4, c2, c3)

    # Lattice count invariance under lattice-character translations.
    for i in range(1000):
        fan = fans[i % len(fans)]
        coeffs = [rng.randint(0, 3) for _ in range(fan.nrays)]
        d = divisor(fan, coeffs)
        base = len(lattice_points(polytope_of(d)))
        mvec = [rng.randint(-3, 3) for _ in range(3)]
        shifted = divisor(
            fan,
            [
                c + sum(mi * ui for mi, ui in zip(mvec, u))
                for c, u in zip(d.coeffs, fan.rays)
            ],
        )
        assert len(lattice_points(polytope_of(shifted))) == base
        if i % 100 == 99:
            vertices.cache_clear()

    print(
        f"\nACCEPTANCE 9 PASS: five randomised property suites, 1000 exact instances "
        f"each ({time.time() - t0:.1f}s)"
    )
