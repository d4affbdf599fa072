import ast
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import torhyp
import torhyp.catalog as catalog_module
import torhyp.classify as classify_module
from torhyp.classify import (
    AMBIGUOUS,
    HYPERBOLIC,
    NOT_HYPERBOLIC,
    OPEN,
    UNLISTED,
    applicable_configs,
    boundary_genus_profile,
    compiled_member,
    derive_verdict,
    positivity_certificate,
    surface_divisor,
    sweep,
    table_lookup,
)
from torhyp.catalog import CASES, SectionConfig, holds, integers, satisfied
from torhyp.divisors import (
    ample_reference,
    canonical_divisor,
    character,
    class_of,
    divisor,
    eff_generators,
    is_ample,
    is_nef,
    nef_generators,
)
from torhyp.fans import FamilySpec, ParameterError, build_family_fan, family_fan
from torhyp.polytopes import triple_intersection
from torhyp.toric_ideal import FiberCertificate, InternalInconsistencyError

from oracles import (
    PRINTED_BLOCKS,
    PRINTED_CONFIGS,
    PRINTED_EFF,
    PRINTED_EPRIME,
    PRINTED_GENERAL_301_ROWS,
    PRINTED_MARKOV,
    PRINTED_NEF,
    PRINTED_RAYS,
    PRINTED_REQUIRES,
    low_genus_entry,
)


def spec_of(case, **params):
    return FamilySpec.make(case, **params)


def test_boundary_profile_201_lemma_instance():
    fan = family_fan("2.0.1", l=2)
    d = surface_divisor(fan, (2, 4))
    prof = boundary_genus_profile(d)
    counts = [e["interior_count"] for e in prof["entries"]]
    assert counts == [3, 21, 5, 5, 5]
    assert prof["big"] and low_genus_entry(prof) is None


def test_boundary_profile_genus0_cases():
    fan = family_fan("2.0.1", l=1)
    prof = boundary_genus_profile(surface_divisor(fan, (1, 5)))
    low = low_genus_entry(prof)
    assert low is not None and low["interior_count"] == 0
    # a = 0: two-dimensional polytope, not big.
    prof2 = boundary_genus_profile(surface_divisor(fan, (0, 5)))
    assert not prof2["big"]


def test_boundary_profile_rejects_trivial():
    fan = family_fan("2.0.1", l=1)
    with pytest.raises(ValueError):
        boundary_genus_profile(divisor(fan, {}))


def test_degenerate_face_carries_no_curve():
    # b = 0 makes the first facet a vertex; no boundary curve arises there.
    fan = family_fan("2.0.1", l=2)
    prof = boundary_genus_profile(surface_divisor(fan, (4, 0)))
    first = prof["entries"][0]
    assert first["face_dim"] == 0 and not first["carries_curve"]
    assert low_genus_entry(prof) is None


def adjoint_nef(d):
    return is_nef(d + canonical_divisor(d.fan))


def test_noether_lefschetz_thresholds_201():
    fan = family_fan("2.0.1", l=2)
    assert adjoint_nef(surface_divisor(fan, (2, 1)))
    assert not adjoint_nef(surface_divisor(fan, (1, 5)))
    zero_k = -1 * canonical_divisor(fan)
    assert adjoint_nef(zero_k)


def test_noether_lefschetz_thresholds_202():
    fan = family_fan("2.0.2", l1=0, l2=1)
    # Applicable iff a >= 3 and b >= 2 - l1 - l2.
    assert adjoint_nef(surface_divisor(fan, (3, 1)))
    assert not adjoint_nef(surface_divisor(fan, (2, 5)))
    assert not adjoint_nef(surface_divisor(fan, (5, 0)))


def test_genus_bound_class_201():
    # The pairing partner in the genus bound is the class of E + K.
    fan = family_fan("2.0.1", l=1)
    e = divisor(fan, {"D_2": 3, "D_3": 5})
    assert class_of(e + canonical_divisor(fan)) == (4 - 3, 5 + 1 - 3)
    mk = -1 * canonical_divisor(fan)
    assert class_of(mk + canonical_divisor(fan)) == (0, 0)


def test_genus_bound_class_202():
    fan = family_fan("2.0.2", l1=1, l2=2)
    e = divisor(fan, {"D_3": 4, "D_4": 2})
    assert class_of(e + canonical_divisor(fan)) == (5 - 4, 2 + 1 + 2 - 2)


def test_positivity_certificate_201_printed_polynomials():
    fan = family_fan("2.0.1", l=2)
    a, b = 3, 4
    d = surface_divisor(fan, (a, b))
    e = divisor(fan, {"D_2": a - 1, "D_3": b})
    cert = positivity_certificate(d, e, ample_reference(fan))
    assert cert["pairings"] == [12, 9]
    assert cert["degrees"] == [4, 13]
    assert cert["epsilon"] == "9/13"


def test_positivity_certificate_zero_bound_class():
    fan = family_fan("2.0.1", l=2)
    d = surface_divisor(fan, (2, 1))
    e = -1 * canonical_divisor(fan)
    cert = positivity_certificate(d, e, ample_reference(fan))
    assert all(a == 0 for a in cert["pairings"])
    assert cert["epsilon"] is None


def test_positivity_certificate_301_product():
    fan = family_fan("3.0.1", r=0, a=0, b=0)
    d = surface_divisor(fan, (3, 3, 3))
    e = divisor(fan, {"D_1": 3, "D_4": 3, "D_6": 3})
    cert = positivity_certificate(d, e, ample_reference(fan))
    assert all(a >= 1 for a in cert["pairings"])
    assert cert["epsilon"] is not None and 0 < Fraction(cert["epsilon"]) <= 1


def test_config_catalog_conditions():
    fan0 = family_fan("2.0.1", l=0)
    assert [c.name for c in applicable_configs(fan0)] == ["D_2+D_3"]
    fan2 = family_fan("2.0.1", l=2)
    assert [c.name for c in applicable_configs(fan2)] == ["D_2"]
    fan31 = family_fan("3.1.1", b1=0)
    assert [c.name for c in applicable_configs(fan31)] == ["D_u1+D_z1", "D_v1+D_z1"]
    fan31b = family_fan("3.1.1", b1=1)
    assert applicable_configs(fan31b) == []
    fan313 = family_fan("3.1.3", b1=1, c2=0)
    assert [c.name for c in applicable_configs(fan313)] == ["D_z1"]


def test_config_eprimes_are_nef():
    cases = [
        ("2.0.1", {"l": 0}), ("2.0.1", {"l": 3}),
        ("2.0.2", {"l1": 0, "l2": 0}), ("2.0.2", {"l1": 1, "l2": 2}),
        ("3.0.1", {"r": 0, "a": 0, "b": 0}), ("3.0.1", {"r": 2, "a": 1, "b": 2}),
        ("3.0.2", {"r": 0, "a": 0, "b": -2}), ("3.0.2", {"r": 1, "a": 2, "b": -1}),
        ("3.1.1", {"b1": 0}), ("3.1.1", {"b1": 2}),
        ("3.1.2", {"b1": 0}), ("3.1.2", {"b1": 3}),
        ("3.1.3", {"b1": 0, "c2": 0}), ("3.1.3", {"b1": 2, "c2": 1}),
        ("3.1.4", {"b1": 0, "b2": 0}), ("3.1.4", {"b1": 1, "b2": 1}),
        ("3.1.5", {"b1": 0}), ("3.1.5", {"b1": 2}),
    ]
    for case, params in cases:
        fan = family_fan(case, **params)
        for config in applicable_configs(fan):
            ep = divisor(fan, config.eprime_coeffs(fan.family.as_dict()))
            assert is_nef(ep), (case, params, config.name)


@pytest.mark.parametrize(
    "case,params,coeffs,derived,table",
    [
        ("2.0.1", {"l": 2}, (3, 4), HYPERBOLIC, HYPERBOLIC),
        ("2.0.1", {"l": 2}, (2, 4), OPEN, OPEN),
        ("2.0.1", {"l": 2}, (1, 7), NOT_HYPERBOLIC, NOT_HYPERBOLIC),
        ("2.0.1", {"l": 2}, (2, 7), HYPERBOLIC, HYPERBOLIC),
        ("2.0.1", {"l": 0}, (0, 5), NOT_HYPERBOLIC, NOT_HYPERBOLIC),
        ("2.0.2", {"l1": 1, "l2": 1}, (5, 0), HYPERBOLIC, HYPERBOLIC),
        ("3.0.1", {"r": 1, "a": 1, "b": 1}, (2, 3, 3), HYPERBOLIC, HYPERBOLIC),
        ("3.0.2", {"r": 1, "a": 1, "b": -1}, (4, 2, 4), HYPERBOLIC, HYPERBOLIC),
        ("3.1.1", {"b1": 0}, (0, 0, 2), NOT_HYPERBOLIC, NOT_HYPERBOLIC),
        ("3.1.4", {"b1": 1, "b2": 1}, (0, 2, 4), HYPERBOLIC, HYPERBOLIC),
    ],
)
def test_derive_verdict_cells(case, params, coeffs, derived, table):
    v = derive_verdict(spec_of(case, **params), coeffs, bound=5)
    assert v.outcome == derived
    assert v.table.value == table
    if derived == HYPERBOLIC:
        ev = v.evidence
        assert ev["connected_sections"]["connected"]
        assert ev["adjoint_nef"] is True
        assert all(a >= 1 for a in ev["positivity"]["pairings"])
        assert v.as_json()["derived"]["evidence"]["boundary"]["big"]


def test_derive_verdict_trivial_class():
    v = derive_verdict(spec_of("2.0.1", l=1), (0, 0))
    assert v.outcome == NOT_HYPERBOLIC
    assert v.evidence["reason"] == "trivial class"


def test_derive_verdict_rejects_negative_coeffs():
    with pytest.raises(ParameterError):
        derive_verdict(spec_of("2.0.1", l=1), (-1, 2))


@pytest.mark.parametrize("bad", [2.5, Fraction(7, 2), "3"], ids=repr)
def test_non_integer_coordinates_refused(bad):
    # int() would read each of these as a neighbouring cell; no entry point
    # may answer for a cell it was not given.
    spec = spec_of("2.0.1", l=1)
    for call in (
        lambda: derive_verdict(spec, (bad, 1)),
        lambda: table_lookup(spec, (bad, 1)),
        lambda: surface_divisor(build_family_fan(spec), (bad, 1)),
    ):
        with pytest.raises(ParameterError, match="table coefficients are integers"):
            call()


def test_table_lookup_printed_cells():
    assert table_lookup(spec_of("2.0.1", l=0), (2, 5)).value == HYPERBOLIC
    assert table_lookup(spec_of("3.1.5", b1=0), (2, 1, 4)).value == HYPERBOLIC
    assert table_lookup(spec_of("3.1.1", b1=0), (0, 0, 2)).value == NOT_HYPERBOLIC
    assert table_lookup(spec_of("2.0.1", l=2), (2, 5)).value == OPEN
    assert table_lookup(spec_of("2.0.1", l=9), (3, 9)).value == HYPERBOLIC
    assert table_lookup(spec_of("3.1.1", b1=-1), (3, 3, 3)).value == UNLISTED


def test_table_lookup_permutation_rows():
    spec = spec_of("3.0.1", r=0, a=0, b=0)
    assert table_lookup(spec, (4, 1, 4)).value == NOT_HYPERBOLIC
    assert table_lookup(spec, (4, 2, 2)).value == NOT_HYPERBOLIC
    assert table_lookup(spec, (2, 4, 4)).value == HYPERBOLIC
    amb = table_lookup(spec, (4, 2, 4))
    assert amb.value == AMBIGUOUS and amb.ambiguous


def test_table_lookup_general_block_nothyp_precedence():
    # A cell matching both an exceptional not-hyperbolic row and a
    # parameter threshold resolves to not-hyperbolic, matching the
    # boundary computation.
    spec = spec_of("3.0.1", r=0, a=1, b=3)
    t = table_lookup(spec, (2, 2, 4))
    assert t.value == NOT_HYPERBOLIC and not t.ambiguous


def test_monotone_hyperbolic_in_table_row():
    spec = spec_of("2.0.1", l=2)
    for a in range(3, 8):
        for b in range(4, 9):
            assert table_lookup(spec, (a, b)).value == HYPERBOLIC
            assert derive_verdict(spec, (a, b), bound=4).outcome == HYPERBOLIC


def test_epsilon_range_and_pairing_bound():
    rng = random.Random(12)
    spec = spec_of("2.0.1", l=1)
    fan = build_family_fan(spec)
    h = ample_reference(fan)
    for _ in range(30):
        a, b = rng.randint(2, 8), rng.randint(1, 8)
        d = surface_divisor(fan, (a, b))
        e = divisor(fan, {"D_2": a - 1, "D_3": b})
        cert = positivity_certificate(d, e, h)
        if cert["epsilon"] is not None:
            epsilon = Fraction(cert["epsilon"])
            assert 0 < epsilon <= 1
            for alpha, beta in zip(cert["pairings"], cert["degrees"]):
                assert alpha >= epsilon * beta


def test_sweep_rows_shape():
    rows = list(sweep(spec_of("2.0.1", l=2), range(0, 3), bound=4))
    assert len(rows) == 9
    assert {r["derived"] for r in rows} <= {HYPERBOLIC, NOT_HYPERBOLIC, OPEN}
    assert all(r["case"] == "2.0.1" and "a" in r and "b" in r for r in rows)


def test_verdict_contradiction_flag():
    # The printed tables claim hyperbolicity on a handful of degenerate
    # cells where an exact boundary witness forbids it; the comparator
    # must flag exactly that shape.
    v = derive_verdict(spec_of("3.1.1", b1=0), (4, 0, 5), bound=4)
    assert v.outcome == NOT_HYPERBOLIC
    assert v.table.value == HYPERBOLIC
    assert v.contradicts_table
    low = v.evidence
    assert low["face_dim"] == 1 and low["genus"] == 0


# Surface classes and the ample reference are combinations of the nef
# generators; these values pin both to the case formulas they replaced,
# including negative parameters.  At a negative twist of 3.1.x the nef cone
# is the one the walls cut out, not the printed one: there D_z1 is not nef.
DERIVED_FACTS = [
    ("2.0.1", {"l": 2}, (2, 3), {"D_2": 2, "D_3": 3}, {"D_2": 1, "D_3": 1}),
    ("2.0.2", {"l1": 1, "l2": 3}, (2, 3), {"D_3": 2, "D_4": 3}, {"D_3": 1, "D_4": 1}),
    ("3.0.1", {"r": 1, "a": 2, "b": 3}, (1, 2, 3),
     {"D_1": 1, "D_4": 2, "D_6": 3}, {"D_1": 1, "D_4": 1, "D_6": 1}),
    ("3.0.2", {"r": 1, "a": 2, "b": -2}, (1, 2, 3),
     {"D_1": 1, "D_4": 8, "D_6": 3}, {"D_1": 1, "D_4": 3, "D_6": 1}),
    ("3.1.1", {"b1": -2}, (1, 2, 3),
     {"D_v1": 8, "D_u1": 3, "D_z1": 5}, {"D_v1": 4, "D_u1": 1, "D_z1": 2}),
    ("3.1.2", {"b1": 3}, (2, 0, 1),
     {"D_v1": 2, "D_u1": 1, "D_z1": 1}, {"D_v1": 1, "D_u1": 1, "D_z1": 2}),
    ("3.1.3", {"b1": -1, "c2": 2}, (0, 4, 1),
     {"D_v1": 4, "D_u1": 1, "D_z1": 5}, {"D_v1": 2, "D_u1": 1, "D_z1": 2}),
    ("3.1.4", {"b1": 2, "b2": -1}, (3, 1, 0),
     {"D_v1": 4, "D_z1": 1}, {"D_v1": 2, "D_u1": 1, "D_z1": 2}),
    ("3.1.5", {"b1": 0}, (1, 2, 3),
     {"D_v1": 1, "D_u1": 3, "D_z1": 5}, {"D_v1": 1, "D_u1": 1, "D_z1": 2}),
]


@pytest.mark.parametrize(
    "case,params,coeffs,surface,ample", DERIVED_FACTS, ids=[row[0] for row in DERIVED_FACTS]
)
def test_derived_surface_and_ample_classes(case, params, coeffs, surface, ample):
    fan = family_fan(case, **params)
    assert surface_divisor(fan, coeffs).label_dict() == surface
    assert ample_reference(fan).label_dict() == ample


# The table lookup as two passes over the block, the second reading no row
# through its unresolved permutation, kept as the oracle of the one-pass
# ``table_lookup``.  Each row's cells are enumerated over the whole
# coefficient grid at once, as products of the values each coordinate
# interval admits, instead of testing the row cell by cell.
GRID = range(9)


def _admitted(interval, grid=GRID):
    lo, hi = interval
    return [v for v in grid if v >= lo and (hi is None or v <= hi)]


def _row_cells(row, params, allow_permute, grid=GRID):
    if not holds(row.cond, params):
        return set()
    orders = set(itertools.permutations(row.preds)) if row.permute and allow_permute else {row.preds}
    return {
        c for order in orders
        for c in itertools.product(*(_admitted(pred, grid) for pred in order))
    }


def two_pass_lookups(spec, grid=GRID):
    """The reference outcome of every cell of the grid, keyed by cell, as
    (value, matched, block, imported, ambiguous)."""
    params = spec.as_dict()
    ncoef = len(CASES[spec.case_id].coeff_names)
    cells = list(itertools.product(grid, repeat=ncoef))
    block = CASES[spec.case_id].block_at(params)
    if block is None:
        return {c: (UNLISTED, (), None, False, False) for c in cells}
    # Each row in its printed order, its text bounds read at the member.
    rows = [r._replace(preds=r.orders(params)[0]) for r in block.rows]
    loose = [_row_cells(r, params, True, grid) for r in rows]
    strict = [_row_cells(r, params, not r.uncertain_permutation, grid) for r in rows]
    nothyp = set().union(*(s for r, s in zip(rows, loose) if r.outcome == NOT_HYPERBOLIC))

    def one_pass(c, row_cells):
        silenced = block.hyp_yields_to_nothyp and c in nothyp
        return tuple(dict.fromkeys(
            r.outcome
            for r, s in zip(rows, row_cells)
            if c in s and not (silenced and r.outcome == HYPERBOLIC)
        ))

    out = {}
    for c in cells:
        matched, matched_strict = one_pass(c, loose), one_pass(c, strict)
        head = (block.name, block.imported)
        if len(set(matched)) > 1:
            out[c] = (AMBIGUOUS, matched, *head, True)
            continue
        val = matched[0] if matched else UNLISTED
        val_strict = matched_strict[0] if matched_strict else UNLISTED
        if val != val_strict:
            out[c] = (AMBIGUOUS, tuple(set(matched + matched_strict)), *head, True)
        else:
            out[c] = (val, matched, *head, False)
    return out


def _members_in(values):
    """Every member of every case with parameters in ``values`` that passes
    its case's parameter checks."""
    for case, record in CASES.items():
        for vals in itertools.product(values, repeat=len(record.params)):
            try:
                yield FamilySpec.make(case, **dict(zip(record.params, vals)))
            except ParameterError:
                pass


def _lookup_specs():
    """Every criterion-6 member, and every member of every case with
    parameters in -3..5."""
    specs = {
        FamilySpec.make(case, **params)
        for case, grid in CRITERION_6_GRIDS.items()
        for params in grid
    }
    specs.update(_members_in(range(-3, 6)))
    return sorted(specs, key=lambda s: (s.case_id, s.params))


CRITERION_6_GRIDS = {
    "2.0.1": [{"l": l} for l in range(4)],
    "2.0.2": [{"l1": l1, "l2": l2} for l1 in range(4) for l2 in range(4) if l2 >= l1],
    "3.0.1": [{"r": r, "a": a, "b": b} for r in range(4) for a in range(4) for b in range(4)],
    "3.0.2": [
        {"r": r, "a": a, "b": b} for r in range(4) for a in range(4) for b in (-1, -2, -3, -4)
    ],
    "3.1.1": [{"b1": b1} for b1 in range(4)],
    "3.1.2": [{"b1": b1} for b1 in range(4)],
    "3.1.3": [{"b1": b1, "c2": c2} for b1 in range(4) for c2 in range(4)],
    "3.1.4": [{"b1": b1, "b2": b2} for b1 in range(4) for b2 in range(4)],
    "3.1.5": [{"b1": b1} for b1 in range(4)],
}


def test_table_lookup_matches_two_pass_reference():
    checked = ambiguous = 0
    for spec in _lookup_specs():
        for coeffs, expected in two_pass_lookups(spec).items():
            t = table_lookup(spec, coeffs)
            assert (t.value, t.matched, t.block, t.imported, t.ambiguous) == expected, (
                spec, coeffs
            )
            checked += 1
            ambiguous += t.ambiguous
    # Both kinds of ambiguity occur: conflicting rows and the unresolved
    # permutation row of the product fan.
    assert ambiguous > 0 and checked > 300_000


# Every threshold of the catalog is below 9, so these coordinates lie past
# the last cut, where the compiled value index reads its last entry.  One
# member per case with a table block (3.0.1 with its text-bound rows).
ABOVE_THE_CUTS = [*range(13), 10**6]
ABOVE_THE_CUTS_MEMBERS = {
    "2.0.1": {"l": 0},
    "2.0.2": {"l1": 0, "l2": 1},
    "3.0.1": {"r": 0, "a": 0, "b": 1},
    "3.0.2": {"r": 0, "a": 0, "b": -1},
    "3.1.1": {"b1": 0},
    "3.1.2": {"b1": 0},
    "3.1.3": {"b1": 0, "c2": 1},
    "3.1.4": {"b1": 1, "b2": 1},
    "3.1.5": {"b1": 0},
}


@pytest.mark.parametrize("case", list(ABOVE_THE_CUTS_MEMBERS))
def test_table_lookup_above_the_last_cut(case):
    spec = FamilySpec.make(case, **ABOVE_THE_CUTS_MEMBERS[case])
    assert table_lookup(spec, (0,) * len(CASES[case].coeff_names)).block is not None
    for coeffs, expected in two_pass_lookups(spec, ABOVE_THE_CUTS).items():
        t = table_lookup(spec, coeffs)
        assert (t.value, t.matched, t.block, t.imported, t.ambiguous) == expected, coeffs


def test_table_predicates_and_conditions_are_intervals():
    # Every row predicate, its text bounds read at each parameter vector in
    # 0..4, is an integer interval (lo, hi) with hi None where it is
    # unbounded.  Every row condition, block domain and configuration group
    # is a box: (parameter, interval) pairs over distinct parameters of the
    # case, none an interval without a lower bound.  The catalog stores no
    # canonical class.
    def interval(x):
        return (
            type(x) is tuple and len(x) == 2 and type(x[0]) is int
            and (x[1] is None or type(x[1]) is int and x[0] <= x[1])
        )

    def box(x, params):
        names = [pair[0] for pair in x if type(pair) is tuple and len(pair) == 2]
        return (
            type(x) is tuple and len(names) == len(x) == len(set(names))
            and set(names) <= set(params) and all(interval(bounds) for _, bounds in x)
        )

    conds = 0
    for record in CASES.values():
        assert "canonical" not in record._fields
        for group, configs in record.configs:
            assert box(group, record.params) and configs, group
        for block in record.tables:
            assert box(block.domain, record.params), block.name
            for row in block.rows:
                for values in itertools.product(range(5), repeat=len(record.params)):
                    preds = row.orders(dict(zip(record.params, values)))[0]
                    assert len(preds) == len(record.coeff_names)
                    assert all(interval(pred) for pred in preds), row
                assert box(row.cond, record.params), row
                conds += len(row.cond)
    assert conds == 20


def _functions(x):
    """The function objects in x, a value or nested tuples of values."""
    if callable(x):
        return 1
    return sum(map(_functions, x)) if isinstance(x, tuple) else 0


def test_catalog_choices_hold_no_callable():
    # Every record is data, walked through every field and nested tuple:
    # rays and characters, table blocks with their rows and domains, the
    # configuration groups and the parameter requirements.  A configuration
    # is its printed name alone, and no block builds rows of its own.
    for case, record in CASES.items():
        assert _functions(record) == 0, case
    assert "applies" not in catalog_module.TableBlock._fields
    assert "param_rows" not in catalog_module.TableBlock._fields
    assert SectionConfig._fields == ("name",)
    assert not hasattr(classify_module, "_within")


# The catalog's lambdas by AST count: 122 before the table predicates and
# row conditions were intervals, 94 before the block and configuration
# conditions were boxes, 47 before the nef generators were read off the
# walls, 42 before the effective generators were read off the ray classes,
# 35 before E' and the parameter requirements were read off their printed
# text, 15 before the rays, the characters and the general 3.0.1
# thresholds were, 0 since.  The ceiling keeps them from coming back.
CATALOG_LAMBDA_CEILING = 0


def test_catalog_text_reads_whole():
    # Every configuration name reads whole as E', every label it names is a
    # ray label of its case and every coefficient digits or a parameter of
    # the case; every requirement compares parameters of its case or
    # integers; every ray and character reads as three integers and every
    # text bound of a table row as one.  Reading at zeros checks the text,
    # not the values.
    bounds = 0
    for case, record in CASES.items():
        zeros = dict.fromkeys(record.params, 0)
        fan = build_family_fan(FamilySpec.make(case, **CRITERION_6_GRIDS[case][0]))
        for _, configs in record.configs:
            for config in configs:
                for label in config.eprime_coeffs(zeros):
                    fan.label_index(label)
        for requirement in record.requires:
            satisfied(requirement, zeros)
        for text in record.rays + record.markov:
            assert len(integers(text, zeros)) == 3, (case, text)
        for block in record.tables:
            for row in block.rows:
                texts = [x for pred in row.preds for x in pred if isinstance(x, str)]
                for text in texts:
                    integers(text, zeros, 1)
                bounds += len(texts)
    assert bounds == 8  # the d-bounds of the general 3.0.1 block


@pytest.mark.parametrize("name", [
    "", "D_2 + D_3", "+D_2", "-D_2", "D_2+", "D_2+-D_3", "D_2D_3", "D_2+D_2", "mD_2", "2*D_2",
    "\u0662D_4", "1_0D_4", "D_2+1",
])
def test_unreadable_configuration_names_refused(name):
    with pytest.raises(ValueError):
        SectionConfig(name).eprime_coeffs({"b": 1})


@pytest.mark.parametrize("requirement", [
    "l >> 0", "m >= 0", "l >=", "l>=0", "l >= 0 0", "", "l >= 1_0", "l >= \u0661", "l >= D_1",
])
def test_unreadable_requirements_refused(requirement):
    with pytest.raises(ValueError):
        satisfied(requirement, {"l": 0})


@pytest.mark.parametrize("text, n", [
    ("1,q,0", 3), ("0,b", 3), ("1,0,0,0", 3), ("1,,0", 3), ("1;0;0", 3), ("b+,0,0", 3),
    ("\u0663,0,0", 3), ("1_0,0,0", 3), ("D_1,0,0", 3), ("1,0,0 ", 3), ("4-a-z", 1), ("4-a,r", 1),
])
def test_unreadable_vectors_and_bounds_refused(text, n):
    with pytest.raises(ValueError):
        integers(text, {"a": 1, "b": 1, "r": 0}, n)


def test_catalog_text_is_the_printed_rays_characters_and_rows():
    # On every member with parameters in -7..9 the rays read off their text
    # are the printed rays, each printed Markov move pulls back to the
    # character read off its text, and the rows of the general 3.0.1 block
    # that hold, their bounds read, are the printed parameter-dependent
    # rows, so the block compiles to the same table.
    checked = general = 0
    for spec in _members_in(range(-7, 10)):
        case, params = spec.case_id, spec.as_dict()
        record, fan = CASES[case], build_family_fan(spec)
        assert list(fan.rays) == PRINTED_RAYS[case](**params), spec
        printed = [character(fan, m) for m in PRINTED_MARKOV[case](**params)]
        assert printed == [integers(text, params) for text in record.markov], spec
        checked += 1
        block = record.block_at(params)
        if block is None or block.name != "general":
            continue
        text_rows = [r for r in block.rows if any(isinstance(x, str) for p in r.preds for x in p)]
        plain = tuple(r for r in block.rows if r not in text_rows)
        read = [r._replace(preds=r.orders(params)[0], cond=())
                for r in text_rows if holds(r.cond, params)]
        assert read == PRINTED_GENERAL_301_ROWS(params), spec
        table = classify_module._compile_table(block, params)
        rows = plain + tuple(PRINTED_GENERAL_301_ROWS(params))
        former = classify_module._compile_table(block._replace(rows=rows), params)
        assert (table.index, table.rows) == (former.index, former.rows), spec
        general += 1
    assert (checked, general) == (2394, 549)


def test_catalog_text_is_the_printed_eprime_and_requirements():
    # On every parameter vector in -7..9, refused ones included, every
    # configuration name of the case reads as the printed E', and the
    # first requirement that fails is the printed one that failed first:
    # its text opens the former message and FamilySpec.make refuses the
    # vector with the text and the case.
    pairs = refused = vectors = 0
    for case, record in CASES.items():
        configs = [config for _, group in record.configs for config in group]
        assert {config.name for config in configs} == set(PRINTED_EPRIME[case]), case
        for vals in itertools.product(range(-7, 10), repeat=len(record.params)):
            params = dict(zip(record.params, vals))
            for config in configs:
                printed = PRINTED_EPRIME[case][config.name](params)
                assert config.eprime_coeffs(params) == printed, (case, params, config.name)
                pairs += 1
            failed = next((r for r in record.requires if not satisfied(r, params)), None)
            former = next((m for ok, m in PRINTED_REQUIRES[case] if not ok(params)), None)
            assert (failed and f"{failed} required") == (
                former and former.removesuffix(f" in case {case}")), (case, params)
            try:
                FamilySpec.make(case, **params)
                message = None
            except ParameterError as exc:
                message = str(exc)
                refused += 1
            assert message == (failed and f"{failed} required in case {case}"), (case, params)
            vectors += 1
    assert (pairs, vectors, refused) == (31977, 10761, 8367)


def test_catalog_lambdas_stay_few():
    with open(catalog_module.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    assert sum(isinstance(node, ast.Lambda) for node in ast.walk(tree)) <= CATALOG_LAMBDA_CEILING


def test_blocks_and_configurations_are_the_printed_ones():
    # The first box that holds picks the block and the configurations the
    # printed conditions pick, on every member with parameters in -7..9.
    # The two printed disjunctions of 3.1.3 and 3.1.4 and the two printed
    # complements are boxes through the order.
    checked = 0
    for spec in _members_in(range(-7, 10)):
        params = spec.as_dict()
        record = CASES[spec.case_id]
        block = record.block_at(params)
        printed = next((name for name, ok in PRINTED_BLOCKS[spec.case_id] if ok(params)), None)
        assert (block and block.name) == printed, spec
        names = [name for name, ok in PRINTED_CONFIGS[spec.case_id] if ok(params)]
        assert [c.name for c in record.configs_at(params)] == names, spec
        checked += 1
    assert checked == 2394


def test_nef_generators_are_nef_and_the_printed_ones():
    # On every member with parameters in -7..9 the generators read off the
    # walls are nef and sum to an ample class.  On the printed domain, each
    # member of 2.0.x and 3.0.x and of 3.1.x at twists >= 0, they are the
    # printed generators, as classes, in the printed order and as the
    # printed divisors.  Below zero the printed D_z1 of 3.1.x is not nef.
    assert "nef" not in catalog_module.Case._fields
    checked = printed_domain = 0
    for spec in _members_in(range(-7, 10)):
        fan, params = build_family_fan(spec), spec.as_dict()
        gens = nef_generators(fan)
        assert all(is_nef(g) for g in gens) and is_ample(ample_reference(fan)), spec
        checked += 1
        if spec.case_id.startswith("3.1") and min(params.values()) < 0:
            continue
        printed = [divisor(fan, g) for g in PRINTED_NEF[spec.case_id](**params)]
        assert [class_of(g) for g in gens] == [class_of(g) for g in printed], spec
        assert [g.label_dict() for g in gens] == [g.label_dict() for g in printed], spec
        printed_domain += 1
    assert (checked, printed_domain) == (2394, 1995)


def _eff_labels(spec):
    return [next(iter(g.label_dict())) for g in eff_generators(build_family_fan(spec))]


def test_eff_generators_are_the_printed_ones(monkeypatch):
    # On every member with parameters in -7..9 the generators read off the
    # ray classes are the printed ray divisors, in the printed order.
    assert "eff" not in catalog_module.Case._fields
    checked = 0
    for spec in _members_in(range(-7, 10)):
        assert _eff_labels(spec) == list(PRINTED_EFF[spec.case_id](**spec.as_dict())), spec
        checked += 1
    assert checked == 2394
    # Neither tie is vacuous: without it, the first ray divisor of the tied
    # pair is taken, not the printed one.
    ties = [
        ("2.0.2", spec_of("2.0.2", l1=2, l2=2), ["D_1", "D_4"]),
        ("3.1.3", spec_of("3.1.3", b1=-2, c2=0), ["D_u1", "D_y1", "D_z1"]),
    ]
    for case, spec, untied in ties:
        assert _eff_labels(spec) == list(PRINTED_EFF[case](**spec.as_dict()))
        monkeypatch.setitem(CASES, case, CASES[case]._replace(eff_ties=()))
        eff_generators.cache_clear()
        try:
            assert _eff_labels(spec) == untied, spec
        finally:
            monkeypatch.undo()
            eff_generators.cache_clear()


def test_table_row_orders_built_once():
    # Read at zeros; only lower bounds are text in the catalog.
    for record in CASES.values():
        zeros = dict.fromkeys(record.params, 0)
        for row in (row for block in record.tables for row in block.rows):
            preds = tuple(
                (integers(lo, zeros, 1)[0] if isinstance(lo, str) else lo, hi) for lo, hi in row.preds
            )
            expected = set(itertools.permutations(preds)) if row.permute else {preds}
            orders = row.orders(zeros)
            assert orders[0] == preds
            assert len(orders) == len(set(orders)) and set(orders) == expected


# Positivity certificates read from one intersection matrix, against the
# triple products one at a time.
POSITIVITY_CELLS = [
    ("2.0.1", {"l": 2}, (3, 4)),
    ("2.0.1", {"l": 2}, (2, 7)),
    ("2.0.1", {"l": 1}, (4, 5)),
    ("2.0.2", {"l1": 1, "l2": 1}, (5, 0)),
    ("3.0.1", {"r": 0, "a": 0, "b": 0}, (3, 3, 3)),
    ("3.0.1", {"r": 1, "a": 1, "b": 1}, (2, 3, 3)),
    ("3.0.1", {"r": 1, "a": 2, "b": 3}, (1, 2, 3)),
    ("3.0.2", {"r": 1, "a": 1, "b": -1}, (4, 2, 4)),
    ("3.1.1", {"b1": 0}, (4, 0, 5)),
    ("3.1.2", {"b1": 3}, (2, 0, 1)),
    ("3.1.3", {"b1": 1, "c2": 0}, (2, 4, 2)),
    ("3.1.4", {"b1": 1, "b2": 1}, (0, 2, 4)),
    ("3.1.5", {"b1": 0}, (2, 1, 4)),
]


@pytest.mark.parametrize(
    "case,params,coeffs", POSITIVITY_CELLS, ids=[f"{c}-{k}" for c, _, k in POSITIVITY_CELLS]
)
def test_positivity_certificate_matches_triple_products(case, params, coeffs):
    fan = family_fan(case, **params)
    d = surface_divisor(fan, coeffs)
    h = ample_reference(fan)
    assert is_nef(d) and is_ample(h)
    k = canonical_divisor(fan)
    es = [d, -1 * k, d + d]
    for config in applicable_configs(fan):
        es.append(d - divisor(fan, config.eprime_coeffs(fan.family.as_dict())))
    gens = eff_generators(fan)
    for e in es:
        cert = positivity_certificate(d, e, h)
        assert cert["pairings"] == [triple_intersection(e + k, d, g) for g in gens]
        assert cert["degrees"] == [triple_intersection(h, d, g) for g in gens]
        assert cert["effective_generators"] == [next(iter(g.label_dict())) for g in gens]


NON_NEF_CERTIFICATE = """
from torhyp.classify import positivity_certificate
from torhyp.divisors import ample_reference, divisor
from torhyp.fans import family_fan
fan = family_fan("2.0.1", l=2)
d = divisor(fan, {"D_2": -3, "D_3": -3})
try:
    positivity_certificate(d, d, ample_reference(fan))
except ValueError as exc:
    print("ValueError:", exc)
"""


def test_positivity_certificate_rejects_non_nef():
    fan = family_fan("2.0.1", l=2)
    d = divisor(fan, {"D_2": -3, "D_3": -3})
    with pytest.raises(ValueError, match="nef"):
        positivity_certificate(d, d, ample_reference(fan))
    # The check is code, not an assertion: it holds under python -O too.
    out = subprocess.run(
        [sys.executable, "-O", "-c", NON_NEF_CERTIFICATE],
        capture_output=True, text=True, check=True, env=child_env(),
    ).stdout
    assert out.startswith("ValueError:")


def child_env():
    """Environment for a child interpreter importing this torhyp."""
    src = os.path.dirname(os.path.dirname(torhyp.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_positivity_degenerate_degree_is_inconsistent(monkeypatch):
    # Every pairing is 1 but every degree 0: impossible for a nef D and an
    # ample H, so a matrix giving it is an internal inconsistency.
    fan = family_fan("2.0.1", l=2)
    d = surface_divisor(fan, (3, 4))
    e = divisor(fan, {"D_2": 2, "D_3": 4})
    row = (-1, 0, 0, 0, 0)
    monkeypatch.setattr(classify_module, "intersection_matrix", lambda _: (row,) * 5)
    with pytest.raises(InternalInconsistencyError):
        positivity_certificate(d, e, ample_reference(fan))


def test_disconnected_certificate_leaves_the_cell_open(monkeypatch):
    # Cell (3, 4) of 2.0.1 at l = 2 is Hyperbolic through E' = D_2.  With
    # every configuration's certificate disconnected, no configuration
    # passes: the cell is Open and ``tried`` keeps the certificate.
    spec = spec_of("2.0.1", l=2)
    assert derive_verdict(spec, (3, 4)).outcome == HYPERBOLIC
    cert = FiberCertificate(6, 5, False, (1, 2))
    monkeypatch.setattr(classify_module, "section_certificate", lambda eprime, bound: cert)
    compiled_member.cache_clear()
    try:
        v = derive_verdict(spec, (3, 4))
    finally:
        monkeypatch.undo()
        compiled_member.cache_clear()
    assert v.outcome == OPEN and v.evidence["reason"] == "no derivation applies"
    assert {"config": "D_2", "connected_sections": cert.as_json()} in v.evidence["tried"]


@pytest.mark.parametrize("case,params,coeffs", [
    ("3.1.5", {"b1": -1}, (2, 1, 4)),
    ("3.1.3", {"b1": -1, "c2": 0}, (4, 4, 2)),
])
def test_tables_unlisted_below_reference_domain(case, params, coeffs):
    # Below b1 = 0 the nef cone is not the printed one, so the printed rows
    # say nothing about the cell.
    v = derive_verdict(spec_of(case, **params), coeffs, bound=2)
    assert v.table.value == UNLISTED and v.table.block is None
    assert v.agree and not v.contradicts_table
