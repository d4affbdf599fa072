"""``derive_verdict`` reads each member's compiled forms; the oracle
``reference_verdict`` recomputes every number from the surface divisor's
own intersection matrix.  Both must give the same JSON document, or raise
the same error, on every criterion-6 cell with a zero coordinate (where
faces degenerate and the defect cells lie), on a seeded sample of the other
cells, on cells of every criterion-6 member with coordinates of 10^6, 10^12
and 10^40 (the generated evaluator has no width limit), and on members off
the grid, where a listed nef generator is not nef or the parameter lies
past the grid.
"""

import itertools
import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from torhyp.classify import _epsilon, _sum_source, compiled_member, derive_verdict, table_lookup
from torhyp.fans import CASE_IDS, FamilySpec

from oracles import reference_verdict
from test_acceptance import BOUND, SWEEP_GRIDS

OFF_GRID = {
    "2.0.1": [{"l": 10}],
    "3.1.1": [{"b1": -1}],
    "3.1.2": [{"b1": -1}],
    "3.1.3": [{"b1": -1, "c2": 0}],
    "3.1.4": [{"b1": -1, "b2": 0}],
    "3.1.5": [{"b1": -1}],
}
SAMPLE_PER_CASE = 300
HUGE = (10**6, 10**12, 10**40)


def outcome(derive, spec, coeffs, bound):
    try:
        return derive(spec, coeffs, bound).as_json()
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def cells(case, values=range(9)):
    return list(itertools.product(values, repeat=2 if case.startswith("2") else 3))


def huge_cells(case):
    """Cells over 0, 1 and the huge values with a huge coordinate."""
    return [c for c in cells(case, (0, 1, *HUGE)) if max(c) >= HUGE[0]]


@pytest.mark.parametrize("case", CASE_IDS)
def test_compiled_matches_reference_on_the_grid(case):
    rng = random.Random(f"compiled:{case}")
    specs = [FamilySpec.make(case, **p) for p in SWEEP_GRIDS[case]]
    zero = [(s, c) for s in specs for c in cells(case) if min(c) == 0]
    rest = [(s, c) for s in specs for c in cells(case) if min(c) > 0]
    huge = [(s, c) for s in specs for c in huge_cells(case)]
    checked = zero + rng.sample(rest, min(SAMPLE_PER_CASE, len(rest))) + huge
    for spec, coeffs in checked:
        want = outcome(reference_verdict, spec, coeffs, BOUND)
        assert outcome(derive_verdict, spec, coeffs, BOUND) == want, (spec, coeffs)


@pytest.mark.parametrize(
    "case,params", [(c, p) for c, ps in OFF_GRID.items() for p in ps], ids=lambda x: str(x)
)
def test_compiled_matches_reference_off_the_grid(case, params):
    spec = FamilySpec.make(case, **params)
    raised = 0
    for coeffs in cells(case):
        for bound in (2, BOUND):
            want = outcome(reference_verdict, spec, coeffs, bound)
            assert outcome(derive_verdict, spec, coeffs, bound) == want, (spec, coeffs, bound)
            raised += isinstance(want, tuple)
    # Below b1 = 0 some cells are not nef and both refuse them alike.
    assert (raised > 0) == case.startswith("3.1")


@pytest.mark.parametrize("coeffs", [(1, 2, 3), (-1, 2), (0, -1)], ids=str)
def test_compiled_matches_reference_on_invalid_cells(coeffs):
    spec = FamilySpec.make("2.0.1", l=2)
    want = outcome(reference_verdict, spec, coeffs, BOUND)
    assert isinstance(want, tuple) and outcome(derive_verdict, spec, coeffs, BOUND) == want



def test_sum_source_drops_zeros_and_unit_factors():
    assert _sum_source([(0, "c0"), (1, "c1"), (-1, "c2"), (-3, "q01"), (12, "q01*c2")]) == (
        "c1 - c2 - 3*q01 + 12*q01*c2"
    )
    assert _sum_source([(-1, "s0"), (2, "c1")]) == "-s0 + 2*c1"
    assert _sum_source([(0, "c0")]) == _sum_source([]) == "0"


RATIOS = st.lists(
    st.tuples(st.integers(1, 12) | st.integers(1, 10**12), st.integers(1, 12) | st.integers(1, 10**12)),
    min_size=1,
    max_size=6,
)


@given(RATIOS)
@example([(2, 4), (1, 2), (3, 6)])  # a tie, the first kept
@example([(5, 3), (7, 7)])  # capped at one
@example([(4, 6), (9, 2)])  # printed in lowest terms
def test_epsilon_is_the_capped_least_ratio(pairs):
    alphas, betas = zip(*pairs)
    want = str(min(min(Fraction(a, b) for a, b in pairs), 1))
    assert _epsilon(alphas, betas) == want


def test_table_memo_stays_within_the_value_classes():
    # Each cell's row mask is the and of one entry per coordinate, so a
    # member's memo holds at most the product of its coordinates' distinct
    # entries, however many cells and however large.
    large = [0, 9, 12, 10**6]
    for case in CASE_IDS:
        for params in SWEEP_GRIDS[case]:
            spec = FamilySpec.make(case, **params)
            for coeffs in cells(case) + list(itertools.product(large, repeat=len(cells(case)[0]))):
                table_lookup(spec, coeffs)
            table = compiled_member(spec).table
            bound = prod(len(set(index)) for index in table.index)
            assert len(table.memo) <= bound <= 13 ** len(table.index), (spec, len(table.memo))
