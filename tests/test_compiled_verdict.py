"""``derive_verdict`` reads each member's compiled forms; the oracle
``reference_verdict`` recomputes every number from the surface divisor's
own intersection matrix.  Both must give the same JSON document, or raise
the same error, on every criterion-6 cell with a zero coordinate (where
faces degenerate and the defect cells lie), on a seeded sample of the other
cells, on cells of every criterion-6 member with coordinates of 10^6, 10^12
and 10^40 (the generated evaluator has no width limit), and on members off
the grid, where a listed nef generator is not nef or the parameter lies
past the grid.  A Markov bound below one is refused on every cell, the
nef refusal comes before the evaluator's early returns, a verdict renders
its boundary only when printed, and the evaluators' total size stays
under a fixed ceiling.
"""

import ast
import itertools
import json
import random
import re
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from torhyp.classify import (
    _epsilon,
    _sum_source,
    boundary_genus_profile,
    compiled_member,
    derive_verdict,
    surface_divisor,
    sweep,
    table_lookup,
)
from torhyp.divisors import is_nef
from torhyp.fans import CASE_IDS, FamilySpec, build_family_fan

from oracles import low_genus_entry, reference_verdict
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


def test_bound_below_one_is_refused_on_every_cell():
    # Early cells never reach a certificate, yet the bound is refused
    # there as on a cell that does, by derive_verdict and by sweep.
    spec = FamilySpec.make("2.0.1", l=1)
    assert [derive_verdict(spec, c, 1).outcome for c in [(0, 0), (1, 1), (5, 5)]] == [
        "NotHyperbolic", "NotHyperbolic", "Hyperbolic"
    ]
    for bound in (0, -2):
        message = f"the Markov bound must be at least 1, got {bound}"
        for coeffs in [(0, 0), (1, 1), (5, 5)]:
            with pytest.raises(ValueError, match=message):
                derive_verdict(spec, coeffs, bound)
        with pytest.raises(ValueError, match=message):
            next(sweep(spec, range(2), bound))


def test_nef_refusal_precedes_the_early_return(monkeypatch):
    # Off the domain the evaluator tests nefness before the boundary: cells
    # that are not nef and, read through the boundary formulas regardless,
    # not big or with a low-genus face are refused, never answered.
    import torhyp.classify as classify

    early = []
    for case, params in [(c, p) for c, ps in OFF_GRID.items() if c.startswith("3.1") for p in ps]:
        spec = FamilySpec.make(case, **params)
        fan = build_family_fan(spec)
        for coeffs in cells(case):
            d = surface_divisor(fan, coeffs)
            if not any(coeffs) or is_nef(d):
                continue
            with monkeypatch.context() as patched:
                patched.setattr(classify, "is_nef", lambda d: True)
                profile = boundary_genus_profile(d)
            if not profile["big"] or low_genus_entry(profile) is not None:
                early.append((spec, coeffs))
    assert early
    refusal = ("ValueError", "boundary profiles assume a nef divisor")
    for spec, coeffs in early:
        assert outcome(reference_verdict, spec, coeffs, BOUND) == refusal
        assert outcome(derive_verdict, spec, coeffs, BOUND) == refusal, (spec, coeffs)


def test_verdicts_render_their_boundary_only_when_printed(monkeypatch):
    # A verdict keeps its boundary as the evaluator's numbers: with the
    # renderer refused, a sweep and a verdict of every kind still run, and
    # printed afterwards each matches the reference document byte for
    # byte, the boundary the last evidence key wherever there is one.
    import torhyp.classify as classify

    spec = FamilySpec.make("3.0.1", r=0, a=1, b=1)

    def refuse(*args):
        raise AssertionError("boundary rendered before it was printed")

    kinds = {}
    with monkeypatch.context() as patched:
        patched.setattr(classify, "boundary_json", refuse)
        assert len(list(sweep(spec, range(9), BOUND))) == 9**3
        for coeffs in cells("3.0.1"):
            v = derive_verdict(spec, coeffs, BOUND)
            kinds.setdefault(v.evidence.get("reason"), (coeffs, v))
    assert kinds.keys() == {
        "trivial class",
        "class not big: genus 0 boundary curve",
        "boundary curve of genus <= 1",
        "adjoint class not nef",
        "no derivation applies",
        None,  # Hyperbolic
    }
    for coeffs, v in kinds.values():
        doc = v.as_json()
        assert json.dumps(doc) == json.dumps(reference_verdict(spec, coeffs, BOUND).as_json())
        evidence = list(doc["derived"]["evidence"])
        assert ("boundary" in evidence) == (v.boundary is not None), coeffs
        assert "boundary" not in evidence[:-1], coeffs


# AST nodes of the 186 criterion-6 evaluators together.  The evaluators
# that built the boundary document themselves came to 133,044 (levels read
# off the walls, only the unit and signed forms kept); returning the table
# mask and the faces as numbers in its place, each mask table a tuple of
# constants up to its last repeated entry, they come to 122,775, and this
# ceiling allows 1% over that.  Compiling them is a cost paid once per
# member and process.
EVALUATOR_NODE_CEILING = 124_000


def test_generated_evaluators_stay_compact():
    total = sum(
        sum(1 for _ in ast.walk(ast.parse(compiled_member(FamilySpec.make(case, **p)).source)))
        for case in CASE_IDS
        for p in SWEEP_GRIDS[case]
    )
    assert total < EVALUATOR_NODE_CEILING


def test_block_members_test_unit_levels_only():
    # Where the generators are nef every wall level is a form >= 0, and the
    # unit forms c_a occur among them, so the nef tests of D + K and D - E'
    # read c_a < k_a alone.  The mask line's tests bound a table index,
    # not a level, and are left out.
    for case in CASE_IDS:
        for p in SWEEP_GRIDS[case]:
            source = compiled_member(FamilySpec.make(case, **p)).source
            lines = [line for line in source.splitlines() if not line.startswith("    mask = ")]
            tested = [t for line in lines for t in re.findall(r"(?:if|or) ([^:<>]+?) < -?\d+", line)]
            assert tested and all(re.fullmatch(r"c\d", t) for t in tested), (case, p, tested)
