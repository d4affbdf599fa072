"""``derive_verdict`` reads each member's compiled forms; the oracle
``reference_verdict`` recomputes every number from the surface divisor's
own intersection matrix.  Both must give the same JSON document, or raise
the same error, on every criterion-6 cell with a zero coordinate (where
faces degenerate and the defect cells lie), on a seeded sample of the other
cells, on cells of every criterion-6 member with coordinates of 10^6, 10^12
and 10^40 (the generated evaluator has no width limit), and on members off
the grid, at a negative twist or a parameter past the grid.  A Markov
bound below one is refused on every cell, every refusal is raised by
``derive_verdict`` itself, a verdict builds its evidence and its boundary
only when read, each bound's certificate is kept, a member's table
outcomes are exactly the masks its cells reach, all decoded when it
compiles, and the evaluators' total size stays under a fixed ceiling.
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

from torhyp.catalog import CASES
from torhyp.classify import (
    BOUNDS_KEPT,
    _epsilon,
    _sum_source,
    compiled_member,
    derive_verdict,
    sweep,
    table_lookup,
)
from torhyp.fans import CASE_IDS, FamilySpec
from torhyp.toric_ideal import section_certificate

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
    # Below b1 = 0 the nef generators are read off the walls too, so every
    # cell c >= 0 is nef and neither refuses one.
    assert raised == 0


INVALID_CELLS = [
    *(pytest.param("2.0.1", {"l": 2}, c, id=str(c))
      for c in [(1, 2, 3), (-1, 2), (0, -1), (2.0, 3), ("2", 3), (Fraction(2), 3), Fraction(2)]),
    pytest.param("3.0.1", {"r": 1, "a": 1, "b": 1}, (1, 2), id="3.0.1-(1, 2)"),
]


@pytest.mark.parametrize("case,params,coeffs", INVALID_CELLS)
def test_compiled_matches_reference_on_invalid_cells(case, params, coeffs):
    # The evaluator's call reads the cell, so a cell of the wrong length or
    # one that is not integers is refused there; the refusal keeps the
    # oracle's type and message.
    spec = FamilySpec.make(case, **params)
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


def test_table_outcomes_are_the_masks_cells_reach():
    # Each cell's row mask is the and of one entry per coordinate, and a
    # coordinate's last entry stands for every larger value, so the cells
    # below the longest index reach every mask a cell can: a member's
    # outcomes hold exactly those masks, at most the product of its
    # coordinates' numbers of distinct entries, and every cell, however
    # large, reads its outcome there by the evaluator's mask.
    large = [0, 9, 12, 10**6]
    for case in CASE_IDS:
        for params in SWEEP_GRIDS[case]:
            spec = FamilySpec.make(case, **params)
            m = compiled_member(spec)
            below = range(max(map(len, m.index), default=1))
            reached = set()
            for coeffs in cells(case, below) + cells(case, large):
                mask = m.numbers(*coeffs)[0]
                assert table_lookup(spec, coeffs) is m.outcomes[mask], (spec, coeffs)
                reached.add(mask)
            assert set(m.outcomes) == reached, spec
            bound = prod(len(set(index)) for index in m.index)
            assert len(m.outcomes) <= bound <= 13 ** len(m.index), (spec, len(m.outcomes))


def test_cells_decode_no_mask_after_the_compile(monkeypatch):
    # Every outcome is decoded when the member compiles: deriving and
    # looking up every cell of the 0..8 grid of a member compiled afresh
    # decodes no mask, and its outcomes stay those of a fresh compile.
    import torhyp.classify as classify

    spec = FamilySpec.make("3.0.1", r=1, a=1, b=2)
    compiled_member.cache_clear()
    m = compiled_member(spec)
    decode, decoded = classify._mask_outcome, []

    def counted(block, rows, mask):
        decoded.append(mask)
        return decode(block, rows, mask)

    with monkeypatch.context() as patched:
        patched.setattr(classify, "_mask_outcome", counted)
        for coeffs in cells("3.0.1"):
            derive_verdict(spec, coeffs, BOUND)
            table_lookup(spec, coeffs)
    assert decoded == []
    params = spec.as_dict()
    fresh = classify._compile_table(CASES["3.0.1"].block_at(params), params)
    assert (m.index, m.outcomes) == fresh and len(m.outcomes) > 1


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


REFUSED = ("_render_evidence", "_epsilon", "boundary_json")


def refuse_rendering(patched, classify):
    def refuse(*args):
        raise AssertionError("evidence built before it was read")

    for name in REFUSED:
        patched.setattr(classify, name, refuse)


def test_verdicts_render_their_boundary_only_when_printed(monkeypatch):
    # A verdict keeps the evaluator's numbers and builds its evidence, its
    # epsilon and its boundary only when read: with all three refused, a
    # sweep and the derivation of every cell, verdicts of all six kinds,
    # still run, and printed afterwards each kind matches the reference
    # document byte for byte, the boundary the last evidence key wherever
    # there is one.
    import torhyp.classify as classify

    spec = FamilySpec.make("3.0.1", r=0, a=1, b=1)
    with monkeypatch.context() as patched:
        refuse_rendering(patched, classify)
        assert len(list(sweep(spec, range(9), BOUND))) == 9**3
        verdicts = [(coeffs, derive_verdict(spec, coeffs, BOUND)) for coeffs in cells("3.0.1")]
    kinds = {}
    for coeffs, v in verdicts:
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
        # The cell is read more than once, so it may be given as an iterator.
        assert derive_verdict(spec, iter(coeffs), BOUND).as_json() == doc, coeffs


def test_refusals_are_raised_by_derive_verdict(monkeypatch):
    # Every refusal is raised by derive_verdict itself, with the oracle's
    # type and message, while the evidence cannot be built: a bound below
    # one, a cell that is negative, of the wrong length or not integers,
    # and, on a patched member, a degenerate degree on a cell that is
    # otherwise Hyperbolic.  A cell given as an iterator is refused alike,
    # though it is read twice.
    import torhyp.classify as classify

    two = FamilySpec.make("2.0.1", l=2)
    refusals = [(two, (3, 4), 0), (two, (-1, 2), BOUND), (two, (1, 2, 3), BOUND),
                (two, (2.0, 3), BOUND)]
    wants = [outcome(reference_verdict, *r) for r in refusals]
    assert wants[0] == ("ValueError", "the Markov bound must be at least 1, got 0")
    m = compiled_member(two)
    assert derive_verdict(two, (3, 4), BOUND).outcome == "Hyperbolic"

    def degenerate(*c):
        mask, faces, low, betas, pairings = m.numbers(*c)
        return mask, faces, low, [0, *betas[1:]], pairings

    patches = [
        (m._replace(numbers=degenerate),
         ("InternalInconsistencyError", "positive pairing with a degenerate degree")),
    ]
    with monkeypatch.context() as patched:
        refuse_rendering(patched, classify)
        for (spec, coeffs, bound), (kind, message) in zip(refusals, wants):
            for cell in (coeffs, iter(coeffs)):
                with pytest.raises((ValueError, RuntimeError), match=re.escape(message)) as caught:
                    derive_verdict(spec, cell, bound)
                assert type(caught.value).__name__ == kind, (coeffs, bound)
        for member, (kind, message) in patches:
            patched.setattr(classify, "compiled_member", lambda spec: member)
            with pytest.raises((ValueError, RuntimeError), match=re.escape(message)) as caught:
                derive_verdict(two, (3, 4), BOUND)
            assert type(caught.value).__name__ == kind


def test_certificates_are_kept_per_bound(monkeypatch):
    # Keeping only the last bound asked for, the 729 cells of 3.0.1 at
    # r = a = b = 1 derived at bounds 2 and 6 in turn made 808 calls of
    # section_certificate.  Each bound's certificate is kept, so its one
    # configuration is certified once per bound, and printing every verdict
    # afterwards certifies nothing more.  Past BOUNDS_KEPT bounds the oldest
    # is dropped.
    import torhyp.classify as classify

    calls = []

    def counted(eprime, bound):
        calls.append(bound)
        return section_certificate(eprime, bound)

    spec = FamilySpec.make("3.0.1", r=1, a=1, b=1)
    monkeypatch.setattr(classify, "section_certificate", counted)
    compiled_member.cache_clear()
    try:
        verdicts = [derive_verdict(spec, c, (2, 6)[i % 2]) for i, c in enumerate(cells("3.0.1"))]
        m = compiled_member(spec)
        assert len(m.configs) == 1 and sorted(calls) == [2, 6]
        for v in verdicts:
            v.as_json()
        assert sorted(calls) == [2, 6]
        hyperbolic = next(c for c, v in zip(cells("3.0.1"), verdicts) if v.outcome == "Hyperbolic")
        for bound in range(1, BOUNDS_KEPT + 3):
            derive_verdict(spec, hyperbolic, bound).as_json()
        assert list(m.configs[0].certs) == list(range(3, BOUNDS_KEPT + 3))
    finally:
        monkeypatch.undo()
        compiled_member.cache_clear()


# AST nodes of the 186 criterion-6 evaluators together.  The evaluators
# that built the boundary document themselves came to 133,044 (levels read
# off the walls, only the unit and signed forms kept); returning the table
# mask and the faces as numbers in its place, each mask table a tuple of
# constants up to its last repeated entry, they came to 122,775.  With the
# sign test of the cell written first and the faces kept as D^2.D_rho and
# off, no dimension or genus computed, they come to 106,093, and this
# ceiling allows under 1% over that.  Compiling them is a cost paid once
# per member and process.
EVALUATOR_NODE_CEILING = 107_000


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
    # not a level, and are left out, as is the sign test of the cell that
    # opens every evaluator, and nothing else, on these members.
    for case in CASE_IDS:
        for p in SWEEP_GRIDS[case]:
            source = compiled_member(FamilySpec.make(case, **p)).source
            sign = f"    if {' | '.join(f'c{a}' for a in range(len(cells(case)[0])))} < 0:"
            assert source.splitlines()[1:3] == [sign, "        return None"], (case, p)
            lines = [line for line in source.splitlines()[3:] if not line.startswith("    mask = ")]
            tested = [t for line in lines for t in re.findall(r"(?:if|or) ([^:<>]+?) < -?\d+", line)]
            assert tested and all(re.fullmatch(r"c\d", t) for t in tested), (case, p, tested)
