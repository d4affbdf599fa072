"""Family-member grids and seeded input generation for the benchmark.

The grids mirror the acceptance suite: ``PARAM_GRIDS`` is the criterion-1
catalog grid (negative parameters included) and ``SWEEP_GRIDS`` the
criterion-6 verdict-sweep grid.  They are copied here so the benchmark does
not import the test tree.

Every workload is a sequence of *rounds*, each run in a fresh interpreter.
A round holds one member from each cost stratum of each case, so two seeds
give rounds of the same composition and only the members inside each
stratum differ.  Strata are cut on an exact work count recorded in
``expected.json`` (the fiber elements a member's Markov verifications
enumerate), never on timings.
"""

from __future__ import annotations

import itertools
import random

CASE_IDS = ("2.0.1", "2.0.2", "3.0.1", "3.0.2", "3.1.1", "3.1.2", "3.1.3", "3.1.4", "3.1.5")

PARAM_GRIDS: dict[str, list[dict[str, int]]] = {
    "2.0.1": [{"l": l} for l in (0, 1, 2, 3)],
    "2.0.2": [{"l1": l1, "l2": l2} for l1 in (0, 1, 2, 3) for l2 in (0, 1, 2, 3) if l2 >= l1],
    "3.0.1": [{"r": r, "a": a, "b": b} for r in (0, 1, 2, 3) for a in (0, 1, 2, 3) for b in (0, 1, 2, 3)],
    "3.0.2": [
        {"r": r, "a": a, "b": b} for r in (0, 1, 2, 3) for a in (0, 1, 2, 3) for b in (-1, -2, -3, -4)
    ],
    "3.1.1": [{"b1": b1} for b1 in (-1, 0, 1, 2)],
    "3.1.2": [{"b1": b1} for b1 in (-1, 0, 1, 2)],
    "3.1.3": [{"b1": b1, "c2": c2} for b1 in (0, 1, 2, 3) for c2 in (0, 1, 2, 3)],
    "3.1.4": [{"b1": b1, "b2": b2} for b1 in (0, 1, 2, 3) for b2 in (0, 1, 2, 3)],
    "3.1.5": [{"b1": b1} for b1 in (-1, 0, 1, 2)],
}

SWEEP_GRIDS: dict[str, list[dict[str, int]]] = {
    "2.0.1": PARAM_GRIDS["2.0.1"],
    "2.0.2": PARAM_GRIDS["2.0.2"],
    "3.0.1": PARAM_GRIDS["3.0.1"],
    "3.0.2": PARAM_GRIDS["3.0.2"],
    "3.1.1": [{"b1": b1} for b1 in (0, 1, 2, 3)],
    "3.1.2": [{"b1": b1} for b1 in (0, 1, 2, 3)],
    "3.1.3": PARAM_GRIDS["3.1.3"],
    "3.1.4": PARAM_GRIDS["3.1.4"],
    "3.1.5": [{"b1": b1} for b1 in (0, 1, 2, 3)],
}

COEFF_RANGE = range(0, 9)
BOUND = 6


def member_key(case: str, params: dict[str, int]) -> str:
    """Stable text key of a family member, e.g. ``3.0.1:r=0,a=1,b=2``."""
    return case + ":" + ",".join(f"{k}={v}" for k, v in params.items())


def parse_key(key: str) -> tuple[str, dict[str, int]]:
    case, _, rest = key.partition(":")
    params = {}
    for item in rest.split(","):
        name, _, value = item.partition("=")
        params[name] = int(value)
    return case, params


def cells(case: str):
    """The full 0..8 coefficient grid of one member, in sweep order."""
    ncoef = 2 if case.startswith("2") else 3
    return list(itertools.product(COEFF_RANGE, repeat=ncoef))


def by_cost(keys: list[str], cost: dict[str, int]) -> list[str]:
    return sorted(keys, key=lambda k: (cost[k], k))


def strata(keys: list[str], cost: dict[str, int], count: int) -> list[list[str]]:
    """Split one case's members, ordered by recorded work, into at most
    ``count`` blocks of nearly equal total work, so the heaviest members
    sit in blocks of their own and run in every round."""
    total = sum(cost[k] for k in keys) or 1
    blocks: list[list[str]] = [[] for _ in range(count)]
    acc = 0
    for k in by_cost(keys, cost):
        blocks[min(count - 1, acc * count // total)].append(k)
        acc += cost[k]
    return [b for b in blocks if b]


def round_members(
    grid: dict[str, list[dict[str, int]]],
    cost: dict[str, int],
    per_case: dict[str, int],
    seed: int,
    index: int,
) -> list[str]:
    """Member keys of round ``index`` of a seed: one member drawn from each
    of the (at most per_case[case]) cost strata of every case."""
    rng = random.Random(f"{seed}:{index}")
    return [
        rng.choice(block)
        for case in CASE_IDS
        for block in strata([member_key(case, p) for p in grid[case]], cost, per_case[case])
    ]
