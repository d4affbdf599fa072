"""Regenerate ``expected.json``, the recorded outputs the benchmark checks.

    PYTHONPATH=src python3 perfbench/record.py

Runs the whole criterion-6 sweep grid and the whole criterion-1 catalog grid
once (about five minutes on one core) and records, per family member:

* sweep: the histogram of (derived outcome, table outcome) over the 0..8
  coefficient grid, the number of cells whose derivation reaches the
  positivity check, the fiber elements its configuration certificates
  enumerate, and a few derived-Hyperbolic cells for the ``cli`` workload;
* catalog: ``fibers_checked`` of the reference move set, the total number
  of fiber elements enumerated for it, and per applicable configuration the
  number of difference moves and fibers checked.

Per-member seconds go to stderr as progress; only exact counts are stored.
Rerun it only when the program's outputs are meant to change.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from grids import BOUND, CASE_IDS, PARAM_GRIDS, SWEEP_GRIDS, cells, member_key

from torhyp.classify import HYPERBOLIC, applicable_configs, derive_verdict
from torhyp.divisors import divisor
from torhyp.fans import FamilySpec, build_family_fan
from torhyp.toric_ideal import gale_matrix, markov_candidate, markov_verify, section_difference_moves

from spans import Tracer, torhyp_modules
from worker import reaches_positivity

HYPERBOLIC_SAMPLES = 6

# Counts the fiber elements a member's Markov verifications enumerate (cache
# misses only): the stratification cost of ``sweep`` and ``catalog``.
TRACER = Tracer()


def clear_caches() -> None:
    """Empty every lru_cache of the package, as a fresh process would have."""
    for mod in torhyp_modules():
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)) and getattr(obj, "__module__", "").startswith(
                "torhyp"
            ):
                obj.cache_clear()


def record_sweep_member(case: str, params: dict) -> dict:
    spec = FamilySpec.make(case, **params)
    hist: dict[str, int] = {}
    positivity = 0
    hyperbolic = []
    for coeffs in cells(case):
        TRACER.active = True
        v = derive_verdict(spec, coeffs, BOUND)
        TRACER.active = False
        bucket = f"{v.outcome}/{v.table.value}"
        hist[bucket] = hist.get(bucket, 0) + 1
        positivity += reaches_positivity(v)
        if v.outcome == HYPERBOLIC:
            hyperbolic.append(list(coeffs))
    step = max(1, len(hyperbolic) // HYPERBOLIC_SAMPLES)
    return {
        "cells": len(cells(case)),
        "elements": TRACER.work.pop("toric_ideal.fiber_elements.elements", 0),
        "positivity": positivity,
        "outcomes": dict(sorted(hist.items())),
        "hyperbolic_samples": hyperbolic[::step][:HYPERBOLIC_SAMPLES],
    }


def record_catalog_member(case: str, params: dict) -> dict:
    fan = build_family_fan(FamilySpec.make(case, **params))
    gale_matrix(fan)
    TRACER.active = True
    cert = markov_verify(fan, markov_candidate(fan), BOUND)
    TRACER.active = False
    elements = TRACER.work.pop("toric_ideal.fiber_elements.elements", 0)
    configs = {}
    for config in applicable_configs(fan):
        eprime = divisor(fan, config.eprime_coeffs(fan.family.as_dict()))
        moves = section_difference_moves(eprime)
        ccert = markov_verify(fan, moves, BOUND)
        configs[config.name] = {"moves": len(moves), "fibers": ccert.fibers_checked}
    return {"fibers": cert.fibers_checked, "elements": elements, "configs": configs}


def main() -> int:
    TRACER.install()
    out: dict = {"bound": BOUND, "sweep": {}, "catalog": {}}
    for part, grid, fn in (
        ("sweep", SWEEP_GRIDS, record_sweep_member),
        ("catalog", PARAM_GRIDS, record_catalog_member),
    ):
        for case in CASE_IDS:
            for params in grid[case]:
                key = member_key(case, params)
                clear_caches()
                t0 = time.perf_counter()
                out[part][key] = fn(case, params)
                print(f"{part} {key} {time.perf_counter() - t0:.3f}s", file=sys.stderr, flush=True)
    path = Path(__file__).resolve().parent / "expected.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
