"""One round of one workload in a fresh interpreter; started by ``run.py``.

    python3 perfbench/worker.py --workload W --seed N --round I --mode M

The fresh interpreter is the round's cold start: every ``lru_cache`` of the
package starts empty.  Modes:

* ``setup``: import the package, load the recorded outputs and generate the
  round's inputs, print ``ready`` and exit.  ``run.py`` times this from
  process start.
* ``run``: the same set-up, ``ready``, then the round's operations one at a
  time (a closed loop with one client), each output checked outside the
  timed region.  Prints one JSON line with every operation's latency.
* ``traced``: ``run`` with the per-layer tracer of ``spans.py`` installed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import grids
from spans import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
CLI_ENTRY = "import sys; from torhyp.cli import main; sys.exit(main())"
SCHEMA = "torhyp/1"


def spec_of(key: str):
    from torhyp.fans import FamilySpec

    case, params = grids.parse_key(key)
    return FamilySpec.make(case, **params)


def reaches_positivity(verdict) -> bool:
    """Did the derivation get as far as a positivity certificate?"""
    if verdict.outcome == "Hyperbolic":
        return True
    return any("positivity" in rec for rec in verdict.evidence.get("tried", ()))


class Sweep:
    """Criterion-6 verdict sweep: one op is ``derive_verdict`` on one cell.

    A round is the full 0..8 coefficient grid of one member per case of the
    criterion-6 grid and of one from each of two equal-work strata per 3.0.x
    case (128 of its 186 members): 6,723 cells.  The strata keep the
    Markov-heavy members, whose fibers dominate memory, in every round.
    """

    per_case = {c: (2 if c.startswith("3.0") else 1) for c in grids.CASE_IDS}

    def __init__(self, expected: dict, seed: int, index: int):
        self.expected = expected["sweep"]
        cost = {k: v["elements"] for k, v in self.expected.items()}
        members = grids.round_members(grids.SWEEP_GRIDS, cost, self.per_case, seed, index)
        self.spec = {k: spec_of(k) for k in members}
        self.items = [
            (key, coeffs, i == len(cells) - 1)
            for key in members
            for cells in [grids.cells(self.spec[key].case_id)]
            for i, coeffs in enumerate(cells)
        ]
        self.hist: dict[str, dict[str, int]] = {}
        self.bad: dict[str, int] = {}
        self.positivity = 0

    def run(self, item):
        from torhyp.classify import derive_verdict

        key, coeffs, _ = item
        return derive_verdict(self.spec[key], coeffs, grids.BOUND)

    def check(self, item, verdict) -> int:
        """Criterion-6 rules per cell; once a member's last cell is done its
        (derived, table) histogram must equal the recorded one, else every
        cell of the member fails.  Returns the failures this check settles."""
        key, coeffs, last = item
        hist = self.hist.setdefault(key, {})
        bucket = f"{verdict.outcome}/{verdict.table.value}"
        hist[bucket] = hist.get(bucket, 0) + 1
        self.positivity += reaches_positivity(verdict)
        self.bad[key] = self.bad.get(key, 0) + (not criterion6_ok(self.spec[key], coeffs, verdict))
        if not last:
            return 0
        if hist != self.expected[key]["outcomes"]:
            return self.expected[key]["cells"]
        return self.bad[key]

    def mix(self) -> dict:
        return {"mix.positivity_cells": self.positivity}


def criterion6_ok(spec, coeffs, v) -> bool:
    """The acceptance suite's criterion-6 rules for one cell."""
    from torhyp.classify import HYPERBOLIC, NOT_HYPERBOLIC, UNLISTED, surface_divisor
    from torhyp.divisors import ample_reference, ray_divisor
    from torhyp.fans import build_family_fan
    from torhyp.polytopes import triple_intersection

    t = v.table
    derived_low = v.outcome == NOT_HYPERBOLIC
    if t.ambiguous or t.value == UNLISTED:
        return True
    if v.contradicts_table:
        # Certified defect: an exact genus <= 1 boundary witness against a
        # printed hyperbolic cell, at a zero coordinate, in the two known
        # defective row families, with a witness curve of positive degree.
        if not (v.outcome == NOT_HYPERBOLIC and t.value == HYPERBOLIC and min(coeffs) == 0):
            return False
        if not ((spec.case_id == "3.0.1" and t.block == "general") or spec.case_id == "3.1.1"):
            return False
        if v.evidence.get("face_dim") not in (1, 2):
            return False
        fan = build_family_fan(spec)
        d = surface_divisor(fan, coeffs)
        return triple_intersection(d, ray_divisor(fan, v.evidence["ray"]), ample_reference(fan)) >= 1
    if derived_low and min(coeffs) >= 1 and t.value != NOT_HYPERBOLIC:
        return False
    if t.value == NOT_HYPERBOLIC and not t.imported and not derived_low and min(coeffs) != 0:
        return False
    if spec.case_id.startswith("2") and not t.imported:
        return derived_low == (t.value == NOT_HYPERBOLIC)
    return True


class Catalog:
    """Criterion-1 catalog certificates: one op is one member's full set.

    Member work spans 50x and the 3.0.x cases hold 128 of the 186 members,
    so a round takes one member per case and one from each of six
    equal-work strata per 3.0.x case: 19 members.  The heaviest members are
    strata of their own and run in every round.
    """

    per_case = {c: (6 if c.startswith("3.0") else 1) for c in grids.CASE_IDS}

    def __init__(self, expected: dict, seed: int, index: int):
        self.expected = expected["catalog"]
        cost = {k: v["elements"] for k, v in self.expected.items()}
        self.items = grids.round_members(grids.PARAM_GRIDS, cost, self.per_case, seed, index)
        self.spec = {k: spec_of(k) for k in self.items}

    def run(self, key):
        from torhyp.classify import applicable_configs
        from torhyp.divisors import divisor
        from torhyp.fans import build_family_fan
        from torhyp.toric_ideal import gale_matrix, markov_candidate, markov_verify, section_difference_moves

        fan = build_family_fan(self.spec[key])
        gale_matrix(fan)
        certs = {"": (None, markov_verify(fan, markov_candidate(fan), grids.BOUND))}
        for config in applicable_configs(fan):
            moves = section_difference_moves(divisor(fan, config.eprime_coeffs(fan.family.as_dict())))
            certs[config.name] = (len(moves), markov_verify(fan, moves, grids.BOUND))
        return certs

    def check(self, key, certs) -> int:
        rec = self.expected[key]
        want = {"": (None, rec["fibers"])}
        want.update({name: (c["moves"], c["fibers"]) for name, c in rec["configs"].items()})
        got = {name: (moves, cert.fibers_checked) for name, (moves, cert) in certs.items()}
        connected = all(cert.connected for _, cert in certs.values())
        return int(not (connected and got == want))

    def mix(self) -> dict:
        return {}


class Cli:
    """Cold ``torhyp classify`` and ``torhyp markov`` runs, one process each.

    A round takes one member per case from the cheapest quarter by recorded
    fiber elements, so interpreter start, import and the per-process
    certificate cache fill stay a visible share, and runs ``classify`` on a
    recorded derived-Hyperbolic cell of it, then ``markov``: both verbs run
    one Markov verification, so their latencies form one cluster.
    """

    def __init__(self, expected: dict, seed: int, index: int, traced: bool = False):
        catalog, sweep = expected["catalog"], expected["sweep"]
        self.fibers = {k: v["fibers"] for k, v in catalog.items()}
        cost = {k: v["elements"] for k, v in catalog.items()}
        rng = random.Random(f"{seed}:{index}")
        self.items = []
        for case in grids.CASE_IDS:
            keys = [grids.member_key(case, p) for p in grids.PARAM_GRIDS[case]]
            keys = grids.by_cost([k for k in keys if sweep.get(k, {}).get("hyperbolic_samples")], cost)
            key = rng.choice(keys[: (len(keys) + 3) // 4])
            cell = rng.choice(sweep[key]["hyperbolic_samples"])
            self.items += [("classify", key, cell), ("markov", key, None)]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("TORHYP_MARKOV_BOUND", None)
        self.child = [str(HERE / "cli_child.py")] if traced else ["-c", CLI_ENTRY]
        self.snapshots: list[dict] = []
        self.verbs = {"classify": 0, "markov": 0}
        # Untimed call: fills the bytecode cache before the first timed run.
        self.run(("describe", "2.0.1:l=0", None))

    def run(self, item):
        verb, key, coeffs = item
        case, params = grids.parse_key(key)
        argv = [verb, "--case", case] + [f"--{k}={v}" for k, v in params.items()]
        if verb == "classify":
            argv += ["--coeffs", ",".join(map(str, coeffs))]
        if verb != "describe":
            argv += ["--bound", str(grids.BOUND)]
        # Reads stdout to EOF: closing the pipe early would make the child
        # die of a BrokenPipeError.
        return subprocess.run(
            [sys.executable, *self.child, *argv],
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def check(self, item, proc) -> int:
        verb, key, _ = item
        self.verbs[verb] += 1
        stats = [ln for ln in proc.stderr.splitlines() if ln.startswith("perfbench-stats ")]
        if stats:
            self.snapshots.append(json.loads(stats[-1].split(" ", 1)[1]))
        if proc.returncode != 0:
            return 1
        try:
            doc = json.loads(proc.stdout)  # rejects anything after one document
        except ValueError:
            return 1
        if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
            return 1
        if verb == "markov":
            cert = doc.get("certificate", {})
            return int(not (cert.get("connected") is True and cert.get("fibers_checked") == self.fibers[key]))
        return int(doc.get("derived", {}).get("outcome") != "Hyperbolic")

    def mix(self) -> dict:
        return {"mix.classify_runs": self.verbs["classify"], "mix.markov_runs": self.verbs["markov"]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=("sweep", "catalog", "cli"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--round", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import torhyp.cli  # noqa: F401  (the whole package, as the command line loads it)

    import_ms = (time.perf_counter() - t0) * 1e3
    expected = json.loads((HERE / "expected.json").read_text())
    traced = args.mode == "traced"
    if args.workload == "cli":
        wl = Cli(expected, args.seed, args.round, traced)
    else:
        wl = {"sweep": Sweep, "catalog": Catalog}[args.workload](expected, args.seed, args.round)
    tracer = Tracer()
    if traced and args.workload != "cli":
        tracer.install()
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    latencies = []
    failed = 0
    for item in wl.items:
        tracer.active = traced
        t = time.perf_counter()
        result = wl.run(item)
        dt = time.perf_counter() - t
        tracer.active = False
        latencies.append(dt)
        failed += wl.check(item, result)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    out = {
        "latencies": latencies,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "mix": wl.mix(),
        "import_ms": import_ms,
    }
    if traced:
        out["traces"] = wl.snapshots if args.workload == "cli" else [tracer.snapshot()]
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
