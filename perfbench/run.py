"""torhyp benchmark: ``sweep``, ``catalog`` and ``cli`` workloads.

    python3 perfbench/run.py --workload {sweep,catalog,cli} --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` it prints the end-to-end metrics of an untraced run, with
``--trace 1`` the per-layer metrics of one traced round (and the tracing
overhead against the same round untraced).  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it repeat every metric by name, unit and sample count, with run
metadata.  Exit status is 0 only when a result was printed.

Each round of a workload runs in a fresh interpreter (``worker.py``), so
every round starts with empty caches.  See README.md for the workloads, the
metric definitions and the predictions later changes are judged against.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("sweep", "catalog", "cli")
# Timed set-up-only interpreters after each round, besides the round's own.
SETUP_PROBES = 2
DEADLINE_S = 170


class BenchError(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S

    def worker(self, mode: str, index: int = 0) -> tuple[float, dict | None]:
        """Run one round in a fresh worker; return (seconds from process
        start to ``ready``, the worker's result line)."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--round", str(index), "--mode", mode]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} worker passed the {DEADLINE_S}s deadline")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0 or ready.strip() != "ready":
            raise BenchError(f"{mode} worker failed with exit code {proc.returncode}")
        lines = rest.strip().splitlines()
        return setup_s, (json.loads(lines[-1]) if lines else None)

    def end_to_end(self, seconds: float) -> tuple[dict, int, int]:
        """Whole rounds, each in a fresh interpreter, until ``seconds`` pass.

        Latency and rate are taken per round and reported as the median over
        rounds, so a burst of host contention during one round does not move
        them.  Set-up-only probes run between rounds for the same reason.
        """
        self.worker("setup")  # untimed: fills the bytecode caches
        setups: list[float] = []
        rounds: list[dict] = []
        start = time.monotonic()
        while not rounds or time.monotonic() - start < seconds:
            setup_s, res = self.worker("run", len(rounds))
            rounds.append(res)
            setups += [setup_s] + [self.worker("setup", len(rounds))[0] for _ in range(SETUP_PROBES)]
        lats = [r["latencies"] for r in rounds]
        metrics = {
            "ops_per_s": (statistics.median(len(lat) / sum(lat) for lat in lats), "1/s"),
            "p50_ms": (statistics.median(statistics.median(lat) for lat in lats) * 1e3, "ms"),
            "p99_ms": (statistics.median(statistics.quantiles(lat, n=100)[98] for lat in lats) * 1e3, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
        }
        ops = sum(map(len, lats))
        samples = {name: f"{len(rounds)} rounds, {ops} ops" for name in metrics}
        samples["setup_s"] = f"{len(setups)} interpreters"
        return _report(metrics, samples, ops), ops, sum(r["failed"] for r in rounds)

    def per_layer(self) -> tuple[dict, int, int]:
        """Round 0 untraced, then traced, each in a fresh interpreter."""
        from spans import layer_metrics, merge

        _, plain = self.worker("run")
        _, traced = self.worker("traced")
        snaps = traced["traces"]
        metrics = layer_metrics(merge(snaps))
        imports = [s["import_ns"] / 1e6 for s in snaps if "import_ns" in s]
        metrics["cli.import_ms"] = (statistics.median(imports) if imports else traced["import_ms"], "ms")
        for name in ("mix.positivity_cells", "mix.classify_runs", "mix.markov_runs"):
            metrics[name] = (traced["mix"].get(name, 0), "count")
        n = len(traced["latencies"])
        metrics["mix.ops"] = (n, "count")
        plain_rate = len(plain["latencies"]) / sum(plain["latencies"])
        traced_rate = n / sum(traced["latencies"])
        metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
        metrics["trace.traced_ops_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead_ratio"] = (plain_rate / traced_rate, "ratio")
        attempted = n + len(plain["latencies"])
        failed = traced["failed"] + plain["failed"]
        metrics["checks.failed_ratio"] = (failed / attempted, "ratio")
        return _report(metrics, {}, n), attempted, failed


def _report(metrics: dict, samples: dict, ops: int) -> dict:
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:42s} {value:>14.6g} {unit:6s} ({samples.get(name, f'{ops} ops')})")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "torhyp" / "__init__.py").is_file():
        print(f"run.py: no torhyp sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
    }
    print("meta " + json.dumps(meta))
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            metrics, attempted, failed = runner.per_layer()
        else:
            metrics, attempted, failed = runner.end_to_end(args.seconds)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(f"  {'failed_ratio':42s} {failed / attempted:>14.6g} {'ratio':6s} ({attempted} ops)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
