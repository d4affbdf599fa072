"""Per-layer tracing from outside the program.

``Tracer.install`` replaces each traced public function of ``torhyp`` by a
wrapper, in every module namespace that binds it (``classify`` imports
``min_face`` and ``triple_intersection`` by name, ``polytopes`` imports
``nef_coordinates``, and ``polytopes._is_bounded`` looks up
``intlin.rational_rank`` at call time, so patching only the defining module
would miss calls).  A span's self time is its duration minus the time
covered by its child spans.  Spans are aggregated in memory per function
name; nothing is written until ``snapshot``.

Wrappers record only while ``active`` is set, so the benchmark's own
correctness checks, which call the library too, stay out of the counts.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter_ns

# (module, function): "span" records calls and self time, "count" only calls.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("fans", "build_family_fan", "span"),
    ("intlin", "solve_3x3", "count"),
    ("intlin", "rational_rank", "count"),
    ("intlin", "solve_exact", "count"),
    ("divisors", "class_of", "span"),
    ("divisors", "is_nef", "span"),
    ("divisors", "nef_coordinates", "span"),
    ("polytopes", "vertices", "span"),
    ("polytopes", "lattice_points", "span"),
    ("polytopes", "min_face", "span"),
    ("polytopes", "interior_lattice_count", "span"),
    ("polytopes", "triple_intersection", "span"),
    ("polytopes", "intersection_tensor", "span"),
    ("toric_ideal", "markov_verify", "span"),
    ("toric_ideal", "fiber_elements", "span"),
    ("toric_ideal", "section_difference_moves", "span"),
    ("classify", "derive_verdict", "span"),
    ("classify", "boundary_genus_profile", "span"),
    ("classify", "positivity_certificate", "span"),
    ("classify", "table_lookup", "span"),
    ("cli", "main", "span"),
)

# Work counted from results: metric name -> (function, measure of one result).
# fiber_elements is cached, so its elements count only on cache misses.
WORK = {
    "polytopes.lattice_points.points": ("polytopes.lattice_points", len),
    "toric_ideal.markov_verify.fibers": ("toric_ideal.markov_verify", lambda c: c.fibers_checked),
    "toric_ideal.fiber_elements.elements": ("toric_ideal.fiber_elements", len),
}

# Hit ratios read from cache_info() of the lru_caches behind the functions.
CACHES = {
    "divisors.nef_coordinates.hit_ratio": ("divisors", "_nef_coordinates_cached"),
    "polytopes.vertices.hit_ratio": ("polytopes", "vertices"),
    "toric_ideal.fiber_elements.hit_ratio": ("toric_ideal", "fiber_elements"),
}


def torhyp_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name.startswith("torhyp") and m]


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.work: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._caches: dict[str, object] = {}

    def install(self) -> None:
        """Wrap every target in every torhyp namespace that binds it."""
        import torhyp.cli  # noqa: F401  (loads every module of the package)

        work_of = {fn: (metric, measure) for metric, (fn, measure) in WORK.items()}
        for metric, (mod, attr) in CACHES.items():
            self._caches[metric] = getattr(sys.modules[f"torhyp.{mod}"], attr)
        for mod, attr, kind in TARGETS:
            name = f"{mod}.{attr}"
            orig = getattr(sys.modules[f"torhyp.{mod}"], attr)
            if kind == "count":
                wrapper = self._counter(name, orig)
            else:
                wrapper = self._span(name, orig, work_of.get(name))
            for m in torhyp_modules():
                for binding, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, binding, wrapper)

    def _counter(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            if self.active:
                calls[name] += 1
            return fn(*args, **kwargs)

        return _keep_cache_api(wrapper, fn)

    def _span(self, name, fn, work):
        stack = self._stack
        cached = hasattr(fn, "cache_info")

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            misses = fn.cache_info().misses if cached else 0
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                self.self_ns[name] += dur - stack.pop()
                self.calls[name] += 1
                if stack:
                    stack[-1] += dur
            if work is not None and (not cached or fn.cache_info().misses > misses):
                self.work[work[0]] += work[1](result)
            return result

        return _keep_cache_api(wrapper, fn)

    def snapshot(self) -> dict:
        """Raw totals of this process, mergeable with other processes'."""
        caches = {}
        for metric, cache in self._caches.items():
            info = cache.cache_info()
            caches[metric] = [info.hits, info.misses]
        return {
            "calls": dict(self.calls),
            "self_ns": dict(self.self_ns),
            "work": dict(self.work),
            "caches": caches,
        }


def _keep_cache_api(wrapper, fn):
    for attr in ("cache_info", "cache_clear"):
        if hasattr(fn, attr):
            setattr(wrapper, attr, getattr(fn, attr))
    wrapper.__module__ = fn.__module__
    wrapper.__wrapped__ = fn
    return wrapper


def merge(snapshots: list[dict]) -> dict:
    total: dict = {"calls": defaultdict(int), "self_ns": defaultdict(int), "work": defaultdict(int), "caches": {}}
    for snap in snapshots:
        for part in ("calls", "self_ns", "work"):
            for k, v in snap[part].items():
                total[part][k] += v
        for k, (hits, misses) in snap["caches"].items():
            h, m = total["caches"].get(k, (0, 0))
            total["caches"][k] = (h + hits, m + misses)
    return total


def layer_metrics(total: dict) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (name -> (value, unit)) from merged snapshots."""
    out: dict[str, tuple[float, str]] = {}
    for mod, attr, kind in TARGETS:
        name = f"{mod}.{attr}"
        if name != "cli.main":
            out[f"{name}.calls"] = (total["calls"].get(name, 0), "count")
        if kind == "span":
            out[f"{name}.self_ms"] = (total["self_ns"].get(name, 0) / 1e6, "ms")
    for metric in WORK:
        out[metric] = (total["work"].get(metric, 0), "count")
    for metric in CACHES:
        hits, misses = total["caches"].get(metric, (0, 0))
        out[metric] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
    return out
