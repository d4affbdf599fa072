"""The benchmark's tracer wraps torhyp functions by name and reads the
cache statistics of some of them; a rename or a lost cache would break a
traced run without failing anything else.  Read its tables from
perfbench/spans.py and check them against the package."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    for mod, attr, kind in load_spans().TARGETS:
        module = importlib.import_module(f"torhyp.{mod}")
        assert callable(getattr(module, attr, None)), f"torhyp.{mod}.{attr}"
        assert kind in ("span", "count")


def test_traced_caches_report_statistics():
    for metric, (mod, attr) in load_spans().CACHES.items():
        fn = getattr(importlib.import_module(f"torhyp.{mod}"), attr)
        assert callable(getattr(fn, "cache_info", None)), metric
        assert callable(getattr(fn, "cache_clear", None)), metric
