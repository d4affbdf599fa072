"""The package promises bounded memory: every module-level ``lru_cache`` of
``torhyp`` has a finite size, so no sequence of calls grows a cache without
limit.

Every module of the package is imported and each function it defines is
inspected; a cache whose ``maxsize`` is None fails the test.
"""

import importlib
import pkgutil

import pytest

import torhyp

MODULES = sorted(f"torhyp.{m.name}" for m in pkgutil.iter_modules(torhyp.__path__))


def module_caches(module) -> dict[str, object]:
    """The lru_cache-wrapped functions a module defines (not re-exports)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if callable(getattr(obj, "cache_parameters", None))
        and getattr(obj, "__module__", None) == module.__name__
    }


@pytest.mark.parametrize("name", MODULES)
def test_module_caches_are_bounded(name):
    caches = module_caches(importlib.import_module(name))
    unbounded = [f for f, fn in caches.items() if fn.cache_parameters()["maxsize"] is None]
    assert unbounded == []


def test_the_per_member_and_per_fan_caches_are_seen():
    # The inspection must find the caches that used to be unbounded.
    found = {
        f"{name}.{f}" for name in MODULES for f in module_caches(importlib.import_module(name))
    }
    assert {
        "torhyp.classify.compiled_member",
        "torhyp.fans.build_family_fan",
        "torhyp.divisors.picard_basis",
        "torhyp.divisors.nef_generators",
        "torhyp.divisors.eff_generators",
        "torhyp.polytopes.intersection_tensor",
    } <= found


def test_unbounded_cache_detected():
    from functools import lru_cache
    from types import ModuleType

    module = ModuleType("probe")

    @lru_cache(maxsize=None)
    def f(x):
        return x

    f.__module__ = "probe"
    module.f = f
    caches = module_caches(module)
    assert [n for n, fn in caches.items() if fn.cache_parameters()["maxsize"] is None] == ["f"]
