"""The package promises exact arithmetic: no floating point anywhere; and
its results depend on its arguments alone, not on the environment.

Every module under src/torhyp is parsed, and a float or complex literal, any
use of the name ``float``, a ``math`` function other than the integer ones,
or a read of ``os.environ`` or ``os.getenv`` fails the test.  So does a
module-level function or class that nothing in src/torhyp refers to outside
its own definition and that the benchmark's tracer does not name: code only
the tests reach belongs in tests/oracles.py.
"""

import ast
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from test_perfbench_contract import load_spans

SRC = Path(__file__).resolve().parent.parent / "src" / "torhyp"
INTEGER_MATH = {"comb", "gcd", "lcm", "isqrt", "prod"}
ENVIRONMENT_READS = {"environ", "getenv"}


def forbidden_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: literal {node.value!r}")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: float")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [
                f"line {node.lineno}: math.{a.name}" for a in node.names if a.name not in INTEGER_MATH
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in INTEGER_MATH
        ):
            found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [
                f"line {node.lineno}: os.{a.name}" for a in node.names if a.name in ENVIRONMENT_READS
            ]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ENVIRONMENT_READS
        ):
            found.append(f"line {node.lineno}: os.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_floating_point(path):
    assert forbidden_uses(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "x = 0.5",
    "x = 1e6",
    "x = 2j",
    "x = float(3)",
    "ok = isinstance(y, float)",
    "from math import sqrt",
    "from math import gcd, log",
    "import math\nx = math.pi",
])
def test_float_use_detected(source):
    assert forbidden_uses(source)


@pytest.mark.parametrize("source", [
    "import os\nx = os.environ.get('A')",
    "import os\nx = os.getenv('A')",
    "from os import environ",
    "from os import getenv",
])
def test_environment_read_detected(source):
    assert forbidden_uses(source)


def test_integer_code_passes():
    assert forbidden_uses("from math import comb, gcd\nimport math\nx = math.isqrt(10**6) // 3") == []
    assert forbidden_uses("import os\nos.dup2(os.open(os.devnull, os.O_WRONLY), 1)") == []


def unreferenced(sources: list[str], traced: set[str]) -> list[str]:
    """Module-level functions and classes of the sources, not in traced,
    whose name every reading as a name or an attribute lies in their own
    definition."""
    trees = [ast.parse(source) for source in sources]

    def reads(node) -> Counter:
        return Counter(
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        )

    total = sum(map(reads, trees), Counter())
    return [
        d.name
        for t in trees
        for d in t.body
        if isinstance(d, (ast.FunctionDef, ast.ClassDef))
        and d.name not in traced
        and total[d.name] == reads(d)[d.name]
    ]


def test_every_definition_is_reached():
    spans = load_spans()
    traced = {attr for _, attr, _ in spans.TARGETS} | {attr for _, attr in spans.CACHES.values()}
    sources = [path.read_text() for path in sorted(SRC.glob("*.py"))]
    assert unreferenced(sources, traced) == []


def test_unreferenced_definition_detected():
    sources = [
        "def f(n):\n    return f(n - 1)\n\ndef g():\n    return h()\n",
        "def h():\n    pass\n\nclass C:\n    pass\n\nx = g\n",
    ]
    assert unreferenced(sources, set()) == ["f", "C"]
    assert unreferenced(sources, {"C"}) == ["f"]


@pytest.mark.parametrize("bad", [2.5, Fraction(7, 2), "3"], ids=repr)
def test_library_entry_points_refuse_non_integers(bad):
    # A value that is not an integer is refused, never truncated to one.
    from torhyp.divisors import divisor
    from torhyp.fans import family_fan, generic_fan
    from torhyp.polytopes import offset_polytope
    from torhyp.toric_ideal import markov_verify

    fan = family_fan("2.0.1", l=0)
    moves = [(bad, -1, 0, 0, 0), (0, 0, 1, 0, -1), (0, 0, 0, 1, -1)]
    rays = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, -1, -1]]
    cones = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    refused = [
        lambda: markov_verify(fan, moves, 3),
        lambda: divisor(fan, {"D_2": bad, "D_3": 3}),
        lambda: divisor(fan, (0, bad, 3, 0, 0)),
        lambda: generic_fan([*rays[:3], [-1, -1, bad]], cones),
        lambda: generic_fan(rays, [*cones[:3], [1, 2, bad]]),
        lambda: offset_polytope(fan, (bad, 0, 0, 0, 0)),
    ]
    for call in refused:
        with pytest.raises(ValueError, match="integer"):
            call()


def test_generated_evaluators_are_exact():
    # Each compiled member's evaluator is generated at run time, out of
    # reach of the source scan above: scan its source, and check that it
    # reads no global or builtin name, no default and no closure cell,
    # only its arguments, its constants and its locals.
    from torhyp.classify import compiled_member
    from torhyp.fans import CASE_IDS, FamilySpec

    from test_acceptance import SWEEP_GRIDS

    for case in CASE_IDS:
        for params in SWEEP_GRIDS[case]:
            m = compiled_member(FamilySpec.make(case, **params))
            assert forbidden_uses(m.source) == [], (case, params)
            assert m.numbers.__code__.co_names == (), (case, params)
            assert m.numbers.__defaults__ is None, (case, params)
            assert m.numbers.__kwdefaults__ is None, (case, params)
            assert m.numbers.__closure__ is None, (case, params)


def test_generator_refuses_non_integer_coefficients(monkeypatch):
    import torhyp.classify as classify
    from torhyp.fans import FamilySpec, InternalInconsistencyError

    for bad in (Fraction(1, 2), 2.0):
        with pytest.raises(InternalInconsistencyError, match="not an integer"):
            classify._sum_source([(1, "c0"), (bad, "c1")])
    # An intersection matrix of Fractions, even integral ones, never
    # reaches the generated source.
    exact = classify.intersection_matrix
    monkeypatch.setattr(
        classify, "intersection_matrix", lambda d: [[Fraction(x) for x in row] for row in exact(d)]
    )
    classify.compiled_member.cache_clear()
    try:
        with pytest.raises(InternalInconsistencyError, match="not an integer"):
            classify.compiled_member(FamilySpec.make("2.0.1", l=2))
    finally:
        classify.compiled_member.cache_clear()
