"""The package promises exact arithmetic: no floating point anywhere.

Every module under src/torhyp is parsed, and a float or complex literal, any
use of the name ``float``, or a ``math`` function other than the integer
ones fails the test.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "torhyp"
INTEGER_MATH = {"comb", "gcd", "lcm", "isqrt", "prod"}


def float_uses(source: str) -> list[str]:
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
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_floating_point(path):
    assert float_uses(path.read_text()) == []


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
    assert float_uses(source)


def test_integer_code_passes():
    assert float_uses("from math import comb, gcd\nimport math\nx = math.isqrt(10**6) // 3") == []
