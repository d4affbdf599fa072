"""The package promises exact arithmetic: no floating point anywhere; and
its results depend on its arguments alone, not on the environment.

Every module under src/torhyp is parsed, and a float or complex literal, any
use of the name ``float``, a ``math`` function other than the integer ones,
or a read of ``os.environ`` or ``os.getenv`` fails the test.
"""

import ast
from pathlib import Path

import pytest

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
