"""Every command-line process imports the whole package before it does any
work, so what the package imports is paid once per command.

The package's records are NamedTuples.  ``dataclasses`` would pull in
``inspect`` (and with it ``ast``, ``dis`` and ``tokenize``), and each
decorated class would compile its generated methods at import.  A fresh
interpreter importing ``torhyp.cli`` must not load either module, and no
module under src/torhyp may import them.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from test_classify import child_env

SRC = Path(__file__).resolve().parent.parent / "src" / "torhyp"
HEAVY = {"dataclasses", "inspect"}

# Modules already loaded at start-up (by site, say) are not the package's cost.
PROBE = (
    "import json, sys\n"
    "before = set(sys.modules)\n"
    "import torhyp.cli\n"
    "print(json.dumps(sorted(set(sys.modules) - before)))\n"
)


def heavy_imports(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [
                f"line {node.lineno}: import {a.name}"
                for a in node.names
                if a.name.partition(".")[0] in HEAVY
            ]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] in HEAVY:
            found.append(f"line {node.lineno}: from {node.module}")
    return found


def test_cli_import_loads_no_heavy_module():
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=child_env(), capture_output=True, text=True, check=True
    ).stdout
    added = set(json.loads(out))
    # The probe saw the whole package load, classify included.
    assert {"torhyp.cli", "torhyp.classify"} <= added
    assert added & HEAVY == set()


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_heavy_import(path):
    assert heavy_imports(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "from dataclasses import dataclass",
    "import dataclasses",
    "import dataclasses as dc",
    "def f():\n    from dataclasses import replace",
    "import inspect",
    "from inspect import signature",
])
def test_heavy_import_detected(source):
    assert heavy_imports(source)


def test_plain_imports_pass():
    assert heavy_imports("from typing import NamedTuple\nimport json\nfrom . import fans") == []
