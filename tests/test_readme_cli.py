"""Golden test: the README "Command line" examples print byte-identical output.

`readme_cli_golden.json` holds, per example, the argument vector, the exit
code and the exact stdout.  Regenerate it only when an output is meant to
change, by running `PYTHONPATH=src python tests/test_readme_cli.py`.
"""

import contextlib
import io
import json
import shlex
from pathlib import Path

import pytest

from torhyp.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("readme_cli_golden.json")


def readme_examples() -> list[list[str]]:
    """Argument vectors of the `torhyp ...` lines in README "Command line"."""
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1].replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("torhyp ")]


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_golden_covers_readme():
    assert [g["argv"] for g in json.loads(GOLDEN.read_text())] == readme_examples()


@pytest.mark.parametrize("entry", json.loads(GOLDEN.read_text()), ids=lambda g: g["argv"][0])
def test_readme_example_output(entry):
    code, out = run_cli(entry["argv"])
    assert code == entry["exit"]
    assert out == entry["stdout"]


if __name__ == "__main__":
    golden = []
    for argv in readme_examples():
        code, out = run_cli(argv)
        golden.append({"argv": argv, "exit": code, "stdout": out})
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
