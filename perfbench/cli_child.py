"""One traced ``torhyp`` command-line run, for the ``cli`` workload's traced round.

    PYTHONPATH=src python3 perfbench/cli_child.py VERB [ARGS...]

Behaves like the ``torhyp`` entry point (same stdout, same exit code), and
also times the import of ``torhyp.cli``, runs ``main`` under the per-layer
tracer and writes the tracer's totals as one line
``perfbench-stats {json}`` on stderr.
"""

import json
import sys
from time import perf_counter_ns

from spans import Tracer

t0 = perf_counter_ns()
import torhyp.cli  # noqa: E402

import_ns = perf_counter_ns() - t0
tracer = Tracer()
tracer.install()
tracer.active = True
try:
    code = torhyp.cli.main(sys.argv[1:])
finally:
    tracer.active = False
    snap = tracer.snapshot()
    snap["import_ns"] = import_ns
    sys.stderr.write("perfbench-stats " + json.dumps(snap) + "\n")
sys.exit(code)
