"""Run one condind CLI command under the benchmark's tracer.

    python3 -X importtime perfbench/trace_child.py <trace.json> <verb> [args...]

Stdout and the exit code are those of the command; the trace (spans,
self times and counters) is written to <trace.json> for the parent.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from condind import cli

from tracer import Tracer

tracer = Tracer()
tracer.install()
out = io.StringIO()
tracer.open("cli.run")
try:
    with contextlib.redirect_stdout(out):
        code = cli.run(sys.argv[2:])
finally:
    tracer.close()
    tracer.uninstall()
Path(sys.argv[1]).write_text(json.dumps(tracer.export()))
sys.stdout.write(out.getvalue())
sys.exit(code)
