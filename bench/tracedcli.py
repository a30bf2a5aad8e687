"""Run ``mroot.cli.main`` with spans on, for the traced runs of cli_cold.

Usage: python bench/tracedcli.py SPANS_OUT CLI_ARG...

Stdout, stderr and the exit code are those of ``python -m mroot.cli
CLI_ARG...``; the spans of the call are written to SPANS_OUT as JSON.
"""

import json
import sys

import mroot.cli

from spans import Tracer

tracer = Tracer()
tracer.install()
try:
    code = mroot.cli.main(sys.argv[2:])
finally:
    tracer.uninstall()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(tracer.take(), fh)
sys.exit(code)
