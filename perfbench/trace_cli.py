"""One psbck command under the tracer, for the traced cli-corpus pass.

    python3 perfbench/trace_cli.py SPANS_FILE OP_ID <psbck arguments...>

Behaves like ``python -m psbck.cli <psbck arguments...>`` (same output and
exit status) and writes the command's spans to SPANS_FILE.
"""

import sys

import tracer

spans_path, op_id, *cli_args = sys.argv[1:]
t = tracer.Tracer()
t.install()
t.op = int(op_id)

import psbck.cli  # noqa: E402  (already imported by install)

try:
    status = psbck.cli.main(cli_args)
finally:
    sys.stdout.flush()
    t.dump(spans_path)
sys.exit(status)
