"""Traced stand-in for ``python -m sepsys.cli``.

Usage: ``python cli_child.py SPANS_OUT SRC_DIR <sepsys arguments...>``

Imports ``sepsys.cli`` first, so the import finishes at the same point as in
an untraced run, then wraps the public functions of every layer, runs
``cli.main`` inside a ``cli.main.<subcommand>`` span and writes the spans, plus
the moment the import finished, to SPANS_OUT as JSON.  Standard streams and
the exit code are the CLI's own.
"""

import sys

out_path, src = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)

import sepsys.cli as cli  # noqa: E402

import json  # noqa: E402
import time  # noqa: E402

imported_at = time.perf_counter()

import tracing  # noqa: E402

argv = sys.argv[3:]
tracer = tracing.Tracer()
undo = tracing.install(tracer)
try:
    with tracer.span(f"cli.main.{argv[0]}"):
        rc = cli.main(argv)
finally:
    tracing.uninstall(undo)
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"imported_at": imported_at, "spans": tracer.spans}, fh)
sys.exit(rc)
