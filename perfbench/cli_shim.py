"""Run one ``matvines`` command with its layer boundaries traced.

Usage: python cli_shim.py SPANS_PATH COMMAND [ARGS...]

Times the import of ``matvines.cli`` (and, inside it, of ``networkx`` if
the package imports it), wraps the traced functions, runs the command, writes
the spans to SPANS_PATH and exits with the command's exit code.
"""

import sys
from pathlib import Path

import tracing

IMPORT_SPAN = "frontend.cli.import"
NETWORKX_SPAN = "frontend.networkx.import"


def main() -> int:
    spans_path = Path(sys.argv[1])
    recorder = tracing.Recorder()
    sys.meta_path.insert(0, tracing.ImportTimer(recorder, "networkx", NETWORKX_SPAN))
    sid = recorder.begin(IMPORT_SPAN)
    from matvines import cli
    recorder.end(sid)
    tracing.install(recorder)
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracing.write_rows(spans_path, recorder.rows())


if __name__ == "__main__":
    sys.exit(main())
