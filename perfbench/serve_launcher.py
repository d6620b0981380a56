"""Start the solver daemon, optionally with the span recorder installed.

    PYTHONPATH=src python3 perfbench/serve_launcher.py \
        [--trace-out FILE] serve --port 0 --workers 2 --state-dir DIR

Everything after the optional ``--trace-out FILE`` is the ``python -m
repro`` command line.  With ``--trace-out`` the wrappers are installed
before :func:`repro.serve.daemon.main` runs, and the daemon's spans and
aggregates are written to FILE when it exits (after its SIGTERM drain).
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    from repro.__main__ import build_parser
    from repro.serve import daemon

    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = argv[1], argv[2:]
    args = build_parser().parse_args(argv)
    if trace_out is None:
        return daemon.main(args)

    from spans import Tracer, install

    tracer = Tracer()
    install(tracer, serve=True)
    try:
        return daemon.main(args)
    finally:
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
