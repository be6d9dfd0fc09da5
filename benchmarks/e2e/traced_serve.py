"""A similarity daemon with the benchmark's span wrappers installed.

    python benchmarks/e2e/traced_serve.py SPANS_OUT [serve arguments...]

Runs ``repro.service.cli.serve_main`` unchanged after wrapping the
library's call sites (see ``tracing.py``).  Recording starts on SIGUSR1,
so the traced run can measure an untraced phase first; the spans are
written to ``SPANS_OUT`` when the daemon drains (SIGTERM).
"""

from __future__ import annotations

import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main(argv) -> int:
    spans_out, serve_args = argv[0], argv[1:]
    tracer = tracing.install(tracing.Tracer())
    signal.signal(signal.SIGUSR1, lambda *_: tracer.enable())
    from repro.service.cli import serve_main

    try:
        return serve_main(serve_args)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
