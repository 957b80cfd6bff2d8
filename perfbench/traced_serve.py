"""Run ``svc-repro serve`` with timing wrappers around its layers.

Usage: ``python traced_serve.py SPANS_PATH serve-args...``

Installs the wrappers of :func:`tracing.install_daemon_wrappers`, then calls
the normal serve entry point.  The spans are written to ``SPANS_PATH`` when
the daemon exits, and on SIGUSR1 (so a run that is about to SIGKILL the
daemon can collect them first).
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import add_src_to_path  # noqa: E402
from tracing import SpanRecorder, install_daemon_wrappers  # noqa: E402


def main(argv) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    add_src_to_path()
    recorder = SpanRecorder()
    install_daemon_wrappers(recorder)
    signal.signal(signal.SIGUSR1, lambda _signum, _frame: recorder.dump(spans_path))
    from repro.service import server

    try:
        return server.serve_main(serve_args)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
