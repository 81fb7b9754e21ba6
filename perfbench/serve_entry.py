"""The serve daemon's CLI with layer spans recorded (traced runs only).

``PERFBENCH_TRACE_DIR=<dir> python perfbench/serve_entry.py <repro.serve
CLI args>`` installs :mod:`spans` and hands the arguments to
``repro.serve.cli.main`` — the same daemon the timed run starts with
``python -m repro.serve``.

The warm pool spawns its workers, and a spawned worker re-imports this
file as ``__mp_main__`` before it unpickles its initializer; the span
install at import is what puts the wrappers into the workers too. The
daemon itself only starts under the ``__main__`` guard.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spans  # noqa: E402

TRACE_ENV = "PERFBENCH_TRACE_DIR"

if os.environ.get(TRACE_ENV):
    spans.install(os.environ[TRACE_ENV])

if __name__ == "__main__":
    from repro.serve.cli import main

    sys.exit(main(sys.argv[1:]))
