"""``python -m repro.serve`` with the benchmark's layer wrappers installed.

Usage::

    python perfbench/serve_traced.py OUT.json [repro.serve arguments...]

The server runs exactly as ``python -m repro.serve`` would.  SIGUSR1 clears
the span aggregates (the benchmark sends it when its measured window
starts); when the server stops (SIGINT drains it) they are written to
``OUT.json``.
``StudyServer._compute`` is wrapped as ``serve.compute`` so the time unary
requests spend in ``Session.run`` can be told apart from streamed sweeps.
"""

from __future__ import annotations

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402


def main(argv: list[str]) -> int:
    from repro.serve.__main__ import main as serve_main

    out, serve_args = argv[0], argv[1:]
    recorder = tracing.Recorder()
    layers = tracing.install(
        recorder, extra=(("serve.compute", "repro.serve.server", "StudyServer._compute"),)
    )
    signal.signal(signal.SIGUSR1, lambda signum, frame: recorder.reset())
    try:
        return serve_main(serve_args)
    finally:
        layers.uninstall()
        with open(out, "w") as handle:
            json.dump(recorder.snapshot(), handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
