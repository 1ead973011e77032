"""Run ``repro serve`` (same arguments as ``python -m repro``) for the
benchmark.

With ``$PERFBENCH_TRACE=1`` the layer shims are installed before the
service boots, so the job workers inherit them and flush their own
counters, and the server flushes its counters after it drains.  Until SIGUSR1, everything traced is filed under the ``warm``
phase (the cache warm-up requests), which the measured phase leaves out.
"""

import os
import signal
import sys
from pathlib import Path

sys.path[:0] = [str(Path.cwd() / "src"), str(Path(__file__).resolve().parent)]

import layers  # noqa: E402
from repro.cli.main import main  # noqa: E402


def end_warm_up(*_):
    layers.flush()
    layers.PHASE = ""


if __name__ == "__main__":
    traced = os.environ.get("PERFBENCH_TRACE") == "1"
    if traced:
        layers.install()
        layers.ENABLED = True
        layers.PHASE = "warm"
        signal.signal(signal.SIGUSR1, end_warm_up)
    try:
        code = main(sys.argv[1:])
    finally:
        if traced:
            layers.flush()
    sys.exit(code)
