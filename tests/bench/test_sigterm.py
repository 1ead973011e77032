"""SIGTERM and SIGINT handling in the parallel sweep supervisor and the CLI.

A containerized shutdown delivers SIGTERM, not SIGINT; the supervisor
must treat both identically — clean worker teardown, the finished
blocks' traces kept in the trace store for a re-run — instead of dying
mid-write with leaked children.  The CLI reports either as one line, not
a traceback.  Exercised end to end in subprocesses, since signal
dispositions are process-global.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.bench.parallel import _sigterm_as_interrupt

pytestmark = pytest.mark.faults

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])

#: Sweeps one healthy graph into the trace store, then hangs on the
#: second — the only way out is the signal under test.  Prints
#: INTERRUPTED plus the number of trace-store entries if (and only if)
#: the clean KeyboardInterrupt teardown ran.
_SCRIPT = """
import os
import sys
from repro.bench.harness import SweepConfig
from repro.bench.parallel import run_sweep_parallel
from repro.bench.tracestore import TraceStore
from repro.styles.axes import Algorithm, Model

config = SweepConfig(
    scale="tiny",
    algorithms=(Algorithm.BFS,),
    models=(Model.OPENMP,),
    cpu_names=("Threadripper 2950X",),
    graphs=("2d-2e20.sym", "USA-road-d.NY"),
)


def progress(done, total, block):
    print(f"PROGRESS {done}/{total}", flush=True)


try:
    run_sweep_parallel(config, workers=1, progress=progress)
except KeyboardInterrupt:
    store = TraceStore(os.environ["REPRO_TRACE_CACHE"])
    print(f"INTERRUPTED {store.stats().entries}", flush=True)
    sys.exit(3)
print("FINISHED", flush=True)
"""


def test_sigterm_takes_the_clean_interrupt_path(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_SWEEP_CACHE"] = str(tmp_path / "cache")
    traces = tmp_path / "traces"
    env["REPRO_TRACE_CACHE"] = str(traces)
    # Hang the second block forever; the first completes and saves its
    # traces.
    env["REPRO_FAULTS"] = json.dumps(
        [{"action": "hang", "graph": "USA-road-d.NY"}]
    )
    proc = subprocess.Popen(
        [sys.executable, "-c", _SCRIPT],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    try:
        # Wait for the first block to finish.
        line = proc.stdout.readline()
        assert line.startswith("PROGRESS 1/"), f"unexpected: {line!r}"
        proc.send_signal(signal.SIGTERM)
        out = proc.stdout.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    # Default SIGTERM disposition would kill with -SIGTERM and print
    # nothing; the handler must convert it into the KeyboardInterrupt
    # teardown instead, with the finished block's traces stored whole.
    assert code == 3, f"exit code {code}, output {out!r}"
    entries = int(out.split("INTERRUPTED ", 1)[1].split()[0])
    assert entries >= 1
    assert list(traces.rglob("*.tmp-*")) == []


def test_ctrl_c_on_cli_sweep_prints_one_line_and_exits_130(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_TRACE_CACHE"] = str(tmp_path / "traces")
    # Every USA-road-d.NY block hangs, so the sweep is still running when
    # the signal arrives.
    env["REPRO_FAULTS"] = json.dumps(
        [{"action": "hang", "graph": "USA-road-d.NY"}]
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "--scale", "tiny", "sweep",
         "--workers", "2"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stderr.readline()
        assert line.startswith("[sweep 1/"), f"unexpected: {line!r}"
        proc.send_signal(signal.SIGINT)
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    assert code == 130, f"exit code {code}, stderr {err!r}"
    assert "Traceback" not in err
    lines = [ln for ln in err.splitlines() if not ln.startswith("[sweep ")]
    assert lines == [
        "interrupted: the finished blocks' traces are kept in the trace "
        "store; run the same command again to continue the sweep"
    ]


def test_sigterm_context_manager_restores_previous_handler():
    previous = signal.getsignal(signal.SIGTERM)
    with _sigterm_as_interrupt():
        assert signal.getsignal(signal.SIGTERM) is not previous
        with pytest.raises(KeyboardInterrupt):
            os.kill(os.getpid(), signal.SIGTERM)
            # The raise happens at the next bytecode boundary; give the
            # interpreter one.
            time.sleep(1)
    assert signal.getsignal(signal.SIGTERM) is previous


def test_sigterm_helper_is_a_noop_off_the_main_thread():
    import threading

    seen = {}

    def run():
        with _sigterm_as_interrupt():
            seen["handler"] = signal.getsignal(signal.SIGTERM)

    before = signal.getsignal(signal.SIGTERM)
    t = threading.Thread(target=run)
    t.start()
    t.join(10)
    assert seen["handler"] is before  # unchanged: install refused safely
