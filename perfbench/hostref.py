"""Host-speed reference: a fixed computation timed alongside the workload.

On the 2-core virtual machine the benchmark was sized on, the CPU speed
drifts by tens of percent over minutes, and wall and CPU time drift
together, so the drift would swamp any change under test.  While a
set-up or timed phase runs, :class:`Sampler` interrupts the process
every ``PERIOD_S`` seconds (``SIGALRM``) to time :func:`reference_work`
in thread CPU time, on whichever core the process runs at that moment.
Interval timers are not inherited across ``fork``, so the sampler
restarts itself in every process forked during the phase (the sweep
supervisor's workers): the samples come from the processes doing the
work.  :class:`SamplerProcess` instead samples from a separate
low-priority process, for a phase whose timed path must not be
interrupted (the service's requests).  The host drifts over minutes,
more slowly than a run lasts, so one factor serves the whole run:
end-to-end times are reported at reference speed, scaled by
``REFERENCE_S`` over the median of every sample the run took.

    python3 perfbench/hostref.py DIRECTORY   # sample until SIGTERM
"""

import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: CPU seconds of :func:`reference_work` on the 2-core virtual machine
#: the benchmark was sized on; end-to-end times are expressed at this speed.
REFERENCE_S = 0.015
#: One ~15 ms reference every half second: about 3% of a core.
PERIOD_S = 0.5

_active = None  #: the in-process sampler of the running phase, if any


def reference_work() -> None:
    """Interpreter-bound and numpy-bound work, like the workloads'."""
    counts = {}
    for i in range(40_000):
        counts[i % 1024] = counts.get(i % 1024, 0) + i
    a = np.arange(100_000, dtype=np.float64)
    for _ in range(10):
        a = np.sqrt(a * a + 1.0)


def _sample(directory: Path) -> None:
    t0 = time.thread_time()
    reference_work()
    sample = time.thread_time() - t0
    with open(directory / str(os.getpid()), "a") as out:
        out.write(f"{sample!r}\n")


def _tick(*_) -> None:
    _sample(_active.directory)


def _start_timer() -> None:
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def _after_fork() -> None:
    if _active is not None:
        _start_timer()


os.register_at_fork(after_in_child=_after_fork)


def speed(directories) -> float:
    """The slowdown against the reference (> 1: slower) of every sample
    under ``directories``; 1.0, with a note, when there is none."""
    samples = []
    for directory in directories:
        for path in Path(directory).iterdir():
            for line in path.read_text().splitlines():
                try:
                    samples.append(float(line))
                except ValueError:  # a worker killed mid-write
                    pass
    if not samples:
        print("perfbench: no host-speed samples; times are not scaled",
              file=sys.stderr)
        return 1.0
    return statistics.median(samples) / REFERENCE_S


class Sampler:
    """Samples the host's speed in this process (and the processes it
    forks) for the duration of a ``with`` block, writing one file of
    samples per process under ``directory``."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)

    def __enter__(self):
        global _active
        self.directory.mkdir(parents=True, exist_ok=True)
        reference_work()  # first-call costs are not host speed
        _active = self
        _tick()
        _start_timer()
        return self

    def __exit__(self, *exc):
        global _active
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        _tick()
        _active = None
        return False


class SamplerProcess:
    """Samples the host's speed from a separate process at the lowest
    priority for the duration of a ``with`` block, so the processes under
    test are never interrupted."""

    def __init__(self, directory: Path):
        self.directory = Path(directory)

    def __enter__(self):
        self.directory.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, __file__, str(self.directory)]
        )
        return self

    def __exit__(self, *exc):
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait()
        return False


def _sample_until_stopped(directory: Path) -> None:
    os.nice(19)
    stopped = []
    signal.signal(signal.SIGTERM, lambda *_: stopped.append(True))
    reference_work()
    while not stopped:
        _sample(directory)
        time.sleep(PERIOD_S)


if __name__ == "__main__":
    _sample_until_stopped(Path(sys.argv[1]))
