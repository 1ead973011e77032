"""Advisory store locking: two processes contending on one directory.

The sweep cache, trace store and predictor artifact all write through
``tmp + os.replace`` (atomic per file), but their multi-file sections —
GC scans, quarantine moves — interleave badly without a lock.  These
tests pin the :mod:`repro.runtime.locking` contract: mutual exclusion
across *processes*, shared readers, crash-safety (the kernel releases a
dead holder's lock), and the hidden lock file staying invisible to the
stores' ``glob`` patterns.
"""

import multiprocessing
import os
import time

import pytest

from repro.runtime.locking import LOCK_FILE_NAME, advisory_lock, store_lock

fcntl = pytest.importorskip("fcntl")


def _hold_lock(directory, acquired, release, order, label):
    with store_lock(directory):
        order.append(f"{label}-in")
        acquired.set()
        release.wait(30)
    order.append(f"{label}-out")


def test_two_processes_exclude_each_other(tmp_path):
    ctx = multiprocessing.get_context()
    manager = ctx.Manager()
    order = manager.list()
    a_acquired, a_release = ctx.Event(), ctx.Event()
    b_acquired, b_release = ctx.Event(), ctx.Event()

    a = ctx.Process(
        target=_hold_lock, args=(str(tmp_path), a_acquired, a_release, order, "a")
    )
    a.start()
    assert a_acquired.wait(10)

    b = ctx.Process(
        target=_hold_lock, args=(str(tmp_path), b_acquired, b_release, order, "b")
    )
    b.start()
    # B must block while A holds the exclusive lock.
    assert not b_acquired.wait(0.5)
    b_release.set()  # pre-arm B's release so it exits promptly once in
    a_release.set()
    assert b_acquired.wait(10), "B never acquired after A released"
    a.join(10)
    b.join(10)
    assert list(order) == ["a-in", "a-out", "b-in", "b-out"]


def _increment_counter(directory, path, rounds):
    for _ in range(rounds):
        with store_lock(directory):
            value = int(path.read_text()) if path.exists() else 0
            # Force a racy window: without the lock, concurrent
            # read-modify-write cycles lose increments.
            time.sleep(0.001)
            path.write_text(str(value + 1))


def test_locked_read_modify_write_loses_no_updates(tmp_path):
    """The classic lost-update check, across real processes."""
    counter = tmp_path / "counter.txt"
    ctx = multiprocessing.get_context()
    rounds, procs = 20, 4
    workers = [
        ctx.Process(target=_increment_counter, args=(str(tmp_path), counter, rounds))
        for _ in range(procs)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join(60)
    assert int(counter.read_text()) == rounds * procs


def _crash_while_holding(directory):
    fd = os.open(
        os.path.join(directory, LOCK_FILE_NAME), os.O_RDWR | os.O_CREAT, 0o644
    )
    fcntl.flock(fd, fcntl.LOCK_EX)
    os._exit(1)  # die without unlocking


def test_dead_holders_lock_is_released_by_the_kernel(tmp_path):
    ctx = multiprocessing.get_context()
    crasher = ctx.Process(target=_crash_while_holding, args=(str(tmp_path),))
    crasher.start()
    crasher.join(10)
    assert crasher.exitcode == 1
    # A crashed holder must not wedge the store forever.
    start = time.monotonic()
    with store_lock(tmp_path) as held:
        assert held
    assert time.monotonic() - start < 5


def test_shared_locks_coexist(tmp_path):
    lock_path = tmp_path / LOCK_FILE_NAME
    with advisory_lock(lock_path, shared=True) as a:
        with advisory_lock(lock_path, shared=True) as b:
            assert a and b


def test_lock_file_is_invisible_to_store_globs(tmp_path):
    with store_lock(tmp_path):
        pass
    assert (tmp_path / LOCK_FILE_NAME).exists()
    # The stores enumerate entries with these patterns; the lock file
    # must never be mistaken for an entry (or GC'd/quarantined).
    assert list(tmp_path.glob("trace-*.npz")) == []
    assert list(tmp_path.glob("sweep-*.pkl")) == []


def test_contended_trace_store_saves_stay_consistent(tmp_path):
    """Two processes saving into one trace-store directory concurrently:
    every entry loads back clean afterwards."""
    from repro.bench.tracestore import TraceStore
    from repro.graph.datasets import load_dataset
    from repro.runtime.launcher import Launcher
    from repro.styles.axes import Algorithm, Model
    from repro.styles.combos import enumerate_specs

    def save_some(directory, seed):
        graph = load_dataset("2d-2e20.sym", "tiny")
        store = TraceStore(directory)
        launcher = Launcher(verify=False, trace_store=store)
        spec = enumerate_specs(Algorithm.BFS, Model.OPENMP)[seed]
        launcher.execute_semantic(spec, graph)

    ctx = multiprocessing.get_context()
    workers = [
        ctx.Process(target=save_some, args=(str(tmp_path), seed))
        for seed in range(3)
    ]
    for w in workers:
        w.start()
    for w in workers:
        w.join(120)
        assert w.exitcode == 0
    store = TraceStore(tmp_path)
    ok, bad = store.verify_entries()
    assert bad == []
    assert ok >= 1
