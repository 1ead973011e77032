"""Per-layer tracing of the ``repro`` package, installed from outside.

:func:`install` wraps the public functions at each layer boundary (and
the two worker-body functions the sweep supervisor and the serve
executor fork into) with timing and counting shims.  Nothing under
``src/`` changes: the shims replace module and class attributes at run
time, in the process that installs them and in every process it forks
afterwards.

Each process keeps its counters in memory.  A forked worker resets them
at fork, and writes them to ``$PERFBENCH_LAYER_DIR`` when its block or
job body returns (before the result goes back over the pipe, so a worker
that the supervisor terminates right after has already flushed).  The
installing process flushes with :func:`flush`; :func:`merge` sums every
file of one phase.

Time is recorded per layer both inclusive (``<layer>.<name>_s``) and as
self time (``_self.<span>``: the span's duration minus the nested spans
it contains), which is how ``harness.self_s`` is derived.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict

LAYER_DIR_ENV = "PERFBENCH_LAYER_DIR"
PHASE_ENV = "PERFBENCH_PHASE"

#: Counters of this process since the last flush (or fork).
COUNTERS: Dict[str, float] = defaultdict(float)
#: Shims record only while this is true; the toggle is what lets one
#: process alternate untraced and traced operations.
ENABLED = False
#: Phase name for :func:`flush` (default: ``$PERFBENCH_PHASE``); forked
#: workers inherit the value current at fork.
PHASE = ""

_local = threading.local()
_main_pid = os.getpid()
_installed = False


def _stack() -> list:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def _reset_after_fork() -> None:
    COUNTERS.clear()
    _local.stack = []


class span:
    """Times one layer call: adds its duration to ``<metric>`` and its
    self time to ``_self.<metric>``, and charges the enclosing span."""

    __slots__ = ("metric", "t0")

    def __init__(self, metric: str):
        self.metric = metric

    def __enter__(self):
        _stack().append([self.metric, 0.0])
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dt = time.perf_counter() - self.t0
        stack = _stack()
        nested = stack.pop()[1]
        # A recursive call of the same layer adds no inclusive time twice.
        if not any(frame[0] == self.metric for frame in stack):
            COUNTERS[self.metric] += dt
        COUNTERS["_self." + self.metric] += dt - nested
        if stack:
            stack[-1][1] += dt
        return False


def inside(metric: str) -> bool:
    """Whether a span of ``metric`` is open in this thread."""
    return any(frame[0] == metric for frame in _stack())


def _timed(metric: str, fn: Callable, calls: str = "",
           after: Callable = None, outside: str = "") -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not ENABLED or (outside and inside(outside)):
            return fn(*args, **kwargs)
        with span(metric):
            result = fn(*args, **kwargs)
        if calls:
            COUNTERS[calls] += 1
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return wrapper


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every ``repro`` module global that refers to ``original``
    (``from x import f`` copies included)."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _patch_function(module, name: str, metric: str, **kw) -> None:
    original = getattr(module, name)
    _replace_everywhere(original, _timed(metric, original, **kw))


def _patch_method(cls, name: str, metric: str, **kw) -> None:
    setattr(cls, name, _timed(metric, getattr(cls, name), **kw))


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class _TimedKernel:
    """Launcher-side proxy of one styled kernel: times ``run``."""

    def __init__(self, kernel):
        self._kernel = kernel

    def run(self, sem):
        if not ENABLED:
            return self._kernel.run(sem)
        with span("kernels.busy_s"):
            result = self._kernel.run(sem)
        COUNTERS["kernels.executions"] += 1
        return result

    def __getattr__(self, name):
        return getattr(self._kernel, name)


def _worker_body(metric: str, fn: Callable) -> Callable:
    """Wrap a function that forked workers run as their whole body: time
    it, count retries, and flush this process's counters when it ends."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            if not ENABLED:
                return fn(*args, **kwargs)
            attempt = kwargs.get("attempt", args[1] if len(args) > 1 else 0)
            if metric == "harness.block_s" and attempt:
                COUNTERS["parallel.block_retries"] += 1
            with span(metric):
                return fn(*args, **kwargs)
        finally:
            if os.getpid() != _main_pid:
                flush()

    return wrapper


def install() -> None:
    """Install every shim (idempotent).  Call before any fork."""
    global _installed
    if _installed:
        return
    _installed = True
    # Import every module whose globals hold a patched function first,
    # so the rebinding below reaches all of them.
    import repro.analysis.conformance as conformance
    import repro.analysis.infer as infer
    import repro.analysis.ir as ir
    import repro.analysis.races as races
    import repro.bench.guidelines as guidelines
    import repro.bench.parallel as parallel
    import repro.bench.predictor as predictor
    import repro.bench.report as report
    import repro.bench.storage as storage
    import repro.bench.tracestore as tracestore
    import repro.cli.main  # noqa: F401 - holds imported names too
    import repro.codegen.suite as suite
    import repro.graph.builder as builder
    import repro.graph.csr as csr
    import repro.graph.datasets as datasets
    import repro.graph.validate as validate
    import repro.machine.cpu as cpu
    import repro.machine.gpu as gpu
    import repro.runtime.launcher as launcher
    import repro.serve.app  # noqa: F401
    import repro.serve.jobs as jobs

    # graph: dataset build (and upload build), fingerprint, validation
    _patch_method(datasets.DatasetSpec, "build", "graph.build_s")
    _patch_function(builder, "from_edge_arrays", "graph.build_s")
    _patch_method(csr.CSRGraph, "fingerprint", "graph.fingerprint_s")
    _patch_method(validate.GraphValidator, "check", "graph.validate_s")

    # kernels: every kernel the launcher builds runs through the proxy
    build_kernel = launcher.build_kernel

    def timed_build_kernel(*args, **kwargs):
        return _TimedKernel(build_kernel(*args, **kwargs))

    launcher.build_kernel = timed_build_kernel

    # runtime.verify: the serial oracle and the comparison against it
    _patch_function(launcher, "reference_solution", "verify.reference_s")
    _patch_function(launcher, "verify_result", "verify.check_s")

    # bench.tracestore
    def saved(result, store, graph, semantic, source, *a, **k):
        COUNTERS["tracestore.bytes_written"] += _file_size(
            store.entry_path(graph, semantic, source)
        )

    def loaded(result, store, graph, semantic, source, *a, **k):
        if result is not None:
            COUNTERS["tracestore.hits"] += 1
            COUNTERS["tracestore.bytes_read"] += _file_size(
                store.entry_path(graph, semantic, source)
            )

    _patch_method(tracestore.TraceStore, "save", "tracestore.save_s",
                  calls="tracestore.save_calls", after=saved)
    _patch_method(tracestore.TraceStore, "load", "tracestore.load_s",
                  calls="tracestore.load_calls", after=loaded)

    # machine: batched timing of mapping variants against a trace
    def timed_cells(result, model, trace, batch, *a, **k):
        COUNTERS["machine.cells_timed"] += len(batch)

    for model_cls in (gpu.GPUModel, cpu.CPUModel):
        _patch_method(model_cls, "time_trace_batch", "machine.busy_s",
                      calls="machine.batch_calls", after=timed_cells)

    # bench.harness + launcher: block and job bodies (forked workers)
    _replace_everywhere(
        parallel.run_block_outcome,
        _worker_body("harness.block_s", parallel.run_block_outcome),
    )
    _replace_everywhere(
        jobs.execute_job_inline,
        _worker_body("harness.job_s", jobs.execute_job_inline),
    )

    # bench.report / bench.guidelines / bench.storage
    for name in report.__all__:
        if name.startswith("render_"):
            _patch_function(report, name, "report.render_s")
    _patch_function(guidelines, "derive_guidelines", "report.render_s")
    _patch_function(report, "table6", "report.baseline_s")
    _patch_function(report, "baseline_speedups", "report.baseline_s")
    _patch_function(storage, "save_results", "storage.save_s")
    _patch_function(storage, "load_results", "storage.load_s")

    # bench.predictor
    _patch_method(predictor.StylePredictor, "train", "predictor.train_s")
    _patch_method(predictor.BoostedStumps, "predict", "predictor.busy_s",
                  outside="predictor.train_s")

    # serve: one executor job (fork, sweep and pipe) per cold miss
    run_job = jobs.ExecutorPool.run_job

    @functools.wraps(run_job)
    async def timed_run_job(self, *args, **kwargs):
        if not ENABLED:
            return await run_job(self, *args, **kwargs)
        t0 = time.perf_counter()
        try:
            return await run_job(self, *args, **kwargs)
        finally:
            COUNTERS["serve.job_s"] += time.perf_counter() - t0

    jobs.ExecutorPool.run_job = timed_run_job

    # codegen + analysis
    _patch_function(suite, "generate_suite", "codegen.generate_s")
    _patch_function(conformance, "lint_suite", "analysis.lint_s")
    _patch_function(ir, "parse_source", "analysis.ir_parse_s")
    _patch_function(infer, "infer_axes", "analysis.infer_s")
    _patch_function(races, "detect_races", "analysis.races_s")

    os.register_at_fork(after_in_child=_reset_after_fork)


def flush() -> None:
    """Write this process's counters to the layer directory and reset."""
    directory = os.environ.get(LAYER_DIR_ENV)
    if not directory or not COUNTERS:
        COUNTERS.clear()
        return
    phase = PHASE or os.environ.get(PHASE_ENV, "measure")
    path = Path(directory) / (
        f"{phase}-{os.getpid()}-{time.monotonic_ns()}.json"
    )
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(dict(COUNTERS)))
    os.replace(tmp, path)
    COUNTERS.clear()


def merge(directory, phase: str) -> Dict[str, float]:
    """Sum the counters of every process that flushed in ``phase``."""
    total: Dict[str, float] = defaultdict(float)
    for path in sorted(Path(directory).glob(f"{phase}-*.json")):
        for key, value in json.loads(path.read_text()).items():
            total[key] += value
    return dict(total)


def harness_self_s(counters: Dict[str, float]) -> float:
    """Result-assembly time: self time of sweep block and job bodies."""
    return counters.get("_self.harness.block_s", 0.0) + counters.get(
        "_self.harness.job_s", 0.0
    )
