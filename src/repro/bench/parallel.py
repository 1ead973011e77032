"""Fault-tolerant parallel sweep engine: supervised (algorithm, graph)
block workers.

The sweep's natural work unit is one (algorithm, graph) *block*: all
program variants of one algorithm on one input, across every model and
device.  Blocks share nothing but the deterministic input graphs, so they
fan out over worker processes perfectly.  The supervisor builds each
graph the sweep names once and puts it on every block of that input.
Workers are forked, so a block that gets a fresh worker reads the
supervisor's CSR arrays copy-on-write, with no rebuild and no pickling;
a shard sent to a reused worker carries its graph pickled in the unit.
Each worker executes its block with the batched launcher and ships only
the compact :class:`RunResult` list back.

When there are more workers than (algorithm, graph) blocks, every block
is split into **semantic shards**, one per semantic style combination,
every mapping variant and device of that combination staying with its
shard.  Shard results are reassembled in the serial run order, so the
split changes wall-clock time and nothing else.

Blocks and shards run through the package's one supervised worker pool
(:class:`repro.runtime.workers.WorkerPool`).  Every whole block gets a
freshly forked worker that exits after it, so the heap a big block leaves
behind never outlives it.  Shards are many and small, so idle workers pull
the next shard instead of forking per shard.  Semantic groups differ
wildly in cost — a BFS frontier trace versus a one-launch TC pass — and
pulling keeps every worker busy until the queue is empty, which is what
lets ``--workers`` beyond the block count keep scaling.

Unlike a bare process pool, the engine *supervises* its workers:

* a per-block timeout (``--block-timeout`` / ``$REPRO_BLOCK_TIMEOUT``)
  kills hung workers instead of wedging the sweep;
* failed, crashed, or timed-out blocks are retried with bounded
  exponential backoff, then once more in the supervisor's own process
  (the *serial fallback*, which distinguishes a worker-environment fault
  — a killed process, a bad fork — from a genuine kernel bug);
* blocks that still fail are quarantined into the failure manifest on
  :class:`StudyResults` while every healthy block completes;
* a variant that fails verification inside a block costs only its own
  grid cells (recorded per (spec, device) in the manifest), never the
  block;
* SIGINT, SIGTERM and dead workers always tear the worker set down
  cleanly.

A sweep cut short by a crash, SIGTERM or Ctrl-C is recovered by running
it again: every semantic trace a finished block executed is already in
the trace store (:mod:`repro.bench.tracestore`), so the re-run executes
kernels only for the blocks that had not finished.

The simulator is deterministic by design, so the parallel engine is
*bit-identical* to the serial path: blocks are reassembled in the serial
iteration order and every worker performs exactly the computations the
serial sweep would.  ``workers=1`` executes the blocks in-process, in
order.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..graph.csr import CSRGraph
from ..graph.datasets import load_all
from ..runtime.errors import ErrorClass, FailedRun, error_digest
from ..runtime.launcher import Launcher, RunResult
from ..runtime.workers import WorkerPool, describe
from ..styles.axes import Algorithm, Model
from ..styles.combos import enumerate_specs
from ..styles.spec import SemanticKey, StyleSpec
from . import faults
from .harness import StudyResults, SweepConfig, block_grid, sweep_block_runs

__all__ = [
    "SweepBlock",
    "BlockOutcome",
    "partition_blocks",
    "semantic_shard_order",
    "shard_blocks",
    "resolve_workers",
    "run_sweep_parallel",
    "stderr_progress",
]

#: Environment override for the default worker count.
WORKERS_ENV = "REPRO_SWEEP_WORKERS"

#: Environment override for the per-block timeout (seconds, float).
BLOCK_TIMEOUT_ENV = "REPRO_BLOCK_TIMEOUT"

#: Default number of worker retries before the serial fallback.
DEFAULT_MAX_RETRIES = 2

#: First-retry backoff in seconds; doubles per retry.
DEFAULT_RETRY_BACKOFF = 0.25

#: Called after each finished block: ``progress(done, total, block)``.
ProgressFn = Callable[[int, int, "SweepBlock"], None]


@dataclass
class BlockOutcome:
    """What one (algorithm, graph) block produced: its runs plus any
    per-variant failure records."""

    runs: List[RunResult] = field(default_factory=list)
    failures: List[FailedRun] = field(default_factory=list)
    #: Kernels the block actually executed (trace-store hits excluded).
    kernel_executions: int = 0


@dataclass(frozen=True)
class SweepBlock:
    """One unit of parallel work: every variant of one algorithm on one
    input graph, across the configured models and devices.

    ``graph`` is the object the supervisor built or the caller supplied;
    the block runs on it and never rebuilds from the dataset registry.
    """

    algorithm: Algorithm
    graph_name: str
    graph: CSRGraph = field(compare=False)
    scale: str
    models: Tuple[Model, ...]
    gpu_names: Tuple[str, ...]
    cpu_names: Tuple[str, ...]
    verify: bool
    max_footprint_bytes: Optional[int] = None
    trace_cache: bool = True
    #: Which semantic shard of the block this is (see :func:`shard_blocks`);
    #: ``n_shards == 1`` means the whole block.
    shard: int = 0
    n_shards: int = 1

    @property
    def config(self) -> SweepConfig:
        """The single-block SweepConfig this block executes."""
        return SweepConfig(
            scale=self.scale,
            models=self.models,
            algorithms=(self.algorithm,),
            gpu_names=self.gpu_names,
            cpu_names=self.cpu_names,
            graphs=(self.graph_name,),
            verify=self.verify,
            max_footprint_bytes=self.max_footprint_bytes,
            trace_cache=self.trace_cache,
        )

    def specs_for(self, model: Model) -> List[StyleSpec]:
        """This block's program variants of one model (shard-filtered)."""
        specs = enumerate_specs(self.algorithm, model)
        if self.n_shards == 1:
            return specs
        order = semantic_shard_order(self.algorithm, self.models)
        return [
            spec
            for spec in specs
            if order[spec.semantic_key()] % self.n_shards == self.shard
        ]


def partition_blocks(
    config: SweepConfig, graphs: Optional[Dict[str, CSRGraph]] = None
) -> List[SweepBlock]:
    """Split a sweep into its (algorithm, graph) blocks, in serial order.

    Every block carries its graph: one of ``graphs`` when given (a
    caller-supplied graph may differ from the registry's under the same
    name), else the inputs ``config`` names, built here once each.
    """
    if graphs is None:
        graphs = load_all(config.scale, names=config.graphs)
    blocks = []
    for algorithm in config.algorithms:
        for name, graph in graphs.items():
            blocks.append(
                SweepBlock(
                    algorithm=algorithm,
                    graph_name=name,
                    graph=graph,
                    scale=config.scale,
                    models=tuple(config.models),
                    gpu_names=tuple(config.gpu_names),
                    cpu_names=tuple(config.cpu_names),
                    verify=config.verify,
                    max_footprint_bytes=config.max_footprint_bytes,
                    trace_cache=config.trace_cache,
                )
            )
    return blocks


def semantic_shard_order(
    algorithm: Algorithm, models: Sequence[Model]
) -> Dict[SemanticKey, int]:
    """First-appearance order of semantic combinations across models.

    :class:`SemanticKey` excludes the programming model, so one semantic
    trace serves every model's mapping variants — shards must therefore
    keep *equal* semantic keys together or the trace would execute once
    per shard.  The order is a pure function of (algorithm, models), so
    publisher and every worker derive the same sharding independently.
    """
    order: Dict[SemanticKey, int] = {}
    for model in models:
        for spec in enumerate_specs(algorithm, model):
            key = spec.semantic_key()
            if key not in order:
                order[key] = len(order)
    return order


def shard_blocks(blocks: List[SweepBlock], workers: int) -> List[SweepBlock]:
    """Split every block into semantic shards, one per semantic group,
    when ``workers`` outnumber the blocks (and would otherwise idle).

    Shards of one block stay adjacent and ordered, which is what lets
    :func:`run_sweep_parallel` reassemble serial run order.  The shard
    count depends only on the block, not on ``workers``.
    """
    if workers <= len(blocks):
        return blocks
    out: List[SweepBlock] = []
    for block in blocks:
        n = 1
        if block.n_shards == 1:
            n = len(semantic_shard_order(block.algorithm, block.models))
        if n <= 1:
            out.append(block)
            continue
        out.extend(replace(block, shard=s, n_shards=n) for s in range(n))
    return out


def run_block_outcome(block: SweepBlock, attempt: int = 0) -> BlockOutcome:
    """Execute one block, capturing per-variant failures.

    A variant whose verification or execution fails becomes a
    :class:`FailedRun` in the outcome; the rest of the block still runs.
    Whole-block failures (including injected ones) propagate to the
    supervisor, which owns the retry policy.
    """
    faults.inject_block_fault(block.algorithm.value, block.graph_name, attempt)
    graph = block.graph
    config = block.config
    launcher = Launcher(
        verify=block.verify,
        budget=config.budget(),
        trace_store=config.trace_store(),
    )
    faults.apply_verify_faults(launcher, block, attempt)
    outcome = BlockOutcome()
    specs, devices = block_grid(
        block.models, block.specs_for, config.devices_for
    )
    outcome.runs.extend(
        sweep_block_runs(
            launcher, specs, graph, devices, failures=outcome.failures,
            graph_label=block.graph_name,
        )
    )
    launcher.release(graph, block.algorithm)
    outcome.kernel_executions = launcher.kernel_executions
    return outcome


def resolve_workers(
    workers: Optional[int], n_blocks: Optional[int] = None
) -> int:
    """Worker count: explicit argument, else ``$REPRO_SWEEP_WORKERS``, else
    all cores capped by the number of blocks (spawning 32 workers for a
    3-block sweep helps nobody)."""
    if workers is None:
        default = os.cpu_count() or 1
        if n_blocks is not None:
            default = max(1, min(default, n_blocks))
        env = os.environ.get(WORKERS_ENV)
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(
                    f"${WORKERS_ENV} must be a positive integer, got {env!r}"
                ) from None
        else:
            workers = default
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers


def resolve_block_timeout(block_timeout: Optional[float]) -> Optional[float]:
    """Per-block timeout: explicit argument, else ``$REPRO_BLOCK_TIMEOUT``,
    else none."""
    if block_timeout is None:
        env = os.environ.get(BLOCK_TIMEOUT_ENV)
        if env:
            try:
                block_timeout = float(env)
            except ValueError:
                raise ValueError(
                    f"${BLOCK_TIMEOUT_ENV} must be a number of seconds, "
                    f"got {env!r}"
                ) from None
    if block_timeout is not None and block_timeout <= 0:
        raise ValueError("block timeout must be positive")
    return block_timeout


@contextmanager
def _sigterm_as_interrupt():
    """Translate SIGTERM into :class:`KeyboardInterrupt` for one sweep.

    A containerized shutdown (``docker stop``, a Kubernetes pod delete, a
    systemd unit stop) delivers SIGTERM, whose default disposition kills
    the supervisor instantly — leaking worker processes and skipping the
    teardown that Ctrl-C (SIGINT) already gets.  Re-raising it as
    :class:`KeyboardInterrupt` routes both signals through the identical
    cleanup path: workers reaped.
    The finished blocks' traces are already in the trace store, so a
    re-run of the same sweep picks up where this one stopped.

    Installed only in the main thread of the main interpreter (``signal``
    refuses anywhere else — e.g. a sweep run from a serving-plane worker
    thread, which relies on process-level supervision instead) and always
    restored on exit.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum, frame):
        raise KeyboardInterrupt("SIGTERM")

    try:
        previous = signal.signal(signal.SIGTERM, _handler)
    except (ValueError, OSError):  # non-main interpreter, exotic platform
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


def stderr_progress(done: int, total: int, block: SweepBlock) -> None:
    """Default progress reporter: one stderr line per finished block."""
    label = f"{block.algorithm.value} x {block.graph_name}"
    if block.n_shards > 1:
        label += f" [shard {block.shard + 1}/{block.n_shards}]"
    print(f"[sweep {done}/{total}] {label}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
def run_sweep_parallel(
    config: SweepConfig = SweepConfig(),
    *,
    workers: Optional[int] = None,
    progress: Optional[ProgressFn] = None,
    graphs: Optional[Dict[str, CSRGraph]] = None,
    block_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    retry_backoff: float = DEFAULT_RETRY_BACKOFF,
) -> StudyResults:
    """Run the configured sweep across supervised worker processes.

    Bit-identical to :func:`repro.bench.run_sweep` on healthy blocks: same
    runs, same order, same floats.  Failures — a bad variant, a crashed or
    hung worker — are captured into the result's failure manifest instead
    of aborting the sweep; see the module docstring for the supervision
    policy.

    ``workers=None`` uses ``$REPRO_SWEEP_WORKERS`` or the machine's core
    count capped by the block count; ``workers=1`` runs the blocks
    serially in-process.  ``block_timeout=None`` reads
    ``$REPRO_BLOCK_TIMEOUT`` (no timeout if unset).  Re-running a sweep
    that crashed or quarantined blocks executes kernels only for those
    blocks: the trace store holds everything the finished ones ran.

    When workers outnumber the (algorithm, graph) blocks, the surplus is
    absorbed by semantic shards (see the module docstring): blocks split
    into one unit per semantic group and idle workers pull the next one.
    """
    block_timeout = resolve_block_timeout(block_timeout)
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if graphs is None:
        graphs = load_all(config.scale, names=config.graphs)
    else:
        graphs = dict(graphs)
    blocks = partition_blocks(config, graphs)
    workers = resolve_workers(workers, len(blocks))
    blocks = shard_blocks(blocks, workers)
    total = len(blocks)

    outcomes: Dict[int, BlockOutcome] = {}

    def record(index: int, outcome: BlockOutcome) -> None:
        outcomes[index] = outcome
        if progress is not None:
            progress(len(outcomes), total, blocks[index])

    def give_up(
        index: int, error_class: ErrorClass, detail: str, attempts: int
    ) -> None:
        """A block failed every worker attempt: run it once more in this
        process (the serial fallback) unless it hung, else quarantine it.
        A worker-environment fault (killed process, broken fork) succeeds
        here; a genuine kernel bug fails again."""
        block = blocks[index]
        if error_class is not ErrorClass.TIMEOUT:
            try:
                record(index, run_block_outcome(block, attempt=attempts))
                return
            except Exception as exc:
                error_class, detail = describe(exc)
                attempts += 1
        record(index, _quarantined(block, error_class, detail, attempts))

    with _sigterm_as_interrupt():
        if workers == 1 or total <= 1:
            _run_blocks_inprocess(blocks, record)
        else:
            # Hash each graph once, before the first fork: workers inherit
            # the memoized fingerprint instead of re-hashing per block.
            for graph in graphs.values():
                graph.fingerprint()
            WorkerPool(
                run_block_outcome,
                on_done=record,
                on_failure=give_up,
                workers=workers,
                timeout=block_timeout,
                max_retries=max_retries,
                retry_backoff=retry_backoff,
                # A whole block gets a fresh worker; shards reuse one.
                reuse=lambda block: block.n_shards > 1,
            ).run(enumerate(blocks))

    # Reassemble in serial run order.  Shards of one block are adjacent in
    # the block list but stripe its semantic groups, so their merged runs
    # are re-sorted by the block's canonical (spec, device) positions —
    # which is what keeps the parallel path bit-identical to the serial
    # one regardless of worker count.
    results = StudyResults(graphs=graphs)
    index = 0
    while index < total:
        block = blocks[index]
        group = range(index, index + block.n_shards)
        index += block.n_shards
        runs: List[RunResult] = []
        for i in group:
            outcome = outcomes.get(i)
            if outcome is None:  # only possible if a callback misbehaved
                continue
            runs.extend(outcome.runs)
            for failure in outcome.failures:
                results.add_failure(failure)
            results.kernel_executions += outcome.kernel_executions
        if block.n_shards > 1:
            positions = _canonical_positions(block)
            runs.sort(key=lambda run: positions[(run.spec, run.device)])
        for run in runs:
            results.add(run)
    return results


def _canonical_positions(
    block: SweepBlock,
) -> Dict[Tuple[StyleSpec, str], int]:
    """Serial run order of one block's (spec, device) cells."""
    config = block.config
    positions: Dict[Tuple[StyleSpec, str], int] = {}
    for model in block.models:
        for spec in enumerate_specs(block.algorithm, model):
            for device in config.devices_for(model):
                positions[(spec, device.name)] = len(positions)
    return positions


def _run_blocks_inprocess(
    blocks: List[SweepBlock],
    record: Callable[[int, BlockOutcome], None],
) -> None:
    """The serial engine: same blocks, same order, no worker processes.

    Timeouts and crash recovery need process isolation and do not apply;
    a block that raises is quarantined directly.
    """
    for index, block in enumerate(blocks):
        try:
            outcome = run_block_outcome(block)
        except Exception as exc:
            outcome = _quarantined(block, *describe(exc))
        record(index, outcome)


def _quarantined(
    block: SweepBlock, error_class: ErrorClass, detail: str, attempts: int = 1
) -> BlockOutcome:
    """A block recorded as failed; the sweep goes on without it."""
    failure = FailedRun(
        algorithm=block.algorithm.value,
        graph=block.graph_name,
        error_class=error_class,
        message=detail,
        digest=error_digest(error_class, detail),
        stage="block",
        attempts=attempts,
    )
    return BlockOutcome(failures=[failure])
