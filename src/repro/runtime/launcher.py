"""Program launcher: run a styled program on a device and a graph.

The launcher implements the study's central efficiency trick (and its
methodological core): the *semantic* axes determine what is executed, the
*mapping* axes only determine how the execution is timed.  Traces are
therefore executed once per (graph, semantic combination) and re-timed for
every mapping combination and device — exactly the "compare styles with
everything else held fixed" discipline of Section 5.

A sweep block (every variant of one algorithm on one graph, across the
programming models and devices) is one :meth:`Launcher.run_matrix` call:
its semantic traces are fetched first, then timed together as one block
matrix with one model call per device
(:func:`repro.machine.time_matrix`), in passes of at most
:data:`PASS_ITEMS` work items.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..bench.tracestore import TraceStore

from ..graph.csr import CSRGraph
from ..kernels.base import KernelResult
from ..kernels.registry import build_kernel
from ..machine.matrix import time_matrix
from ..machine.specs import CPUSpec, GPUSpec
from ..machine.trace import ProfileMatrix
from ..styles.axes import Algorithm, Model
from ..styles.spec import SemanticKey, StyleSpec
from .budget import BudgetExceeded, ResourceBudget
from .verify import reference_solution, verify_result

__all__ = ["RunResult", "Launcher"]

DeviceSpec = Union[GPUSpec, CPUSpec]


@dataclass(frozen=True)
class RunResult:
    """Outcome of one program on one device and one input."""

    spec: StyleSpec
    device: str
    graph: str
    seconds: float
    throughput_ges: float  #: giga directed edges per second (Section 4.5)
    verified: bool
    iterations: int
    launches: int
    #: ``True`` when ``seconds`` is a model estimate back-filled by a
    #: predict-then-verify sweep (:mod:`repro.bench.predictor`) rather
    #: than a simulator measurement.  Predicted rows are never
    #: ``verified`` and report zero iterations/launches.  The default
    #: doubles as the unpickling fallback for results saved before the
    #: field existed (dataclass field defaults live on the class).
    predicted: bool = False

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise ValueError("simulated time must be positive")


#: Work items (summed over launches) that one timing pass covers at
#: most.  A block's traces are timed together up to this size, and a
#: larger trace is a pass of its own: every tiny-scale block (at most
#: 1.2M items) is one pass, while the temporaries of a default-scale pass
#: stay those of one large trace.
PASS_ITEMS = 1 << 21


def _timing_passes(results: Sequence[KernelResult]):
    """``(first, stop)`` runs of consecutive traces of at most
    :data:`PASS_ITEMS` items each (or a single larger trace)."""
    first = items = 0
    for t, result in enumerate(results):
        n = result.trace.total_work_items
        if t > first and items + n > PASS_ITEMS:
            yield first, t
            first, items = t, 0
        items += n
    if results:
        yield first, len(results)


class Launcher:
    """Executes styled programs with semantic-trace and reference caching.

    ``source`` selects the BFS/SSSP source vertex; the default (``None``)
    uses each graph's highest-degree vertex — deterministic and never an
    isolated vertex, mirroring common benchmark practice.

    ``sanitize`` runs the trace sanitizer
    (:func:`repro.analysis.sanitizer.assert_sane`) on every freshly
    executed semantic trace; a violated style invariant raises
    :class:`~repro.analysis.sanitizer.SanitizerError`.  The default
    (``None``) follows the ``$REPRO_SANITIZE`` environment variable
    (any value but empty/``0`` enables it).

    ``budget`` is a pre-launch :class:`~repro.runtime.budget.ResourceBudget`:
    before executing a variant, its estimated footprint is checked against
    the budget (and the target device's memory), and after timing, the
    simulated seconds against the time budget — violations raise
    :class:`~repro.runtime.budget.BudgetExceeded`, a typed skip the sweep
    machinery records in the failure manifest.  The default (``None``)
    builds one from ``$REPRO_MAX_FOOTPRINT_MB`` / ``$REPRO_MAX_SIM_SECONDS``
    (inactive when unset).

    ``trace_store`` is the persistent trace store
    (:class:`repro.bench.tracestore.TraceStore`): semantic executions are
    looked up there before any kernel runs and saved there afterwards, so
    a warm store re-times mapping variants with zero kernel executions.
    The default (``None``) follows ``$REPRO_TRACE_CACHE`` (a directory
    path enables it; unset leaves it off for bare launchers — the sweep
    paths opt in via ``SweepConfig.trace_cache``); pass ``False`` to
    force it off regardless of the environment.

    All internal caches are keyed by the graph's *content fingerprint*
    (never ``id()``, which can alias a different graph once the original
    is garbage collected), so content-identical graphs share traces and
    :attr:`kernel_executions` counts real kernel runs only.
    """

    def __init__(
        self,
        *,
        verify: bool = True,
        source: Optional[int] = None,
        sanitize: Optional[bool] = None,
        budget: Optional[ResourceBudget] = None,
        trace_store: Union["TraceStore", None, bool] = None,
    ):
        self.verify = verify
        self.source = source
        if sanitize is None:
            sanitize = os.environ.get("REPRO_SANITIZE", "0") not in ("", "0")
        self.sanitize = sanitize
        self.budget = ResourceBudget.from_env() if budget is None else budget
        if trace_store is None or trace_store is False:
            # Imported late: repro.bench depends on this module.
            from ..bench.tracestore import resolve_trace_store

            trace_store = resolve_trace_store(
                enabled=None if trace_store is None else False
            )
        self.trace_store: Optional["TraceStore"] = trace_store
        #: Kernels actually executed (trace-store and in-memory hits do
        #: not count) — what the warm-sweep guarantees are asserted on.
        self.kernel_executions = 0
        self._kernels: Dict[Tuple[str, Algorithm], object] = {}
        self._traces: Dict[Tuple[str, SemanticKey], KernelResult] = {}
        self._references: Dict[Tuple[str, Algorithm], np.ndarray] = {}

    def source_for(self, graph: CSRGraph) -> int:
        """The BFS/SSSP source for a graph (highest-degree by default)."""
        if self.source is not None:
            return self.source
        if graph.n_vertices == 0:
            return 0  # kernels reject the empty graph with a typed error
        return int(np.argmax(graph.degrees))

    # ------------------------------------------------------------------
    def execute_semantic(
        self, spec: StyleSpec, graph: CSRGraph
    ) -> KernelResult:
        """Execute (or fetch) the semantic trace of a spec on a graph.

        Lookup order: in-memory cache, then the persistent trace store
        (a hit reassembles the stored execution bit-identically with no
        kernel run), then a real kernel execution — which is verified,
        sanitized, and written back to the store.
        """
        semantic = spec.semantic_key()
        key = (graph.fingerprint(), semantic)
        cached = self._traces.get(key)
        if cached is not None:
            return cached
        if self.trace_store is not None:
            stored = self.trace_store.load(
                graph, semantic, self.source_for(graph),
                require_verified=self.verify,
            )
            if stored is not None:
                if self.sanitize:
                    from ..analysis.sanitizer import assert_sane

                    assert_sane(semantic, stored.trace)
                self._traces[key] = stored
                return stored
        kernel = self._kernel_for(spec.algorithm, graph)
        self.kernel_executions += 1
        result = kernel.run(semantic)
        if self.verify:
            reference = self._reference_for(spec.algorithm, graph)
            verify_result(spec.algorithm, graph, result.values, reference)
        if self.sanitize:
            # Imported late: repro.analysis depends on repro.machine and
            # repro.styles, and the launcher must stay importable without it.
            from ..analysis.sanitizer import assert_sane

            assert_sane(semantic, result.trace)
        if self.trace_store is not None:
            self.trace_store.save(
                graph, semantic, self.source_for(graph), result,
                verified=self.verify,
            )
        self._traces[key] = result
        return result

    def run(
        self, spec: StyleSpec, graph: CSRGraph, device: DeviceSpec
    ) -> RunResult:
        """Run one fully-specified program variant; returns its result.

        A 1×1 :meth:`run_matrix`: any failure propagates.
        """
        return self.run_matrix([spec], graph, [device])[0][0]

    def run_matrix(
        self,
        specs: Sequence[StyleSpec],
        graph: CSRGraph,
        devices: Sequence[DeviceSpec],
        *,
        on_error: Optional[
            Callable[[StyleSpec, DeviceSpec, Exception], None]
        ] = None,
        graph_label: Optional[str] = None,
    ) -> List[List[Optional[RunResult]]]:
        """Run many program variants across many devices in one pass.

        Returns ``results[d][i]`` — the run of spec ``i`` on device ``d``,
        or ``None`` where it has none.  Specs may be of several
        programming models and devices of both kinds: each spec runs on
        the devices of its own kind.

        Every semantic group (the specs of one programming model that
        share a semantic trace) is fetched first, with its footprint,
        execution and verification failures captured per group.  The
        fetched traces — each distinct one once — are then timed
        together: one block :class:`~repro.machine.trace.ProfileMatrix`
        and one :func:`~repro.machine.time_matrix` pass, one model call
        per device, per run of traces of at most :data:`PASS_ITEMS` work
        items (a whole tiny-scale block is one pass).  A pass's matrix
        lives for that pass only.

        ``on_error(spec, device, exc)`` receives per-cell failures (every
        cell of a group whose semantic execution fails, every cell of a
        timing pass that fails), group by group in the order the specs
        list them; without it the first failure propagates.  Invalid
        specs and a spec with no device of its kind always raise — those
        are caller bugs, not sweep data.

        ``graph_label`` is the name every run (and budget message) gives
        the graph, by default ``graph.name``; a sweep passes the key it
        holds the graph under.
        """
        if graph_label is None:
            graph_label = graph.name
        specs = list(specs)
        devices = list(devices)
        kinds = {isinstance(device, GPUSpec) for device in devices}
        groups: Dict[Tuple[Model, SemanticKey], List[int]] = {}
        for i, spec in enumerate(specs):
            spec.validate()
            if spec.model.is_gpu not in kinds:
                raise ValueError(
                    f"{spec.model.value} programs cannot run on "
                    + ", ".join(device.name for device in devices)
                )
            key = (spec.model, spec.semantic_key())
            groups.setdefault(key, []).append(i)
        out: List[List[Optional[RunResult]]] = [
            [None] * len(specs) for _ in devices
        ]
        # Failures are collected per group and reported after the pass,
        # so their order does not depend on the phase that found them.
        errors: List[List[Tuple[int, int, Exception]]] = []

        def fail(group_errors, cells, exc):
            if on_error is None:
                raise exc
            group_errors.extend((d, i, exc) for d, i in cells)

        fetched = []  # (group number, spec indices, active devices, trace)
        results: List[KernelResult] = []
        trace_of: Dict[SemanticKey, int] = {}
        for (model, semantic), indices in groups.items():
            group_errors: List[Tuple[int, int, Exception]] = []
            errors.append(group_errors)
            # The footprint gate must keep its pre-execution semantics:
            # only run the kernel if some device admits the variant.
            active: List[int] = []
            for d, device in enumerate(devices):
                if isinstance(device, GPUSpec) != model.is_gpu:
                    continue
                try:
                    if self.budget.active:
                        self.budget.check_footprint(
                            graph, specs[indices[0]], device
                        )
                except Exception as exc:
                    fail(group_errors, [(d, i) for i in indices], exc)
                    continue
                active.append(d)
            if not active:
                continue
            try:
                result = self.execute_semantic(specs[indices[0]], graph)
            except Exception as exc:
                fail(
                    group_errors,
                    [(d, i) for d in active for i in indices], exc,
                )
                continue
            t = trace_of.setdefault(semantic, len(results))
            if t == len(results):
                results.append(result)
            fetched.append((len(errors) - 1, indices, active, t))

        # One timing pass per run of traces (see PASS_ITEMS); seconds are
        # indexed like ``out``, transposed.
        trace_at = np.full(len(specs), -1)
        mask = np.zeros((len(specs), len(devices)), dtype=bool)
        for _, indices, active, t in fetched:
            trace_at[indices] = t
            mask[np.ix_(indices, active)] = True
        seconds = np.full(mask.shape, np.nan)
        pass_error: List[Optional[Exception]] = [None] * len(results)
        for first, stop in _timing_passes(results):
            rows = np.flatnonzero((trace_at >= first) & (trace_at < stop))
            try:
                seconds[rows] = time_matrix(
                    ProfileMatrix([r.trace for r in results[first:stop]]),
                    [(trace_at[i] - first, specs[i]) for i in rows],
                    devices,
                    active=mask[rows],
                )
            except Exception as exc:
                if on_error is None:
                    raise
                pass_error[first:stop] = [exc] * (stop - first)

        cells = seconds.tolist()
        check_seconds = self.budget.active
        for g, indices, active, t in fetched:
            if pass_error[t] is not None:
                fail(
                    errors[g],
                    [(d, i) for d in active for i in indices],
                    pass_error[t],
                )
                continue
            for d in active:
                for i in indices:
                    cell = cells[i][d]
                    if check_seconds:
                        try:
                            self.budget.check_seconds(
                                cell,
                                label=f"{specs[i].label()} on {graph_label}",
                            )
                        except BudgetExceeded as exc:
                            fail(errors[g], [(d, i)], exc)
                            continue
                    out[d][i] = self._result(
                        specs[i], graph, graph_label, devices[d], results[t],
                        cell,
                    )
        for group_errors in errors:
            for d, i, exc in group_errors:
                on_error(specs[i], devices[d], exc)
        return out

    def _result(
        self,
        spec: StyleSpec,
        graph: CSRGraph,
        graph_label: str,
        device: DeviceSpec,
        result: KernelResult,
        seconds: float,
    ) -> RunResult:
        return RunResult(
            spec=spec,
            device=device.name,
            graph=graph_label,
            seconds=seconds,
            throughput_ges=graph.n_edges / seconds / 1e9,
            verified=self.verify,
            iterations=result.trace.iterations,
            launches=result.trace.n_launches,
        )

    # ------------------------------------------------------------------
    def _kernel_for(self, algorithm: Algorithm, graph: CSRGraph):
        key = (graph.fingerprint(), algorithm)
        kernel = self._kernels.get(key)
        if kernel is None:
            kernel = build_kernel(algorithm, graph, self.source_for(graph))
            self._kernels[key] = kernel
        return kernel

    def _reference_for(self, algorithm: Algorithm, graph: CSRGraph) -> np.ndarray:
        key = (graph.fingerprint(), algorithm)
        ref = self._references.get(key)
        if ref is None:
            ref = reference_solution(algorithm, graph, self.source_for(graph))
            self._references[key] = ref
        return ref

    # ------------------------------------------------------------------
    def release(self, graph: CSRGraph, algorithm: Algorithm) -> None:
        """Drop cached traces/kernels/references of one (graph, algorithm).

        Sweeps call this after timing every variant of a block: trace
        arrays for large worklist-driven runs are the dominant memory
        consumer, and they are never needed again once all mapping
        variants and devices have been timed.  (The persistent trace
        store keeps its copy — release frees memory, not history.)
        """
        gid = graph.fingerprint()
        self._kernels.pop((gid, algorithm), None)
        self._references.pop((gid, algorithm), None)
        stale = [
            key
            for key in self._traces
            if key[0] == gid and key[1].algorithm is algorithm
        ]
        for key in stale:
            del self._traces[key]

    def clear_caches(self) -> None:
        """Drop all cached kernels, traces and references."""
        self._kernels.clear()
        self._traces.clear()
        self._references.clear()

    @property
    def cached_traces(self) -> int:
        return len(self._traces)
