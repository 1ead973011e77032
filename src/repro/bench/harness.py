"""Full-study sweep harness.

Runs every enumerated program variant on every input graph and every
applicable device — the paper's 1106-programs x 5-inputs x 4-devices grid
(Section 4.5) — and stores the per-run throughputs for the analysis
modules.

The harness executes each *semantic* combination once per graph (via the
launcher's trace cache) and times it under every mapping combination, so a
full sweep is minutes, not hours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .predictor import PredictionSummary
    from .tracestore import TraceStore

from ..graph.csr import CSRGraph
from ..graph.datasets import load_all
from ..machine.devices import CPUS, GPUS
from ..machine.specs import CPUSpec, GPUSpec
from ..runtime.budget import ResourceBudget
from ..runtime.errors import FailedRun
from ..runtime.launcher import Launcher, RunResult
from ..styles.axes import Algorithm, Model
from ..styles.combos import enumerate_specs
from ..styles.spec import StyleSpec

__all__ = [
    "PredictSettings",
    "SweepConfig",
    "StudyResults",
    "block_grid",
    "run_sweep",
    "sweep_block_runs",
]

DeviceSpec = Union[GPUSpec, CPUSpec]


@dataclass(frozen=True)
class PredictSettings:
    """How a predict-then-verify sweep prunes the variant grid.

    Per (model, device) cell, the learned predictor
    (:mod:`repro.bench.predictor`) ranks every variant by predicted time;
    only the ``top_k`` plus a seeded random audit sample of the rest are
    executed, and the remaining cells are back-filled with predictions
    (``RunResult.predicted = True``).  ``max_groups`` caps the *semantic*
    executions per (algorithm, graph) block — the quantity that actually
    costs kernel runs — by dropping the lowest-ranked selections;
    ``None`` leaves the selection uncapped.
    """

    top_k: int = 8
    #: Fraction of the pruned (non-top-k) variants per cell to execute
    #: anyway as a measured-vs-predicted audit sample.
    audit_frac: float = 0.02
    audit_seed: int = 0
    max_groups: Optional[int] = None
    #: Model artifact path override (None = ``$REPRO_PREDICTOR``, else
    #: the default artifact under the sweep cache).
    model_path: Optional[str] = None


@dataclass(frozen=True)
class SweepConfig:
    """What to sweep.  Defaults reproduce the paper's full grid at the
    reproduction's default input scale."""

    scale: str = "default"
    models: Tuple[Model, ...] = tuple(Model)
    algorithms: Tuple[Algorithm, ...] = tuple(Algorithm)
    gpu_names: Tuple[str, ...] = tuple(GPUS)
    cpu_names: Tuple[str, ...] = tuple(CPUS)
    graphs: Optional[Tuple[str, ...]] = None  #: None = all five inputs
    verify: bool = True
    #: Pre-launch footprint cap in bytes (None = environment default —
    #: see :class:`repro.runtime.budget.ResourceBudget`).
    max_footprint_bytes: Optional[int] = None
    #: Use the persistent trace store (:mod:`repro.bench.tracestore`):
    #: semantic executions are fetched from / saved to disk, so repeated
    #: or resumed sweeps re-time mapping variants with zero kernel
    #: executions.  ``$REPRO_TRACE_CACHE=0`` overrides to off; a path
    #: there overrides the directory.  Deliberately *not* part of the
    #: sweep cache key — results are bit-identical either way.
    trace_cache: bool = True
    #: Predict-then-verify pruning (:class:`PredictSettings`); ``None``
    #: (the default) sweeps exhaustively.  *Is* part of the sweep cache
    #: key — a pruned sweep's back-filled cells are estimates, not
    #: measurements.
    predict: Optional[PredictSettings] = None

    def devices_for(self, model: Model) -> List[DeviceSpec]:
        if model.is_gpu:
            return [GPUS[name] for name in self.gpu_names]
        return [CPUS[name] for name in self.cpu_names]

    def budget(self) -> Optional[ResourceBudget]:
        """The launcher budget for this sweep (None = env default)."""
        if self.max_footprint_bytes is None:
            return None
        return ResourceBudget(max_bytes=self.max_footprint_bytes)

    def trace_store(self) -> Union["TraceStore", bool]:
        """The resolved persistent trace store for this sweep.

        Returns ``False`` (not ``None``) when disabled: a launcher given
        ``None`` would re-resolve from the environment, silently undoing
        ``trace_cache=False``.
        """
        from .tracestore import resolve_trace_store

        return resolve_trace_store(enabled=self.trace_cache) or False


@dataclass
class StudyResults:
    """All runs of a sweep, with lookup indices for the analysis layer."""

    runs: List[RunResult] = field(default_factory=list)
    graphs: Dict[str, CSRGraph] = field(default_factory=dict)
    #: Failure manifest: grid cells (or whole blocks) that produced no run,
    #: with the error class and message behind each (see
    #: :class:`repro.runtime.errors.FailedRun`).
    failures: List[FailedRun] = field(default_factory=list)
    #: Kernels actually executed to produce these results (trace-store
    #: and in-memory hits excluded) — 0 for a fully warm trace store.
    #: Not persisted by ``save_results``: it describes one invocation,
    #: not the results.
    kernel_executions: int = 0
    #: Per-cell pruning report of a predict-then-verify sweep
    #: (:class:`repro.bench.predictor.PredictionSummary`); ``None`` for
    #: exhaustive sweeps.  Like ``kernel_executions``, not persisted.
    prediction: Optional["PredictionSummary"] = None
    _index: Dict[Tuple[StyleSpec, str, str], RunResult] = field(
        default_factory=dict, repr=False
    )
    #: Secondary indices: run positions per key, so `select` scans only the
    #: narrowest matching subset instead of every run (the analysis layer
    #: calls it thousands of times per figure).
    _by_algorithm: Dict[Algorithm, List[int]] = field(
        default_factory=dict, repr=False
    )
    _by_model: Dict[Model, List[int]] = field(default_factory=dict, repr=False)
    _by_device: Dict[str, List[int]] = field(default_factory=dict, repr=False)
    _by_graph: Dict[str, List[int]] = field(default_factory=dict, repr=False)

    def add(self, run: RunResult) -> None:
        position = len(self.runs)
        self.runs.append(run)
        self._index[(run.spec, run.device, run.graph)] = run
        self._by_algorithm.setdefault(run.spec.algorithm, []).append(position)
        self._by_model.setdefault(run.spec.model, []).append(position)
        self._by_device.setdefault(run.device, []).append(position)
        self._by_graph.setdefault(run.graph, []).append(position)

    def get(
        self, spec: StyleSpec, device: str, graph: str
    ) -> Optional[RunResult]:
        """The run of one (program, device, input) cell, if present."""
        return self._index.get((spec, device, graph))

    def select(
        self,
        *,
        algorithms: Optional[Iterable[Algorithm]] = None,
        models: Optional[Iterable[Model]] = None,
        devices: Optional[Iterable[str]] = None,
        graphs: Optional[Iterable[str]] = None,
    ) -> Iterator[RunResult]:
        """Iterate runs matching all provided filters (in run order)."""
        algorithms = None if algorithms is None else set(algorithms)
        models = None if models is None else set(models)
        devices = None if devices is None else set(devices)
        graphs = None if graphs is None else set(graphs)
        candidates = self._candidates(algorithms, models, devices, graphs)
        for run in candidates:
            if algorithms is not None and run.spec.algorithm not in algorithms:
                continue
            if models is not None and run.spec.model not in models:
                continue
            if devices is not None and run.device not in devices:
                continue
            if graphs is not None and run.graph not in graphs:
                continue
            yield run

    def _candidates(self, algorithms, models, devices, graphs) -> Iterable[RunResult]:
        """Runs from the narrowest secondary index covering a given filter
        (all runs when no filter is provided)."""
        best: Optional[List[List[int]]] = None
        best_size = -1
        for index, keys in (
            (self._by_algorithm, algorithms),
            (self._by_model, models),
            (self._by_device, devices),
            (self._by_graph, graphs),
        ):
            if keys is None:
                continue
            lists = [index.get(key, []) for key in keys]
            size = sum(len(lst) for lst in lists)
            if best is None or size < best_size:
                best, best_size = lists, size
        if best is None:
            return self.runs
        if len(best) == 1:
            positions: Iterable[int] = best[0]
        else:
            # Each position appears under exactly one key of a field, so
            # the union is a disjoint merge of sorted lists.
            positions = sorted(pos for lst in best for pos in lst)
        runs = self.runs
        return (runs[pos] for pos in positions)

    def add_failure(self, failure: FailedRun) -> None:
        self.failures.append(failure)

    @property
    def n_programs(self) -> int:
        """Distinct program variants that were run."""
        return len({run.spec for run in self.runs})

    @property
    def n_failures(self) -> int:
        return len(self.failures)

    def failure_summary(self, *, limit: int = 20) -> str:
        """Human-readable failure manifest (for stderr after a sweep)."""
        if not self.failures:
            return "sweep failures: none"
        by_class: Dict[str, int] = {}
        for failure in self.failures:
            key = failure.error_class.value
            by_class[key] = by_class.get(key, 0) + 1
        counts = ", ".join(f"{k}: {v}" for k, v in sorted(by_class.items()))
        lines = [f"sweep failures: {len(self.failures)} ({counts})"]
        for failure in self.failures[:limit]:
            lines.append(f"  {failure.render()}")
        if len(self.failures) > limit:
            lines.append(f"  ... and {len(self.failures) - limit} more")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.runs)


def run_sweep(
    config: SweepConfig = SweepConfig(),
    *,
    launcher: Optional[Launcher] = None,
    graphs: Optional[Dict[str, CSRGraph]] = None,
) -> StudyResults:
    """Run the configured sweep and return all results.

    ``graphs`` may be supplied directly (e.g. custom inputs); otherwise the
    five dataset stand-ins are built at ``config.scale``.

    With ``config.predict`` set, the sweep is delegated to the
    predict-then-verify engine (:func:`repro.bench.predictor.run_sweep_predicted`):
    only the predicted-fastest variants plus an audit sample execute, the
    rest are back-filled with predictions.
    """
    if config.predict is not None:
        # Imported late: the predictor builds on this module.
        from .predictor import run_sweep_predicted

        return run_sweep_predicted(config, launcher=launcher, graphs=graphs)
    if graphs is None:
        graphs = load_all(config.scale)
        if config.graphs is not None:
            graphs = {name: graphs[name] for name in config.graphs}
    launcher = launcher or Launcher(
        verify=config.verify,
        budget=config.budget(),
        trace_store=config.trace_store(),
    )
    results = StudyResults(graphs=dict(graphs))
    # Iterate (algorithm, graph) in the outer loops so the semantic traces
    # of one block are shared across all three programming models and all
    # devices, then released — large worklist traces would otherwise
    # accumulate over the whole sweep.
    for algorithm in config.algorithms:
        specs, devices = block_grid(
            config.models,
            lambda model: enumerate_specs(algorithm, model),
            config.devices_for,
        )
        for graph in graphs.values():
            for run in sweep_block_runs(
                launcher, specs, graph, devices, failures=results.failures,
            ):
                results.add(run)
            launcher.release(graph, algorithm)
    results.kernel_executions = launcher.kernel_executions
    return results


def block_grid(
    models: Iterable[Model],
    specs_for: Callable[[Model], Sequence[StyleSpec]],
    devices_for: Callable[[Model], Sequence[DeviceSpec]],
) -> Tuple[List[StyleSpec], List[DeviceSpec]]:
    """One sweep block's specs of every model, in model order, and the
    devices they run on (each device once, in first-seen order).

    Every model of one kind must list the same devices.  A model without
    devices drops out: it has no cell to run.
    """
    specs: List[StyleSpec] = []
    devices: List[DeviceSpec] = []
    for model in models:
        model_devices = devices_for(model)
        if not model_devices:
            continue
        specs.extend(specs_for(model))
        devices.extend(d for d in model_devices if d not in devices)
    return specs, devices


def sweep_block_runs(
    launcher: Launcher,
    specs: Sequence[StyleSpec],
    graph: CSRGraph,
    devices: Sequence[DeviceSpec],
    failures: Optional[List[FailedRun]] = None,
) -> Iterator[RunResult]:
    """Runs of one (specs, graph) block over its devices, batched.

    ``specs`` may hold every model of the block (see :func:`block_grid`);
    each spec runs on the devices of its own kind.  All of them go
    through one :meth:`~repro.runtime.launcher.Launcher.run_matrix` call:
    every semantic trace is fetched once and the block's traces are timed
    together, with one model call per device and timing pass.  Results
    are yielded in the study's canonical ``for spec: for device`` order.

    With ``failures`` (a list to append to), a variant whose verification
    or execution fails is recorded there as a :class:`FailedRun` per
    affected (spec, device) cell and skipped, instead of aborting the
    whole block.
    """
    on_error = None
    if failures is not None:
        def on_error(spec, device, exc):
            failures.append(
                FailedRun.from_exception(
                    exc,
                    algorithm=spec.algorithm.value,
                    graph=graph.name,
                    spec_label=spec.label(),
                    model=spec.model.value,
                    device=device.name,
                )
            )
    per_device = launcher.run_matrix(specs, graph, devices, on_error=on_error)
    for i in range(len(specs)):
        for batch in per_device:
            run = batch[i]
            if run is not None:
                yield run
