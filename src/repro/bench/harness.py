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

from dataclasses import dataclass, field, fields
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

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .comparison import SpeedupCell
    from .predictor import PredictionSummary
    from .tracestore import TraceStore

from ..graph.csr import CSRGraph
from ..machine.devices import CPUS, GPUS
from ..machine.specs import CPUSpec, GPUSpec
from ..runtime.budget import ResourceBudget
from ..runtime.errors import FailedRun
from ..runtime.launcher import Launcher, RunResult
from ..styles.axes import AXIS_FIELDS, Algorithm, Model
from ..styles.spec import StyleSpec

__all__ = [
    "PredictSettings",
    "SweepConfig",
    "StudyColumns",
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

    The sweep engine runs each block through
    :func:`repro.bench.predictor.predicted_block_runs`, at any worker
    count; the report lands in ``StudyResults.prediction``.
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
    #: sweeps (and re-runs of a crashed one) re-time mapping variants
    #: with zero kernel executions.  ``$REPRO_TRACE_CACHE=0`` overrides
    #: to off; a path there overrides the directory.  Deliberately *not*
    #: part of the sweep cache key — results are bit-identical either way.
    trace_cache: bool = True
    #: Predict-then-verify pruning (:class:`PredictSettings`); ``None``
    #: (the default) sweeps exhaustively.  A pruned sweep never reads or
    #: writes the result cache: its back-filled cells depend on the
    #: predictor artifact's contents, which the cache key cannot see.
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


#: The StyleSpec fields in declaration order, each with its option enum.
SPEC_FIELDS: Dict[str, type] = {
    f.name: {"algorithm": Algorithm, "model": Model, **AXIS_FIELDS}[f.name]
    for f in fields(StyleSpec)
}

_INT64_MAX = int(np.iinfo(np.int64).max)


class StudyColumns:
    """Whole-array view of a study's runs, for the analysis layer.

    One row per run, in run order:

    * ``codes[name]`` — a ``uint8`` code per run for each StyleSpec field
      (0 for ``None``, an axis that does not apply; else the option's
      position in its enum plus one), and ``int32`` codes into
      ``names["device"]`` and ``names["graph"]``;
    * ``throughput`` — ``throughput_ges`` as ``float64``;
    * ``key`` — one mixed-radix ``int64`` per (spec, device, graph) cell,
      with ``weights[name]`` the place value of each column.  A field's
      radix is its enum size plus one (never the options present), so
      the partner of row ``i`` under "axis X: a -> b" is the cell
      ``key[i] + (code(b) - code(a)) * weights[X]``, found by
      :meth:`partners` with a binary search over the stably sorted keys.

    A duplicated cell resolves to its last-added run, as
    :meth:`StudyResults.get` does.  ``baseline_cells`` holds the Figure
    16 speedup cells per baseline source (see
    :func:`repro.bench.comparison.baseline_speedups`), so Table 6 and
    Figure 16 share them.  :meth:`StudyResults.columns` builds the view
    on first use and again after :meth:`StudyResults.add`.
    """

    def __init__(self, runs: Sequence[RunResult]) -> None:
        spec_at: Dict[StyleSpec, int] = {}
        device_at: Dict[str, int] = {}
        graph_at: Dict[str, int] = {}
        spec_rows = np.array(
            [spec_at.setdefault(run.spec, len(spec_at)) for run in runs],
            dtype=np.intp,
        )
        # Codes of each distinct spec once, then one gather per field.
        spec_codes = np.array(
            [
                [_FIELD_CODES[name][getattr(spec, name)] for name in SPEC_FIELDS]
                for spec in spec_at
            ],
            dtype=np.uint8,
        ).reshape(len(spec_at), len(SPEC_FIELDS))
        self.codes: Dict[str, np.ndarray] = {
            name: spec_codes[spec_rows, j] for j, name in enumerate(SPEC_FIELDS)
        }
        self.codes["device"] = np.array(
            [device_at.setdefault(run.device, len(device_at)) for run in runs],
            dtype=np.int32,
        )
        self.codes["graph"] = np.array(
            [graph_at.setdefault(run.graph, len(graph_at)) for run in runs],
            dtype=np.int32,
        )
        self.names: Dict[str, List[str]] = {
            "device": list(device_at), "graph": list(graph_at),
        }
        self._code_of = {**_FIELD_CODES, "device": device_at, "graph": graph_at}
        self.throughput = np.array(
            [run.throughput_ges for run in runs], dtype=np.float64
        )
        self._radix = {name: len(enum) + 1 for name, enum in SPEC_FIELDS.items()}
        self._radix["device"] = max(len(device_at), 1)
        self._radix["graph"] = max(len(graph_at), 1)
        # Place values, least significant last.
        self.weights: Dict[str, int] = {}
        place = 1
        for name in reversed(list(self._radix)):
            self.weights[name] = place
            place *= self._radix[name]
        if place - 1 > _INT64_MAX:
            raise OverflowError(
                f"a cell key needs {place.bit_length()} bits; int64 holds 63"
            )
        self.key = self.labels(*self._radix)
        self._order = np.argsort(self.key, kind="stable")
        self._sorted_key = self.key[self._order]
        #: source -> (the graphs they were computed on, the cells).
        self.baseline_cells: Dict[Optional[int], Tuple[tuple, List["SpeedupCell"]]] = {}

    def __len__(self) -> int:
        return self.throughput.size

    def code(self, name: str, value) -> Optional[int]:
        """The code of ``value`` in column ``name`` (0 for a ``None``
        option), or ``None`` when it is not a value of that column."""
        return self._code_of[name].get(value)

    def labels(self, *names: str) -> np.ndarray:
        """One ``int64`` per run, equal for two runs exactly when they
        agree on every named column (mixed radix, so it cannot wrap)."""
        label = np.zeros(len(self), dtype=np.int64)
        for name in names:
            label = label * self._radix[name] + self.codes[name]
        return label

    def rows(
        self,
        *,
        algorithms: Optional[Iterable[Algorithm]] = None,
        models: Optional[Iterable[Model]] = None,
        devices: Optional[Iterable[str]] = None,
        graphs: Optional[Iterable[str]] = None,
    ) -> np.ndarray:
        """Positions of the runs matching all provided filters (in run
        order), as :meth:`StudyResults.select` yields them."""
        mask = np.ones(len(self), dtype=bool)
        for name, wanted in (
            ("algorithm", algorithms),
            ("model", models),
            ("device", devices),
            ("graph", graphs),
        ):
            if wanted is None:
                continue
            table = np.zeros(self._radix[name], dtype=bool)
            codes = [self.code(name, value) for value in wanted]
            table[[code for code in codes if code is not None]] = True
            mask &= table[self.codes[name]]
        return np.flatnonzero(mask)

    def partners(self, rows: np.ndarray, changes: Dict[str, object]) -> np.ndarray:
        """For each of ``rows``, the row of the cell whose spec differs
        only in the fields of ``changes`` (set to the given options), on
        the same device and graph; -1 where no run holds that cell."""
        target = self.key[rows]
        for name, option in changes.items():
            code = self.code(name, option)
            if code is None:
                return np.full(rows.size, -1, dtype=np.intp)
            target = target + (
                code - self.codes[name][rows].astype(np.int64)
            ) * self.weights[name]
        if not len(self):
            return np.full(rows.size, -1, dtype=np.intp)
        pos = np.searchsorted(self._sorted_key, target, side="right") - 1
        # The last of equal keys is the last-added run.  A target below
        # every key gets pos -1, which reads the largest key: no match.
        return np.where(self._sorted_key[pos] == target, self._order[pos], -1)

    def group(
        self, name: str, rows: np.ndarray, values: np.ndarray
    ) -> Dict[object, np.ndarray]:
        """``values`` (one per row) grouped by the rows' option on field
        ``name``: options in first-appearance order, values in row order."""
        codes = self.codes[name][rows]
        _, first = np.unique(codes, return_index=True)
        return {
            _OPTIONS[name][code]: values[codes == code]
            for code in codes[np.sort(first)]
        }


#: Field name -> options by code (index 0 is ``None``).
_OPTIONS: Dict[str, Tuple[object, ...]] = {
    name: (None, *enum) for name, enum in SPEC_FIELDS.items()
}
#: Field name -> option -> code (see :class:`StudyColumns`).
_FIELD_CODES: Dict[str, Dict[object, int]] = {
    name: {option: code for code, option in enumerate(options)}
    for name, options in _OPTIONS.items()
}


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
    #: The derived column view (see :meth:`columns`); never pickled.
    _columns: Optional[StudyColumns] = field(
        default=None, repr=False, compare=False
    )

    def add(self, run: RunResult) -> None:
        self.runs.append(run)
        self._index[(run.spec, run.device, run.graph)] = run

    def columns(self) -> StudyColumns:
        """The runs as a :class:`StudyColumns` view: built on first use
        and shared by every figure until the next :meth:`add`.

        Runs only ever grow, through :meth:`add`, so a view covering
        fewer runs than there are is stale and is rebuilt; ``add``
        itself does no extra work.
        """
        view = self._columns
        if view is None or len(view) != len(self.runs):
            view = self._columns = StudyColumns(self.runs)
        return view

    def __getstate__(self) -> Dict[str, object]:
        state = dict(self.__dict__)
        state["_columns"] = None
        return state

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
        rows = self.columns().rows(
            algorithms=algorithms, models=models, devices=devices, graphs=graphs
        )
        runs = self.runs
        return (runs[i] for i in rows)

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
    graphs: Optional[Dict[str, CSRGraph]] = None,
) -> StudyResults:
    """Run the configured sweep in this process and return all results.

    ``graphs`` may be supplied directly (e.g. custom inputs); otherwise the
    dataset stand-ins ``config.graphs`` names (default: all five) are built
    at ``config.scale``.

    The blocks run in order through the sweep engine's in-process path
    (:func:`repro.bench.parallel.run_sweep_parallel` with ``workers=1``):
    a variant that fails costs its own grid cells and a block that fails
    is quarantined, both into the failure manifest.  With
    ``config.predict`` set, every block runs predict-then-verify (see
    :class:`PredictSettings`).
    """
    # Imported late: the engine builds on this module.
    from .parallel import run_sweep_parallel

    return run_sweep_parallel(config, workers=1, graphs=graphs)


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
    graph_label: Optional[str] = None,
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

    Runs and failures name the graph ``graph_label`` (by default
    ``graph.name``): a sweep passes the key its ``graphs`` mapping holds
    the graph under, so results select by the caller's names.
    """
    if graph_label is None:
        graph_label = graph.name
    on_error = None
    if failures is not None:
        def on_error(spec, device, exc):
            failures.append(
                FailedRun.from_exception(
                    exc,
                    algorithm=spec.algorithm.value,
                    graph=graph_label,
                    spec_label=spec.label(),
                    model=spec.model.value,
                    device=device.name,
                )
            )
    per_device = launcher.run_matrix(
        specs, graph, devices, on_error=on_error, graph_label=graph_label
    )
    for i in range(len(specs)):
        for batch in per_device:
            run = batch[i]
            if run is not None:
                yield run
