"""Learned style predictor and predict-then-verify sweep pruning.

The paper's method is brute force: every guideline comes from executing
all style variants per (kernel, graph, device) cell.  The trace store
holds something better than the paper had — ground-truth
``(graph properties, StyleSpec, device) -> seconds`` tuples accumulated
across every sweep ever run — and this module mines them into a model
that prunes the sweep itself:

* **Training-set miner** — :func:`mine_results` turns saved
  :class:`~repro.bench.harness.StudyResults` into feature rows;
  :func:`mine_trace_store` walks the persistent trace store, re-times
  every mapping variant of each stored semantic trace on every device
  (via :func:`repro.machine.matrix.time_matrix` — zero kernel
  executions), and emits the same rows.  Features come from
  :meth:`GraphProperties.features`, :func:`device_features`, and a
  one-hot encoding of the 13 style axes, plus explicit style x graph
  interaction products — the paper's central finding is that winners are
  *input-dependent*, and additive depth-1 stumps cannot express
  ``driver x diameter`` without them.

* **Hand-rolled regressor** — :class:`BoostedStumps`, gradient-boosted
  depth-1 regression trees on log-seconds.  No sklearn; deterministic
  (quantile-binned splits, first-index tie-breaks); (de)serializes to
  plain JSON.

* **Versioned artifact** — :class:`StylePredictor` persists under the
  sweep cache (``<sweep-cache>/predictor/model-v1.json``) with the
  store discipline used everywhere else: checksummed header line,
  tmp + rename writes, quarantine-on-corruption.  ``$REPRO_PREDICTOR``
  overrides the path (``0``/empty disables prediction outright).

* **Predict-then-verify blocks** — :func:`predicted_block_runs` ranks
  each cell's variants by predicted time, executes only the top-k plus
  a seeded audit sample, back-fills the rest with predictions
  (``RunResult.predicted = True``), and reports per-cell regret bounds
  and audit error in :class:`PredictionSummary` (at-risk cells also land
  in the failure manifest).  The sweep engine
  (:func:`repro.bench.parallel.run_sweep_parallel`) runs it for every
  block of a sweep with ``SweepConfig.predict`` set; a
  missing/corrupt/mismatched artifact degrades the sweep to exhaustive
  execution with a manifest entry — pruning is an optimization, never a
  correctness dependency.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.properties import GraphProperties, analyze
from ..machine.devices import CPUS, DEVICES, GPUS
from ..machine.features import DEVICE_FEATURE_NAMES, device_features
from ..machine.matrix import time_matrix
from ..machine.specs import CPUSpec, GPUSpec
from ..runtime.errors import ErrorClass, FailedRun, error_digest
from ..runtime.launcher import Launcher, RunResult
from ..runtime.locking import store_lock
from ..styles import axes
from ..styles.axes import Algorithm, Model
from ..styles.combos import enumerate_specs
from ..styles.spec import SemanticKey, StyleSpec
from .harness import PredictSettings, StudyResults, SweepConfig, sweep_block_runs
from .storage import default_cache_dir
from .tracestore import TraceStore, kernel_code_fingerprint

__all__ = [
    "PREDICTOR_ENV",
    "ARTIFACT_VERSION",
    "FEATURE_SCHEMA_VERSION",
    "feature_names",
    "TrainingSet",
    "mine_results",
    "mine_trace_store",
    "export_training_set",
    "BoostedStumps",
    "StylePredictor",
    "PredictorArtifactError",
    "default_predictor_path",
    "resolve_predictor",
    "CellPrediction",
    "PredictionSummary",
    "predicted_block_runs",
]

DeviceSpec = Union[GPUSpec, CPUSpec]

#: Model artifact path override / kill switch (``0``/empty disables).
PREDICTOR_ENV = "REPRO_PREDICTOR"

#: Bumped when the artifact payload layout changes incompatibly.
ARTIFACT_VERSION = 1

#: Bumped when the feature layout changes; a loaded artifact must match
#: both this and the exact feature-name list.
FEATURE_SCHEMA_VERSION = 1

_MAGIC = b"repro-predictor-v1"


# ----------------------------------------------------------------------
# Feature schema
# ----------------------------------------------------------------------
#: The 13 style axes in StyleSpec field order.
_STYLE_AXES: Tuple[Tuple[str, type], ...] = (
    ("iteration", axes.Iteration),
    ("driver", axes.Driver),
    ("dup", axes.Dup),
    ("flow", axes.Flow),
    ("update", axes.Update),
    ("determinism", axes.Determinism),
    ("persistence", axes.Persistence),
    ("granularity", axes.Granularity),
    ("atomic_flavor", axes.AtomicFlavor),
    ("gpu_reduction", axes.GpuReduction),
    ("cpu_reduction", axes.CpuReduction),
    ("omp_schedule", axes.OmpSchedule),
    ("cpp_schedule", axes.CppSchedule),
)

_GRAPH_FEATURES: Tuple[str, ...] = (
    "g_log_vertices",
    "g_log_edges",
    "g_avg_degree",
    "g_log_max_degree",
    "g_pct_deg_ge_32",
    "g_pct_deg_ge_512",
    "g_log_diameter",
)

#: Scalars each style indicator is crossed with.  The graph four carry
#: the paper's input-dependence (diameter drives push/pull and driver
#: choices, degree skew drives granularity, size drives everything);
#: log-parallelism separates the device families within a model.
_INTERACTION_SCALARS: Tuple[str, ...] = (
    "g_log_diameter",
    "g_pct_deg_ge_32",
    "g_avg_degree",
    "g_log_edges",
    "dev_log_parallelism",
)


def _style_onehot_names() -> Tuple[str, ...]:
    return tuple(
        f"s_{name}_{member.value}"
        for name, enum_cls in _STYLE_AXES
        for member in enum_cls
    )


class _Schema:
    """Deterministic feature layout shared by miner, model, and artifact."""

    def __init__(self) -> None:
        self.graph_names = _GRAPH_FEATURES
        self.device_names = DEVICE_FEATURE_NAMES + ("dev_log_parallelism",)
        self.algo_names = tuple(f"alg_{a.value}" for a in Algorithm)
        self.model_names = tuple(f"model_{m.value}" for m in Model)
        self.style_names = _style_onehot_names()
        self.interaction_names = tuple(
            f"x_{s}__{scalar}"
            for s in self.style_names
            for scalar in _INTERACTION_SCALARS
        )
        self.names: Tuple[str, ...] = (
            self.graph_names
            + self.device_names
            + self.algo_names
            + self.model_names
            + self.style_names
            + self.interaction_names
        )
        # Segment offsets.
        off = 0
        self.o_graph = off
        off += len(self.graph_names)
        self.o_device = off
        off += len(self.device_names)
        self.o_algo = off
        off += len(self.algo_names)
        self.o_model = off
        off += len(self.model_names)
        self.o_style = off
        off += len(self.style_names)
        self.o_inter = off
        self.algo_index = {a: i for i, a in enumerate(Algorithm)}
        self.model_index = {m: i for i, m in enumerate(Model)}
        self._style_memo: Dict[Tuple, np.ndarray] = {}

    def style_vector(self, spec: StyleSpec) -> np.ndarray:
        key = tuple(getattr(spec, name) for name, _ in _STYLE_AXES)
        vec = self._style_memo.get(key)
        if vec is None:
            vec = np.zeros(len(self.style_names))
            pos = 0
            for (name, enum_cls), value in zip(_STYLE_AXES, key):
                if value is not None:
                    members = list(enum_cls)
                    vec[pos + members.index(value)] = 1.0
                pos += len(list(enum_cls))
            self._style_memo[key] = vec
        return vec

    def rows(
        self,
        specs: Sequence[StyleSpec],
        gfeat: Mapping[str, float],
        dfeat: Mapping[str, float],
    ) -> np.ndarray:
        """Feature matrix of ``specs`` on one (graph, device) context."""
        dvals = dict(dfeat)
        dvals["dev_log_parallelism"] = math.log1p(dvals.get("dev_parallelism", 0.0))
        both = {**gfeat, **dvals}
        g = np.array([gfeat[k] for k in self.graph_names])
        d = np.array([dvals[k] for k in self.device_names])
        scalars = np.array([both[k] for k in _INTERACTION_SCALARS])
        X = np.zeros((len(specs), len(self.names)))
        X[:, self.o_graph:self.o_graph + g.size] = g
        X[:, self.o_device:self.o_device + d.size] = d
        for i, spec in enumerate(specs):
            X[i, self.o_algo + self.algo_index[spec.algorithm]] = 1.0
            X[i, self.o_model + self.model_index[spec.model]] = 1.0
            sv = self.style_vector(spec)
            X[i, self.o_style:self.o_style + sv.size] = sv
            X[i, self.o_inter:] = np.outer(sv, scalars).ravel()
        return X


_schema: Optional[_Schema] = None


def _get_schema() -> _Schema:
    global _schema
    if _schema is None:
        _schema = _Schema()
    return _schema


def feature_names() -> Tuple[str, ...]:
    """The model's feature layout (order is part of the artifact schema)."""
    return _get_schema().names


# ----------------------------------------------------------------------
# Training-set mining
# ----------------------------------------------------------------------
@dataclass
class TrainingSet:
    """Mined feature rows: ``X`` row ``i`` describes ``meta[i]``."""

    X: np.ndarray  #: (n, F) feature matrix
    y_log_seconds: np.ndarray  #: (n,) regression target
    meta: List[Dict[str, object]] = field(default_factory=list)
    #: Rows *not* mined, by reason (stale entry, missing properties, ...).
    skipped: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def empty(cls) -> "TrainingSet":
        return cls(
            X=np.zeros((0, len(feature_names()))),
            y_log_seconds=np.zeros(0),
        )

    def extend(self, other: "TrainingSet") -> "TrainingSet":
        self.X = np.vstack([self.X, other.X])
        self.y_log_seconds = np.concatenate(
            [self.y_log_seconds, other.y_log_seconds]
        )
        self.meta.extend(other.meta)
        for reason, count in other.skipped.items():
            self.skipped[reason] = self.skipped.get(reason, 0) + count
        return self

    def _skip(self, reason: str, count: int = 1) -> None:
        self.skipped[reason] = self.skipped.get(reason, 0) + count

    def __len__(self) -> int:
        return len(self.meta)


def _append_rows(
    ts: TrainingSet,
    specs: Sequence[StyleSpec],
    seconds: np.ndarray,
    gfeat: Mapping[str, float],
    device: DeviceSpec,
    graph_name: str,
    source: str,
) -> None:
    schema = _get_schema()
    X = schema.rows(specs, gfeat, device_features(device))
    ts.X = np.vstack([ts.X, X])
    ts.y_log_seconds = np.concatenate(
        [ts.y_log_seconds, np.log(np.asarray(seconds, dtype=np.float64))]
    )
    for spec, secs in zip(specs, seconds):
        ts.meta.append(
            {
                "algorithm": spec.algorithm.value,
                "model": spec.model.value,
                "graph": graph_name,
                "device": device.name,
                "style": spec.label(),
                "seconds": float(secs),
                "source": source,
            }
        )


def mine_results(
    results: StudyResults,
    *,
    properties: Optional[Mapping[str, GraphProperties]] = None,
) -> TrainingSet:
    """Feature rows from a sweep's measured runs.

    Predicted (back-filled) runs are never mined — the model must not
    train on its own output.  Runs whose graph is absent from
    ``results.graphs`` (and from ``properties``) are skipped: features
    need the graph's properties.
    """
    ts = TrainingSet.empty()
    props: Dict[str, GraphProperties] = dict(properties or {})
    gfeats: Dict[str, Mapping[str, float]] = {}
    grouped: Dict[Tuple[str, str], List[RunResult]] = {}
    for run in results.runs:
        if getattr(run, "predicted", False):
            ts._skip("predicted-run")
            continue
        if run.graph not in props:
            graph = results.graphs.get(run.graph)
            if graph is None:
                ts._skip("no-graph")
                continue
            props[run.graph] = analyze(graph)
        if run.device not in DEVICES:
            ts._skip("unknown-device")
            continue
        grouped.setdefault((run.graph, run.device), []).append(run)
    for (graph_name, device_name), runs in grouped.items():
        gfeat = gfeats.get(graph_name)
        if gfeat is None:
            gfeat = props[graph_name].features()
            gfeats[graph_name] = gfeat
        _append_rows(
            ts,
            [run.spec for run in runs],
            np.array([run.seconds for run in runs]),
            gfeat,
            DEVICES[device_name],
            graph_name,
            "results",
        )
    return ts


def _semantic_from_payload(payload: Mapping[str, Optional[str]]) -> SemanticKey:
    def opt(enum_cls, value):
        return None if value is None else enum_cls(value)

    return SemanticKey(
        algorithm=Algorithm(payload["algorithm"]),
        iteration=axes.Iteration(payload["iteration"]),
        driver=axes.Driver(payload["driver"]),
        dup=opt(axes.Dup, payload["dup"]),
        flow=opt(axes.Flow, payload["flow"]),
        update=opt(axes.Update, payload["update"]),
        determinism=axes.Determinism(payload["determinism"]),
    )


def mine_trace_store(
    store: TraceStore,
    *,
    require_verified: bool = True,
) -> TrainingSet:
    """Feature rows from every usable entry of the persistent trace store.

    Each stored semantic trace is re-timed for *all* of its mapping
    variants on *all* devices via :func:`time_matrix` — zero kernel
    executions, so one stored trace yields hundreds of ground-truth rows
    for free.  Skipped (and counted in ``TrainingSet.skipped``): stale
    entries (kernel code changed), unverified ones (unless allowed), and
    entries from before graph properties were stored in the metadata.
    """
    ts = TrainingSet.empty()
    current = kernel_code_fingerprint()
    for meta, result in store.iter_entries():
        if meta["key"].get("kernel_code") != current:
            ts._skip("stale")
            continue
        if require_verified and not meta.get("verified", False):
            ts._skip("unverified")
            continue
        props_payload = meta.get("graph_properties")
        if not props_payload:
            ts._skip("no-graph-properties")
            continue
        try:
            semantic = _semantic_from_payload(meta["key"]["semantic"])
            gfeat = GraphProperties.from_dict(props_payload).features()
        except (KeyError, TypeError, ValueError):
            ts._skip("bad-metadata")
            continue
        graph_name = meta.get("graph_name", "?")
        for model in Model:
            specs = [
                spec
                for spec in enumerate_specs(semantic.algorithm, model)
                if spec.semantic_key() == semantic
            ]
            if not specs:
                continue
            devices = list(GPUS.values()) if model.is_gpu else list(CPUS.values())
            seconds = time_matrix(result.trace, specs, devices)
            for j, device in enumerate(devices):
                _append_rows(
                    ts, specs, seconds[:, j], gfeat, device,
                    graph_name, "trace-store",
                )
    return ts


_META_COLUMNS = (
    "algorithm", "model", "graph", "device", "style", "source", "seconds",
)


def export_training_set(
    ts: TrainingSet,
    out,
    *,
    fmt: str = "csv",
    include_features: bool = True,
) -> int:
    """Dump a mined training set to a text stream as CSV or JSONL.

    Returns the number of rows written.  ``include_features=False``
    writes only the identifying columns plus the target — a compact view
    for eyeballing; the full dump is the auditable model input.
    """
    names = feature_names() if include_features else ()
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(list(_META_COLUMNS) + list(names))
        for i, meta in enumerate(ts.meta):
            row = [meta[c] for c in _META_COLUMNS]
            if names:
                row.extend(repr(v) for v in ts.X[i])
            writer.writerow(row)
    elif fmt == "jsonl":
        for i, meta in enumerate(ts.meta):
            record = {c: meta[c] for c in _META_COLUMNS}
            if names:
                record["features"] = dict(zip(names, ts.X[i].tolist()))
            out.write(json.dumps(record, sort_keys=True) + "\n")
    else:
        raise ValueError(f"unknown export format: {fmt!r}")
    return len(ts.meta)


# ----------------------------------------------------------------------
# Hand-rolled gradient-boosted stumps
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Stump:
    feature: int
    threshold: float  #: x <= threshold goes left
    left: float
    right: float


class BoostedStumps:
    """Least-squares gradient boosting with depth-1 trees.

    Deterministic by construction: split candidates are quantile
    thresholds fixed before the first round, and all ties break on the
    first (lowest feature, lowest threshold) candidate.  ``seed`` is
    recorded for provenance (the fit itself uses no randomness).
    """

    def __init__(
        self,
        *,
        rounds: int = 400,
        learning_rate: float = 0.1,
        max_bins: int = 32,
        seed: int = 0,
    ):
        self.rounds = rounds
        self.learning_rate = learning_rate
        self.max_bins = max_bins
        self.seed = seed
        self.base_: float = 0.0
        self.stumps_: List[_Stump] = []

    # -- fitting -------------------------------------------------------
    def fit(self, X: np.ndarray, y: np.ndarray) -> "BoostedStumps":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n, n_features = X.shape
        if n == 0:
            raise ValueError("cannot fit on an empty training set")
        self.base_ = float(y.mean())
        self.stumps_ = []
        # Quantile-binned split candidates, fixed for the whole fit.
        thresholds: List[np.ndarray] = []
        binned = np.zeros((n, n_features), dtype=np.int32)
        cum_counts: List[Optional[np.ndarray]] = []
        for f in range(n_features):
            col = X[:, f]
            uniq = np.unique(col)
            if uniq.size <= 1:
                th = uniq[:0]
            elif uniq.size <= self.max_bins:
                th = uniq[:-1]  # split after every distinct value
            else:
                qs = np.linspace(0.0, 1.0, self.max_bins + 1)[1:-1]
                th = np.unique(np.quantile(col, qs))
            thresholds.append(th)
            if th.size == 0:
                cum_counts.append(None)
                continue
            binned[:, f] = np.searchsorted(th, col, side="left")
            counts = np.bincount(binned[:, f], minlength=th.size + 1)
            cum_counts.append(np.cumsum(counts)[:-1].astype(np.float64))
        pred = np.full(n, self.base_)
        for _ in range(self.rounds):
            resid = y - pred
            total = resid.sum()
            base_gain = total * total / n
            best_gain = base_gain + 1e-12
            best: Optional[Tuple[int, int]] = None
            for f in range(n_features):
                nl = cum_counts[f]
                if nl is None:
                    continue
                sums = np.bincount(
                    binned[:, f], weights=resid, minlength=thresholds[f].size + 1
                )
                sl = np.cumsum(sums)[:-1]
                nr = n - nl
                valid = (nl > 0) & (nr > 0)
                if not valid.any():
                    continue
                sr = total - sl
                with np.errstate(divide="ignore", invalid="ignore"):
                    gain = sl * sl / nl + sr * sr / nr
                gain = np.where(valid, gain, -np.inf)
                cut = int(np.argmax(gain))
                if gain[cut] > best_gain:
                    best_gain = float(gain[cut])
                    best = (f, cut)
            if best is None:
                break  # no split reduces the residual variance
            f, cut = best
            left_mask = binned[:, f] <= cut
            lr = self.learning_rate
            left = lr * float(resid[left_mask].mean())
            right = lr * float(resid[~left_mask].mean())
            self.stumps_.append(
                _Stump(f, float(thresholds[f][cut]), left, right)
            )
            pred = pred + np.where(left_mask, left, right)
        return self

    # -- inference -----------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.full(X.shape[0], self.base_)
        for stump in self.stumps_:
            out = out + np.where(
                X[:, stump.feature] <= stump.threshold,
                stump.left,
                stump.right,
            )
        return out

    # -- (de)serialization ---------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        return {
            "rounds": self.rounds,
            "learning_rate": self.learning_rate,
            "max_bins": self.max_bins,
            "seed": self.seed,
            "base": self.base_,
            "stumps": [
                [s.feature, s.threshold, s.left, s.right]
                for s in self.stumps_
            ],
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "BoostedStumps":
        model = cls(
            rounds=int(payload["rounds"]),
            learning_rate=float(payload["learning_rate"]),
            max_bins=int(payload["max_bins"]),
            seed=int(payload["seed"]),
        )
        model.base_ = float(payload["base"])
        model.stumps_ = [
            _Stump(int(f), float(t), float(lo), float(hi))
            for f, t, lo, hi in payload["stumps"]
        ]
        return model


# ----------------------------------------------------------------------
# The persisted predictor
# ----------------------------------------------------------------------
class PredictorArtifactError(ValueError):
    """A model artifact is unreadable, corrupt, or from another schema."""


def default_predictor_path() -> Path:
    """``<sweep cache>/predictor/model-v1.json``."""
    return default_cache_dir() / "predictor" / f"model-v{ARTIFACT_VERSION}.json"


class StylePredictor:
    """A trained model plus the coverage metadata pruning decisions need."""

    def __init__(
        self,
        model: BoostedStumps,
        *,
        cells: Iterable[Tuple[str, str]],
        training: Optional[Dict[str, object]] = None,
    ):
        self.model = model
        #: (algorithm value, device name) pairs seen during training —
        #: prediction outside them is extrapolation, and the sweep/serve
        #: planes refuse to prune there.
        self.cells: Set[Tuple[str, str]] = set(cells)
        self.training: Dict[str, object] = dict(training or {})

    # -- training ------------------------------------------------------
    @classmethod
    def train(
        cls,
        ts: TrainingSet,
        *,
        seed: int = 0,
        rounds: int = 400,
        learning_rate: float = 0.1,
        max_bins: int = 32,
    ) -> "StylePredictor":
        if len(ts) == 0:
            raise ValueError("training set is empty — nothing to fit")
        model = BoostedStumps(
            rounds=rounds,
            learning_rate=learning_rate,
            max_bins=max_bins,
            seed=seed,
        ).fit(ts.X, ts.y_log_seconds)
        fit_err = np.abs(model.predict(ts.X) - ts.y_log_seconds)
        training = {
            "rows": len(ts),
            "graphs": sorted({m["graph"] for m in ts.meta}),
            "algorithms": sorted({m["algorithm"] for m in ts.meta}),
            "devices": sorted({m["device"] for m in ts.meta}),
            "sources": sorted({m["source"] for m in ts.meta}),
            "skipped": dict(sorted(ts.skipped.items())),
            "mae_log_seconds": float(fit_err.mean()),
            "p95_log_seconds": float(np.quantile(fit_err, 0.95)),
            "stumps": len(model.stumps_),
        }
        cells = {(m["algorithm"], m["device"]) for m in ts.meta}
        return cls(model, cells=cells, training=training)

    def covers(self, algorithm: Algorithm, device_name: str) -> bool:
        return (algorithm.value, device_name) in self.cells

    # -- inference -----------------------------------------------------
    def predict_seconds(
        self,
        specs: Sequence[StyleSpec],
        gfeat: Mapping[str, float],
        devices: Sequence[DeviceSpec],
    ) -> np.ndarray:
        """Predicted seconds, ``(len(specs), len(devices))``.

        NaN where a spec's programming model cannot run on the device
        (mirroring :func:`time_matrix`).
        """
        schema = _get_schema()
        out = np.full((len(specs), len(devices)), np.nan)
        for j, device in enumerate(devices):
            gpu_device = isinstance(device, GPUSpec)
            indices = [
                i for i, spec in enumerate(specs)
                if spec.model.is_gpu == gpu_device
            ]
            if not indices:
                continue
            X = schema.rows(
                [specs[i] for i in indices], gfeat, device_features(device)
            )
            out[indices, j] = np.exp(self.model.predict(X))
        return out

    def best_style(
        self,
        algorithm: Algorithm,
        model: Model,
        gfeat: Mapping[str, float],
        device: DeviceSpec,
    ) -> Tuple[StyleSpec, float]:
        """The predicted-fastest variant of one (algorithm, model) cell."""
        specs = enumerate_specs(algorithm, model)
        seconds = self.predict_seconds(specs, gfeat, [device])[:, 0]
        i = int(np.argmin(seconds))
        return specs[i], float(seconds[i])

    # -- persistence ---------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        return {
            "version": ARTIFACT_VERSION,
            "schema_version": FEATURE_SCHEMA_VERSION,
            "feature_names": list(feature_names()),
            "cells": sorted(list(c) for c in self.cells),
            "training": self.training,
            "model": self.model.to_payload(),
        }

    def save(self, path: Optional[Union[str, Path]] = None) -> Path:
        """Atomically persist the artifact (checksummed, byte-deterministic)."""
        path = Path(path) if path is not None else default_predictor_path()
        body = json.dumps(self.to_payload(), sort_keys=True).encode()
        checksum = hashlib.sha256(body).hexdigest().encode("ascii")
        path.parent.mkdir(parents=True, exist_ok=True)
        with store_lock(path.parent):
            tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
            tmp.write_bytes(_MAGIC + b" " + checksum + b"\n" + body)
            os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "StylePredictor":
        """Load an artifact; :class:`PredictorArtifactError` on any defect."""
        path = Path(path)
        try:
            blob = path.read_bytes()
        except OSError as exc:
            raise PredictorArtifactError(f"cannot read {path}: {exc}") from None
        header, sep, body = blob.partition(b"\n")
        if not sep or not header.startswith(_MAGIC + b" "):
            raise PredictorArtifactError(f"{path}: missing predictor header")
        checksum = header.split(b" ", 1)[1]
        if hashlib.sha256(body).hexdigest().encode("ascii") != checksum:
            raise PredictorArtifactError(
                f"{path}: checksum mismatch (truncated or corrupt artifact)"
            )
        try:
            payload = json.loads(body)
        except ValueError as exc:
            raise PredictorArtifactError(f"{path}: bad JSON body ({exc})") from None
        if payload.get("version") != ARTIFACT_VERSION:
            raise PredictorArtifactError(
                f"{path}: artifact version {payload.get('version')!r} != "
                f"{ARTIFACT_VERSION}"
            )
        if (
            payload.get("schema_version") != FEATURE_SCHEMA_VERSION
            or payload.get("feature_names") != list(feature_names())
        ):
            raise PredictorArtifactError(
                f"{path}: feature schema does not match this code"
            )
        try:
            model = BoostedStumps.from_payload(payload["model"])
            cells = {(a, d) for a, d in payload["cells"]}
        except (KeyError, TypeError, ValueError) as exc:
            raise PredictorArtifactError(
                f"{path}: malformed payload ({exc})"
            ) from None
        return cls(model, cells=cells, training=payload.get("training"))


def resolve_predictor(
    path: Optional[Union[str, Path]] = None,
) -> Tuple[Optional["StylePredictor"], Optional[str]]:
    """The predictor an execution path should use, or ``(None, why)``.

    Resolution mirrors the trace store: ``$REPRO_PREDICTOR=0``/empty is
    a hard kill switch; a path there overrides; ``path`` (an explicit
    caller override) wins over both defaults.  A corrupt or mismatched
    artifact is quarantined (moved to a ``quarantine/`` sibling with a
    stderr warning) and reads as unavailable — callers degrade to the
    exhaustive sweep.
    """
    env = os.environ.get(PREDICTOR_ENV)
    if env is not None and env.strip() in ("", "0"):
        return None, "disabled by $REPRO_PREDICTOR"
    if path is not None:
        resolved = Path(path)
    elif env:
        resolved = Path(env)
    else:
        resolved = default_predictor_path()
    if not resolved.exists():
        return None, f"no model artifact at {resolved}"
    try:
        return StylePredictor.load(resolved), None
    except PredictorArtifactError as exc:
        _quarantine_artifact(resolved, exc)
        return None, str(exc)


def _quarantine_artifact(path: Path, reason: Exception) -> None:
    quarantine = path.parent / "quarantine"
    dest = quarantine / path.name
    try:
        with store_lock(path.parent):
            quarantine.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
    except OSError:
        return
    print(
        f"warning: bad predictor artifact quarantined to {dest}: {reason}",
        file=sys.stderr,
    )


# ----------------------------------------------------------------------
# Predict-then-verify sweeps
# ----------------------------------------------------------------------
@dataclass
class CellPrediction:
    """Pruning outcome of one (algorithm, model, graph, device) cell."""

    algorithm: str
    model: str
    graph: str
    device: str
    n_variants: int
    n_measured: int
    n_predicted: int
    n_audited: int
    winner_style: Optional[str] = None
    winner_seconds: Optional[float] = None
    #: Smallest *predicted* (calibrated) time among the cell's unmeasured
    #: variants — when it undercuts the measured winner the model itself
    #: says the pruning may have cost the crown (``at_risk``).
    predicted_floor_unmeasured: Optional[float] = None
    at_risk: bool = False
    audit_max_rel_error: Optional[float] = None
    #: Multiplier applied to this cell's raw predictions before
    #: back-filling: the geometric median of measured/predicted over the
    #: cell's executed variants.  Prediction supplies the *ranking*;
    #: the verified measurements re-anchor the absolute scale (a model
    #: trained at tiny scale is asked about much larger inputs).
    calibration: float = 1.0


@dataclass
class PredictionSummary:
    """What a predict-then-verify sweep did and how sure it is."""

    settings: PredictSettings
    cells: List[CellPrediction] = field(default_factory=list)
    #: Distinct semantic groups in / executed by the sweep — the ratio is
    #: the kernel-execution saving on a cold trace store.
    groups_total: int = 0
    groups_executed: int = 0
    model_info: Dict[str, object] = field(default_factory=dict)

    @property
    def n_measured(self) -> int:
        return sum(cell.n_measured for cell in self.cells)

    @property
    def n_predicted(self) -> int:
        return sum(cell.n_predicted for cell in self.cells)

    @property
    def at_risk_cells(self) -> List[CellPrediction]:
        return [cell for cell in self.cells if cell.at_risk]

    def audit_max_rel_error(self) -> Optional[float]:
        errors = [
            cell.audit_max_rel_error
            for cell in self.cells
            if cell.audit_max_rel_error is not None
        ]
        return max(errors) if errors else None

    def render(self) -> str:
        """Human-readable pruning report (for stderr after a sweep)."""
        lines = [
            "predict-then-verify: "
            f"{self.groups_executed}/{self.groups_total} semantic groups "
            f"executed, {self.n_measured} variants measured, "
            f"{self.n_predicted} back-filled with predictions"
        ]
        audit = self.audit_max_rel_error()
        if audit is not None:
            lines.append(f"  audit max relative error: {audit:.1%}")
        risky = self.at_risk_cells
        if risky:
            lines.append(
                f"  at-risk cells (predicted floor under measured winner): "
                f"{len(risky)}"
            )
            for cell in risky[:10]:
                lines.append(
                    f"    {cell.algorithm}/{cell.model} x {cell.graph} "
                    f"on {cell.device}"
                )
        else:
            lines.append("  at-risk cells: none")
        return "\n".join(lines)


def _cell_audit_rng(
    settings: PredictSettings,
    algorithm: Algorithm,
    graph_name: str,
    model: Model,
    device_name: str,
) -> np.random.Generator:
    digest = hashlib.sha256(
        f"{settings.audit_seed}|{algorithm.value}|{graph_name}|"
        f"{model.value}|{device_name}".encode()
    ).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "big"))


def predicted_block_runs(
    launcher: Launcher,
    algorithm: Algorithm,
    graph: CSRGraph,
    graph_label: str,
    config: SweepConfig,
    predictor: StylePredictor,
    failures: List[FailedRun],
    summary: PredictionSummary,
) -> Iterator[RunResult]:
    """Plan, execute, back-fill, and account one (algorithm, graph) block
    of the predict-then-verify sweep ``config.predict`` describes.

    Per cell, ``predictor`` ranks all variants; the top-k and a seeded
    audit sample execute for real (sharing semantic traces across models
    and devices exactly like the exhaustive path), everything else is
    back-filled as a ``predicted`` run.  Cells the model never trained on
    select every variant (``max_groups`` still cuts them).  Failures
    (variant failures and at-risk cells) are appended to ``failures``;
    cell statistics and semantic group counts to ``summary``.

    Runs, cell statistics and failures name the graph ``graph_label``, the
    key the caller's ``graphs`` mapping holds it under; the audit sample
    is seeded by ``graph.name``, so the key changes only the labels.
    """
    settings = config.predict
    gfeat = analyze(graph).features()
    per_model_specs = {
        model: enumerate_specs(algorithm, model) for model in config.models
    }
    # -- plan: per-cell variant selection ------------------------------
    plans = []  # (model, devices, specs, P, per-device (chosen, audit))
    for model, specs in per_model_specs.items():
        devices = config.devices_for(model)
        pred_matrix = predictor.predict_seconds(specs, gfeat, devices)
        cells = []
        for j, device in enumerate(devices):
            if not predictor.covers(algorithm, device.name):
                # Untrained cell: no pruning, execute everything.
                cells.append((np.arange(len(specs)), np.zeros(0, dtype=int)))
                continue
            order = np.argsort(pred_matrix[:, j], kind="stable")
            chosen = order[: max(settings.top_k, 1)]
            pool = order[max(settings.top_k, 1):]
            n_audit = 0
            if settings.audit_frac > 0 and pool.size:
                n_audit = min(
                    pool.size,
                    int(math.ceil(settings.audit_frac * pool.size)),
                )
            rng = _cell_audit_rng(
                settings, algorithm, graph.name, model, device.name
            )
            audit = (
                np.sort(rng.choice(pool, size=n_audit, replace=False))
                if n_audit
                else np.zeros(0, dtype=int)
            )
            cells.append((chosen, audit))
        plans.append((model, devices, specs, pred_matrix, cells))
    # -- union the selections into an ordered semantic-group list ------
    # Kernel cost is per semantic group (shared across models and
    # devices), so selection priority interleaves cells by rank: every
    # cell's best pick enters before any cell's second pick, and audit
    # groups come after all ranked picks.  ``max_groups`` truncates this
    # list — a deterministic hard budget on block kernel executions.
    ordered_keys: List[SemanticKey] = []
    seen: Set[SemanticKey] = set()
    max_rank = max(
        (len(chosen) for _, _, _, _, cells in plans for chosen, _ in cells),
        default=0,
    )
    for rank in range(max_rank):
        for model, devices, specs, _, cells in plans:
            for chosen, _ in cells:
                if rank < len(chosen):
                    key = specs[int(chosen[rank])].semantic_key()
                    if key not in seen:
                        seen.add(key)
                        ordered_keys.append(key)
    for model, devices, specs, _, cells in plans:
        for _, audit in cells:
            for i in audit:
                key = specs[int(i)].semantic_key()
                if key not in seen:
                    seen.add(key)
                    ordered_keys.append(key)
    if settings.max_groups is not None:
        ordered_keys = ordered_keys[: settings.max_groups]
    executed_keys = set(ordered_keys)
    all_keys = {
        spec.semantic_key()
        for _, _, specs, _, _ in plans
        for spec in specs
    }
    summary.groups_total += len(all_keys)
    summary.groups_executed += len(executed_keys & all_keys)
    # -- execute the selected groups, back-fill the rest ---------------
    for model, devices, specs, pred_matrix, cells in plans:
        exec_index_set = {
            i for i, spec in enumerate(specs)
            if spec.semantic_key() in executed_keys
        }
        exec_specs = [specs[i] for i in sorted(exec_index_set)]
        measured: Dict[Tuple[StyleSpec, str], RunResult] = {}
        for run in sweep_block_runs(
            launcher, exec_specs, graph, devices, failures=failures,
            graph_label=graph_label,
        ):
            measured[(run.spec, run.device)] = run
        audited_by_device = {
            devices[j].name: {int(i) for i in cells[j][1]}
            for j in range(len(devices))
        }
        # Per-cell calibration: the measured runs re-anchor the model's
        # absolute scale (geometric median of measured/predicted), so
        # back-filled times are comparable to the measured ones even when
        # the model extrapolates across input scales.  Ranking within the
        # cell is unchanged — a positive multiplier preserves order.
        calibration: Dict[str, float] = {}
        for j, device in enumerate(devices):
            log_ratios = [
                math.log(run.seconds / pred_matrix[i, j])
                for i in sorted(exec_index_set)
                for run in (measured.get((specs[i], device.name)),)
                if run is not None and np.isfinite(pred_matrix[i, j])
                and pred_matrix[i, j] > 0
            ]
            calibration[device.name] = (
                math.exp(float(np.median(log_ratios))) if log_ratios else 1.0
            )
        # Canonical `for spec: for device` emission order, like the
        # exhaustive path.
        cell_stats = {
            device.name: CellPrediction(
                algorithm=algorithm.value,
                model=model.value,
                graph=graph_label,
                device=device.name,
                n_variants=len(specs),
                n_measured=0,
                n_predicted=0,
                n_audited=0,
                calibration=calibration[device.name],
            )
            for device in devices
        }
        for i, spec in enumerate(specs):
            for j, device in enumerate(devices):
                stats = cell_stats[device.name]
                run = measured.get((spec, device.name))
                if run is not None:
                    stats.n_measured += 1
                    if stats.winner_seconds is None or (
                        run.seconds < stats.winner_seconds
                    ):
                        stats.winner_seconds = run.seconds
                        stats.winner_style = spec.label()
                    if i in audited_by_device[device.name]:
                        stats.n_audited += 1
                    yield run
                    continue
                if i in exec_index_set:
                    # Selected for execution but produced no run — the
                    # failure manifest records why; no back-fill.
                    continue
                seconds = float(pred_matrix[i, j]) * calibration[device.name]
                stats.n_predicted += 1
                if stats.predicted_floor_unmeasured is None or (
                    seconds < stats.predicted_floor_unmeasured
                ):
                    stats.predicted_floor_unmeasured = seconds
                yield RunResult(
                    spec=spec,
                    device=device.name,
                    graph=graph_label,
                    seconds=seconds,
                    throughput_ges=graph.n_edges / seconds / 1e9,
                    verified=False,
                    iterations=0,
                    launches=0,
                    predicted=True,
                )
        # -- per-cell audit error and regret-risk accounting -----------
        for j, device in enumerate(devices):
            stats = cell_stats[device.name]
            errors = []
            for i in audited_by_device[device.name]:
                run = measured.get((specs[i], device.name))
                if run is None:
                    continue
                predicted = pred_matrix[i, j] * calibration[device.name]
                if np.isfinite(predicted) and run.seconds > 0:
                    errors.append(
                        abs(run.seconds - predicted) / run.seconds
                    )
            if errors:
                stats.audit_max_rel_error = float(max(errors))
            if (
                stats.winner_seconds is not None
                and stats.predicted_floor_unmeasured is not None
                and stats.predicted_floor_unmeasured < stats.winner_seconds
            ):
                stats.at_risk = True
                message = (
                    "pruned variant predicted faster "
                    f"({stats.predicted_floor_unmeasured:.3e}s) than the "
                    f"measured winner {stats.winner_style} "
                    f"({stats.winner_seconds:.3e}s); re-run without "
                    "--predict to confirm the cell"
                )
                failures.append(
                    FailedRun(
                        algorithm=algorithm.value,
                        graph=graph_label,
                        error_class=ErrorClass.VERIFICATION,
                        message=message,
                        digest=error_digest(ErrorClass.VERIFICATION, message),
                        stage="prediction",
                        model=model.value,
                        device=device.name,
                    )
                )
            summary.cells.append(stats)
