"""Frozen predict-then-verify sweep loop.

This is the original serial pruned sweep of
:func:`repro.bench.predictor.run_sweep_predicted` and its block planner
``_predicted_block`` — one :class:`Launcher` for the whole sweep, the
(algorithm, graph) blocks in order, graph features memoized by
fingerprint, the exhaustive fallback when no artifact is usable — kept
verbatim as a test oracle.  The package runs every pruned sweep through
:func:`repro.bench.parallel.run_block_outcome`, serial or not; the
identity tests check that its runs, failures, kernel executions and
:class:`PredictionSummary` equal this loop's at every worker count.  Do
not edit the bodies: they pin the pruned sweep's results.

The only changes from the original are the imports and the exhaustive
fallback, which calls the frozen serial loop of :mod:`sweep_oracle`
instead of the package's ``run_sweep``.
"""

import hashlib
import math
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.bench.harness import (
    PredictSettings,
    StudyResults,
    SweepConfig,
    sweep_block_runs,
)
from repro.bench.predictor import (
    CellPrediction,
    PredictionSummary,
    StylePredictor,
    resolve_predictor,
)
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_all
from repro.graph.properties import analyze
from repro.runtime.errors import ErrorClass, FailedRun, error_digest
from repro.runtime.launcher import Launcher, RunResult
from repro.styles.axes import Algorithm, Model
from repro.styles.combos import enumerate_specs
from repro.styles.spec import SemanticKey, StyleSpec

from . import sweep_oracle


def _props_features(graph: CSRGraph, memo: Dict[str, Mapping[str, float]]):
    feats = memo.get(graph.fingerprint())
    if feats is None:
        feats = analyze(graph).features()
        memo[graph.fingerprint()] = feats
    return feats


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


def run_sweep_predicted(
    config: SweepConfig,
    *,
    graphs: Optional[Dict[str, CSRGraph]] = None,
    predictor: Optional[StylePredictor] = None,
) -> StudyResults:
    """Run ``config`` as a predict-then-verify sweep.

    Per cell, the predictor ranks all variants; the top-k and a seeded
    audit sample execute for real (sharing semantic traces across models
    and devices exactly like the exhaustive path), everything else is
    back-filled as a ``predicted`` run.  Cells the model never trained on
    — and the whole sweep when no usable artifact exists — fall back to
    exhaustive execution, with a manifest entry explaining why.
    """
    settings = config.predict
    if settings is None:
        raise ValueError("run_sweep_predicted needs SweepConfig.predict set")
    if graphs is None:
        graphs = load_all(config.scale, names=config.graphs)
    if predictor is None:
        predictor, reason = resolve_predictor(settings.model_path)
        if predictor is None:
            # No usable model: degrade to the exhaustive sweep, visibly.
            message = f"predictor unavailable ({reason}); ran exhaustively"
            results = sweep_oracle.run_sweep(
                replace(config, predict=None), graphs=graphs
            )
            results.failures.insert(
                0,
                FailedRun(
                    algorithm="*",
                    graph="*",
                    error_class=ErrorClass.CHECKPOINT,
                    message=message,
                    digest=error_digest(ErrorClass.CHECKPOINT, message),
                    stage="predictor",
                ),
            )
            summary = PredictionSummary(settings=settings)
            summary.model_info = {"available": False, "reason": reason}
            results.prediction = summary
            return results
    launcher = Launcher(
        verify=config.verify,
        budget=config.budget(),
        trace_store=config.trace_store(),
    )
    results = StudyResults(graphs=dict(graphs))
    summary = PredictionSummary(settings=settings)
    summary.model_info = {"available": True, **predictor.training}
    feature_memo: Dict[str, Mapping[str, float]] = {}
    for algorithm in config.algorithms:
        per_model_specs = {
            model: enumerate_specs(algorithm, model) for model in config.models
        }
        for graph_key, graph in graphs.items():
            gfeat = _props_features(graph, feature_memo)
            for run in _predicted_block(
                launcher, algorithm, per_model_specs, graph, graph_key, gfeat,
                config, settings, predictor, results.failures, summary,
            ):
                results.add(run)
            launcher.release(graph, algorithm)
    results.kernel_executions = launcher.kernel_executions
    results.prediction = summary
    return results


def _predicted_block(
    launcher: Launcher,
    algorithm: Algorithm,
    per_model_specs: Dict[Model, List[StyleSpec]],
    graph: CSRGraph,
    graph_label: str,
    gfeat: Mapping[str, float],
    config: SweepConfig,
    settings: PredictSettings,
    predictor: StylePredictor,
    failures: List[FailedRun],
    summary: PredictionSummary,
):
    """Plan, execute, back-fill, and account one (algorithm, graph) block.

    Runs, cell statistics and failures name the graph ``graph_label``, the
    key the caller's ``graphs`` mapping holds it under; the audit sample
    is seeded by ``graph.name``, so the key changes only the labels.
    """
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
