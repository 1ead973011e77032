"""Performance smoke: trace store, vectorized timing, predictor pruning.

Three gated measurements, each written as JSON at the repository root so
the performance trajectory is tracked across PRs:

**Trace store** (``BENCH_tracestore.json``).  One small-but-real sweep
three times against a fresh store:

1. **cold** — empty store; every semantic kernel executes and is saved;
2. **warm** — identical sweep; every semantic trace must come from the
   store (zero kernel executions), the results must be *bit-identical*
   to the cold run, and the wall-clock speedup must clear a floor;
3. **new device** — the same sweep with a second GPU added; mapping
   variants of the new device re-time from the stored traces, so this
   too must execute zero kernels, and its wall time over the cold
   sweep's (``new_device_ratio``) must stay at or below
   ``MAX_NEW_DEVICE_RATIO`` — a ratio, so it holds on noisy runners.

The store's size after the three sweeps (``store_bytes``, a count) must
stay at or below ``MAX_STORE_BYTES``, so a format change cannot grow it
unnoticed.

**Vectorized matrix timing** (``BENCH_matrix.json``).  The warm
sweep-block workload (PR x soc-LiveJournal1 at tiny scale, all models
and devices) timed under the per-spec scalar loop — the frozen
per-launch walk of ``tests/machine/scalar_oracle.py``, one call per
(spec, device) cell — and under the vectorized ``Launcher.run_matrix``
path; the vectorized path must be bit-identical and beat the scalar loop
by at least ``--min-matrix-speedup``.  A warm tiny full sweep must time
each (algorithm, graph) block with at most one
``time_trace_batch`` call per device — a count, so a return to
per-trace timing fails on any runner.  Rendering every table, figure
and guideline over that sweep must build the results' column view once,
call ``StyleSpec.with_axis`` never and build each baseline trace once
per (model, algorithm, graph) — counts again.  A worker-scaling curve of the parallel sweep
(``--scaling-workers``) is recorded alongside, ungated — CI runners have
too few cores for a meaningful gate.

**Predict-then-verify pruning** (``BENCH_advisor.json``).  The style
predictor is trained on a tiny-scale SSSP sweep, then the gate workload
(default-scale SSSP x USA-road-d.NY, CUDA) runs cold both exhaustively
and pruned; the pruned sweep must execute at least
``--min-kernel-reduction`` times fewer kernels while reporting the
identical, *measured* per-cell winners (zero regret).

Exit code 0 means every guarantee held.

Usage::

    python tools/perf_smoke.py [--json PATH] [--matrix-json PATH]
        [--advisor-json PATH] [--min-speedup X] [--min-matrix-speedup X]
        [--min-kernel-reduction X] [--keep]
"""

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(1, str(REPO_ROOT))  # the scalar oracle under tests/

DEFAULT_JSON = REPO_ROOT / "BENCH_tracestore.json"
DEFAULT_MATRIX_JSON = REPO_ROOT / "BENCH_matrix.json"
DEFAULT_ADVISOR_JSON = REPO_ROOT / "BENCH_advisor.json"

#: Warm must beat cold by at least this factor (the store's entire point
#: is skipping kernel execution, the sweep's dominant cost).
DEFAULT_MIN_SPEEDUP = 3.0

#: A sweep that only adds a device re-times stored traces; it must take
#: at most this fraction of the cold sweep's wall time.
MAX_NEW_DEVICE_RATIO = 0.25

#: Ceiling on the bytes of the 34-entry store this smoke leaves behind:
#: the 4,253,205 recorded in the narrow-``inner`` (``repro-trace-v3``)
#: entry format at deflate level 1, plus about 18% headroom for zlib
#: builds that deflate differently.  Int32 ``inner`` arrays (10.66 MB in
#: ``repro-trace-v2``) cannot pass it.
MAX_STORE_BYTES = 5_000_000

#: The vectorized matrix path must beat the per-spec scalar loop by at
#: least this factor on the warm sweep-block workload.
DEFAULT_MIN_MATRIX_SPEEDUP = 3.0

#: Interleaved min-of-rounds for the matrix timing comparison.
MATRIX_ROUNDS = 7

#: A cold predict-then-verify sweep must execute at least this many
#: times fewer kernels than the exhaustive cold sweep — with the same
#: per-cell winners (Table-6 answers must not move).
DEFAULT_MIN_KERNEL_REDUCTION = 5.0

#: Boosting rounds for the smoke's predictor (300 generalizes from the
#: tiny-scale training sweep to the default-scale gate workload; more
#: overfits the tiny graphs).
ADVISOR_ROUNDS = 300

#: The previous PR's recorded batched timing of this exact workload
#: (BENCH_sweep.json before the vectorized matrix path) — reported for
#: trajectory context, not gated (it is machine-specific).
RECORDED_BATCHED_SECONDS = 0.026511


def sweep_batch_calls() -> dict:
    """Count the timing models' batch calls of a warm tiny full sweep.

    A cold sweep fills a temporary trace store (``$REPRO_TRACE_CACHE``
    points there for both sweeps); the warm sweep that follows runs with
    ``GPUModel``/``CPUModel.time_trace_batch`` wrapped to count calls and
    cells.
    """
    import shutil

    from repro.bench import SweepConfig, run_sweep
    from repro.bench.tracestore import TRACE_CACHE_ENV
    from repro.machine import CPUModel, GPUModel

    config = SweepConfig(scale="tiny")
    tmp = tempfile.mkdtemp(prefix="repro-batch-calls-")
    previous = os.environ.get(TRACE_CACHE_ENV)
    cells = []

    def counting(real):
        def time_trace_batch(model, block, batch):
            cells.append(len(batch))
            return real(model, block, batch)
        return time_trace_batch

    originals = {cls: cls.time_trace_batch for cls in (GPUModel, CPUModel)}
    os.environ[TRACE_CACHE_ENV] = tmp
    try:
        run_sweep(config)
        for cls, real in originals.items():
            cls.time_trace_batch = counting(real)
        warm = run_sweep(config)
    finally:
        for cls, real in originals.items():
            cls.time_trace_batch = real
        if previous is None:
            os.environ.pop(TRACE_CACHE_ENV, None)
        else:
            os.environ[TRACE_CACHE_ENV] = previous
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "blocks": len(config.algorithms) * len(warm.graphs),
        "devices": len(config.gpu_names) + len(config.cpu_names),
        "batch_calls": len(cells),
        "cells_timed": sum(cells),
        "runs": len(warm.runs),
        "kernel_executions": warm.kernel_executions,
    }, warm


def render_all(results) -> None:
    """Every table, figure and guideline that reads a sweep, as
    ``repro table``/``repro figure``/``repro guidelines`` render them."""
    from repro.bench import guidelines, report
    from repro.graph.properties import analyze
    from repro.styles import Dup, Model

    props = {name: analyze(g) for name, g in results.graphs.items()}
    report.render_table4(props)
    report.render_table5(props)
    report.render_table6(results)
    for figure in report.FIGURE_AXES:
        report.render_ratio_figure(results, figure)
    for dup in Dup:
        for model in Model:
            report.render_driver_figure(results, dup, model)
    for axis, models in (
        ("granularity", [Model.CUDA]),
        ("gpu_reduction", [Model.CUDA]),
        ("cpu_reduction", [Model.OPENMP, Model.CPP_THREADS]),
    ):
        report.render_throughput_figure(results, axis, title=axis, models=models)
    report.render_figure14(results)
    report.render_figure15(results)
    report.render_correlations(results)
    report.render_figure16(results)
    guidelines.derive_guidelines(results)


def report_counts(results) -> dict:
    """Count the report's costly steps while rendering everything.

    Wraps ``StyleSpec.with_axis`` (the per-run partner search the column
    view replaced), ``StudyColumns`` construction and the baseline trace
    builds of Table 6 and Figure 16, keyed by (model, algorithm, graph).
    """
    from collections import Counter

    from repro.bench import comparison, harness
    from repro.styles import StyleSpec

    counts = Counter()
    baselines = Counter()
    real_with_axis = StyleSpec.with_axis
    real_init = harness.StudyColumns.__init__
    real_baseline = comparison.baseline_trace

    def with_axis(self, **changes):
        counts["with_axis"] += 1
        return real_with_axis(self, **changes)

    def init(self, runs):
        counts["view_builds"] += 1
        real_init(self, runs)

    def baseline_trace(algorithm, graph, model, source=0):
        baselines[(model, algorithm, graph.name)] += 1
        return real_baseline(algorithm, graph, model, source)

    StyleSpec.with_axis = with_axis
    harness.StudyColumns.__init__ = init
    comparison.baseline_trace = baseline_trace
    try:
        render_all(results)
    finally:
        StyleSpec.with_axis = real_with_axis
        harness.StudyColumns.__init__ = real_init
        comparison.baseline_trace = real_baseline
    return {
        "with_axis_calls": counts["with_axis"],
        "view_builds": counts["view_builds"],
        "baseline_traces": sum(baselines.values()),
        "baseline_instances": len(baselines),
        "max_builds_per_baseline": max(baselines.values(), default=0),
    }


def matrix_smoke(args) -> tuple:
    """Time per-spec vs vectorized-matrix on the warm block workload."""
    from repro.bench import SweepConfig, run_sweep_parallel
    from repro.graph import load_dataset
    from repro.runtime import Launcher, RunResult
    from repro.styles import Algorithm, enumerate_specs
    from tests.machine import scalar_oracle

    config = SweepConfig(scale="tiny", algorithms=(Algorithm.PR,))
    graph = load_dataset("soc-LiveJournal1", "tiny")
    # Store off: the workload is warm in-memory re-timing, and the smoke's
    # temporary store directory is already gone by the time we run.
    launcher = Launcher(trace_store=False)
    work = [
        (enumerate_specs(Algorithm.PR, model), config.devices_for(model))
        for model in config.models
    ]

    def per_spec():
        runs = []
        for specs, devices in work:
            for spec in specs:
                trace = launcher.execute_semantic(spec, graph).trace
                for device in devices:
                    seconds = scalar_oracle.time_trace(trace, spec, device)
                    runs.append(RunResult(
                        spec=spec,
                        device=device.name,
                        graph=graph.name,
                        seconds=seconds,
                        throughput_ges=graph.n_edges / seconds / 1e9,
                        verified=launcher.verify,
                        iterations=trace.iterations,
                        launches=trace.n_launches,
                    ))
        return runs

    def vectorized():
        runs = []
        for specs, devices in work:
            per_device = launcher.run_matrix(specs, graph, devices)
            for i in range(len(specs)):
                runs.extend(
                    batch[i] for batch in per_device if batch[i] is not None
                )
        return runs

    print("perf smoke: vectorized matrix vs per-spec timing ...", flush=True)
    scalar_runs = per_spec()  # also warms every cache both paths share
    matrix_runs = vectorized()
    bit_identical = matrix_runs == scalar_runs

    scalar_s = matrix_s = float("inf")
    for _ in range(MATRIX_ROUNDS):  # interleaved: drift hits both alike
        start = time.perf_counter()
        per_spec()
        scalar_s = min(scalar_s, time.perf_counter() - start)
        start = time.perf_counter()
        vectorized()
        matrix_s = min(matrix_s, time.perf_counter() - start)
    speedup = scalar_s / matrix_s
    print(f"  per-spec {scalar_s:.4f}s, matrix {matrix_s:.4f}s, "
          f"speedup {speedup:.2f}x", flush=True)

    print("perf smoke: batch calls of a warm tiny full sweep ...", flush=True)
    calls, warm = sweep_batch_calls()
    max_calls = calls["blocks"] * calls["devices"]
    print(f"  {calls['batch_calls']} calls for {calls['blocks']} blocks x "
          f"{calls['devices']} devices, {calls['cells_timed']} cells",
          flush=True)

    print("perf smoke: report counts over the warm tiny sweep ...", flush=True)
    rendered = report_counts(warm)
    print(f"  {rendered['with_axis_calls']} with_axis calls, "
          f"{rendered['view_builds']} view build(s), "
          f"{rendered['baseline_traces']} baseline traces for "
          f"{rendered['baseline_instances']} (model, algorithm, graph)",
          flush=True)

    print("perf smoke: parallel-sweep worker-scaling curve ...", flush=True)
    scaling_config = SweepConfig(
        scale="tiny",
        algorithms=(Algorithm.BFS, Algorithm.PR),
        graphs=("USA-road-d.NY", "soc-LiveJournal1"),
        trace_cache=False,
    )
    curve = []
    cpu_count = os.cpu_count() or 1
    skipped_oversubscribed = []
    for workers in args.scaling_workers:
        if cpu_count == 1 and workers > 1:
            # A one-core runner cannot scale: multi-worker points there
            # measure process oversubscription, not the scheduler.  Record
            # that they were skipped instead of publishing misleading
            # numbers.
            skipped_oversubscribed.append(workers)
            continue
        start = time.perf_counter()
        results = run_sweep_parallel(scaling_config, workers=workers)
        seconds = time.perf_counter() - start
        curve.append({"workers": workers, "seconds": round(seconds, 3)})
        print(f"  workers={workers}: {seconds:.2f}s "
              f"({len(results.runs)} runs)", flush=True)
    if skipped_oversubscribed:
        print(f"  cpu_count={cpu_count}: skipped oversubscribed worker "
              f"counts {skipped_oversubscribed}", flush=True)

    failures = []
    if not bit_identical:
        failures.append("matrix runs are not bit-identical to per-spec runs")
    if speedup < args.min_matrix_speedup:
        failures.append(
            f"vectorized matrix speedup {speedup:.2f}x is below the "
            f"{args.min_matrix_speedup:g}x floor"
        )
    if calls["batch_calls"] > max_calls:
        failures.append(
            f"warm tiny sweep made {calls['batch_calls']} batch calls "
            f"(ceiling: one per block and device, {max_calls})"
        )
    if calls["kernel_executions"] or calls["cells_timed"] != calls["runs"]:
        failures.append(
            f"warm tiny sweep ran {calls['kernel_executions']} kernels and "
            f"timed {calls['cells_timed']} cells for {calls['runs']} runs"
        )

    if rendered["with_axis_calls"] or rendered["view_builds"] != 1:
        failures.append(
            f"rendering the report made {rendered['with_axis_calls']} "
            f"with_axis calls and {rendered['view_builds']} view builds "
            "(expected 0 and 1)"
        )
    if rendered["max_builds_per_baseline"] != 1:
        failures.append(
            f"a baseline trace was built {rendered['max_builds_per_baseline']}"
            " times (expected once per model, algorithm and graph)"
        )

    payload = {
        "benchmark": "warm sweep-block PR x soc-LiveJournal1 (tiny), "
                     "all models/devices: per-spec vs vectorized matrix",
        "runs_per_block": len(matrix_runs),
        "rounds": MATRIX_ROUNDS,
        "per_spec_seconds": round(scalar_s, 6),
        "matrix_seconds": round(matrix_s, 6),
        "matrix_speedup": round(speedup, 3),
        "recorded_batched_seconds": RECORDED_BATCHED_SECONDS,
        "speedup_vs_recorded_batched": round(
            RECORDED_BATCHED_SECONDS / matrix_s, 3
        ),
        "bit_identical": bit_identical,
        "warm_tiny_sweep": {**calls, "max_batch_calls": max_calls},
        "warm_tiny_report": rendered,
        "worker_scaling": {
            "config": "BFS+PR x 2 graphs (tiny), trace cache off",
            "cpu_count": cpu_count,
            "skipped_oversubscribed": skipped_oversubscribed,
            "curve": curve,
        },
    }
    args.matrix_json.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.matrix_json}", flush=True)
    return failures, speedup


def advisor_smoke(args) -> list:
    """Gate the predict-then-verify sweep: far fewer kernels, same winners.

    Trains the style predictor on a tiny-scale SSSP sweep, then runs the
    gate workload (default-scale SSSP x USA-road-d.NY, CUDA on the
    RTX 3090) twice against fresh trace stores: exhaustively and pruned
    (``top_k=8, audit_frac=0.02, max_groups=6``).  The pruned sweep must
    execute at least ``--min-kernel-reduction`` times fewer kernels, and
    its reported winner must be the exhaustive winner, *measured* (regret
    zero) — pruning may never change the paper's answers.
    """
    import shutil
    from dataclasses import replace

    from repro.bench import (
        PredictSettings,
        StylePredictor,
        SweepConfig,
        mine_results,
        run_sweep,
    )
    from repro.styles import Algorithm, Model

    print("perf smoke: predict-then-verify advisor gate ...", flush=True)
    tmp = tempfile.mkdtemp(prefix="repro-advisor-smoke-")
    saved_env = os.environ.get("REPRO_TRACE_CACHE")
    try:
        os.environ["REPRO_TRACE_CACHE"] = os.path.join(tmp, "train-traces")
        start = time.perf_counter()
        train_results = run_sweep(
            SweepConfig(scale="tiny", algorithms=(Algorithm.SSSP,))
        )
        ts = mine_results(train_results)
        predictor = StylePredictor.train(ts, seed=0, rounds=ADVISOR_ROUNDS)
        artifact = predictor.save(os.path.join(tmp, "model.json"))
        train_seconds = time.perf_counter() - start
        print(f"  trained on {len(ts)} tiny-scale rows in "
              f"{train_seconds:.2f}s", flush=True)

        gate = SweepConfig(
            scale="default",
            algorithms=(Algorithm.SSSP,),
            models=(Model.CUDA,),
            graphs=("USA-road-d.NY",),
            gpu_names=("RTX 3090",),
        )
        os.environ["REPRO_TRACE_CACHE"] = os.path.join(tmp, "cold-traces")
        start = time.perf_counter()
        exhaustive = run_sweep(gate)
        exhaustive_seconds = time.perf_counter() - start
        print(f"  exhaustive cold: {exhaustive.kernel_executions} kernels, "
              f"{len(exhaustive.runs)} runs, {exhaustive_seconds:.2f}s",
              flush=True)

        os.environ["REPRO_TRACE_CACHE"] = os.path.join(tmp, "pruned-traces")
        pruned_cfg = replace(
            gate,
            predict=PredictSettings(
                top_k=8, audit_frac=0.02, max_groups=6,
                model_path=str(artifact),
            ),
        )
        start = time.perf_counter()
        pruned = run_sweep(pruned_cfg)
        pruned_seconds = time.perf_counter() - start
        n_predicted = sum(run.predicted for run in pruned.runs)
        print(f"  pruned cold:     {pruned.kernel_executions} kernels, "
              f"{len(pruned.runs)} runs ({n_predicted} back-filled), "
              f"{pruned_seconds:.2f}s", flush=True)
    finally:
        if saved_env is None:
            os.environ.pop("REPRO_TRACE_CACHE", None)
        else:
            os.environ["REPRO_TRACE_CACHE"] = saved_env
        shutil.rmtree(tmp, ignore_errors=True)

    def winners(results):
        best = {}
        for run in results.runs:
            key = (run.spec.model.value, run.device)
            if key not in best or run.seconds < best[key].seconds:
                best[key] = run
        return best

    exhaustive_best = winners(exhaustive)
    pruned_best = winners(pruned)
    reduction = (
        exhaustive.kernel_executions / pruned.kernel_executions
        if pruned.kernel_executions
        else float("inf")
    )
    regressions = []
    regret = 0.0
    for key, ex_run in sorted(exhaustive_best.items()):
        pr_run = pruned_best.get(key)
        cell = f"{key[0]} on {key[1]}"
        if pr_run is None:
            regressions.append(f"{cell}: missing from the pruned sweep")
            continue
        if pr_run.predicted:
            regressions.append(
                f"{cell}: winner {pr_run.spec.label()} is a back-filled "
                "prediction, not a measurement"
            )
            continue
        if pr_run.spec.label() != ex_run.spec.label():
            regressions.append(
                f"{cell}: winner changed {ex_run.spec.label()} -> "
                f"{pr_run.spec.label()}"
            )
        regret = max(regret, pr_run.seconds / ex_run.seconds - 1.0)

    summary = pruned.prediction
    audit_err = summary.audit_max_rel_error() if summary else None
    failures = []
    if reduction < args.min_kernel_reduction:
        failures.append(
            f"pruned sweep ran {pruned.kernel_executions} kernels vs "
            f"{exhaustive.kernel_executions} exhaustive ({reduction:.2f}x, "
            f"floor {args.min_kernel_reduction:g}x)"
        )
    failures.extend(f"winner regression: {r}" for r in regressions)
    if regret > 0:
        failures.append(f"winner regret {regret:.4%} (must be 0)")
    if len(pruned.runs) != len(exhaustive.runs):
        failures.append(
            f"pruned sweep reported {len(pruned.runs)} runs vs "
            f"{len(exhaustive.runs)} exhaustive (back-fill incomplete)"
        )

    payload = {
        "benchmark": "predict-then-verify vs exhaustive cold sweep: "
                     "SSSP x USA-road-d.NY (default scale), CUDA on "
                     "RTX 3090; predictor trained on a tiny-scale "
                     "SSSP sweep",
        "training_rows": len(ts),
        "training_rounds": ADVISOR_ROUNDS,
        "training_seconds": round(train_seconds, 3),
        "exhaustive_kernel_executions": exhaustive.kernel_executions,
        "exhaustive_seconds": round(exhaustive_seconds, 3),
        "pruned_kernel_executions": pruned.kernel_executions,
        "pruned_seconds": round(pruned_seconds, 3),
        "kernel_reduction": round(reduction, 3),
        "runs": len(exhaustive.runs),
        "predicted_runs": n_predicted,
        "winner_regressions": regressions,
        "winner_regret": regret,
        "audit_max_rel_error": audit_err,
        "at_risk_cells": len(summary.at_risk_cells) if summary else None,
    }
    args.advisor_json.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"  kernel reduction {reduction:.2f}x, winner regret "
          f"{regret:.4%}, {len(regressions)} regressions", flush=True)
    print(f"wrote {args.advisor_json}", flush=True)
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", type=Path, default=DEFAULT_JSON,
                        help=f"output JSON path (default: {DEFAULT_JSON})")
    parser.add_argument("--matrix-json", type=Path,
                        default=DEFAULT_MATRIX_JSON,
                        help="matrix benchmark output JSON path "
                             f"(default: {DEFAULT_MATRIX_JSON})")
    parser.add_argument("--advisor-json", type=Path,
                        default=DEFAULT_ADVISOR_JSON,
                        help="advisor benchmark output JSON path "
                             f"(default: {DEFAULT_ADVISOR_JSON})")
    parser.add_argument("--min-kernel-reduction", type=float,
                        default=DEFAULT_MIN_KERNEL_REDUCTION,
                        help="required exhaustive/pruned kernel-execution "
                             "ratio of the predict-then-verify gate "
                             f"(default: {DEFAULT_MIN_KERNEL_REDUCTION})")
    parser.add_argument("--min-speedup", type=float,
                        default=DEFAULT_MIN_SPEEDUP,
                        help="required cold/warm wall-clock ratio "
                             f"(default: {DEFAULT_MIN_SPEEDUP})")
    parser.add_argument("--min-matrix-speedup", type=float,
                        default=DEFAULT_MIN_MATRIX_SPEEDUP,
                        help="required per-spec/vectorized-matrix ratio "
                             f"(default: {DEFAULT_MIN_MATRIX_SPEEDUP})")
    parser.add_argument("--scaling-workers", type=int, nargs="+",
                        default=[1, 2, 4, 8, 16], metavar="N",
                        help="worker counts of the recorded (ungated) "
                             "parallel-sweep scaling curve")
    parser.add_argument("--keep", action="store_true",
                        help="keep the temporary trace store for inspection")
    args = parser.parse_args(argv)

    # A fresh store in a tempdir: the smoke must measure this process's
    # cold/warm transition, not whatever ~/.cache already holds.
    tmp = tempfile.mkdtemp(prefix="repro-perf-smoke-")
    trace_dir = os.path.join(tmp, "traces")
    os.environ["REPRO_TRACE_CACHE"] = trace_dir

    from repro.bench import SweepConfig, TraceStore, run_sweep_parallel
    from repro.styles import Algorithm, Model

    config = SweepConfig(
        scale="default",
        algorithms=(Algorithm.SSSP,),
        models=(Model.CUDA,),
        graphs=("USA-road-d.NY",),
        gpu_names=("RTX 3090",),
    )

    def sweep(cfg):
        start = time.perf_counter()
        results = run_sweep_parallel(cfg, workers=1)
        return results, time.perf_counter() - start

    print("perf smoke: cold sweep (empty trace store) ...", flush=True)
    cold, cold_seconds = sweep(config)
    print(f"  {cold_seconds:.2f}s, {cold.kernel_executions} kernel "
          f"executions, {len(cold.runs)} runs", flush=True)

    print("perf smoke: warm sweep (identical config) ...", flush=True)
    warm, warm_seconds = sweep(config)
    speedup = cold_seconds / warm_seconds
    print(f"  {warm_seconds:.2f}s, {warm.kernel_executions} kernel "
          f"executions, speedup {speedup:.2f}x", flush=True)

    print("perf smoke: warm sweep with a new device added ...", flush=True)
    extended = SweepConfig(
        scale=config.scale,
        algorithms=config.algorithms,
        models=config.models,
        graphs=config.graphs,
        gpu_names=("RTX 3090", "Titan V"),
    )
    new_device, new_device_seconds = sweep(extended)
    new_device_ratio = new_device_seconds / cold_seconds
    print(f"  {new_device_seconds:.2f}s, {new_device.kernel_executions} "
          f"kernel executions, {len(new_device.runs)} runs, "
          f"{new_device_ratio:.3f}x the cold sweep", flush=True)

    store = TraceStore(trace_dir)
    stats = store.stats()

    failures = []
    if cold.kernel_executions == 0:
        failures.append("cold sweep executed no kernels (store not empty?)")
    if warm.kernel_executions != 0:
        failures.append(
            f"warm sweep executed {warm.kernel_executions} kernels "
            "(expected 0: every trace should come from the store)"
        )
    if warm.runs != cold.runs:
        failures.append("warm results are not bit-identical to cold")
    if new_device.kernel_executions != 0:
        failures.append(
            f"new-device sweep executed {new_device.kernel_executions} "
            "kernels (expected 0: re-timed from stored traces)"
        )
    devices = {run.device for run in new_device.runs}
    if devices != {"RTX 3090", "Titan V"}:
        failures.append(f"new-device sweep covered {sorted(devices)}")
    if new_device_ratio > MAX_NEW_DEVICE_RATIO:
        failures.append(
            f"new-device sweep took {new_device_ratio:.3f}x the cold sweep "
            f"(ceiling {MAX_NEW_DEVICE_RATIO:g}x)"
        )
    if stats.total_bytes > MAX_STORE_BYTES:
        failures.append(
            f"trace store holds {stats.total_bytes} bytes "
            f"(ceiling {MAX_STORE_BYTES})"
        )
    if speedup < args.min_speedup:
        failures.append(
            f"warm speedup {speedup:.2f}x is below the "
            f"{args.min_speedup:g}x floor"
        )
    if cold.failures or warm.failures or new_device.failures:
        failures.append("a sweep produced failure-manifest entries")

    payload = {
        "benchmark": "trace-store cold vs warm: SSSP x USA-road-d.NY "
                     "(default scale), CUDA, workers=1",
        "runs": len(cold.runs),
        "cold_seconds": round(cold_seconds, 3),
        "cold_kernel_executions": cold.kernel_executions,
        "warm_seconds": round(warm_seconds, 3),
        "warm_kernel_executions": warm.kernel_executions,
        "warm_speedup": round(speedup, 3),
        "new_device_seconds": round(new_device_seconds, 3),
        "new_device_kernel_executions": new_device.kernel_executions,
        "new_device_ratio": round(new_device_ratio, 3),
        "bit_identical": warm.runs == cold.runs,
        "store_entries": stats.entries,
        "store_bytes": stats.total_bytes,
    }
    args.json.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.json}", flush=True)

    if not args.keep:
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)
    else:
        print(f"trace store kept at {trace_dir}")

    matrix_failures, matrix_speedup = matrix_smoke(args)
    failures.extend(matrix_failures)
    failures.extend(advisor_smoke(args))

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(f"perf smoke OK: warm sweep ran 0 kernels, {speedup:.2f}x faster, "
          f"new device {new_device_ratio:.3f}x the cold sweep, "
          f"vectorized matrix {matrix_speedup:.2f}x over per-spec, "
          "predict-then-verify gate held, bit-identical results")
    return 0


if __name__ == "__main__":
    sys.exit(main())
