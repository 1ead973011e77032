"""Tests of the learned style predictor (repro.bench.predictor).

Three contracts matter more than model accuracy:

* **Determinism** — the same training set and seed must produce a
  byte-identical artifact, and the same predict-then-verify sweep run
  twice must measure the identical variants (including the seeded audit
  sample) and report identical results;
* **Artifact discipline** — a corrupted or version-mismatched artifact
  must be quarantined and read as unavailable, degrading the sweep to
  exhaustive execution with a visible manifest entry, never a wrong or
  partial answer;
* **Answer preservation** — a pruned sweep reports exactly as many runs
  as the exhaustive sweep, executes far fewer kernels, and never trains
  on its own back-filled predictions.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro.bench import (
    PredictSettings,
    PredictorArtifactError,
    StylePredictor,
    SweepConfig,
    cached_sweep,
    mine_results,
    mine_trace_store,
    resolve_predictor,
    run_sweep,
    run_sweep_parallel,
)
from repro.bench.faults import FAULTS_ENV
from repro.bench.harness import StudyResults
from repro.bench.parallel import partition_blocks, shard_blocks
from repro.bench.predictor import PREDICTOR_ENV, feature_names
from repro.bench.tracestore import TraceStore
from repro.cli.main import main
from repro.graph import load_all, load_dataset
from repro.styles import Algorithm, Model

from . import predicted_sweep_oracle

pytestmark = pytest.mark.predictor


@pytest.fixture(scope="module")
def training_set(tiny_sweep):
    return mine_results(tiny_sweep)


@pytest.fixture(scope="module")
def predictor(training_set):
    return StylePredictor.train(training_set, seed=0, rounds=60)


@pytest.fixture(scope="module")
def artifact(predictor, tmp_path_factory):
    return predictor.save(tmp_path_factory.mktemp("predictor") / "model.json")


def _subset(training_set, keep):
    """The training rows whose metadata ``keep`` accepts."""
    rows = [i for i, m in enumerate(training_set.meta) if keep(m)]
    return dataclasses.replace(
        training_set,
        X=training_set.X[rows],
        y_log_seconds=training_set.y_log_seconds[rows],
        meta=[training_set.meta[i] for i in rows],
    )


@pytest.fixture(scope="module")
def partial_artifact(training_set, tmp_path_factory):
    """An artifact that covers every (algorithm, device) cell of the
    tiny sweep but (sssp, Titan V)."""
    ts = _subset(
        training_set,
        lambda m: (m["algorithm"], m["device"]) != ("sssp", "Titan V"),
    )
    predictor = StylePredictor.train(ts, seed=0, rounds=30)
    assert not predictor.covers(Algorithm.SSSP, "Titan V")
    return predictor.save(tmp_path_factory.mktemp("partial") / "model.json")


def _identity_config(model_path, max_groups=6):
    """2 algorithms x 2 tiny inputs, GPU and CPU models: audit samples,
    a ``max_groups`` cut and (with ``partial_artifact``) an uncovered
    cell in every SSSP block."""
    return SweepConfig(
        scale="tiny",
        algorithms=(Algorithm.BFS, Algorithm.SSSP),
        models=(Model.CUDA, Model.OPENMP),
        graphs=("USA-road-d.NY", "soc-LiveJournal1"),
        predict=PredictSettings(
            top_k=3, audit_frac=0.1, max_groups=max_groups,
            model_path=str(model_path),
        ),
    )


def _prediction_signature(results):
    summary = results.prediction
    return (
        summary.cells, summary.groups_total, summary.groups_executed,
        summary.model_info,
    )


def _gate_config(predict=None):
    return SweepConfig(
        scale="tiny",
        algorithms=(Algorithm.SSSP,),
        models=(Model.CUDA,),
        graphs=("USA-road-d.NY",),
        gpu_names=("RTX 3090",),
        predict=predict,
    )


# ----------------------------------------------------------------------
# Mining
# ----------------------------------------------------------------------
def test_mine_results_rows_cover_every_run(tiny_sweep, training_set):
    assert len(training_set) == len(tiny_sweep.runs)
    assert training_set.X.shape == (len(training_set), len(feature_names()))
    assert np.all(np.isfinite(training_set.X))
    assert np.all(np.isfinite(training_set.y_log_seconds))
    assert training_set.skipped == {}


def test_mine_results_skips_predicted_runs(tiny_sweep):
    results = StudyResults(graphs=dict(tiny_sweep.graphs))
    for run in tiny_sweep.runs[:10]:
        results.add(run)
    results.add(dataclasses.replace(tiny_sweep.runs[10], predicted=True))
    ts = mine_results(results)
    assert len(ts) == 10
    assert ts.skipped == {"predicted-run": 1}


def test_mine_trace_store_retimes_without_execution(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    config = _gate_config()
    cold = run_sweep(config)
    assert cold.kernel_executions > 0
    store = TraceStore(tmp_path / "traces")
    ts = mine_trace_store(store)
    # Every mapping variant on every compatible device, re-timed free.
    assert len(ts) >= len(cold.runs)
    assert all(m["source"] == "trace-store" for m in ts.meta)


def test_mine_trace_store_skips_stale_and_propertyless(
    tmp_path, monkeypatch
):
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))
    run_sweep(_gate_config())
    store = TraceStore(tmp_path / "traces")

    monkeypatch.setattr(
        "repro.bench.predictor.kernel_code_fingerprint", lambda: "edited"
    )
    ts = mine_trace_store(store)
    assert len(ts) == 0
    assert ts.skipped.get("stale", 0) > 0
    monkeypatch.undo()
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path / "traces"))

    # Entries from before graph properties joined the metadata are
    # skipped with a count, not crashed on.
    original = store.iter_entries

    def stripped():
        for meta, result in original():
            meta = dict(meta)
            meta.pop("graph_properties", None)
            yield meta, result

    monkeypatch.setattr(store, "iter_entries", stripped)
    ts = mine_trace_store(store)
    assert len(ts) == 0
    assert ts.skipped.get("no-graph-properties", 0) > 0


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
def test_same_seed_same_artifact_bytes(training_set, tmp_path):
    a = StylePredictor.train(training_set, seed=7, rounds=40)
    b = StylePredictor.train(training_set, seed=7, rounds=40)
    path_a = a.save(tmp_path / "a.json")
    path_b = b.save(tmp_path / "b.json")
    assert path_a.read_bytes() == path_b.read_bytes()
    c = StylePredictor.train(training_set, seed=8, rounds=40)
    assert c.save(tmp_path / "c.json").read_bytes() != path_a.read_bytes()


def test_predicted_sweep_is_deterministic(artifact, monkeypatch):
    monkeypatch.delenv(PREDICTOR_ENV, raising=False)
    config = _gate_config(
        PredictSettings(top_k=4, audit_frac=0.1, model_path=str(artifact))
    )
    first = run_sweep(config)
    second = run_sweep(config)
    assert first.runs == second.runs
    assert first.kernel_executions == second.kernel_executions
    audited = [cell.n_audited for cell in first.prediction.cells]
    assert audited == [cell.n_audited for cell in second.prediction.cells]
    assert sum(audited) > 0, "audit_frac=0.1 must sample something"


# ----------------------------------------------------------------------
# Predict-then-verify semantics
# ----------------------------------------------------------------------
def test_pruned_sweep_backfills_every_variant(artifact, monkeypatch):
    monkeypatch.delenv(PREDICTOR_ENV, raising=False)
    exhaustive = run_sweep(_gate_config())
    pruned = run_sweep(
        _gate_config(
            PredictSettings(
                top_k=4, audit_frac=0.02, max_groups=6,
                model_path=str(artifact),
            )
        )
    )
    assert len(pruned.runs) == len(exhaustive.runs)
    assert pruned.kernel_executions < exhaustive.kernel_executions
    n_predicted = sum(run.predicted for run in pruned.runs)
    assert n_predicted > 0
    summary = pruned.prediction
    assert summary.n_predicted == n_predicted
    assert summary.groups_executed <= 6
    # Measured runs are real measurements: bit-identical to exhaustive.
    exhaustive_by_key = {
        (run.spec.label(), run.device): run for run in exhaustive.runs
    }
    for run in pruned.runs:
        if not run.predicted:
            assert run == exhaustive_by_key[(run.spec.label(), run.device)]


def test_predicted_runs_are_labelled_by_graph_key(artifact, monkeypatch):
    monkeypatch.delenv(PREDICTOR_ENV, raising=False)
    config = _gate_config(
        PredictSettings(top_k=4, audit_frac=0.1, model_path=str(artifact))
    )
    by_name = run_sweep(config)
    by_key = run_sweep(
        config, graphs={"custom": load_dataset("USA-road-d.NY", "tiny")}
    )
    assert {cell.graph for cell in by_key.prediction.cells} == {"custom"}
    # Only the label differs.
    assert by_key.runs == [
        dataclasses.replace(run, graph="custom") for run in by_name.runs
    ]


def test_uncovered_cell_measures_exhaustively(
    training_set, tmp_path, monkeypatch
):
    monkeypatch.delenv(PREDICTOR_ENV, raising=False)
    # A model trained only on BFS rows does not cover SSSP cells: the
    # sweep must measure them fully rather than extrapolate.
    predictor = StylePredictor.train(
        _subset(training_set, lambda m: m["algorithm"] == "bfs"),
        seed=0, rounds=10,
    )
    assert not predictor.covers(Algorithm.SSSP, "RTX 3090")
    path = predictor.save(tmp_path / "bfs-only.json")
    config = _gate_config(PredictSettings(top_k=4, model_path=str(path)))
    results = run_sweep(config)
    assert results.prediction.model_info["available"] is True
    assert not any(run.predicted for run in results.runs)
    assert results.runs == run_sweep(_gate_config()).runs


def test_backfilled_rows_are_in_the_column_view(artifact, monkeypatch):
    from repro.bench.ratios import ratios_by_algorithm
    from repro.styles import Granularity

    from . import ratio_oracle

    monkeypatch.delenv(PREDICTOR_ENV, raising=False)
    pruned = run_sweep(
        _gate_config(PredictSettings(top_k=4, model_path=str(artifact)))
    )
    predicted = np.array([run.predicted for run in pruned.runs])
    assert predicted.any() and not predicted.all()
    view = pruned.columns()
    assert len(view) == len(pruned.runs)
    assert np.array_equal(
        view.throughput, [run.throughput_ges for run in pruned.runs]
    )
    # Back-filled rows pair with measured ones exactly as the runs do.
    args = ("granularity", Granularity.WARP, Granularity.THREAD)
    got = ratios_by_algorithm(pruned, *args)
    want = ratio_oracle.ratios_by_algorithm(pruned, *args)
    assert list(got) == list(want) == [Algorithm.SSSP]
    assert np.array_equal(got[Algorithm.SSSP], want[Algorithm.SSSP])
    assert got[Algorithm.SSSP].size == np.count_nonzero(
        view.codes["granularity"] == view.code("granularity", Granularity.WARP)
    )


def test_cached_sweep_reads_a_retrained_artifact(
    predictor, training_set, tmp_path, monkeypatch
):
    """A pruned sweep's rows depend on the artifact's contents, not its
    path: retraining at the same path must change what ``cached_sweep``
    returns, and no pruned sweep is written to the cache."""
    monkeypatch.delenv(PREDICTOR_ENV, raising=False)
    cache = tmp_path / "cache"
    path = predictor.save(tmp_path / "model.json")
    config = _gate_config(PredictSettings(top_k=4, model_path=str(path)))
    first = cached_sweep(config, cache_dir=cache)
    assert any(run.predicted for run in first.runs)
    assert first.prediction is not None

    StylePredictor.train(
        _subset(training_set, lambda m: m["algorithm"] == "bfs"),
        seed=0, rounds=10,
    ).save(path)
    second = cached_sweep(config, cache_dir=cache)
    assert not any(run.predicted for run in second.runs)
    assert second.runs == run_sweep(config).runs
    assert not cache.exists()


# ----------------------------------------------------------------------
# One sweep engine: pruned sweeps equal the frozen serial loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "workers, max_groups", [(1, 6), (2, 6), (4, 6), (2, None)]
)
def test_pruned_sweep_matches_the_frozen_loop(
    partial_artifact, workers, max_groups, monkeypatch
):
    monkeypatch.delenv(PREDICTOR_ENV, raising=False)
    config = _identity_config(partial_artifact, max_groups)
    want = predicted_sweep_oracle.run_sweep_predicted(config)
    got = run_sweep_parallel(config, workers=workers)
    assert got.runs == want.runs
    assert list(got.failures) == list(want.failures)
    assert got.kernel_executions == want.kernel_executions
    assert _prediction_signature(got) == _prediction_signature(want)
    # The config exercises what it claims to.
    summary = got.prediction
    assert any(run.predicted for run in got.runs)
    assert summary.groups_executed < summary.groups_total
    assert sum(cell.n_audited for cell in summary.cells) > 0
    uncovered = [
        cell for cell in summary.cells
        if (cell.algorithm, cell.device) == ("sssp", "Titan V")
    ]
    assert len(uncovered) == 2
    if max_groups is None:
        assert all(cell.n_predicted == 0 for cell in uncovered)


def test_unusable_artifact_matches_the_frozen_fallback(tmp_path, monkeypatch):
    monkeypatch.delenv(PREDICTOR_ENV, raising=False)
    config = _identity_config(tmp_path / "missing.json")
    want = predicted_sweep_oracle.run_sweep_predicted(config)
    got = run_sweep_parallel(config, workers=2)
    assert got.runs == want.runs
    assert list(got.failures) == list(want.failures)
    assert got.failures[0].stage == "predictor"
    assert got.kernel_executions == want.kernel_executions
    assert _prediction_signature(got) == _prediction_signature(want)


def test_parallel_pruned_sweep_backfills(artifact, monkeypatch):
    monkeypatch.delenv(PREDICTOR_ENV, raising=False)
    config = _gate_config(
        PredictSettings(top_k=4, max_groups=6, model_path=str(artifact))
    )
    results = run_sweep_parallel(config, workers=2)
    assert results.prediction is not None
    n_predicted = sum(run.predicted for run in results.runs)
    assert n_predicted > 0
    assert results.prediction.n_predicted == n_predicted


def test_predicted_blocks_are_never_sharded(artifact):
    predictor = StylePredictor.load(artifact)
    config = _gate_config(PredictSettings(model_path=str(artifact)))
    graphs = load_all("tiny", names=config.graphs)
    blocks = [
        dataclasses.replace(block, predictor=predictor)
        for block in partition_blocks(config, graphs)
    ]
    assert shard_blocks(blocks, workers=8) == blocks
    exhaustive = partition_blocks(_gate_config(), graphs)
    assert len(shard_blocks(exhaustive, workers=8)) > len(exhaustive)


@pytest.mark.faults
def test_raising_predicted_block_is_quarantined(
    partial_artifact, monkeypatch
):
    monkeypatch.delenv(PREDICTOR_ENV, raising=False)
    config = _identity_config(partial_artifact)
    clean = run_sweep_parallel(config, workers=2)
    monkeypatch.setenv(FAULTS_ENV, json.dumps([{
        "action": "raise", "algorithm": "sssp", "graph": "USA-road-d.NY",
    }]))
    results = run_sweep_parallel(
        config, workers=2, max_retries=0, retry_backoff=0.0
    )

    def elsewhere(algorithm, graph):
        return (algorithm, graph) != ("sssp", "USA-road-d.NY")

    blocks = [f for f in results.failures if f.stage == "block"]
    assert [(f.algorithm, f.graph) for f in blocks] == [
        ("sssp", "USA-road-d.NY")
    ]
    assert results.runs == [
        run for run in clean.runs
        if elsewhere(run.spec.algorithm.value, run.graph)
    ]
    assert [f for f in results.failures if f.stage != "block"] == [
        f for f in clean.failures if elsewhere(f.algorithm, f.graph)
    ]
    assert results.prediction.cells == [
        cell for cell in clean.prediction.cells
        if elsewhere(cell.algorithm, cell.graph)
    ]


# ----------------------------------------------------------------------
# Artifact discipline
# ----------------------------------------------------------------------
def test_corrupt_artifact_quarantined_and_sweep_falls_back(
    predictor, tmp_path, monkeypatch
):
    monkeypatch.delenv(PREDICTOR_ENV, raising=False)
    path = predictor.save(tmp_path / "model.json")
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))

    loaded, reason = resolve_predictor(path)
    assert loaded is None and "checksum" in reason
    assert not path.exists()
    assert (tmp_path / "quarantine" / "model.json").exists()

    results = run_sweep(
        _gate_config(PredictSettings(model_path=str(path)))
    )
    assert not any(run.predicted for run in results.runs)
    first = results.failures[0]
    assert first.stage == "predictor"
    assert "ran exhaustively" in first.message
    assert results.prediction.model_info["available"] is False


def test_version_mismatch_artifact_rejected(predictor, tmp_path, monkeypatch):
    import hashlib

    monkeypatch.delenv(PREDICTOR_ENV, raising=False)
    path = predictor.save(tmp_path / "model.json")
    _, body = path.read_bytes().split(b"\n", 1)
    payload = json.loads(body)
    payload["version"] = 99
    body = json.dumps(payload, sort_keys=True).encode()
    checksum = hashlib.sha256(body).hexdigest().encode("ascii")
    path.write_bytes(b"repro-predictor-v1 " + checksum + b"\n" + body)
    with pytest.raises(PredictorArtifactError, match="version"):
        StylePredictor.load(path)
    loaded, reason = resolve_predictor(path)
    assert loaded is None
    assert (tmp_path / "quarantine" / "model.json").exists()


def test_env_kill_switch_wins(artifact, monkeypatch):
    monkeypatch.setenv(PREDICTOR_ENV, "0")
    loaded, reason = resolve_predictor(artifact)
    assert loaded is None
    assert "REPRO_PREDICTOR" in reason


# ----------------------------------------------------------------------
# CLI: cache export, predictor train/info, sweep --predict
# ----------------------------------------------------------------------
def test_cli_export_train_info_predict(
    tiny_sweep, tmp_path, monkeypatch, capsys
):
    from repro.bench.storage import save_results

    monkeypatch.delenv(PREDICTOR_ENV, raising=False)
    results_file = tmp_path / "sweep.pkl"
    save_results(tiny_sweep, results_file, scale="tiny")

    out = tmp_path / "training.csv"
    assert main([
        "cache", "export", "--dir", str(tmp_path / "empty-store"),
        "--results", str(results_file), "--out", str(out),
    ]) == 0
    header, *rows = out.read_text().splitlines()
    assert header.startswith("algorithm,model,graph,device,style,source,seconds")
    assert len(rows) == len(tiny_sweep.runs)

    model_path = tmp_path / "model.json"
    assert main([
        "predictor", "train", "--results", str(results_file),
        "--rounds", "20", "--out", str(model_path),
    ]) == 0
    assert model_path.exists()
    capsys.readouterr()

    assert main(["predictor", "info", "--path", str(model_path)]) == 0
    info = capsys.readouterr().out
    assert "cells:" in info and "rows:" in info

    assert main([
        "--scale", "tiny", "sweep", "--predict", "--algorithm", "sssp",
        "--model", "cuda", "--top-k", "4", "--max-groups", "6",
        "--predictor", str(model_path),
    ]) == 0
    captured = capsys.readouterr()
    header = captured.out.splitlines()[0]
    assert header.endswith(",predicted")
    assert any(line.endswith(",1") for line in captured.out.splitlines()[1:])
    assert "predict-then-verify" in captured.err


def test_cli_predicted_sweep_is_worker_count_independent(
    artifact, monkeypatch, capsys
):
    monkeypatch.delenv(PREDICTOR_ENV, raising=False)
    outputs = []
    for workers in ("1", "2"):
        assert main([
            "--scale", "tiny", "sweep", "--algorithm", "sssp",
            "--model", "cuda", "--predict", "--predictor", str(artifact),
            "--workers", workers,
        ]) == 0
        captured = capsys.readouterr()
        assert "predict-then-verify" in captured.err
        outputs.append(captured.out)
    assert outputs[0] == outputs[1]
    assert any(line.endswith(",1") for line in outputs[0].splitlines()[1:])
