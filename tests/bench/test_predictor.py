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
    mine_results,
    mine_trace_store,
    resolve_predictor,
    run_sweep,
    sweep_cache_key,
)
from repro.bench.harness import StudyResults
from repro.bench.predictor import PREDICTOR_ENV, feature_names
from repro.bench.tracestore import TraceStore
from repro.cli.main import main
from repro.graph import load_dataset
from repro.styles import Algorithm, Model

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


def test_uncovered_cell_measures_exhaustively(training_set, monkeypatch):
    monkeypatch.delenv(PREDICTOR_ENV, raising=False)
    # A model trained only on BFS rows does not cover SSSP cells: the
    # sweep must measure them fully rather than extrapolate.
    bfs_rows = [
        i for i, m in enumerate(training_set.meta) if m["algorithm"] == "bfs"
    ]
    bfs_ts = dataclasses.replace(
        training_set,
        X=training_set.X[bfs_rows],
        y_log_seconds=training_set.y_log_seconds[bfs_rows],
        meta=[training_set.meta[i] for i in bfs_rows],
    )
    predictor = StylePredictor.train(bfs_ts, seed=0, rounds=10)
    assert not predictor.covers(Algorithm.SSSP, "RTX 3090")
    config = _gate_config(PredictSettings(top_k=4))
    from repro.bench.predictor import run_sweep_predicted

    results = run_sweep_predicted(config, predictor=predictor)
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


def test_predict_settings_join_the_sweep_cache_key(artifact):
    base = _gate_config()
    keys = {
        sweep_cache_key(base),
        sweep_cache_key(_gate_config(PredictSettings(top_k=4))),
        sweep_cache_key(_gate_config(PredictSettings(top_k=8))),
    }
    assert len(keys) == 3


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
