"""Tests for the parallel sweep engine, batched timing, and the
content-addressed result cache."""

import os
import pickle

import pytest

from repro.bench import (
    StudyResults,
    SweepConfig,
    cached_sweep,
    load_results,
    partition_blocks,
    run_sweep,
    run_sweep_parallel,
    sweep_cache_key,
    sweep_cache_path,
)
from repro.bench.parallel import resolve_workers, run_block_outcome
from repro.graph import CSRGraph, DatasetSpec, load_dataset
from repro.machine import (
    CPUModel,
    GPUModel,
    RTX_3090,
    THREADRIPPER_2950X,
    model_for_device,
)
from repro.runtime import Launcher, VerificationError
from repro.styles import Algorithm, Model, enumerate_specs
from tests.machine import scalar_oracle

REDUCED = SweepConfig(
    scale="tiny",
    algorithms=(Algorithm.BFS, Algorithm.PR),
    graphs=("USA-road-d.NY", "soc-LiveJournal1"),
)


def run_signature(results):
    return [
        (r.spec, r.device, r.graph, r.seconds, r.throughput_ges)
        for r in results.runs
    ]


class TestBatchedTiming:
    """time_trace_batch must be bit-identical to the per-spec scalar
    oracle walk."""

    @pytest.mark.parametrize("algorithm", [Algorithm.SSSP, Algorithm.PR])
    def test_gpu_batch_matches_serial(self, algorithm):
        graph = load_dataset("soc-LiveJournal1", "tiny")
        launcher = Launcher()
        model = GPUModel(RTX_3090)
        specs = enumerate_specs(algorithm, Model.CUDA)
        groups = {}
        for spec in specs:
            groups.setdefault(spec.semantic_key(), []).append(spec)
        for group in groups.values():
            trace = launcher.execute_semantic(group[0], graph).trace
            serial = [
                scalar_oracle.time_trace(trace, spec, RTX_3090)
                for spec in group
            ]
            assert model.time_trace_batch(trace, group) == serial

    @pytest.mark.parametrize("model_axis", [Model.OPENMP, Model.CPP_THREADS])
    def test_cpu_batch_matches_serial(self, model_axis):
        graph = load_dataset("USA-road-d.NY", "tiny")
        launcher = Launcher()
        model = CPUModel(THREADRIPPER_2950X)
        specs = enumerate_specs(Algorithm.PR, model_axis)
        groups = {}
        for spec in specs:
            groups.setdefault(spec.semantic_key(), []).append(spec)
        for group in groups.values():
            trace = launcher.execute_semantic(group[0], graph).trace
            serial = [
                scalar_oracle.time_trace(trace, spec, THREADRIPPER_2950X)
                for spec in group
            ]
            assert model.time_trace_batch(trace, group) == serial

    def test_gpu_batch_rejects_cpu_specs(self):
        graph = load_dataset("USA-road-d.NY", "tiny")
        launcher = Launcher()
        spec = enumerate_specs(Algorithm.BFS, Model.OPENMP)[0]
        trace = launcher.execute_semantic(spec, graph).trace
        with pytest.raises(ValueError, match="CUDA specs only"):
            GPUModel(RTX_3090).time_trace_batch(trace, [spec])

    def test_one_device_matrix_matches_run(self):
        graph = load_dataset("USA-road-d.NY", "tiny")
        launcher = Launcher()
        specs = enumerate_specs(Algorithm.BFS, Model.CUDA)[:20]
        (batch,) = launcher.run_matrix(specs, graph, [RTX_3090])
        singles = [launcher.run(spec, graph, RTX_3090) for spec in specs]
        assert batch == singles

    def test_launcher_memoizes_models(self):
        assert model_for_device(RTX_3090) is model_for_device(RTX_3090)
        assert isinstance(model_for_device(THREADRIPPER_2950X), CPUModel)


class TestParallelSweep:
    def test_partition_covers_grid_in_serial_order(self):
        blocks = partition_blocks(REDUCED)
        assert len(blocks) == 2 * 2  # algorithms x graphs
        assert [(b.algorithm, b.graph_name) for b in blocks] == [
            (Algorithm.BFS, "USA-road-d.NY"),
            (Algorithm.BFS, "soc-LiveJournal1"),
            (Algorithm.PR, "USA-road-d.NY"),
            (Algorithm.PR, "soc-LiveJournal1"),
        ]

    def test_parallel_matches_serial(self):
        serial = run_sweep(REDUCED)
        parallel = run_sweep_parallel(REDUCED, workers=2)
        assert run_signature(parallel) == run_signature(serial)

    def test_workers_one_falls_back_to_serial(self):
        serial = run_sweep(REDUCED)
        fallback = run_sweep_parallel(REDUCED, workers=1)
        assert run_signature(fallback) == run_signature(serial)

    def test_run_block_is_the_serial_block_body(self):
        block = partition_blocks(REDUCED)[0]
        runs = run_block_outcome(block).runs
        serial = run_sweep(block.config)
        assert runs == serial.runs

    def test_progress_reports_every_block(self):
        seen = []
        run_sweep_parallel(
            REDUCED, workers=2,
            progress=lambda done, total, block: seen.append((done, total)),
        )
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_custom_graphs_ship_to_workers(self):
        # "USA-road-d.NY" names a registry input, but its arrays here are
        # another graph's: a worker that rebuilt from the registry would
        # produce different runs.
        registry = load_dataset("USA-road-d.NY", "tiny")
        impostor = load_dataset("soc-LiveJournal1", "tiny")
        assert impostor.fingerprint() != registry.fingerprint()
        graphs = {
            "custom": registry,
            "USA-road-d.NY": CSRGraph(
                impostor.row_ptr, impostor.col_idx, impostor.weights,
                name="USA-road-d.NY",
            ),
        }
        config = SweepConfig(scale="tiny", algorithms=(Algorithm.BFS,))
        serial = run_sweep(config, graphs=graphs)
        for workers in (2, 8):  # whole blocks, then semantic shards
            parallel = run_sweep_parallel(
                config, workers=workers, graphs=graphs
            )
            assert run_signature(parallel) == run_signature(serial)

    def test_runs_and_failures_are_labelled_by_graph_key(self, monkeypatch):
        # The key, not ``CSRGraph.name``, names the graph in every run and
        # failure, in process and in forked workers alike.
        graphs = {"custom": load_dataset("USA-road-d.NY", "tiny")}
        config = SweepConfig(scale="tiny", algorithms=(Algorithm.BFS,))
        broken = enumerate_specs(Algorithm.BFS, Model.CUDA)[0].semantic_key()
        execute = Launcher.execute_semantic

        def failing(self, spec, graph):
            if spec.semantic_key() == broken:
                raise VerificationError("injected")
            return execute(self, spec, graph)

        monkeypatch.setattr(Launcher, "execute_semantic", failing)
        serial = run_sweep(config, graphs=graphs)
        assert serial.runs and serial.failures
        assert {r.graph for r in serial.runs} == {"custom"}
        assert {f.graph for f in serial.failures} == {"custom"}
        assert len(list(serial.select(graphs=["custom"]))) == len(serial.runs)
        parallel = run_sweep_parallel(config, workers=2, graphs=graphs)
        assert run_signature(parallel) == run_signature(serial)
        assert parallel.failures == serial.failures

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_builds_each_named_input_once_in_the_supervisor(
        self, workers, monkeypatch, tmp_path
    ):
        log = tmp_path / "builds"
        build = DatasetSpec.build

        def logged(spec, scale="default"):
            with open(log, "a") as out:
                out.write(f"{os.getpid()} {spec.name}\n")
            return build(spec, scale)

        monkeypatch.setattr(DatasetSpec, "build", logged)
        run_sweep_parallel(REDUCED, workers=workers)
        assert sorted(log.read_text().splitlines()) == sorted(
            f"{os.getpid()} {name}" for name in REDUCED.graphs
        )

    def test_resolve_workers(self, monkeypatch):
        assert resolve_workers(3) == 3
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "5")
        assert resolve_workers(None) == 5
        with pytest.raises(ValueError):
            resolve_workers(0)


class TestSemanticShards:
    """Sharded blocks must be invisible in the results."""

    def test_shard_blocks_splits_every_block_when_workers_outnumber_them(
        self,
    ):
        from repro.bench import shard_blocks

        blocks = partition_blocks(REDUCED)
        assert shard_blocks(blocks, workers=len(blocks)) == blocks
        shards = shard_blocks(blocks, workers=len(blocks) + 1)
        for block in blocks:
            mine = [
                s for s in shards
                if (s.algorithm, s.graph_name)
                == (block.algorithm, block.graph_name)
            ]
            assert len(mine) > 1
            assert all(s.graph is block.graph for s in mine)

    def test_sharded_parallel_matches_serial(self):
        serial = run_sweep(REDUCED)
        sharded = run_sweep_parallel(REDUCED, workers=8)
        assert run_signature(sharded) == run_signature(serial)
        assert sharded.kernel_executions == serial.kernel_executions

    def test_shards_partition_the_semantic_groups(self):
        from dataclasses import replace

        from repro.bench import semantic_shard_order

        block = partition_blocks(REDUCED)[0]
        n = 3
        shards = [replace(block, shard=s, n_shards=n) for s in range(n)]
        order = semantic_shard_order(block.algorithm, block.models)
        for model in block.models:
            full = enumerate_specs(block.algorithm, model)
            pieces = [shard.specs_for(model) for shard in shards]
            # Disjoint, exhaustive, and grouped by semantic key.
            flat = [spec for piece in pieces for spec in piece]
            assert sorted(s.label() for s in flat) == sorted(
                s.label() for s in full
            )
            for s, piece in enumerate(pieces):
                assert all(
                    order[spec.semantic_key()] % n == s for spec in piece
                )


class TestWorkStealing:
    """Shards pulled by idle workers must be invisible in the results:
    byte-identical runs and the same kernel executions at every worker
    count."""

    def test_fine_sharding_is_worker_count_independent(self):
        from repro.bench import semantic_shard_order, shard_blocks

        blocks = partition_blocks(REDUCED)
        fine_8 = shard_blocks(blocks, workers=8)
        fine_32 = shard_blocks(blocks, workers=32)
        # The sharding must not depend on the worker count.
        assert fine_8 == fine_32
        # One shard per semantic group of each block.
        for block in blocks:
            n_groups = len(
                semantic_shard_order(block.algorithm, block.models)
            )
            shards = [b for b in fine_8 if b.graph_name == block.graph_name
                      and b.algorithm is block.algorithm]
            assert len(shards) == n_groups
            assert [s.shard for s in shards] == list(range(n_groups))

    def test_stealing_matches_serial_at_every_worker_count(self):
        serial = run_sweep(REDUCED)
        for workers in (2, 16):
            stolen = run_sweep_parallel(REDUCED, workers=workers)
            assert run_signature(stolen) == run_signature(serial)
            assert stolen.kernel_executions == serial.kernel_executions


class TestSelectIndices:
    @pytest.fixture(scope="class")
    def results(self):
        return run_sweep(REDUCED)

    def test_matches_linear_scan(self, results):
        filters = dict(
            algorithms=[Algorithm.PR],
            models=[Model.CUDA, Model.OPENMP],
            devices=["RTX 3090", "Threadripper 2950X"],
            graphs=["soc-LiveJournal1"],
        )
        for subset in (
            {},
            {"algorithms": filters["algorithms"]},
            {"devices": filters["devices"]},
            {"graphs": filters["graphs"], "models": filters["models"]},
            filters,
        ):
            expected = [
                r
                for r in results.runs
                if ("algorithms" not in subset or r.spec.algorithm in subset["algorithms"])
                and ("models" not in subset or r.spec.model in subset["models"])
                and ("devices" not in subset or r.device in subset["devices"])
                and ("graphs" not in subset or r.graph in subset["graphs"])
            ]
            assert list(results.select(**subset)) == expected

    def test_unknown_key_selects_nothing(self, results):
        assert list(results.select(devices=["No Such Device"])) == []

    def test_indices_survive_pickle_round_trip(self, results, tmp_path):
        from repro.bench import save_results

        path = save_results(results, tmp_path / "r.pkl", scale="tiny")
        back = load_results(path, rebuild_graphs=False)
        assert len(list(back.select(algorithms=[Algorithm.PR]))) == len(
            list(results.select(algorithms=[Algorithm.PR]))
        )


class TestSweepCache:
    CONFIG = SweepConfig(
        scale="tiny",
        algorithms=(Algorithm.BFS,),
        graphs=("USA-road-d.NY",),
    )

    def test_round_trip_uses_cache(self, tmp_path):
        calls = []

        def runner(config):
            calls.append(config)
            return run_sweep(config)

        first = cached_sweep(self.CONFIG, cache_dir=tmp_path, runner=runner)
        second = cached_sweep(self.CONFIG, cache_dir=tmp_path, runner=runner)
        assert len(calls) == 1  # second invocation loaded from disk
        assert run_signature(second) == run_signature(first)
        assert sweep_cache_path(self.CONFIG, tmp_path).exists()

    def test_distinct_configs_get_distinct_keys(self):
        other = SweepConfig(
            scale="tiny", algorithms=(Algorithm.PR,), graphs=("USA-road-d.NY",)
        )
        assert sweep_cache_key(self.CONFIG) != sweep_cache_key(other)

    def test_code_fingerprint_change_invalidates(self, tmp_path, monkeypatch):
        calls = []

        def runner(config):
            calls.append(config)
            return run_sweep(config)

        cached_sweep(self.CONFIG, cache_dir=tmp_path, runner=runner)
        # Simulate a simulator source edit: the fingerprint changes, the
        # old entry no longer addresses this configuration.
        from repro.bench import storage

        monkeypatch.setattr(
            storage, "code_fingerprint", lambda: "deadbeef" * 8
        )
        cached_sweep(self.CONFIG, cache_dir=tmp_path, runner=runner)
        assert len(calls) == 2

    def test_refresh_bypasses_but_rewrites(self, tmp_path):
        calls = []

        def runner(config):
            calls.append(config)
            return run_sweep(config)

        cached_sweep(self.CONFIG, cache_dir=tmp_path, runner=runner)
        cached_sweep(self.CONFIG, cache_dir=tmp_path, runner=runner, refresh=True)
        assert len(calls) == 2
        cached_sweep(self.CONFIG, cache_dir=tmp_path, runner=runner)
        assert len(calls) == 2  # refreshed entry is warm again

    def test_corrupt_entry_is_rebuilt(self, tmp_path):
        path = sweep_cache_path(self.CONFIG, tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"nope": 1}))
        results = cached_sweep(
            self.CONFIG, cache_dir=tmp_path, runner=run_sweep
        )
        assert isinstance(results, StudyResults)
        assert len(results) > 0
        assert load_results(path).n_programs == results.n_programs
