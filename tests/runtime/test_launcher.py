"""Unit tests for the launcher (caching, pairing, results)."""

import dataclasses

import pytest

from repro.graph import load_dataset
from repro.machine import (
    RTX_3090,
    THREADRIPPER_2950X,
    TITAN_V,
    XEON_GOLD_6226R,
)
from repro.runtime import Launcher
from repro.styles import (
    Algorithm,
    Model,
    Persistence,
    enumerate_specs,
)
from tests.machine import scalar_oracle


@pytest.fixture(scope="module")
def graph():
    return load_dataset("USA-road-d.NY", "tiny")


@pytest.fixture()
def launcher():
    return Launcher()


def cuda_spec(index=0, alg=Algorithm.BFS):
    return enumerate_specs(alg, Model.CUDA)[index]


def omp_spec(index=0, alg=Algorithm.BFS):
    return enumerate_specs(alg, Model.OPENMP)[index]


class TestRun:
    def test_result_fields(self, launcher, graph):
        r = launcher.run(cuda_spec(), graph, RTX_3090)
        assert r.device == "RTX 3090"
        assert r.graph == graph.name
        assert r.seconds > 0
        assert r.throughput_ges == pytest.approx(
            graph.n_edges / r.seconds / 1e9
        )
        assert r.verified
        assert r.iterations >= 1
        assert r.launches >= 1

    def test_gpu_program_rejected_on_cpu(self, launcher, graph):
        with pytest.raises(ValueError, match="cannot run"):
            launcher.run(cuda_spec(), graph, THREADRIPPER_2950X)

    def test_cpu_program_rejected_on_gpu(self, launcher, graph):
        with pytest.raises(ValueError, match="cannot run"):
            launcher.run(omp_spec(), graph, RTX_3090)

    def test_invalid_spec_rejected(self, launcher, graph):
        bad = cuda_spec().with_axis(granularity=None)
        with pytest.raises(ValueError):
            launcher.run(bad, graph, RTX_3090)

    def test_deterministic_timing(self, launcher, graph):
        a = launcher.run(cuda_spec(), graph, RTX_3090)
        b = launcher.run(cuda_spec(), graph, RTX_3090)
        assert a.seconds == b.seconds

    def test_run_is_a_one_cell_matrix(self, launcher, graph):
        """Every Launcher.run equals the matching run_matrix cell, and
        both equal the frozen scalar oracle."""
        for model, devices in (
            (Model.CUDA, [RTX_3090, TITAN_V]),
            (Model.OPENMP, [THREADRIPPER_2950X, XEON_GOLD_6226R]),
        ):
            specs = enumerate_specs(Algorithm.BFS, model)[:12]
            matrix = launcher.run_matrix(specs, graph, devices)
            for d, device in enumerate(devices):
                for i, spec in enumerate(specs):
                    cell = matrix[d][i]
                    assert launcher.run(spec, graph, device) == cell
                    trace = launcher.execute_semantic(spec, graph).trace
                    assert cell.seconds == scalar_oracle.time_trace(
                        trace, spec, device
                    )

    def test_same_name_device_specs_are_timed_apart(self, launcher, graph):
        """A spec that only shares its name with a device already timed
        must get its own model, not the first one's."""
        starved = dataclasses.replace(
            RTX_3090,
            mem_bytes_per_cycle=RTX_3090.mem_bytes_per_cycle / 8,
            l2_size_bytes=1,
        )
        assert starved.name == RTX_3090.name
        original = launcher.run(cuda_spec(), graph, RTX_3090)
        shared = launcher.run(cuda_spec(), graph, starved)
        fresh = Launcher().run(cuda_spec(), graph, starved)
        assert shared.seconds == fresh.seconds
        assert shared.seconds != original.seconds


class TestTraceCache:
    def test_mapping_variants_share_traces(self, launcher, graph):
        spec = cuda_spec()
        launcher.run(spec, graph, RTX_3090)
        n_before = launcher.cached_traces
        launcher.run(
            spec.with_axis(persistence=Persistence.PERSISTENT), graph, RTX_3090
        )
        assert launcher.cached_traces == n_before

    def test_semantic_variants_add_traces(self, launcher, graph):
        launcher.run(cuda_spec(0), graph, RTX_3090)
        n_before = launcher.cached_traces
        specs = enumerate_specs(Algorithm.BFS, Model.CUDA)
        other = next(
            s for s in specs if s.semantic_key() != cuda_spec(0).semantic_key()
        )
        launcher.run(other, graph, RTX_3090)
        assert launcher.cached_traces == n_before + 1

    def test_cross_model_trace_sharing(self, launcher, graph):
        launcher.run(cuda_spec(), graph, RTX_3090)
        n_before = launcher.cached_traces
        # An OpenMP spec with identical semantic axes reuses the trace.
        target = cuda_spec().semantic_key()
        match = next(
            s for s in enumerate_specs(Algorithm.BFS, Model.OPENMP)
            if s.semantic_key() == target
        )
        launcher.run(match, graph, THREADRIPPER_2950X)
        assert launcher.cached_traces == n_before

    def test_release_drops_block(self, launcher, graph):
        launcher.run(cuda_spec(), graph, RTX_3090)
        assert launcher.cached_traces > 0
        launcher.release(graph, Algorithm.BFS)
        assert launcher.cached_traces == 0

    def test_release_keeps_other_algorithms(self, launcher, graph):
        launcher.run(cuda_spec(), graph, RTX_3090)
        launcher.run(cuda_spec(alg=Algorithm.CC), graph, RTX_3090)
        launcher.release(graph, Algorithm.BFS)
        assert launcher.cached_traces == 1

    def test_clear_caches(self, launcher, graph):
        launcher.run(cuda_spec(), graph, RTX_3090)
        launcher.clear_caches()
        assert launcher.cached_traces == 0


class TestVerificationWiring:
    def test_verify_disabled_still_runs(self, graph):
        launcher = Launcher(verify=False)
        r = launcher.run(cuda_spec(), graph, RTX_3090)
        assert not r.verified

    def test_different_sources_differ(self, graph):
        a = Launcher(source=0).run(cuda_spec(alg=Algorithm.SSSP), graph, RTX_3090)
        b = Launcher(source=5).run(cuda_spec(alg=Algorithm.SSSP), graph, RTX_3090)
        # Different sources induce different executions (usually different
        # iteration counts or time); at minimum both verify.
        assert a.verified and b.verified
