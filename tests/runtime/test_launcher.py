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


class TestBlockRunMatrix:
    """One run_matrix call over every model of a block."""

    DEVICES = [RTX_3090, THREADRIPPER_2950X, TITAN_V, XEON_GOLD_6226R]

    @staticmethod
    def block_specs(alg=Algorithm.BFS):
        return [
            spec
            for model in Model
            for spec in enumerate_specs(alg, model)
        ]

    def test_mixed_kinds_leave_only_mismatched_cells_empty(
        self, launcher, graph
    ):
        specs = self.block_specs()
        out = launcher.run_matrix(specs, graph, self.DEVICES)
        for d, device in enumerate(self.DEVICES):
            gpu_device = device in (RTX_3090, TITAN_V)
            for i, spec in enumerate(specs):
                cell = out[d][i]
                if spec.model.is_gpu != gpu_device:
                    assert cell is None
                    continue
                trace = launcher.execute_semantic(spec, graph).trace
                assert cell.seconds == scalar_oracle.time_trace(
                    trace, spec, device
                )
        # Every semantic trace was executed once for all three models.
        assert launcher.kernel_executions == len(
            {spec.semantic_key() for spec in specs}
        )

    def test_block_equals_per_model_calls(self, graph):
        specs = self.block_specs(Algorithm.PR)
        block = Launcher().run_matrix(specs, graph, self.DEVICES)
        single = Launcher()
        for d, device in enumerate(self.DEVICES):
            for i, spec in enumerate(specs):
                if block[d][i] is not None:
                    assert block[d][i] == single.run(spec, graph, device)

    def test_timing_passes_leave_no_matrix_on_the_traces(
        self, launcher, graph
    ):
        """A block's matrices live for their timing pass only: no trace
        keeps a per-trace matrix of its own next to them."""
        specs = self.block_specs()
        launcher.run_matrix(specs, graph, self.DEVICES)
        for spec in specs:
            trace = launcher.execute_semantic(spec, graph).trace
            assert getattr(trace, "_profile_matrix", None) is None

    def test_large_traces_are_timed_in_several_passes(
        self, monkeypatch, graph
    ):
        """With the pass size below every trace, each trace is a pass of
        its own, and every cell is unchanged."""
        from repro.runtime import launcher as launcher_module

        specs = self.block_specs(Algorithm.PR)
        whole = Launcher().run_matrix(specs, graph, self.DEVICES)
        monkeypatch.setattr(launcher_module, "PASS_ITEMS", 1)
        passes = []
        real = launcher_module.time_matrix

        def counted(block, *args, **kwargs):
            passes.append(block.n_steps)
            return real(block, *args, **kwargs)

        monkeypatch.setattr(launcher_module, "time_matrix", counted)
        assert Launcher().run_matrix(specs, graph, self.DEVICES) == whole
        assert len(passes) == len({spec.semantic_key() for spec in specs})

    def test_spec_without_a_device_of_its_kind_raises(self, launcher, graph):
        specs = [cuda_spec(), omp_spec()]
        with pytest.raises(ValueError, match="openmp programs cannot run"):
            launcher.run_matrix(specs, graph, [RTX_3090, TITAN_V])
        assert launcher.kernel_executions == 0

    @staticmethod
    def failing_launcher(target, budget=None):
        """A launcher whose semantic group ``target`` fails verification."""
        from repro.runtime.verify import VerificationError

        launcher = Launcher(budget=budget)
        original = launcher.execute_semantic

        def execute(spec, graph):
            if spec.semantic_key() == target:
                raise VerificationError(f"injected for {spec.label()}")
            return original(spec, graph)

        launcher.execute_semantic = execute
        return launcher

    def per_model_runs(self, launcher, specs, graph, failures):
        """The block as one sweep_block_runs call per model."""
        from repro.bench import sweep_block_runs

        runs = []
        for model in Model:
            devices = [
                d for d in self.DEVICES
                if (d in (RTX_3090, TITAN_V)) == model.is_gpu
            ]
            runs.extend(sweep_block_runs(
                launcher, [s for s in specs if s.model is model], graph,
                devices, failures=failures,
            ))
        return runs

    def test_verification_failure_stays_in_its_group(self, graph):
        """A group that fails verification loses exactly its own cells;
        every other cell and the failure manifest (entries and order) are
        those of one run_matrix call per model."""
        from repro.bench import sweep_block_runs

        target = cuda_spec(3).semantic_key()
        specs = self.block_specs()
        block_failures, per_model_failures = [], []
        block_runs = list(sweep_block_runs(
            self.failing_launcher(target), specs, graph, self.DEVICES,
            failures=block_failures,
        ))
        per_model_runs = self.per_model_runs(
            self.failing_launcher(target), specs, graph, per_model_failures
        )
        assert block_runs == per_model_runs
        assert block_failures == per_model_failures
        failed = {(f.spec_label, f.device) for f in block_failures}
        assert failed == {
            (spec.label(), device.name)
            for spec in specs if spec.semantic_key() == target
            for device in self.DEVICES
            if (device in (RTX_3090, TITAN_V)) == spec.model.is_gpu
        }
        assert {f.model for f in block_failures} == {m.value for m in Model}
        clean = list(sweep_block_runs(Launcher(), specs, graph, self.DEVICES))
        assert block_runs == [
            r for r in clean if (r.spec.label(), r.device) not in failed
        ]

    def test_manifest_order_with_failures_from_every_phase(self, graph):
        """Verification failures (found while fetching) and time-budget
        skips (found after timing) interleave group by group, as one
        run_matrix call per model reports them."""
        from repro.bench import sweep_block_runs
        from repro.runtime import ResourceBudget

        specs = self.block_specs()
        clean = list(sweep_block_runs(Launcher(), specs, graph, self.DEVICES))
        budget = ResourceBudget(
            max_seconds=sorted(r.seconds for r in clean)[len(clean) // 2]
        )
        target = cuda_spec(3).semantic_key()
        block_failures, per_model_failures = [], []
        block_runs = list(sweep_block_runs(
            self.failing_launcher(target, budget), specs, graph,
            self.DEVICES, failures=block_failures,
        ))
        per_model_runs = self.per_model_runs(
            self.failing_launcher(target, budget), specs, graph,
            per_model_failures,
        )
        assert block_runs == per_model_runs
        assert block_failures == per_model_failures
        classes = [f.error_class.value for f in block_failures]
        assert "verification" in classes and len(set(classes)) == 2

    def test_timing_failure_is_recorded_against_the_whole_pass(
        self, monkeypatch, launcher, graph
    ):
        from repro.machine import GPUModel

        def broken(*args, **kwargs):
            raise RuntimeError("timing pass failed")

        monkeypatch.setattr(GPUModel, "time_trace_batch", broken)
        specs = [cuda_spec(0), omp_spec(0), cuda_spec(5), omp_spec(7)]
        failures = []
        out = launcher.run_matrix(
            specs, graph, self.DEVICES,
            on_error=lambda spec, device, exc: failures.append(
                (spec, device.name)
            ),
        )
        assert out == [[None] * len(specs) for _ in self.DEVICES]
        assert sorted(failures, key=repr) == sorted(
            (
                (spec, device.name)
                for spec in specs for device in self.DEVICES
                if (device in (RTX_3090, TITAN_V)) == spec.model.is_gpu
            ),
            key=repr,
        )
