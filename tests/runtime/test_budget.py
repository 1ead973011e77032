"""Pre-launch resource budgeting and its launcher/sweep wiring."""

import numpy as np
import pytest

from repro.bench.harness import SweepConfig
from repro.graph import from_edge_arrays
from repro.graph.generators import grid2d
from repro.machine.devices import RTX_3090, THREADRIPPER_2950X, TITAN_V
from repro.runtime import (
    BudgetExceeded,
    ErrorClass,
    FailedRun,
    Launcher,
    ResourceBudget,
    classify_error,
    estimate_bytes,
)
from repro.styles.axes import Algorithm, Model
from repro.styles.combos import enumerate_specs


def _graph():
    return grid2d(8, 8)


def _spec(algorithm=Algorithm.BFS, model=Model.CUDA):
    return enumerate_specs(algorithm, model)[0]


class TestEstimate:
    def test_scales_with_graph(self):
        small = grid2d(4, 4)
        large = grid2d(32, 32)
        assert estimate_bytes(large) > estimate_bytes(small)

    def test_data_driven_costs_more(self):
        g = _graph()
        topo = next(
            s for s in enumerate_specs(Algorithm.BFS, Model.CUDA)
            if s.driver.value == "topology"
        )
        data = next(
            s for s in enumerate_specs(Algorithm.BFS, Model.CUDA)
            if s.driver.value == "data"
        )
        assert estimate_bytes(g, data) > estimate_bytes(g, topo)


class TestResourceBudget:
    def test_inactive_by_default(self):
        assert not ResourceBudget().active

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_FOOTPRINT_MB", "2")
        monkeypatch.setenv("REPRO_MAX_SIM_SECONDS", "0.5")
        budget = ResourceBudget.from_env()
        assert budget.max_bytes == 2_000_000
        assert budget.max_seconds == 0.5
        monkeypatch.delenv("REPRO_MAX_FOOTPRINT_MB")
        monkeypatch.delenv("REPRO_MAX_SIM_SECONDS")
        assert not ResourceBudget.from_env().active

    def test_footprint_rejects_over_budget(self):
        budget = ResourceBudget(max_bytes=100)
        with pytest.raises(BudgetExceeded) as exc:
            budget.check_footprint(_graph())
        assert exc.value.dimension == "bytes"
        assert exc.value.estimated > exc.value.limit

    def test_device_memory_caps(self):
        # A budget far above the device limit still enforces the device.
        import dataclasses

        budget = ResourceBudget(max_bytes=10**18)
        tiny_gpu = dataclasses.replace(TITAN_V, mem_bytes=64.0)
        with pytest.raises(BudgetExceeded, match=tiny_gpu.name):
            budget.check_footprint(_graph(), device=tiny_gpu)

    def test_seconds_budget(self):
        budget = ResourceBudget(max_seconds=1e-12)
        with pytest.raises(BudgetExceeded) as exc:
            budget.check_seconds(1.0, label="slow run")
        assert exc.value.dimension == "seconds"


class TestLauncherWiring:
    def test_run_refuses_over_budget(self):
        launcher = Launcher(budget=ResourceBudget(max_bytes=16))
        with pytest.raises(BudgetExceeded):
            launcher.run(_spec(), _graph(), TITAN_V)

    def test_one_device_matrix_records_budget_skip(self):
        launcher = Launcher(budget=ResourceBudget(max_bytes=16))
        failures = []
        out = launcher.run_matrix(
            [_spec()], _graph(), [RTX_3090],
            on_error=lambda spec, device, exc: failures.append(exc),
        )
        assert out == [[None]]
        assert len(failures) == 1
        assert isinstance(failures[0], BudgetExceeded)

    def test_sim_seconds_budget_skips_after_timing(self):
        launcher = Launcher(budget=ResourceBudget(max_seconds=1e-30))
        failures = []
        out = launcher.run_matrix(
            [_spec(model=Model.OPENMP)], _graph(), [THREADRIPPER_2950X],
            on_error=lambda spec, device, exc: failures.append(exc),
        )
        assert out == [[None]]
        assert all(isinstance(e, BudgetExceeded) for e in failures)

    def test_inactive_budget_runs_normally(self):
        launcher = Launcher()
        result = launcher.run(_spec(), _graph(), TITAN_V)
        assert result.seconds > 0


class TestTaxonomy:
    def test_budget_exceeded_classifies(self):
        exc = BudgetExceeded("x", estimated=2.0, limit=1.0)
        assert classify_error(exc) is ErrorClass.BUDGET
        failed = FailedRun.from_exception(exc, algorithm="bfs", graph="g")
        assert failed.error_class is ErrorClass.BUDGET

    def test_degenerate_classifies(self):
        from repro.kernels import DegenerateGraphError

        assert (
            classify_error(DegenerateGraphError("empty graph"))
            is ErrorClass.DEGENERATE
        )

    def test_divergence_classifies(self):
        from repro.kernels import ConvergenceError, DivergenceError

        assert classify_error(DivergenceError("x")) is ErrorClass.DIVERGENCE
        # Plain round-budget overruns stay kernel errors.
        assert classify_error(ConvergenceError("x")) is ErrorClass.KERNEL


class TestSweepConfigWiring:
    def test_budget_flows_into_sweep(self):
        from repro.bench.harness import run_sweep

        g = from_edge_arrays(np.array([0, 1]), np.array([1, 2]), 3)
        config = SweepConfig(
            algorithms=(Algorithm.BFS,),
            models=(Model.CUDA,),
            gpu_names=("Titan V",),
            max_footprint_bytes=8,
        )
        results = run_sweep(config, graphs={"tiny": g})
        assert not results.runs
        assert results.failures
        assert all(
            f.error_class is ErrorClass.BUDGET for f in results.failures
        )
