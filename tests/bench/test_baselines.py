"""Unit tests for the optimized third-party baselines (Section 5.17)."""

import pytest

from repro.bench import BASELINES, baseline_style, baseline_trace, best_style_spec
from repro.bench.comparison import baseline_speedups, table6
from repro.graph import load_dataset
from repro.machine import RTX_3090, THREADRIPPER_2950X, time_matrix
from repro.styles import Algorithm, Model


@pytest.fixture(scope="module")
def graph():
    return load_dataset("soc-LiveJournal1", "tiny")


class TestBaselineTraces:
    @pytest.mark.parametrize("model", list(Model))
    def test_all_registered_baselines_build(self, graph, model):
        for alg in BASELINES[model]:
            run = baseline_trace(alg, graph, model)
            assert run.trace.n_launches >= 1
            assert run.trace.n_edges == graph.n_edges

    def test_gardenia_has_no_mis(self, graph):
        assert Algorithm.MIS not in BASELINES[Model.CUDA]
        with pytest.raises(ValueError, match="no cuda baseline"):
            baseline_trace(Algorithm.MIS, graph, Model.CUDA)

    def test_baselines_timeable(self, graph):
        for alg in BASELINES[Model.CUDA]:
            run = baseline_trace(alg, graph, Model.CUDA)
            seconds = time_matrix(run.trace, [run.style], [RTX_3090])[0, 0]
            assert seconds > 0
        for alg in BASELINES[Model.OPENMP]:
            run = baseline_trace(alg, graph, Model.OPENMP)
            seconds = time_matrix(
                run.trace, [run.style], [THREADRIPPER_2950X]
            )[0, 0]
            assert seconds > 0

    def test_sssp_baseline_work_is_near_optimal(self, graph):
        run = baseline_trace(Algorithm.SSSP, graph, Model.CUDA)
        # Near-one relaxation per edge (plus the documented 15% repeats).
        total_relax = sum(p.total_inner for p in run.trace.profiles)
        assert total_relax < 1.5 * graph.n_edges

    def test_bfs_baseline_levels(self, graph):
        run = baseline_trace(Algorithm.BFS, graph, Model.CUDA)
        frontier_items = sum(
            p.n_items for p in run.trace.profiles if p.label == "bfs-frontier"
        )
        assert frontier_items <= graph.n_vertices

    def test_tc_cpu_baseline_does_redundant_work(self, graph):
        gpu = baseline_trace(Algorithm.TC, graph, Model.CUDA)
        cpu = baseline_trace(Algorithm.TC, graph, Model.OPENMP)
        gpu_work = sum(p.total_inner for p in gpu.trace.profiles)
        cpu_work = sum(p.total_inner for p in cpu.trace.profiles)
        assert cpu_work > 2 * gpu_work  # unoriented edge iterator


class TestBaselineStyles:
    def test_cuda_mapping(self):
        style = baseline_style(Algorithm.BFS, Model.CUDA)
        assert style.model is Model.CUDA
        assert style.granularity is not None

    def test_cpu_mapping(self):
        style = baseline_style(Algorithm.PR, Model.OPENMP)
        assert style.omp_schedule is not None


class TestComparison:
    def test_best_style_spec_is_argmax(self, tiny_sweep):
        spec = best_style_spec(tiny_sweep, Algorithm.BFS, Model.CUDA)
        assert spec.algorithm is Algorithm.BFS
        assert spec.model is Model.CUDA

    def test_speedups_and_table6(self, tiny_sweep):
        cells = baseline_speedups(tiny_sweep)
        assert cells
        rows = table6(cells)
        # MIS appears for CPUs but not CUDA (Figure 16a).
        assert "mis" not in rows[Model.CUDA]
        assert "mis" in rows[Model.OPENMP]
        for row in rows.values():
            assert all(v > 0 for v in row.values())
            assert "geomean" in row
