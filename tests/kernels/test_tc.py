"""Unit tests for the style-parameterized Triangle Counting kernel."""

import numpy as np
import pytest

from repro.graph import from_edge_list, grid2d
from repro.kernels import TriangleCountKernel, serial_triangle_count
from repro.styles import (
    Algorithm,
    Determinism,
    Driver,
    Iteration,
    Model,
    Update,
    semantic_combinations,
)
from repro.styles.spec import SemanticKey


def sem(iteration=Iteration.VERTEX) -> SemanticKey:
    return SemanticKey(
        algorithm=Algorithm.TC,
        iteration=iteration,
        driver=Driver.TOPOLOGY,
        dup=None,
        flow=None,
        update=Update.READ_MODIFY_WRITE,
        determinism=Determinism.DETERMINISTIC,
    )


class TestCorrectness:
    @pytest.mark.parametrize(
        "semantic",
        list(semantic_combinations(Algorithm.TC, Model.CUDA)),
        ids=lambda s: s.label(),
    )
    def test_all_styles_count_exactly(self, small_random, semantic):
        result = TriangleCountKernel(small_random).run(semantic.semantic_key())
        assert int(result.values[0]) == serial_triangle_count(small_random)

    def test_known_graphs(self):
        k4 = from_edge_list([(i, j) for i in range(4) for j in range(i + 1, 4)])
        assert TriangleCountKernel(k4).count() == 4
        assert TriangleCountKernel(grid2d(5, 5, weighted=False)).count() == 0

    def test_requires_sorted_adjacency(self):
        from repro.graph import CSRGraph

        g = CSRGraph(
            np.array([0, 2, 3, 4]),
            np.array([2, 1, 0, 0], dtype=np.int32),
        )
        with pytest.raises(ValueError, match="sorted"):
            TriangleCountKernel(g)


class TestWorkProfile:
    def test_vertex_and_edge_trips_agree(self, small_random):
        kernel = TriangleCountKernel(small_random)
        v = kernel.run(sem(Iteration.VERTEX)).trace
        e = kernel.run(sem(Iteration.EDGE)).trace
        # The same merges happen, distributed differently.
        assert v.total_inner == e.total_inner

    def test_edge_items_are_directed_edges(self, small_random):
        trace = TriangleCountKernel(small_random).run(sem(Iteration.EDGE)).trace
        assert trace.profiles[0].n_items == small_random.n_edges

    def test_vertex_items_are_vertices(self, small_random):
        trace = TriangleCountKernel(small_random).run(sem(Iteration.VERTEX)).trace
        assert trace.profiles[0].n_items == small_random.n_vertices

    def test_vertex_work_skew_exceeds_edge_work_skew(self, small_social):
        """Per-item work is much more imbalanced vertex-based (the
        Section 5.2 load-balance argument for edge-based TC)."""
        kernel = TriangleCountKernel(small_social)
        v = kernel.run(sem(Iteration.VERTEX)).trace.profiles[0]
        e = kernel.run(sem(Iteration.EDGE)).trace.profiles[0]

        def skew(p):
            inner = p.inner[p.inner > 0]
            return inner.max() / max(inner.mean(), 1)

        assert skew(v) > skew(e)

    def test_reduction_counts_only_contributors(self):
        g = grid2d(6, 6, weighted=False)  # no triangles at all
        trace = TriangleCountKernel(g).run(sem()).trace
        assert trace.profiles[0].reduction_items == 0

    def test_single_iteration(self, small_random):
        trace = TriangleCountKernel(small_random).run(sem()).trace
        assert trace.iterations == 1
        assert trace.n_launches == 1


def test_importing_the_harness_leaves_scipy_unloaded():
    """scipy is imported by the TC kernel that uses it, not at import
    time of the package."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.bench.harness; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
