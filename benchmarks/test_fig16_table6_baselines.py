"""Figure 16 / Table 6: best-style codes vs optimized third-party baselines.

Paper findings (Table 6): the style-chosen unoptimized codes hold their own
against the optimized Lonestar/Gardenia codes — BFS is faster on GPUs, SSSP
is slower everywhere (the baselines' priority/two-array scheduling is a
genuine algorithmic optimization), MIS/PR/TC are much faster than the CPU
baselines, PR/TC are slower than Gardenia's redundancy-eliminated GPU
codes, and the per-model geomeans land near 0.70 (CUDA) and above 1 for the
CPU models.
"""

from repro.bench.comparison import baseline_speedups, table6
from repro.bench.report import render_table6
from repro.styles import Model

from conftest import requires_default_scale


@requires_default_scale
def test_fig16_table6(benchmark, study):
    cells = benchmark.pedantic(
        baseline_speedups, args=(study,), rounds=1, iterations=1
    )
    rows = table6(cells)
    print("\n" + render_table6(study))

    cuda, omp, cpp = rows[Model.CUDA], rows[Model.OPENMP], rows[Model.CPP_THREADS]

    # SSSP: the baselines' near-work-optimal scheduling wins everywhere.
    assert cuda["sssp"] < 1.0
    assert omp["sssp"] < 1.0
    assert cpp["sssp"] < 1.0

    # BFS: our best style is competitive-to-faster (paper: 1.97/0.90/1.14).
    assert cuda["bfs"] > 1.0
    assert omp["bfs"] > 0.5
    assert cpp["bfs"] > 0.5

    # MIS: the CPU baselines (speculative runtime) lose badly; there is no
    # Gardenia MIS (Figure 16a omits it).
    assert "mis" not in cuda
    assert omp["mis"] > 2.0
    assert cpp["mis"] > 1.5

    # PR/TC: slower than the redundancy-eliminated GPU baselines, faster
    # than the CPU ones.
    assert cuda["pr"] < 1.0 and cuda["tc"] < 1.0
    assert omp["pr"] > 1.0 and omp["tc"] > 1.0
    assert cpp["pr"] > 1.0 and cpp["tc"] > 1.0

    # CC: on par-ish (paper: 1.11/0.89/0.51) — within a factor of a few.
    for row in (cuda, omp, cpp):
        assert 0.1 < row["cc"] < 3.0

    # Geomeans: below 1 for CUDA, above 1 for both CPU models.
    assert cuda["geomean"] < 1.0
    assert omp["geomean"] > 1.0
    assert cpp["geomean"] > 1.0


def test_fig16_cells_cover_all_inputs(benchmark, study):
    cells = benchmark.pedantic(
        baseline_speedups, args=(study,), rounds=1, iterations=1
    )
    graphs = {c.graph for c in cells}
    assert graphs == set(study.graphs)
    # Every cell's speedup is a positive finite number.
    assert all(c.speedup > 0 for c in cells)
