"""Figure 13: C++ blocked vs cyclic scheduling ratios.

Paper findings: the choice matters little for CC, MIS, BFS and SSSP; PR
prefers a blocked schedule (streaming locality); TC prefers cyclic (75% of
ratios below 1 — its per-vertex work falls with the loop index, which is
exactly the Section 2.12 imbalance case).
"""

from repro.bench import ratios_by_algorithm
from repro.bench.report import render_ratio_figure
from repro.styles import Algorithm, CppSchedule, Model


def test_fig13(benchmark, study, med):
    text = benchmark.pedantic(
        render_ratio_figure, args=(study, "fig13"), rounds=1, iterations=1
    )
    print("\n" + text)
    by = ratios_by_algorithm(
        study, "cpp_schedule", CppSchedule.BLOCKED, CppSchedule.CYCLIC,
        models=[Model.CPP_THREADS],
    )
    assert len(by) == 6
    # Near-1 medians for the relaxation codes and MIS.
    for alg in (Algorithm.CC, Algorithm.MIS, Algorithm.BFS, Algorithm.SSSP):
        assert 0.8 <= med(by[alg]) <= 1.3, alg
    # PR leans blocked; TC leans cyclic.
    assert med(by[Algorithm.PR]) >= 1.0
    assert med(by[Algorithm.TC]) < 1.0
    # The paper's "75% of TC ratios below 1".
    frac_below = float((by[Algorithm.TC] < 1.0).mean())
    assert frac_below >= 0.5
