"""Figure 9: thread/warp/block throughputs on the road map vs the social
network (RTX 3090).

Paper findings: thread-based codes provide the highest performance on
low-degree uniform inputs (the NY road map); warp-based implementations
yield the highest throughputs on scale-free graphs (soc-LiveJournal);
block-based parallelization tends to be the slowest (no input has enough
512+-degree vertices to feed a block).
"""

import numpy as np

from repro.bench.report import render_throughput_figure
from repro.styles import Granularity, Model

from conftest import requires_default_scale


def grouped(study, graph):
    """Throughputs per granularity, vertex-based codes only.

    Warp/block granularity exists only for codes with an inner loop, so the
    thread group would otherwise also carry every edge-based variant —
    an apples-to-oranges mix the assertions must avoid.
    """
    from repro.styles import Iteration

    out = {g: [] for g in Granularity}
    for run in study.select(
        models=[Model.CUDA], graphs=[graph], devices=["RTX 3090"]
    ):
        if run.spec.iteration is not Iteration.VERTEX:
            continue
        out[run.spec.granularity].append(run.throughput_ges)
    return {g: np.asarray(v) for g, v in out.items()}


@requires_default_scale
def test_fig9a_road_map(benchmark, study, med):
    text = benchmark.pedantic(
        render_throughput_figure,
        args=(study, "granularity"),
        kwargs=dict(
            title="Figure 9a: granularity on USA-road-d.NY (RTX 3090)",
            models=[Model.CUDA], graphs=["USA-road-d.NY"],
            devices=["RTX 3090"],
        ),
        rounds=1, iterations=1,
    )
    print("\n" + text)
    by = grouped(study, "USA-road-d.NY")
    # Thread-based wins on the low-degree road network...
    assert med(by[Granularity.THREAD]) >= med(by[Granularity.WARP])
    # ...and block-based is clearly the slowest.
    assert med(by[Granularity.BLOCK]) < med(by[Granularity.THREAD])
    assert med(by[Granularity.BLOCK]) < med(by[Granularity.WARP])


def test_fig9b_social_network(benchmark, study, med):
    text = benchmark.pedantic(
        render_throughput_figure,
        args=(study, "granularity"),
        kwargs=dict(
            title="Figure 9b: granularity on soc-LiveJournal1 (RTX 3090)",
            models=[Model.CUDA], graphs=["soc-LiveJournal1"],
            devices=["RTX 3090"],
        ),
        rounds=1, iterations=1,
    )
    print("\n" + text)
    by = grouped(study, "soc-LiveJournal1")
    # Warp-based codes yield the highest throughputs on the scale-free
    # input (the figure's claim): a higher median than thread-based...
    assert med(by[Granularity.WARP]) > med(by[Granularity.THREAD])
    # ...and the warp cloud's top at least matches the thread cloud's.
    warp_top = float(np.quantile(by[Granularity.WARP], 0.9))
    thread_top = float(np.quantile(by[Granularity.THREAD], 0.9))
    assert warp_top >= 0.9 * thread_top
    # Block stays the slowest at the median.
    assert med(by[Granularity.BLOCK]) < med(by[Granularity.WARP])


def test_fig9_relative_warp_value_grows_with_degree(benchmark, study, med):
    """The warp/thread ratio must improve when moving from the road map to
    the social network (the degree-distribution correlation of §5.13)."""
    road = benchmark.pedantic(
        grouped, args=(study, "USA-road-d.NY"), rounds=1, iterations=1
    )
    soc = grouped(study, "soc-LiveJournal1")
    ratio_road = med(road[Granularity.WARP]) / med(road[Granularity.THREAD])
    ratio_soc = med(soc[Granularity.WARP]) / med(soc[Granularity.THREAD])
    assert ratio_soc > ratio_road
