"""Differential and lifecycle tests of the StudyResults column view.

Every Section 5 analysis now reads :class:`repro.bench.harness.StudyColumns`
instead of walking the runs; :mod:`tests.bench.ratio_oracle` keeps the
run-by-run loops it replaced.  Here both run on the same results and must
agree exactly: arrays with ``==`` (never ``approx``), dicts in the same
key order, and rendered text byte for byte.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench import export, guidelines, report
from repro.bench.analysis import (
    best_style_percentages,
    property_correlations,
    style_combination_matrix,
)
from repro.bench.harness import SPEC_FIELDS, StudyColumns, StudyResults
from repro.bench.ratios import (
    PAIR_AXES,
    axis_ratios,
    driver_ratios,
    ratios_by_algorithm,
    throughputs_by_option,
)
from repro.bench.storage import save_results
from repro.graph.properties import GraphProperties
from repro.runtime.errors import ErrorClass, FailedRun
from repro.runtime.launcher import RunResult
from repro.styles import (
    Algorithm,
    Dup,
    Model,
    OmpSchedule,
    Persistence,
    enumerate_specs,
)

from . import ratio_oracle as oracle

#: (algorithm, model) blocks small enough for an oracle walk per example;
#: MIS and CC have data-driven variants for the driver pairing.
POOL = [
    (Algorithm.PR, Model.OPENMP),
    (Algorithm.PR, Model.CUDA),
    (Algorithm.TC, Model.CPP_THREADS),
    (Algorithm.MIS, Model.OPENMP),
    (Algorithm.MIS, Model.CPP_THREADS),
    (Algorithm.CC, Model.CPP_THREADS),
]
DEVICES = ["dev-a", "dev-b", "dev-c"]
GRAPHS = ["g0", "g1", "g2"]


def _run(spec, device, graph, throughput, predicted=False):
    return RunResult(
        spec=spec, device=device, graph=graph,
        seconds=1.0 / throughput, throughput_ges=throughput,
        verified=not predicted, iterations=0 if predicted else 3,
        launches=0 if predicted else 4, predicted=predicted,
    )


@st.composite
def studies(draw):
    """Synthetic sweeps: whole blocks with runs dropped at random (so
    partners go missing), shuffled, some throughputs tied, some rows
    predicted, some cells duplicated at random later positions, and a
    failure manifest.  May be empty."""
    blocks = draw(st.lists(st.sampled_from(POOL), max_size=3, unique=True))
    devices = draw(st.lists(st.sampled_from(DEVICES), min_size=1, max_size=2,
                            unique=True))
    graphs = draw(st.lists(st.sampled_from(GRAPHS), min_size=1, max_size=2,
                           unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    drop = draw(st.sampled_from([0.0, 0.25, 0.6]))
    cells = [
        (spec, device, graph)
        for algorithm, model in blocks
        for spec in enumerate_specs(algorithm, model)
        for device in devices
        for graph in graphs
        if rng.random() >= drop
    ]
    if draw(st.booleans()):
        cells = [cells[i] for i in rng.permutation(len(cells))]
    # A few distinct values make ties (Figure 14's first-wins rule).
    levels = draw(st.sampled_from([3, 1000]))
    runs = [
        _run(spec, device, graph, float(rng.integers(1, levels + 1)) / 7.0,
             predicted=bool(rng.random() < 0.2))
        for spec, device, graph in cells
    ]
    for _ in range(draw(st.integers(0, 8)) if runs else 0):
        source = runs[int(rng.integers(len(runs)))]
        at = int(rng.integers(runs.index(source) + 1, len(runs) + 1))
        runs.insert(at, dataclasses.replace(
            source, throughput_ges=source.throughput_ges * 3.0 + 0.5,
            seconds=source.seconds / 2.0,
        ))
    results = StudyResults()
    for run in runs:
        results.add(run)
    for i in range(draw(st.integers(0, 2))):
        results.add_failure(FailedRun(
            algorithm="bfs", graph=graphs[0], error_class=ErrorClass.KERNEL,
            message=f"injected {i}", digest="0" * 16,
        ))
    return results


@st.composite
def filters(draw):
    """Select-style filters; each may name absent algorithms, models,
    devices or graphs (or be empty)."""
    def maybe(values):
        return draw(st.one_of(
            st.none(), st.lists(st.sampled_from(values), max_size=3, unique=True)
        ))

    return {
        "algorithms": maybe(list(Algorithm)),
        "models": maybe(list(Model)),
        "devices": maybe(DEVICES + ["absent-device"]),
        "graphs": maybe(GRAPHS + ["absent-graph"]),
    }


def _properties():
    return {
        name: GraphProperties(
            name=name, n_vertices=10 + i, n_edges=40 * (i + 1),
            size_mb=0.5 * (i + 1), avg_degree=4.0 + i,
            max_degree=9 * (i + 2), pct_deg_ge_32=0.01 * i,
            pct_deg_ge_512=0.0, diameter=3 + 2 * i,
        )
        for i, name in enumerate(GRAPHS)
    }


def assert_same_groups(got, want):
    """Same keys in the same order, and ``==`` arrays under each."""
    assert list(got) == list(want)
    for key in want:
        assert np.asarray(got[key]).dtype == np.float64
        assert np.array_equal(got[key], np.asarray(want[key]))


STUDY_SETTINGS = settings(
    max_examples=30, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestDifferential:
    @STUDY_SETTINGS
    @given(results=studies(), where=filters(), data=st.data())
    def test_ratios_match_oracle(self, results, where, data):
        for axis in PAIR_AXES:
            # Option A may be None; B is mostly another option of the axis.
            a = data.draw(st.sampled_from([None, *SPEC_FIELDS[axis]]))
            b = data.draw(st.sampled_from(list(SPEC_FIELDS[axis])))
            for filters_ in (where, {}):
                assert_same_groups(
                    ratios_by_algorithm(results, axis, a, b, **filters_),
                    oracle.ratios_by_algorithm(results, axis, a, b, **filters_),
                )

    @STUDY_SETTINGS
    @given(results=studies(), where=filters())
    def test_throughputs_by_option_match_oracle(self, results, where):
        for axis in SPEC_FIELDS:
            for filters_ in (where, {}):
                assert_same_groups(
                    throughputs_by_option(results, axis, **filters_),
                    oracle.throughputs_by_option(results, axis, **filters_),
                )

    @STUDY_SETTINGS
    @given(results=studies())
    def test_driver_pairing_matches_oracle(self, results):
        for dup in Dup:
            for model in Model:
                assert_same_groups(
                    driver_ratios(results, dup, models=[model]),
                    oracle.driver_figure_ratios(results, dup, model),
                )
        # Guideline 7 reads only the median of its ratios, which it now
        # takes over the per-algorithm groups instead of run order.
        grouped = driver_ratios(results, Dup.NODUP, models=[Model.CPP_THREADS])
        flat = np.concatenate([np.empty(0), *grouped.values()])
        want = np.asarray(oracle.guideline7_ratios(results))
        assert np.array_equal(np.sort(flat), np.sort(want))

    @STUDY_SETTINGS
    @given(results=studies())
    def test_analysis_masks_match_oracle(self, results):
        got = best_style_percentages(results)
        want = oracle.best_style_percentages(results)
        assert list(got) == list(want)
        for model in want:
            assert list(got[model].items()) == list(want[model].items())
            for axis in want[model]:
                assert list(got[model][axis].items()) == list(
                    want[model][axis].items()
                )
        for model in Model:
            labels, matrix = style_combination_matrix(results, model=model)
            want_labels, want_matrix = oracle.style_combination_matrix(
                results, model=model
            )
            assert labels == want_labels
            assert np.array_equal(matrix, want_matrix, equal_nan=True)
        props = _properties()
        got_corr = property_correlations(results, props)
        want_corr = oracle.property_correlations(results, props)
        assert list(got_corr.items()) == list(want_corr.items())

    def test_duplicated_cell_resolves_to_last_added(self):
        spec = enumerate_specs(Algorithm.PR, Model.OPENMP)[0]
        assert spec.omp_schedule is OmpSchedule.DEFAULT
        partner = spec.with_axis(omp_schedule=OmpSchedule.DYNAMIC)
        results = StudyResults()
        for run in (
            _run(partner, "d", "g", 2.0),
            _run(spec, "d", "g", 6.0),
            _run(partner, "d", "g", 3.0),
            _run(spec, "d", "g", 9.0),
        ):
            results.add(run)
        args = ("omp_schedule", OmpSchedule.DEFAULT, OmpSchedule.DYNAMIC)
        got = ratios_by_algorithm(results, *args)
        assert np.array_equal(got[Algorithm.PR], [6.0 / 3.0, 9.0 / 3.0])
        assert_same_groups(got, oracle.ratios_by_algorithm(results, *args))

    def test_empty_results(self):
        results = StudyResults()
        assert ratios_by_algorithm(results, "flow", None, None) == {}
        assert throughputs_by_option(results, "flow") == {}
        assert driver_ratios(results, Dup.DUP) == {}
        assert property_correlations(results, {}) == {}
        assert len(results.columns()) == 0

    def test_key_overflow_raises(self, monkeypatch):
        from repro.bench import harness

        # 15 real fields plus 20 more of radix 7 need over 63 bits.
        wide = {**SPEC_FIELDS, **{f"extra{i}": Algorithm for i in range(20)}}
        monkeypatch.setattr(harness, "SPEC_FIELDS", wide)
        with pytest.raises(OverflowError, match="int64"):
            StudyColumns([])


def render_everything(results: StudyResults) -> str:
    """Every table, figure and guideline that reads the sweep."""
    out = [report.render_table6(results)]
    out += [report.render_ratio_figure(results, fig) for fig in report.FIGURE_AXES]
    out += [
        report.render_driver_figure(results, dup, model)
        for dup in Dup for model in Model
    ]
    for axis, models in (
        ("granularity", [Model.CUDA]),
        ("gpu_reduction", [Model.CUDA]),
        ("cpu_reduction", [Model.OPENMP, Model.CPP_THREADS]),
    ):
        out.append(report.render_throughput_figure(
            results, axis, title=axis, models=models,
        ))
    out += [
        report.render_figure14(results),
        report.render_figure15(results),
        report.render_correlations(results),
        report.render_figure16(results),
    ]
    out += [g.render() for g in guidelines.derive_guidelines(results)]
    return "\n".join(out)


def _use_oracle(monkeypatch):
    """Point every consumer of the column view at the frozen loops."""
    def oracle_driver(results, dup, *, models):
        (model,) = models
        return {
            alg: np.asarray(vals)
            for alg, vals in oracle.driver_figure_ratios(results, dup, model).items()
        }

    for module, name, value in (
        (report, "ratios_by_algorithm", oracle.ratios_by_algorithm),
        (report, "throughputs_by_option", oracle.throughputs_by_option),
        (report, "driver_ratios", oracle_driver),
        (report, "best_style_percentages", oracle.best_style_percentages),
        (report, "style_combination_matrix", oracle.style_combination_matrix),
        (report, "property_correlations", oracle.property_correlations),
        (report, "baseline_speedups", oracle.baseline_speedups),
        (guidelines, "axis_ratios", oracle.axis_ratios),
        (guidelines, "throughputs_by_option", oracle.throughputs_by_option),
        (guidelines, "driver_ratios", oracle_driver),
        (export, "ratios_by_algorithm", oracle.ratios_by_algorithm),
    ):
        monkeypatch.setattr(module, name, value)


class TestTinySweep:
    def test_figure_csv_byte_identical(self, tiny_sweep, monkeypatch):
        got = {f: export.figure_ratios_to_csv(tiny_sweep, f)
               for f in report.FIGURE_AXES}
        _use_oracle(monkeypatch)
        for figure, text in got.items():
            assert text == export.figure_ratios_to_csv(tiny_sweep, figure)

    def test_report_text_equals_oracle(self, tiny_sweep, monkeypatch):
        got = render_everything(tiny_sweep)
        _use_oracle(monkeypatch)
        assert got == render_everything(tiny_sweep)

    def test_guideline7_uses_the_same_median(self, tiny_sweep):
        (g7,) = [
            g for g in guidelines.derive_guidelines(tiny_sweep)
            if g.statement.startswith("C++ threads prefer")
        ]
        median = float(np.median(oracle.guideline7_ratios(tiny_sweep)))
        assert g7.evidence.endswith(f"{median:.2f}")


def _copy(results: StudyResults, skip=()) -> StudyResults:
    out = StudyResults(graphs=dict(results.graphs))
    for i, run in enumerate(results.runs):
        if i not in skip:
            out.add(run)
    return out


class TestLifecycle:
    def test_add_after_render_rebuilds_the_view(self, tiny_sweep):
        # A persistent CUDA run, held back until the figure is rendered.
        spot = next(
            i for i, run in enumerate(tiny_sweep.runs)
            if run.spec.persistence is Persistence.PERSISTENT
        )
        results = _copy(tiny_sweep, skip={spot})
        args = ("persistence", Persistence.PERSISTENT, Persistence.NON_PERSISTENT)
        before = report.render_ratio_figure(results, "fig8")
        n_before = axis_ratios(results, *args).size
        view = results.columns()
        assert results.columns() is view  # shared until the next add
        results.add(tiny_sweep.runs[spot])
        assert results.columns() is not view
        assert len(results.columns()) == len(results.runs)
        assert axis_ratios(results, *args).size == n_before + 1
        assert_same_groups(
            ratios_by_algorithm(results, *args),
            oracle.ratios_by_algorithm(results, *args),
        )
        assert report.render_ratio_figure(results, "fig8") != before

    def test_save_bytes_do_not_depend_on_rendering(self, tiny_sweep, tmp_path):
        results = _copy(tiny_sweep)
        save_results(results, tmp_path / "fresh.pkl", scale="tiny")
        render_everything(results)
        assert results._columns is not None
        save_results(results, tmp_path / "rendered.pkl", scale="tiny")
        assert (tmp_path / "fresh.pkl").read_bytes() == (
            tmp_path / "rendered.pkl"
        ).read_bytes()
        assert pickle.loads(pickle.dumps(results))._columns is None

    def test_baseline_cells_shared_and_invalidated(self, tiny_sweep, monkeypatch):
        from repro.bench import comparison

        results = _copy(tiny_sweep)
        built = []
        real = comparison.baseline_trace

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(comparison, "baseline_trace", counting)
        report.render_table6(results)
        n = len(built)
        assert n > 0
        assert report.render_figure16(results)
        assert len(built) == n  # Figure 16 reuses Table 6's cells
        results.add(results.runs[0])
        report.render_table6(results)
        assert len(built) == 2 * n  # add made a new view, without the cells
        results.graphs = {"USA-road-d.NY": results.graphs["USA-road-d.NY"]}
        cells = comparison.baseline_speedups(results)
        assert {c.graph for c in cells} == {"USA-road-d.NY"}
        assert len(built) > 2 * n  # new graphs: cells recomputed
