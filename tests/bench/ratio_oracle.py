"""Frozen per-run reference loops of the analysis layer.

These are the original run-by-run implementations of the Section 5
analyses — :func:`ratios_by_algorithm`, :func:`throughputs_by_option`,
the Figures 3/4 topology/data-driven pairing of ``render_driver_figure``,
guideline 7's C++ pairing, Figure 14's winners, Figure 15's style masks,
the Section 5.13 correlations and the Figure 16 baseline cells — kept
verbatim as a test oracle.  The package computes all of them on
:class:`repro.bench.harness.StudyColumns`; the differential tests check
that every array it returns equals these loops' with ``==`` and every
dict has the same key order.  Do not edit these bodies: they pin the
report's numbers.

The only changes from the originals are the imports, and two loops
lifted out of their functions with a ``return`` added:
``render_driver_figure``'s into :func:`driver_figure_ratios` and
guideline 7's (in ``derive_guidelines``) into :func:`guideline7_ratios`.
"""

from dataclasses import fields
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.bench.analysis import BEST_STYLE_AXES, COMBINATION_STYLES
from repro.bench.baselines import BASELINES, baseline_trace
from repro.bench.comparison import SpeedupCell, best_style_spec
from repro.bench.harness import StudyResults
from repro.graph.properties import GraphProperties, analyze
from repro.machine.devices import CPUS, GPUS
from repro.machine.matrix import time_matrix
from repro.runtime.launcher import RunResult
from repro.styles.spec import StyleSpec
from repro.styles.axes import (
    Algorithm,
    Driver,
    Dup,
    Flow,
    Granularity,
    Model,
)

__all__ = [
    "ratios_by_algorithm",
    "axis_ratios",
    "throughputs_by_option",
    "driver_figure_ratios",
    "guideline7_ratios",
    "best_style_percentages",
    "style_combination_matrix",
    "property_correlations",
    "baseline_speedups",
]




def axis_ratios(
    results: StudyResults,
    axis: str,
    option_a,
    option_b,
    *,
    algorithms: Optional[Iterable[Algorithm]] = None,
    models: Optional[Iterable[Model]] = None,
    devices: Optional[Iterable[str]] = None,
    graphs: Optional[Iterable[str]] = None,
) -> np.ndarray:
    """All pairwise throughput ratios option_a / option_b for one axis."""
    grouped = ratios_by_algorithm(
        results, axis, option_a, option_b,
        algorithms=algorithms, models=models, devices=devices, graphs=graphs,
    )
    if not grouped:
        return np.empty(0)
    return np.concatenate(list(grouped.values()))


def ratios_by_algorithm(
    results: StudyResults,
    axis: str,
    option_a,
    option_b,
    *,
    algorithms: Optional[Iterable[Algorithm]] = None,
    models: Optional[Iterable[Model]] = None,
    devices: Optional[Iterable[str]] = None,
    graphs: Optional[Iterable[str]] = None,
) -> Dict[Algorithm, np.ndarray]:
    """Pairwise ratios grouped per algorithm (the paper's figure layout)."""
    valid_axes = {f.name for f in fields(StyleSpec)} - {"algorithm", "model"}
    if axis not in valid_axes:
        raise KeyError(f"unknown style axis {axis!r}; known: {sorted(valid_axes)}")
    out: Dict[Algorithm, List[float]] = {}
    for run in results.select(
        algorithms=algorithms, models=models, devices=devices, graphs=graphs
    ):
        if run.spec.axis_value(axis) is not option_a:
            continue
        partner_spec = run.spec.with_axis(**{axis: option_b})
        partner = results.get(partner_spec, run.device, run.graph)
        if partner is None:
            continue  # the B option does not exist for this combination
        out.setdefault(run.spec.algorithm, []).append(
            run.throughput_ges / partner.throughput_ges
        )
    return {alg: np.asarray(vals) for alg, vals in out.items()}


def throughputs_by_option(
    results: StudyResults,
    axis: str,
    *,
    algorithms: Optional[Iterable[Algorithm]] = None,
    models: Optional[Iterable[Model]] = None,
    devices: Optional[Iterable[str]] = None,
    graphs: Optional[Iterable[str]] = None,
) -> Dict[object, np.ndarray]:
    """Raw throughputs grouped by an axis's option (for the three-way
    comparisons of Figures 9-11, where ratios would be unwieldy)."""
    out: Dict[object, List[float]] = {}
    for run in results.select(
        algorithms=algorithms, models=models, devices=devices, graphs=graphs
    ):
        option = run.spec.axis_value(axis)
        if option is None:
            continue
        out.setdefault(option, []).append(run.throughput_ges)
    return {opt: np.asarray(vals) for opt, vals in out.items()}


def driver_figure_ratios(
    results: StudyResults, dup: Dup, model: Model
) -> Dict[Algorithm, List[float]]:
    """Figures 3/4's topology/data-driven ratios per algorithm."""
    out: Dict[Algorithm, List[float]] = {}
    for run in results.select(models=[model]):
        if run.spec.driver is not Driver.TOPOLOGY or run.spec.flow is Flow.PULL:
            continue
        try:
            partner_spec = run.spec.with_axis(driver=Driver.DATA, dup=dup)
        except TypeError:  # pragma: no cover
            continue
        partner = results.get(partner_spec, run.device, run.graph)
        if partner is None:
            continue
        out.setdefault(run.spec.algorithm, []).append(
            run.throughput_ges / partner.throughput_ges
        )
    return out


def best_style_percentages(
    results: StudyResults,
) -> Dict[Model, Dict[str, Dict[str, float]]]:
    """Figure 14: per model, the share of each style option among the
    best-performing codes.

    For every (model, algorithm, input, device) cell the single
    highest-throughput variant is selected; the table reports, per model
    and axis option, the percentage of those winners using that option
    (among winners for which the axis applies).
    """
    best: Dict[Tuple, RunResult] = {}
    for run in results.runs:
        key = (run.spec.model, run.spec.algorithm, run.graph, run.device)
        cur = best.get(key)
        if cur is None or run.throughput_ges > cur.throughput_ges:
            best[key] = run
    out: Dict[Model, Dict[str, Dict[str, float]]] = {}
    for model in Model:
        winners = [r for k, r in best.items() if k[0] is model]
        table: Dict[str, Dict[str, float]] = {}
        for axis, options in BEST_STYLE_AXES.items():
            applicable = [
                r for r in winners if r.spec.axis_value(axis) is not None
            ]
            if not applicable:
                table[axis] = {}
                continue
            counts = {
                opt.value: sum(
                    1 for r in applicable if r.spec.axis_value(axis) is opt
                )
                for opt in options
            }
            total = sum(counts.values())
            table[axis] = {name: c / total for name, c in counts.items()}
        out[model] = table
    return out


def style_combination_matrix(
    results: StudyResults, *, model: Model = Model.CUDA
) -> Tuple[List[str], np.ndarray]:
    """Figure 15: how well style X combines with style Y.

    Entry (x, y) is the median throughput of the runs using both X and Y
    divided by the median throughput of the runs using X but not Y
    (NaN when either set is empty).  Returns (labels, matrix).
    """
    runs = list(results.select(models=[model]))
    labels = [f"{opt.value}" for _axis, opt in COMBINATION_STYLES]
    k = len(COMBINATION_STYLES)
    matrix = np.full((k, k), np.nan)
    masks = []
    for axis, opt in COMBINATION_STYLES:
        masks.append(
            np.array([run.spec.axis_value(axis) is opt for run in runs], dtype=bool)
        )
    thr = np.array([run.throughput_ges for run in runs])
    for i, (axis_i, _opt_i) in enumerate(COMBINATION_STYLES):
        for j, (axis_j, _opt_j) in enumerate(COMBINATION_STYLES):
            if i == j or axis_i == axis_j:
                continue
            with_y = masks[i] & masks[j]
            without_y = masks[i] & ~masks[j]
            if with_y.any() and without_y.any():
                matrix[i, j] = float(
                    np.median(thr[with_y]) / np.median(thr[without_y])
                )
    return labels, matrix


def property_correlations(
    results: StudyResults,
    properties: Optional[Dict[str, GraphProperties]] = None,
    *,
    styles: Optional[Sequence[Tuple[str, object]]] = None,
) -> Dict[Tuple[str, str], float]:
    """Section 5.13: correlate throughput with graph properties.

    For every (style option, graph property) pair, computes the Pearson
    correlation between the property value and the throughput of the runs
    using that option, with throughputs z-scored within each
    (algorithm, model, device) group so the correlation isolates the
    input's effect (raw throughputs differ across algorithms by orders of
    magnitude, which would swamp any input effect).
    """
    if properties is None:
        properties = {
            name: analyze(graph) for name, graph in results.graphs.items()
        }
    if styles is None:
        styles = COMBINATION_STYLES + [
            ("granularity", Granularity.THREAD),
            ("granularity", Granularity.WARP),
            ("granularity", Granularity.BLOCK),
        ]
    prop_fields = {
        "size_mb": lambda p: p.size_mb,
        "avg_degree": lambda p: p.avg_degree,
        "max_degree": lambda p: float(p.max_degree),
        "pct_deg_ge_32": lambda p: p.pct_deg_ge_32,
        "pct_deg_ge_512": lambda p: p.pct_deg_ge_512,
        "diameter": lambda p: float(p.diameter),
    }
    # z-score throughputs within (algorithm, model, device) groups.
    groups: Dict[Tuple, List[int]] = {}
    runs = results.runs
    for idx, run in enumerate(runs):
        groups.setdefault(
            (run.spec.algorithm, run.spec.model, run.device), []
        ).append(idx)
    z = np.zeros(len(runs))
    log_thr = np.log(np.array([r.throughput_ges for r in runs]))
    for idxs in groups.values():
        vals = log_thr[idxs]
        std = vals.std()
        z[idxs] = (vals - vals.mean()) / (std if std > 0 else 1.0)

    out: Dict[Tuple[str, str], float] = {}
    for axis, opt in styles:
        mask = np.array(
            [run.spec.axis_value(axis) is opt for run in runs], dtype=bool
        )
        if not mask.any():
            continue
        sel_z = z[mask]
        for prop_name, getter in prop_fields.items():
            pvals = np.array(
                [getter(properties[runs[i].graph]) for i in np.flatnonzero(mask)]
            )
            if pvals.std() == 0 or sel_z.std() == 0:
                continue
            r = float(np.corrcoef(pvals, sel_z)[0, 1])
            out[(f"{axis}={opt.value}", prop_name)] = r
    return out


def baseline_speedups(
    results: StudyResults,
    *,
    source: Optional[int] = None,
) -> List[SpeedupCell]:
    """Figure 16: all speedup cells of best-style codes over baselines."""
    cells: List[SpeedupCell] = []
    for model in Model:
        devices = (
            list(GPUS.values()) if model.is_gpu else list(CPUS.values())
        )
        for algorithm in BASELINES[model]:
            try:
                best = best_style_spec(results, algorithm, model)
            except ValueError:
                continue
            for graph_name, graph in results.graphs.items():
                src = source if source is not None else int(np.argmax(graph.degrees))
                ours = {
                    device: results.get(best, device.name, graph_name)
                    for device in devices
                }
                present = [d for d in devices if ours[d] is not None]
                if not present:
                    continue
                base = baseline_trace(algorithm, graph, model, src)
                base_seconds = time_matrix(base.trace, [base.style], present)[0]
                for device, seconds in zip(present, base_seconds):
                    base_ges = graph.n_edges / float(seconds) / 1e9
                    cells.append(
                        SpeedupCell(
                            model=model,
                            algorithm=algorithm,
                            graph=graph_name,
                            device=device.name,
                            ours_ges=ours[device].throughput_ges,
                            baseline_ges=base_ges,
                        )
                    )
    return cells


def guideline7_ratios(results: StudyResults) -> List[float]:
    """Guideline 7's C++ topology/data-driven ratios, in run order."""
    cpp_topo: List[float] = []
    for run in results.select(models=[Model.CPP_THREADS]):
        if run.spec.driver is not Driver.TOPOLOGY or run.spec.flow is Flow.PULL:
            continue
        partner = results.get(
            run.spec.with_axis(driver=Driver.DATA, dup=Dup.NODUP),
            run.device, run.graph,
        )
        if partner is not None:
            cpp_topo.append(run.throughput_ges / partner.throughput_ges)
    return cpp_topo
