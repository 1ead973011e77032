"""Cross-cutting analyses of Section 5: best styles (Fig 14), style
combinations (Fig 15), and graph-property correlations (Section 5.13).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..graph.properties import GraphProperties, analyze
from ..styles.axes import (
    Determinism,
    Driver,
    Dup,
    Flow,
    Granularity,
    Iteration,
    Model,
    Persistence,
    Update,
)
from .harness import StudyResults

__all__ = [
    "BEST_STYLE_AXES",
    "best_style_percentages",
    "COMBINATION_STYLES",
    "style_combination_matrix",
    "property_correlations",
]

#: Figure 14's six pair-dimensions: the axes applicable to all three
#: programming models.
BEST_STYLE_AXES: Dict[str, Tuple] = {
    "iteration": (Iteration.VERTEX, Iteration.EDGE),
    "driver": (Driver.TOPOLOGY, Driver.DATA),
    "dup": (Dup.DUP, Dup.NODUP),
    "flow": (Flow.PUSH, Flow.PULL),
    "update": (Update.READ_WRITE, Update.READ_MODIFY_WRITE),
    "determinism": (Determinism.DETERMINISTIC, Determinism.NON_DETERMINISTIC),
}


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
    view = results.columns()
    # Each (model, algorithm, graph, device) cell's first fastest run:
    # sort by cell, then throughput descending (lexsort is stable, so
    # ties stay in run order).
    cell = view.labels("model", "algorithm", "graph", "device")
    order = np.lexsort((-view.throughput, cell))
    sorted_cells = cell[order]
    firsts = np.ones(order.size, dtype=bool)
    firsts[1:] = sorted_cells[1:] != sorted_cells[:-1]
    best = order[firsts]
    out: Dict[Model, Dict[str, Dict[str, float]]] = {}
    for model in Model:
        winners = best[view.codes["model"][best] == view.code("model", model)]
        table: Dict[str, Dict[str, float]] = {}
        for axis, options in BEST_STYLE_AXES.items():
            codes = view.codes[axis][winners]
            if not codes.any():
                table[axis] = {}
                continue
            counts = {
                opt.value: int(np.count_nonzero(codes == view.code(axis, opt)))
                for opt in options
            }
            total = sum(counts.values())
            table[axis] = {name: c / total for name, c in counts.items()}
        out[model] = table
    return out


#: Figure 15's style options (rows and columns of the CUDA matrix).
COMBINATION_STYLES: List[Tuple[str, object]] = [
    ("iteration", Iteration.VERTEX),
    ("iteration", Iteration.EDGE),
    ("driver", Driver.TOPOLOGY),
    ("driver", Driver.DATA),
    ("dup", Dup.DUP),
    ("dup", Dup.NODUP),
    ("flow", Flow.PUSH),
    ("flow", Flow.PULL),
    ("update", Update.READ_WRITE),
    ("update", Update.READ_MODIFY_WRITE),
    ("determinism", Determinism.DETERMINISTIC),
    ("determinism", Determinism.NON_DETERMINISTIC),
    ("persistence", Persistence.PERSISTENT),
    ("persistence", Persistence.NON_PERSISTENT),
]


def style_combination_matrix(
    results: StudyResults, *, model: Model = Model.CUDA
) -> Tuple[List[str], np.ndarray]:
    """Figure 15: how well style X combines with style Y.

    Entry (x, y) is the median throughput of the runs using both X and Y
    divided by the median throughput of the runs using X but not Y
    (NaN when either set is empty).  Returns (labels, matrix).
    """
    view = results.columns()
    rows = view.rows(models=[model])
    labels = [f"{opt.value}" for _axis, opt in COMBINATION_STYLES]
    k = len(COMBINATION_STYLES)
    matrix = np.full((k, k), np.nan)
    masks = [
        view.codes[axis][rows] == view.code(axis, opt)
        for axis, opt in COMBINATION_STYLES
    ]
    thr = view.throughput[rows]
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
    # z-score throughputs within (algorithm, model, device) groups, each
    # group's values in run order.
    view = results.columns()
    group = view.labels("algorithm", "model", "device")
    z = np.zeros(len(view))
    log_thr = np.log(view.throughput)
    for label in np.unique(group):
        idxs = np.flatnonzero(group == label)
        vals = log_thr[idxs]
        std = vals.std()
        z[idxs] = (vals - vals.mean()) / (std if std > 0 else 1.0)

    # Each property of each graph once; a run reads its graph's value.
    by_graph = {
        prop_name: np.array(
            [getter(properties[name]) for name in view.names["graph"]]
        )
        for prop_name, getter in prop_fields.items()
    }
    out: Dict[Tuple[str, str], float] = {}
    for axis, opt in styles:
        code = view.code(axis, opt)
        if code is None:
            continue
        mask = view.codes[axis] == code
        if not mask.any():
            continue
        sel_z = z[mask]
        graphs = view.codes["graph"][mask]
        for prop_name, values in by_graph.items():
            pvals = values[graphs]
            if pvals.std() == 0 or sel_z.std() == 0:
                continue
            r = float(np.corrcoef(pvals, sel_z)[0, 1])
            out[(f"{axis}={opt.value}", prop_name)] = r
    return out
