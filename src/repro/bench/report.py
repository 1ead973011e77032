"""Text rendering of every table and figure of the paper's evaluation.

Each ``render_*`` function returns a printable string with the same rows /
series the paper reports (medians and letter-value summaries stand in for
the boxen plots).  The CLI (``python -m repro``) and the benchmark suite
both go through these functions, so what the benchmarks assert is exactly
what users see.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..graph.datasets import DATASETS
from ..graph.properties import GraphProperties
from ..kernels.registry import PROBLEM_CATEGORIES
from ..styles.applicability import applicability_table
from ..styles.axes import (
    Algorithm,
    AtomicFlavor,
    CppSchedule,
    Determinism,
    Dup,
    Flow,
    Iteration,
    Model,
    OmpSchedule,
    Persistence,
    Update,
)
from ..styles.combos import table3_counts
from .analysis import (
    best_style_percentages,
    property_correlations,
    style_combination_matrix,
)
from .boxen import letter_values
from .comparison import baseline_speedups, table6
from .harness import StudyResults
from .ratios import driver_ratios, ratios_by_algorithm, throughputs_by_option

__all__ = [
    "render_table1",
    "render_table2",
    "render_table3",
    "render_table4",
    "render_table5",
    "render_table6",
    "render_ratio_figure",
    "render_throughput_figure",
    "render_figure14",
    "render_figure15",
    "render_correlations",
    "render_figure16",
    "FIGURE_AXES",
]


def _fmt_ratio(v: float) -> str:
    if not np.isfinite(v):
        return "   n/a"
    if v >= 100:
        return f"{v:6.0f}"
    return f"{v:6.2f}"


# ----------------------------------------------------------------------
# Tables 1-6
# ----------------------------------------------------------------------
def render_table1() -> str:
    lines = ["Table 1: Graph problems used in the study", ""]
    lines.append(f"{'Category':<15} {'Problem'}")
    for alg, category in PROBLEM_CATEGORIES.items():
        lines.append(f"{category:<15} {alg.name}")
    return "\n".join(lines)


def render_table2() -> str:
    table = applicability_table()
    algs = [a.name for a in Algorithm]
    width = max(len(name) for name in table) + 1
    lines = ["Table 2: Included implementation styles", ""]
    lines.append(" " * width + "  ".join(f"{a:>8}" for a in algs))
    for style_name, row in table.items():
        cells = "  ".join(f"{row[a]:>8}" for a in algs)
        lines.append(f"{style_name:<{width}}{cells}")
    return "\n".join(lines)


def render_table3() -> str:
    lines = [
        "Table 3: Number of code versions (ours vs. paper)",
        "",
        f"{'Model':<8} {'Problem':<8} {'ours':>6} {'paper':>6}",
    ]
    totals: Dict[str, List[int]] = {}
    for model, alg, ours, paper in table3_counts():
        lines.append(f"{model:<8} {alg:<8} {ours:>6} {paper:>6}")
        totals.setdefault(model, [0, 0])
        totals[model][0] += ours
        totals[model][1] += paper
    lines.append("")
    for model, (ours, paper) in totals.items():
        lines.append(f"{model:<8} {'total':<8} {ours:>6} {paper:>6}")
    grand = [sum(t[i] for t in totals.values()) for i in (0, 1)]
    lines.append(f"{'all':<8} {'total':<8} {grand[0]:>6} {grand[1]:>6}")
    return "\n".join(lines)


def render_table4(properties: Dict[str, GraphProperties]) -> str:
    lines = [
        "Table 4: Graph information (scaled stand-ins)",
        "",
        f"{'Name':<18} {'Type':<12} {'Origin':<8} {'Vertices':>10} {'Edges':>12} {'MB':>8}",
    ]
    for name, spec in DATASETS.items():
        p = properties[name]
        lines.append(
            f"{name:<18} {spec.graph_type:<12} {spec.origin:<8} "
            f"{p.n_vertices:>10,} {p.n_edges:>12,} {p.size_mb:>8.1f}"
        )
    return "\n".join(lines)


def render_table5(properties: Dict[str, GraphProperties]) -> str:
    lines = [
        "Table 5: Graph degree information (scaled stand-ins)",
        "",
        f"{'Name':<18} {'d_avg':>6} {'d_max':>7} {'d>=32':>7} {'d>=512':>9} {'Diam':>6}",
    ]
    for name in DATASETS:
        p = properties[name]
        lines.append(
            f"{name:<18} {p.avg_degree:>6.1f} {p.max_degree:>7,} "
            f"{p.pct_deg_ge_32:>7.1%} {p.pct_deg_ge_512:>9.3%} {p.diameter:>6,}"
        )
    return "\n".join(lines)


def render_table6(results: StudyResults) -> str:
    cells = baseline_speedups(results)
    rows = table6(cells)
    algs = [a.value for a in Algorithm]
    lines = [
        "Table 6: Geomean speedup of our best style over baseline codes",
        "",
        f"{'Model':<8} " + " ".join(f"{a:>7}" for a in algs) + f" {'geomean':>8}",
    ]
    for model, row in rows.items():
        cells_s = " ".join(
            f"{row[a]:>7.2f}" if a in row else f"{'N/A':>7}" for a in algs
        )
        lines.append(f"{model.value:<8} {cells_s} {row.get('geomean', float('nan')):>8.2f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Ratio figures (1-8, 12, 13)
# ----------------------------------------------------------------------
#: figure id -> (title, axis field, option A, option B, model filter,
#: device filter, algorithm filter)
FIGURE_AXES = {
    "fig1-3090": (
        "Figure 1a: Atomic / CudaAtomic (RTX 3090)",
        "atomic_flavor", AtomicFlavor.ATOMIC, AtomicFlavor.CUDA_ATOMIC,
        [Model.CUDA], ["RTX 3090"], None,
    ),
    "fig1-titanv": (
        "Figure 1b: Atomic / CudaAtomic (Titan V)",
        "atomic_flavor", AtomicFlavor.ATOMIC, AtomicFlavor.CUDA_ATOMIC,
        [Model.CUDA], ["Titan V"], None,
    ),
    "fig2-cuda": (
        "Figure 2a: vertex-based / edge-based (CUDA)",
        "iteration", Iteration.VERTEX, Iteration.EDGE,
        [Model.CUDA], None, None,
    ),
    "fig2-cpu": (
        "Figure 2b: vertex-based / edge-based (OpenMP and C++)",
        "iteration", Iteration.VERTEX, Iteration.EDGE,
        [Model.OPENMP, Model.CPP_THREADS], None, None,
    ),
    "fig5-cuda": (
        "Figure 5a: push / pull (CUDA)",
        "flow", Flow.PUSH, Flow.PULL, [Model.CUDA], None, None,
    ),
    "fig5-omp": (
        "Figure 5b: push / pull (OpenMP)",
        "flow", Flow.PUSH, Flow.PULL, [Model.OPENMP], None, None,
    ),
    "fig5-cpp": (
        "Figure 5c: push / pull (C++ threads)",
        "flow", Flow.PUSH, Flow.PULL, [Model.CPP_THREADS], None, None,
    ),
    "fig6-cuda": (
        "Figure 6a: read-write / read-modify-write (CUDA)",
        "update", Update.READ_WRITE, Update.READ_MODIFY_WRITE,
        [Model.CUDA], None, None,
    ),
    "fig6-omp": (
        "Figure 6b: read-write / read-modify-write (OpenMP)",
        "update", Update.READ_WRITE, Update.READ_MODIFY_WRITE,
        [Model.OPENMP], None, None,
    ),
    "fig6-cpp": (
        "Figure 6c: read-write / read-modify-write (C++ threads)",
        "update", Update.READ_WRITE, Update.READ_MODIFY_WRITE,
        [Model.CPP_THREADS], None, None,
    ),
    "fig7-cuda": (
        "Figure 7a: deterministic / non-deterministic (CUDA)",
        "determinism", Determinism.DETERMINISTIC, Determinism.NON_DETERMINISTIC,
        [Model.CUDA], None, None,
    ),
    "fig7-omp": (
        "Figure 7b: deterministic / non-deterministic (OpenMP)",
        "determinism", Determinism.DETERMINISTIC, Determinism.NON_DETERMINISTIC,
        [Model.OPENMP], None, None,
    ),
    "fig7-cpp": (
        "Figure 7c: deterministic / non-deterministic (C++ threads)",
        "determinism", Determinism.DETERMINISTIC, Determinism.NON_DETERMINISTIC,
        [Model.CPP_THREADS], None, None,
    ),
    "fig8": (
        "Figure 8: persistent / non-persistent (CUDA)",
        "persistence", Persistence.PERSISTENT, Persistence.NON_PERSISTENT,
        [Model.CUDA], None, None,
    ),
    "fig12": (
        "Figure 12: default / dynamic scheduling (OpenMP)",
        "omp_schedule", OmpSchedule.DEFAULT, OmpSchedule.DYNAMIC,
        [Model.OPENMP], None, None,
    ),
    "fig13": (
        "Figure 13: blocked / cyclic scheduling (C++ threads)",
        "cpp_schedule", CppSchedule.BLOCKED, CppSchedule.CYCLIC,
        [Model.CPP_THREADS], None, None,
    ),
}


def render_ratio_figure(results: StudyResults, figure: str) -> str:
    """Render one of the pairwise-ratio figures as a letter-value table."""
    if figure not in FIGURE_AXES:
        raise KeyError(f"unknown figure {figure!r}; known: {sorted(FIGURE_AXES)}")
    title, axis, a, b, models, devices, algorithms = FIGURE_AXES[figure]
    grouped = ratios_by_algorithm(
        results, axis, a, b,
        models=models, devices=devices, algorithms=algorithms,
    )
    lines = [title, "", "ratio > 1.0 means the first-named style is faster", ""]
    lines.append(
        f"{'Problem':<8} {'n':>5} {'median':>7} {'q1':>7} {'q3':>7} {'min':>8} {'max':>8}"
    )
    for alg in Algorithm:
        if alg not in grouped:
            continue
        lv = letter_values(grouped[alg])
        lo, hi = lv.fourths
        lines.append(
            f"{alg.value:<8} {lv.n:>5} {_fmt_ratio(lv.median):>7} "
            f"{_fmt_ratio(lo):>7} {_fmt_ratio(hi):>7} "
            f"{_fmt_ratio(lv.minimum):>8} {_fmt_ratio(lv.maximum):>8}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Throughput figures (3, 4, 9, 10, 11)
# ----------------------------------------------------------------------
def render_driver_figure(
    results: StudyResults, dup: Dup, model: Model
) -> str:
    """Figures 3/4: topology-driven over data-driven (with/without dups)."""
    out = driver_ratios(results, dup, models=[model])
    which = "with" if dup is Dup.DUP else "without"
    fig = "3" if dup is Dup.DUP else "4"
    lines = [
        f"Figure {fig} ({model.value}): topology-driven / data-driven "
        f"({which} duplicates)",
        "",
        f"{'Problem':<8} {'n':>5} {'median':>7} {'min':>8} {'max':>8}",
    ]
    for alg in Algorithm:
        if alg not in out:
            continue
        lv = letter_values(out[alg])
        lines.append(
            f"{alg.value:<8} {lv.n:>5} {_fmt_ratio(lv.median):>7} "
            f"{_fmt_ratio(lv.minimum):>8} {_fmt_ratio(lv.maximum):>8}"
        )
    return "\n".join(lines)


def render_throughput_figure(
    results: StudyResults,
    axis: str,
    *,
    title: str,
    models: Sequence[Model],
    algorithms: Optional[Sequence[Algorithm]] = None,
    graphs: Optional[Sequence[str]] = None,
    devices: Optional[Sequence[str]] = None,
) -> str:
    """Figures 9-11: per-option throughput summaries."""
    grouped = throughputs_by_option(
        results, axis,
        models=models, algorithms=algorithms, graphs=graphs, devices=devices,
    )
    lines = [title, "", f"{'Style':<16} {'n':>5} {'median':>9} {'p75':>9} {'max':>9}"]
    for option, vals in grouped.items():
        lines.append(
            f"{option.value:<16} {vals.size:>5} "
            f"{np.median(vals):>9.4f} {np.percentile(vals, 75):>9.4f} "
            f"{vals.max():>9.4f}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Figures 14-16 and Section 5.13
# ----------------------------------------------------------------------
def render_figure14(results: StudyResults) -> str:
    table = best_style_percentages(results)
    lines = [
        "Figure 14: percentage of each style among best-performing codes",
        "",
    ]
    for model, axes in table.items():
        lines.append(f"[{model.value}]")
        for axis, options in axes.items():
            cells = "  ".join(f"{name}={pct:.0%}" for name, pct in options.items())
            lines.append(f"  {axis:<12} {cells}")
    return "\n".join(lines)


def render_figure15(results: StudyResults) -> str:
    labels, matrix = style_combination_matrix(results)
    lines = [
        "Figure 15: median throughput of style_x with style_y over style_x "
        "without style_y (CUDA)",
        "",
        f"{'':<14}" + "".join(f"{lab[:9]:>10}" for lab in labels),
    ]
    for i, lab in enumerate(labels):
        row = "".join(
            f"{matrix[i, j]:>10.2f}" if np.isfinite(matrix[i, j]) else f"{'-':>10}"
            for j in range(len(labels))
        )
        lines.append(f"{lab[:13]:<14}{row}")
    return "\n".join(lines)


def render_correlations(results: StudyResults) -> str:
    corr = property_correlations(results)
    lines = [
        "Section 5.13: style-throughput vs graph-property correlations",
        "",
        f"{'Style':<28} {'Property':<16} {'r':>6}",
    ]
    ranked = sorted(corr.items(), key=lambda kv: -abs(kv[1]))
    for (style, prop), r in ranked[:20]:
        lines.append(f"{style:<28} {prop:<16} {r:>6.2f}")
    return "\n".join(lines)


def render_figure16(results: StudyResults) -> str:
    cells = baseline_speedups(results)
    lines = [
        "Figure 16: throughput ratio of best-style codes to baseline codes",
        "",
        f"{'Model':<8} {'Problem':<8} {'Graph':<18} {'Device':<20} {'speedup':>8}",
    ]
    for c in cells:
        lines.append(
            f"{c.model.value:<8} {c.algorithm.value:<8} {c.graph:<18} "
            f"{c.device:<20} {c.speedup:>8.2f}"
        )
    return "\n".join(lines)
