"""Best-style vs third-party-baseline comparison (Section 5.17).

Figure 16 plots, for each algorithm and input, the speedup of the suite's
best-performing style over the optimized Lonestar (CPU) / Gardenia (GPU)
baselines; Table 6 reports the per-algorithm geometric means.

"Best-performing style" follows the paper: "the style that has the highest
average throughput over all inputs" for each (algorithm, programming
model) — one style is picked per model and then evaluated on every input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..machine.devices import CPUS, GPUS
from ..machine.matrix import time_matrix
from ..styles.axes import Algorithm, Model
from ..styles.spec import StyleSpec
from .baselines import BASELINES, baseline_trace
from .harness import StudyResults

__all__ = ["SpeedupCell", "best_style_spec", "baseline_speedups", "table6"]


@dataclass(frozen=True)
class SpeedupCell:
    """One dot of Figure 16."""

    model: Model
    algorithm: Algorithm
    graph: str
    device: str
    ours_ges: float
    baseline_ges: float

    @property
    def speedup(self) -> float:
        return self.ours_ges / self.baseline_ges


def best_style_spec(
    results: StudyResults, algorithm: Algorithm, model: Model
) -> StyleSpec:
    """The style with the highest geomean throughput over all inputs."""
    sums: Dict[StyleSpec, List[float]] = {}
    for run in results.select(algorithms=[algorithm], models=[model]):
        sums.setdefault(run.spec, []).append(run.throughput_ges)
    if not sums:
        raise ValueError(f"no runs for {algorithm.value}/{model.value}")
    def geomean(vals: List[float]) -> float:
        return float(np.exp(np.mean(np.log(vals))))
    return max(sums.items(), key=lambda kv: geomean(kv[1]))[0]


def baseline_speedups(
    results: StudyResults,
    *,
    source: Optional[int] = None,
) -> List[SpeedupCell]:
    """Figure 16: all speedup cells of best-style codes over baselines.

    The cells are kept on the results' column view per ``source``, so
    Table 6 and Figure 16 build and time each baseline trace once; the
    next ``StudyResults.add`` or a change of ``results.graphs`` makes
    them be recomputed.
    """
    cache = results.columns().baseline_cells
    graphs = tuple(results.graphs.items())
    cached = cache.get(source)
    if cached is not None and _same_graphs(cached[0], graphs):
        return list(cached[1])
    cells = _speedup_cells(results, source)
    cache[source] = (graphs, cells)
    return list(cells)


def _same_graphs(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(
        name_a == name_b and graph_a is graph_b
        for (name_a, graph_a), (name_b, graph_b) in zip(a, b)
    )


def _speedup_cells(
    results: StudyResults, source: Optional[int]
) -> List[SpeedupCell]:
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


def table6(
    cells: List[SpeedupCell],
) -> Dict[Model, Dict[str, float]]:
    """Table 6: per-model, per-algorithm geometric-mean speedups plus the
    per-model geomean over algorithms ('geomean' key)."""
    out: Dict[Model, Dict[str, float]] = {}
    for model in Model:
        row: Dict[str, float] = {}
        alg_means: List[float] = []
        for algorithm in Algorithm:
            vals = [
                c.speedup
                for c in cells
                if c.model is model and c.algorithm is algorithm
            ]
            if not vals:
                continue
            gm = float(np.exp(np.mean(np.log(vals))))
            row[algorithm.value] = gm
            alg_means.append(gm)
        if alg_means:
            row["geomean"] = float(np.exp(np.mean(np.log(alg_means))))
        out[model] = row
    return out
