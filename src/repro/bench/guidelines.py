"""Section 5.16: derive the paper's programming guidelines from the data.

The paper closes its evaluation with a list of style recommendations.
This module re-derives each one *from the sweep results* (not hard-coded),
so the guideline text printed to users reflects what the reproduction
actually measured.  Each guideline carries the evidence behind it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..styles.axes import (
    Algorithm,
    AtomicFlavor,
    CppSchedule,
    CpuReduction,
    Determinism,
    Dup,
    Flow,
    Granularity,
    Model,
    OmpSchedule,
    Persistence,
    Update,
)
from .harness import StudyResults
from .ratios import axis_ratios, driver_ratios, throughputs_by_option

__all__ = ["Guideline", "derive_guidelines"]


@dataclass(frozen=True)
class Guideline:
    """One recommendation plus the measurement backing it."""

    statement: str
    evidence: str
    holds: bool

    def render(self) -> str:
        marker = "+" if self.holds else "!"
        return f"[{marker}] {self.statement}\n      evidence: {self.evidence}"


def _median(values: np.ndarray) -> float:
    return float(np.median(values)) if values.size else float("nan")


def _option(grouped: dict, key) -> np.ndarray:
    """An option's throughputs, tolerating options missing entirely (a
    sweep with quarantined blocks can lose a whole style's runs; the
    guideline then reads nan and reports not-established instead of
    crashing)."""
    return grouped.get(key, np.empty(0))


def derive_guidelines(results: StudyResults) -> List[Guideline]:
    """Re-derive the Section 5.16 guidelines from the sweep."""
    out: List[Guideline] = []

    # 1. High-degree inputs prefer warp-based parallelization in CUDA.
    skewed = [
        name
        for name, g in results.graphs.items()
        if g.degrees.max() > 8 * max(g.degrees.mean(), 1)
    ] or ["soc-LiveJournal1"]
    uniform = [n for n in results.graphs if n not in skewed]
    warp_skew = throughputs_by_option(
        results, "granularity", models=[Model.CUDA], graphs=skewed
    )
    warp_uni = throughputs_by_option(
        results, "granularity", models=[Model.CUDA], graphs=uniform
    )
    rel_skew = _median(_option(warp_skew, Granularity.WARP)) / _median(
        _option(warp_skew, Granularity.THREAD)
    )
    rel_uni = _median(_option(warp_uni, Granularity.WARP)) / _median(
        _option(warp_uni, Granularity.THREAD)
    )
    out.append(
        Guideline(
            "High-degree inputs prefer warp-based parallelization in CUDA.",
            f"warp/thread median ratio {rel_skew:.2f} on skewed inputs vs "
            f"{rel_uni:.2f} on uniform ones",
            rel_skew > rel_uni,
        )
    )

    # 2. Use the non-deterministic and push styles everywhere.
    nondet = axis_ratios(
        results, "determinism",
        Determinism.NON_DETERMINISTIC, Determinism.DETERMINISTIC,
    )
    push = axis_ratios(results, "flow", Flow.PUSH, Flow.PULL,
                       algorithms=[a for a in Algorithm if a is not Algorithm.PR])
    out.append(
        Guideline(
            "Use the non-deterministic and push styles (all models).",
            f"median non-det/det ratio {_median(nondet):.2f}, "
            f"median push/pull ratio {_median(push):.2f} (PR excluded)",
            _median(nondet) >= 1.0 and _median(push) >= 1.0,
        )
    )

    # 3. Avoid default CudaAtomic and CPU critical sections.
    cudaatomic = axis_ratios(
        results, "atomic_flavor", AtomicFlavor.ATOMIC, AtomicFlavor.CUDA_ATOMIC,
    )
    critical = throughputs_by_option(
        results, "cpu_reduction",
        models=[Model.OPENMP, Model.CPP_THREADS],
    )
    crit_penalty = _median(_option(critical, CpuReduction.CLAUSE)) / _median(
        _option(critical, CpuReduction.CRITICAL)
    )
    out.append(
        Guideline(
            "Avoid default CudaAtomic in GPU codes and critical sections "
            "in OpenMP/C++ programs.",
            f"classic Atomic is {_median(cudaatomic):.1f}x faster (median); "
            f"the reduction clause beats critical by {crit_penalty:.1f}x",
            _median(cudaatomic) > 2.0 and crit_penalty > 2.0,
        )
    )

    # 4. Vertex- vs edge-based depends on the algorithm.
    from ..styles.axes import Iteration

    per_alg = {
        alg: _median(
            axis_ratios(results, "iteration", Iteration.VERTEX, Iteration.EDGE,
                        algorithms=[alg])
        )
        for alg in (Algorithm.MIS, Algorithm.TC, Algorithm.BFS)
    }
    out.append(
        Guideline(
            "Whether to use vertex- or edge-based iteration depends on the "
            "algorithm.",
            "vertex/edge medians: "
            + ", ".join(f"{a.value}={r:.2f}" for a, r in per_alg.items()),
            per_alg[Algorithm.MIS] > 1.2
            and abs(per_alg[Algorithm.BFS] - 1.0) < 0.5,
        )
    )

    # 5. Persistent threads rarely help: prefer non-persistent.
    persist = axis_ratios(
        results, "persistence", Persistence.PERSISTENT, Persistence.NON_PERSISTENT,
    )
    out.append(
        Guideline(
            "Use non-persistent kernels (persistent threads rarely help).",
            f"persistent/non-persistent median ratio {_median(persist):.2f}",
            0.8 <= _median(persist) <= 1.2,
        )
    )

    # 6. Default/blocked schedules are the safe CPU choices.
    omp = axis_ratios(
        results, "omp_schedule", OmpSchedule.DEFAULT, OmpSchedule.DYNAMIC,
        models=[Model.OPENMP],
    )
    cpp = axis_ratios(
        results, "cpp_schedule", CppSchedule.BLOCKED, CppSchedule.CYCLIC,
        models=[Model.CPP_THREADS],
    )
    out.append(
        Guideline(
            "Start with default (OpenMP) / blocked (C++) scheduling; test "
            "alternatives only afterwards.",
            f"default/dynamic median {_median(omp):.2f}, "
            f"blocked/cyclic median {_median(cpp):.2f}",
            _median(omp) >= 1.0 and _median(cpp) >= 0.9,
        )
    )

    # 7. C++ prefers the topology-driven style.
    cpp_topo = driver_ratios(results, Dup.NODUP, models=[Model.CPP_THREADS])
    med_cpp_topo = _median(np.concatenate([np.empty(0), *cpp_topo.values()]))
    out.append(
        Guideline(
            "C++ threads prefer the topology-driven style (the worklist "
            "overhead often cannot offset the work-efficiency benefit).",
            f"C++ topology/data-driven median ratio {med_cpp_topo:.2f}",
            med_cpp_topo > 0.8,
        )
    )

    # 8. Read-modify-write is a safe default (read-write is risky but
    # rarely much faster on GPUs).
    rw = axis_ratios(
        results, "update", Update.READ_WRITE, Update.READ_MODIFY_WRITE,
        models=[Model.CUDA],
    )
    out.append(
        Guideline(
            "Read-modify-write is a good general choice on GPUs "
            "(read-write wins only modestly and is less general).",
            f"GPU read-write/RMW median ratio {_median(rw):.2f}",
            _median(rw) < 3.0,
        )
    )

    return out
