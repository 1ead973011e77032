"""Optimized third-party baseline codes (Section 5.17, Figure 16, Table 6).

The paper compares its style-generated (unoptimized) codes against the
optimized Lonestar CPU and Gardenia GPU implementations.  Those codebases
are not reproducible line-for-line here, so each baseline is modeled from
the paper's own description of *why* it performs the way it does:

* **Gardenia SSSP** "employs two extra arrays that make the code as
  efficient as the data-driven approach but without the overhead of
  maintaining a worklist"; **Lonestar SSSP** "combines the data-driven
  approach with a priority scheduler that processes the vertices in
  ascending distance to reduce the total amount of work" — both are
  modeled as near-work-optimal executions (each edge relaxed ~once, in
  distance order), which is exactly why they beat Bellman-Ford-style codes.
* **Gardenia PR/TC** "include an optimization that removes redundant
  edges" — the TC baseline orients edges by degree (provably less merge
  work) and the PR baseline halves the redundant gather traffic.
* **Lonestar MIS** runs on Galois' speculative-execution runtime, whose
  per-activity locking/commit overhead is what makes the paper's simple
  style-generated MIS 6x-21x faster on CPUs.
* The **BFS/CC baselines** are conventional frontier/label codes with the
  deterministic double-buffer structure typical of library implementations.

Every baseline still *executes* on the real input graph (frontiers,
settle orders, merge costs are exact), and is timed by the same machine
models as the styled codes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

import numpy as np

from ..graph.csr import CSRGraph
from ..kernels.base import INF
from ..kernels.serial import serial_bfs, serial_sssp
from ..machine.trace import ExecutionTrace, IterationProfile
from ..styles.axes import (
    Algorithm,
    AtomicFlavor,
    CpuReduction,
    Granularity,
    Model,
    OmpSchedule,
    Persistence,
)
from ..styles.spec import StyleSpec

__all__ = ["BaselineRun", "baseline_trace", "baseline_style", "BASELINES"]


@dataclass(frozen=True)
class BaselineRun:
    """A baseline implementation's trace plus the mapping it is timed under."""

    name: str
    trace: ExecutionTrace
    style: StyleSpec


def baseline_style(algorithm: Algorithm, model: Model) -> StyleSpec:
    """The mapping axes the baselines are timed under.

    Library codes use sensible mappings: thread granularity,
    non-persistent launches, classic atomics, the reduction clause on
    CPUs, and default scheduling.  (The StyleSpec is used for timing only
    and deliberately not validated against Table 2.)
    """
    if model is Model.CUDA:
        return StyleSpec(
            algorithm=algorithm,
            model=model,
            granularity=Granularity.THREAD,
            persistence=Persistence.NON_PERSISTENT,
            atomic_flavor=AtomicFlavor.ATOMIC,
        )
    if model is Model.OPENMP:
        return StyleSpec(
            algorithm=algorithm,
            model=model,
            omp_schedule=OmpSchedule.DEFAULT,
            cpu_reduction=CpuReduction.CLAUSE,
        )
    return StyleSpec(algorithm=algorithm, model=model)


# ----------------------------------------------------------------------
# BFS: frontier code with deterministic double-buffer + compaction pass.
# ----------------------------------------------------------------------
def _bfs_baseline(graph: CSRGraph, source: int, model: Model) -> ExecutionTrace:
    levels = serial_bfs(graph, source)
    trace = ExecutionTrace(
        n_edges=graph.n_edges, n_vertices=graph.n_vertices, label="baseline-bfs"
    )
    trace.add(IterationProfile(n_items=graph.n_vertices, shared_stores_base=1.0, label="init"))
    reached = levels[levels < INF]
    depth = int(reached.max()) if reached.size else 0
    deg = graph.degrees
    for level in range(depth):
        frontier = np.flatnonzero(levels == level)
        trace.add(
            IterationProfile(
                n_items=frontier.size,
                inner=deg[frontier],
                base_cycles=2.0,
                inner_cycles=2.0,
                struct_loads_base=3.0,
                struct_loads_inner=1.0,
                shared_loads_inner=1.0,  # visited check
                atomics_inner=0.5,  # CAS claims on undiscovered targets
                hot_atomics=float(np.count_nonzero(levels == level + 1)) + 1.0,
                label="bfs-frontier",
            )
        )
        # Library frontier compaction kernel per level.
        trace.add(
            IterationProfile(
                n_items=frontier.size,
                base_cycles=1.0,
                shared_loads_base=1.0,
                shared_stores_base=1.0,
                label="bfs-compact",
            )
        )
        trace.iterations += 1
    return trace


# ----------------------------------------------------------------------
# SSSP: priority / two-array near-work-optimal execution.
# ----------------------------------------------------------------------
def _sssp_baseline(graph: CSRGraph, source: int, model: Model) -> ExecutionTrace:
    dist = serial_sssp(graph, source)
    trace = ExecutionTrace(
        n_edges=graph.n_edges, n_vertices=graph.n_vertices, label="baseline-sssp"
    )
    trace.add(IterationProfile(n_items=graph.n_vertices, shared_stores_base=1.0, label="init"))
    finite = dist[dist < INF]
    if finite.size == 0:
        return trace
    # Delta-stepping-like buckets: vertices settle in ascending distance,
    # each relaxing its out-edges approximately once.
    delta = max(1.0, float(np.median(graph.weights)) * 2.0) if graph.weights is not None else 1.0
    buckets = (dist[dist < INF] / delta).astype(np.int64)
    deg = graph.degrees
    settled = np.flatnonzero(dist < INF)
    order = np.argsort(buckets, kind="stable")
    settled = settled[order]
    bucket_ids = buckets[order]
    boundaries = np.flatnonzero(
        np.concatenate(([True], bucket_ids[1:] != bucket_ids[:-1]))
    )
    boundaries = np.concatenate((boundaries, [settled.size]))
    for b in range(boundaries.size - 1):
        members = settled[boundaries[b] : boundaries[b + 1]]
        # ~15% of relaxations repeat inside a bucket (light-edge re-runs).
        trace.add(
            IterationProfile(
                n_items=members.size,
                inner=(deg[members] * 1.15).astype(np.int64),
                base_cycles=3.0,
                inner_cycles=2.0,
                struct_loads_base=3.0,
                struct_loads_inner=2.0,
                shared_loads_base=1.0,
                atomics_inner=1.0,
                atomic_minmax=False,  # bucket updates are CAS-based
                hot_atomics=float(members.size) + 1.0,
                label="sssp-bucket",
            )
        )
        trace.iterations += 1
    return trace


# ----------------------------------------------------------------------
# CC: GPU hooking passes; CPU union-find sweep.
# ----------------------------------------------------------------------
def _cc_baseline(graph: CSRGraph, source: int, model: Model) -> ExecutionTrace:
    trace = ExecutionTrace(
        n_edges=graph.n_edges, n_vertices=graph.n_vertices, label="baseline-cc"
    )
    n, m = graph.n_vertices, graph.n_edges
    trace.add(IterationProfile(n_items=n, shared_stores_base=1.0, label="init"))
    if model is Model.CUDA:
        # Afforest-style: hooking sweeps over the edges (each edge chases
        # both endpoints' parent chains) plus pointer-jumping compression
        # passes over the vertices.
        for _ in range(4):
            trace.add(
                IterationProfile(
                    n_items=m,
                    base_cycles=4.0,
                    struct_loads_base=2.0,
                    shared_loads_base=5.0,  # parent chains of both sides
                    atomics_base=0.3,  # successful hooks only
                    atomic_minmax=True,
                    label="cc-hook",
                )
            )
            trace.add(
                IterationProfile(
                    n_items=n,
                    base_cycles=2.0,
                    shared_loads_base=3.0,
                    shared_stores_base=0.7,
                    label="cc-compress",
                )
            )
            trace.iterations += 1
    else:
        # Parallel union-find: two hooking sweeps with ~3 parent chases
        # per endpoint under contention, then a compression pass.
        for _ in range(2):
            trace.add(
                IterationProfile(
                    n_items=m,
                    base_cycles=5.0,
                    struct_loads_base=2.0,
                    shared_loads_base=6.0,
                    atomics_base=0.3,
                    atomic_minmax=False,  # CAS hooks
                    label="cc-unionfind",
                )
            )
            trace.iterations += 1
        trace.add(
            IterationProfile(
                n_items=n,
                base_cycles=2.0,
                shared_loads_base=3.0,
                shared_stores_base=1.0,
                label="cc-finalize",
            )
        )
    return trace


# ----------------------------------------------------------------------
# MIS: Galois speculative-execution runtime (CPU only).
# ----------------------------------------------------------------------
def _mis_baseline(graph: CSRGraph, source: int, model: Model) -> ExecutionTrace:
    trace = ExecutionTrace(
        n_edges=graph.n_edges, n_vertices=graph.n_vertices, label="baseline-mis"
    )
    n = graph.n_vertices
    trace.add(IterationProfile(n_items=n, shared_stores_base=1.0, label="init"))
    # Each activity locks its neighborhood (one CAS per neighbor), decides,
    # commits, and pays the runtime's per-activity bookkeeping; ~20% of
    # activities abort on conflicts and retry.
    n_activities = int(n * 1.2)
    trace.add(
        IterationProfile(
            n_items=n_activities,
            inner=graph.degrees[np.arange(n_activities) % n],
            base_cycles=60.0,  # Galois activity setup/commit bookkeeping
            inner_cycles=3.0,
            struct_loads_base=3.0,
            struct_loads_inner=1.0,
            shared_loads_inner=1.0,
            atomics_inner=1.0,  # neighborhood locks
            atomic_minmax=False,
            hot_atomics=float(n) * 1.2 + 1.0,  # worklist traffic
            label="mis-speculative",
        )
    )
    trace.iterations += 1
    return trace


# ----------------------------------------------------------------------
# PR: Gardenia's redundancy-eliminated pull (GPU); Lonestar's atomic push
# (CPU).
# ----------------------------------------------------------------------
def _pr_baseline(graph: CSRGraph, source: int, model: Model) -> ExecutionTrace:
    from ..kernels.pr import PageRankKernel
    from ..styles.spec import SemanticKey
    from ..styles.axes import Determinism, Driver, Flow, Iteration, Update

    kernel = PageRankKernel(graph)
    if model is Model.CUDA:
        sem = SemanticKey(
            Algorithm.PR, Iteration.VERTEX, Driver.TOPOLOGY, None,
            Flow.PULL, Update.READ_MODIFY_WRITE, Determinism.DETERMINISTIC,
        )
        result = kernel.run(sem)
        trace = result.trace
        # Redundant-edge elimination halves the gather traffic.
        for p in trace.profiles:
            if p.inner is not None:
                p.inner = p.inner // 2
        trace.label = "baseline-pr-dedup"
        return trace
    # CPU baseline: push with per-edge atomic adds and an atomic error sum.
    sem = SemanticKey(
        Algorithm.PR, Iteration.VERTEX, Driver.TOPOLOGY, None,
        Flow.PUSH, Update.READ_MODIFY_WRITE, Determinism.DETERMINISTIC,
    )
    result = kernel.run(sem)
    result.trace.label = "baseline-pr-push"
    return result.trace


# ----------------------------------------------------------------------
# TC: degree-ordered orientation (GPU); unoriented edge-iterator (CPU).
# ----------------------------------------------------------------------
def _tc_baseline(graph: CSRGraph, source: int, model: Model) -> ExecutionTrace:
    n, m = graph.n_vertices, graph.n_edges
    trace = ExecutionTrace(n_edges=m, n_vertices=n, iterations=1, label="baseline-tc")
    src = graph.edge_sources().astype(np.int64)
    dst = graph.col_idx.astype(np.int64)
    deg = graph.degrees
    if model is Model.CUDA:
        # Orient every edge from lower (degree, id) to higher: the classic
        # redundancy-eliminating preprocessing.  Merge costs are computed
        # with the real degree-ordered forward degrees.
        rank = np.lexsort((np.arange(n), deg))
        pos = np.empty(n, dtype=np.int64)
        pos[rank] = np.arange(n)
        fwd_mask = pos[src] < pos[dst]
        fdeg = np.bincount(src[fwd_mask], minlength=n).astype(np.int64)
        merge = fdeg[src[fwd_mask]] + fdeg[dst[fwd_mask]]
        trips = np.zeros(m, dtype=np.int64)
        trips[fwd_mask] = merge
        trace.add(
            IterationProfile(
                n_items=m,
                inner=trips,
                base_cycles=2.0,
                inner_cycles=1.5,
                struct_loads_base=3.0,
                struct_loads_inner=1.0,
                reduction_items=float(np.count_nonzero(fwd_mask) // 4),
                label="tc-ordered",
            )
        )
        return trace
    # CPU baseline: unoriented edge iterator — every directed edge merges
    # the two full adjacency lists (each triangle counted six times).
    merge_all = deg[src] + deg[dst]
    trace.add(
        IterationProfile(
            n_items=m,
            inner=merge_all.astype(np.int64),
            base_cycles=2.0,
            inner_cycles=1.5,
            struct_loads_base=3.0,
            struct_loads_inner=1.0,
            reduction_items=float(m) / 2.0,
            label="tc-unoriented",
        )
    )
    return trace


_BUILDERS: Dict[Algorithm, Callable[[CSRGraph, int, Model], ExecutionTrace]] = {
    Algorithm.BFS: _bfs_baseline,
    Algorithm.SSSP: _sssp_baseline,
    Algorithm.CC: _cc_baseline,
    Algorithm.MIS: _mis_baseline,
    Algorithm.PR: _pr_baseline,
    Algorithm.TC: _tc_baseline,
}

#: Which baselines exist per model family (Gardenia has no MIS —
#: Section 5.17 / Figure 16a).
BASELINES: Dict[Model, Tuple[Algorithm, ...]] = {
    Model.CUDA: (
        Algorithm.BFS, Algorithm.SSSP, Algorithm.CC, Algorithm.PR, Algorithm.TC,
    ),
    Model.OPENMP: tuple(Algorithm),
    Model.CPP_THREADS: tuple(Algorithm),
}


def baseline_trace(
    algorithm: Algorithm, graph: CSRGraph, model: Model, source: int = 0
) -> BaselineRun:
    """Build the baseline implementation's trace for one problem instance."""
    if algorithm not in BASELINES[model]:
        raise ValueError(
            f"no {model.value} baseline for {algorithm.value} (Section 5.17)"
        )
    trace = _BUILDERS[algorithm](graph, source, model)
    return BaselineRun(
        name=f"{'gardenia' if model is Model.CUDA else 'lonestar'}-{algorithm.value}",
        trace=trace,
        style=baseline_style(algorithm, model),
    )
