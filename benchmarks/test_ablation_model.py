"""Ablation benches for the simulator's load-bearing design choices.

DESIGN.md calls out four modeling decisions; each ablation shows that
removing the mechanism visibly changes (or would falsify) a study result:

1. cache-tier memory modeling (without it, bandwidth terms swamp the
   issue-side granularity effects on cache-resident inputs);
2. atomic-contention accounting (without it, push loses its distinctive
   cost structure on hub-heavy graphs);
3. the OpenMP critical-section realization of min/max RMW (without it,
   Figure 6b's 1000x read-write advantage disappears);
4. sequential improving semantics (naive pre-wave counting would multiply
   duplicate-worklist sizes).
"""

import dataclasses

import numpy as np
import pytest

from repro.graph import load_dataset
from repro.machine import RTX_3090, THREADRIPPER_2950X, time_matrix
from repro.machine.trace import ExecutionTrace, IterationProfile
from repro.runtime import Launcher
from repro.styles import (
    Algorithm,
    AtomicFlavor,
    Determinism,
    Driver,
    Flow,
    Granularity,
    Iteration,
    Model,
    OmpSchedule,
    Persistence,
    StyleSpec,
    Update,
)


def cuda_style(**kw):
    base = dict(
        algorithm=Algorithm.SSSP, model=Model.CUDA,
        iteration=Iteration.VERTEX, driver=Driver.TOPOLOGY,
        flow=Flow.PUSH, update=Update.READ_MODIFY_WRITE,
        determinism=Determinism.NON_DETERMINISTIC,
        granularity=Granularity.THREAD,
        persistence=Persistence.NON_PERSISTENT,
        atomic_flavor=AtomicFlavor.ATOMIC,
    )
    base.update(kw)
    return StyleSpec(**base)


def dram_launch_seconds(profile, style, device):
    """Simulated seconds of one launch streaming from DRAM (its trace's
    declared working set exceeds every cache)."""
    trace = ExecutionTrace(n_vertices=10_000_000, n_edges=100_000_000)
    trace.add(profile)
    return float(time_matrix(trace, [style], [device])[0, 0])


@pytest.fixture(scope="module")
def soc_trace():
    graph = load_dataset("soc-LiveJournal1", "default")
    launcher = Launcher()
    result = launcher.execute_semantic(cuda_style(), graph)
    return graph, result.trace


def test_ablation_cache_tier(benchmark, soc_trace):
    """Without the L2 tier, the memory bound dominates and granularity
    stops mattering on cache-resident inputs."""
    graph, trace = soc_trace

    def measure():
        with_cache = time_matrix(trace, [cuda_style()], [RTX_3090])[0, 0]
        # Ablate: pretend the working set exceeds the L2.
        ablated = dataclasses.replace(trace)
        ablated.n_vertices = 10_000_000
        ablated.n_edges = 100_000_000
        without_cache = time_matrix(ablated, [cuda_style()], [RTX_3090])[0, 0]
        return with_cache, without_cache

    with_cache, without_cache = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\nL2-resident: {with_cache*1e6:.1f} us, DRAM-bound: {without_cache*1e6:.1f} us")
    assert without_cache > with_cache  # the tier matters


def test_ablation_contention(benchmark):
    """Zeroing the contention statistics visibly speeds up a hub-directed
    atomic launch — contention accounting is load-bearing."""

    def measure():
        base = IterationProfile(
            n_items=20_000, inner=np.full(20_000, 16, dtype=np.int64),
            atomics_inner=1.0, conflict_extra=200_000.0, max_conflict=4_000,
        )
        ablated = IterationProfile(
            n_items=20_000, inner=np.full(20_000, 16, dtype=np.int64),
            atomics_inner=1.0, conflict_extra=0.0, max_conflict=0,
        )
        return (
            dram_launch_seconds(base, cuda_style(), RTX_3090),
            dram_launch_seconds(ablated, cuda_style(), RTX_3090),
        )

    contended, uncontended = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\ncontended: {contended*1e6:.1f} us, ablated: {uncontended*1e6:.1f} us")
    assert contended > 1.2 * uncontended


def test_ablation_omp_critical_minmax(benchmark):
    """Treating OpenMP min/max RMW as a plain atomic (the ablation) erases
    the 10-1000x read-write advantage of Figure 6b."""
    omp = StyleSpec(
        algorithm=Algorithm.SSSP, model=Model.OPENMP,
        omp_schedule=OmpSchedule.DEFAULT,
    )

    def measure():
        minmax = IterationProfile(
            n_items=10_000, inner=np.full(10_000, 16, dtype=np.int64),
            atomics_inner=1.0, atomic_minmax=True,
        )
        plain = IterationProfile(
            n_items=10_000, inner=np.full(10_000, 16, dtype=np.int64),
            atomics_inner=1.0, atomic_minmax=False,
        )
        return (
            dram_launch_seconds(minmax, omp, THREADRIPPER_2950X),
            dram_launch_seconds(plain, omp, THREADRIPPER_2950X),
        )

    critical, atomic = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\ncritical-realized: {critical*1e6:.1f} us, "
          f"plain-atomic ablation: {atomic*1e6:.1f} us")
    assert critical > 10 * atomic


def test_ablation_sequential_improving(benchmark):
    """Naive pre-wave improving counting (the ablation) pushes every
    below-threshold candidate; sequential semantics push only the running
    minima — the duplicate worklists differ by a large factor."""
    from repro.kernels.base import sequential_improving

    rng = np.random.default_rng(7)
    tgt = rng.integers(0, 50, size=4000)
    cand = rng.integers(0, 1000, size=4000)
    before = np.full(4000, 1000, dtype=np.int64)

    def measure():
        seq = int(sequential_improving(tgt, cand, before).sum())
        naive = int((cand < before).sum())
        return seq, naive

    seq, naive = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\nsequential improving: {seq} pushes, naive pre-wave: {naive} pushes")
    assert naive > 10 * seq
