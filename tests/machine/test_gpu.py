"""Unit tests for the GPU timing model: monotonicity and style effects.

Per-launch cycles come from the frozen scalar oracle (bit-identical to the
production batch path, see ``test_matrix_identity.py``); whole-program
times go through :func:`repro.machine.time_matrix`.
"""

import numpy as np
import pytest

from repro.machine import (
    RTX_3090,
    TITAN_V,
    ExecutionTrace,
    IterationProfile,
    time_matrix,
)
from repro.styles import (
    Algorithm,
    AtomicFlavor,
    Granularity,
    GpuReduction,
    Iteration,
    Model,
    Persistence,
    StyleSpec,
)
from tests.machine.scalar_oracle import ScalarGPUModel


def style(**kw) -> StyleSpec:
    base = dict(
        algorithm=Algorithm.SSSP,
        model=Model.CUDA,
        granularity=Granularity.THREAD,
        persistence=Persistence.NON_PERSISTENT,
        atomic_flavor=AtomicFlavor.ATOMIC,
    )
    base.update(kw)
    return StyleSpec(**base)


def profile(**kw) -> IterationProfile:
    base = dict(
        n_items=2000,
        inner=np.full(2000, 8, dtype=np.int64),
        base_cycles=2.0,
        inner_cycles=2.0,
        struct_loads_base=2.0,
        struct_loads_inner=1.0,
        shared_loads_base=1.0,
        atomics_inner=1.0,
        atomic_minmax=True,
    )
    base.update(kw)
    return IterationProfile(**base)


def seconds(trace, spec, device=RTX_3090) -> float:
    """Whole-program simulated seconds through the production path."""
    return float(time_matrix(trace, [spec], [device])[0, 0])


@pytest.fixture
def model():
    return ScalarGPUModel(RTX_3090)


class TestBasics:
    def test_empty_launch_costs_a_launch(self, model):
        assert model.profile_cycles(IterationProfile(n_items=0), style()) == (
            RTX_3090.cycles_launch
        )

    def test_rejects_cpu_specs(self, model):
        trace = ExecutionTrace(n_edges=1, n_vertices=1)
        from repro.styles import OmpSchedule

        cpu = StyleSpec(
            algorithm=Algorithm.SSSP, model=Model.OPENMP,
            omp_schedule=OmpSchedule.DEFAULT,
        )
        with pytest.raises(ValueError, match="CUDA"):
            model.time_trace_batch(trace, [cpu])

    def test_throughput_definition(self, model):
        trace = ExecutionTrace(n_edges=10_000, n_vertices=100)
        trace.add(profile())
        scalar = model.time_trace(trace, style())
        assert trace.n_edges / seconds(trace, style()) / 1e9 == pytest.approx(
            10_000 / scalar / 1e9
        )

    def test_deterministic(self, model):
        p = profile()
        assert model.profile_cycles(p, style()) == model.profile_cycles(p, style())


class TestMonotonicity:
    def test_more_work_more_time(self, model):
        a = model.profile_cycles(profile(), style())
        b = model.profile_cycles(
            profile(inner=np.full(2000, 16, dtype=np.int64)), style()
        )
        assert b > a

    def test_conflicts_cost(self, model):
        a = model.profile_cycles(profile(), style())
        b = model.profile_cycles(
            profile(conflict_extra=5000.0, max_conflict=100), style()
        )
        assert b > a

    def test_hot_atomics_cost(self, model):
        a = model.profile_cycles(profile(), style())
        b = model.profile_cycles(profile(hot_atomics=10_000.0), style())
        assert b > a

    def test_cudaatomic_slower(self, model):
        # A load/store-heavy launch large enough to be issue-bound.
        p = profile(
            n_items=300_000,
            inner=np.full(300_000, 8, dtype=np.int64),
            shared_loads_inner=1.0,
        )
        a = model.profile_cycles(p, style())
        b = model.profile_cycles(
            p, style(atomic_flavor=AtomicFlavor.CUDA_ATOMIC)
        )
        assert b > 3 * a

    def test_cudaatomic_worse_on_titan_v(self):
        p = profile(shared_loads_inner=1.0)
        ampere, volta = ScalarGPUModel(RTX_3090), ScalarGPUModel(TITAN_V)
        ratio_ampere = ampere.profile_cycles(
            p, style(atomic_flavor=AtomicFlavor.CUDA_ATOMIC)
        ) / ampere.profile_cycles(p, style())
        ratio_volta = volta.profile_cycles(
            p, style(atomic_flavor=AtomicFlavor.CUDA_ATOMIC)
        ) / volta.profile_cycles(p, style())
        assert ratio_volta > 2 * ratio_ampere  # Figure 1's device gap


class TestGranularity:
    def test_block_pays_barriers(self, model):
        p = profile()
        warp = model.profile_cycles(p, style(granularity=Granularity.WARP))
        block = model.profile_cycles(p, style(granularity=Granularity.BLOCK))
        assert block > warp

    def test_warp_helps_skewed_degrees(self, model):
        rng = np.random.default_rng(0)
        skewed = rng.zipf(1.6, 5000).clip(max=3000).astype(np.int64) * 8
        p = profile(n_items=5000, inner=skewed)
        thread = model.profile_cycles(p, style(granularity=Granularity.THREAD))
        warp = model.profile_cycles(p, style(granularity=Granularity.WARP))
        assert warp < thread

    def test_thread_wins_uniform_low_degree(self, model):
        # Compute-heavy, uniform, low-degree items: a warp per item wastes
        # 29 of its 32 lanes, a thread per item wastes nothing.
        p = profile(
            n_items=50_000,
            inner=np.full(50_000, 3, dtype=np.int64),
            inner_cycles=30.0,
            atomics_inner=0.0,
        )
        thread = model.profile_cycles(p, style(granularity=Granularity.THREAD))
        warp = model.profile_cycles(p, style(granularity=Granularity.WARP))
        assert thread < warp

    def test_same_address_atomics_defeat_warp_strip_mining(self, model):
        # An L2-resident, issue-bound launch: the serialized atomic chain
        # of the pull style (one address per item) costs the warp
        # granularity its strip-mining benefit.
        kw = dict(n_items=1000, inner=np.full(1000, 64, dtype=np.int64))
        p = profile(atomics_same_address_per_item=True, **kw)
        q = profile(atomics_same_address_per_item=False, **kw)
        trace_p = ExecutionTrace(n_edges=1000, n_vertices=100)
        trace_p.add(p)
        trace_q = ExecutionTrace(n_edges=1000, n_vertices=100)
        trace_q.add(q)
        warp = style(granularity=Granularity.WARP)
        assert seconds(trace_p, warp) > seconds(trace_q, warp)

    def test_persistence_near_noop_for_uniform(self, model):
        p = profile()
        a = model.profile_cycles(p, style(persistence=Persistence.PERSISTENT))
        b = model.profile_cycles(p, style(persistence=Persistence.NON_PERSISTENT))
        assert a == pytest.approx(b, rel=0.25)


class TestReductions:
    def p_red(self, items=50_000.0):
        return profile(reduction_items=items)

    def style_red(self, red):
        return style(algorithm=Algorithm.TC, gpu_reduction=red)

    def test_ordering_matches_figure_10(self, model):
        # reduction-add < global-add < block-add in cost.
        t = {
            red: model.profile_cycles(self.p_red(), self.style_red(red))
            for red in GpuReduction
        }
        assert t[GpuReduction.REDUCTION_ADD] < t[GpuReduction.GLOBAL_ADD]
        assert t[GpuReduction.GLOBAL_ADD] < t[GpuReduction.BLOCK_ADD]

    def test_no_reduction_axis_is_free(self, model):
        a = model.profile_cycles(profile(reduction_items=1000.0), style())
        b = model.profile_cycles(profile(reduction_items=0.0), style())
        assert a == b  # no gpu_reduction on the spec -> not timed


class TestMemoryModel:
    def test_l2_resident_faster_than_dram(self, model):
        p = profile(shared_loads_inner=4.0)
        small = ExecutionTrace(n_edges=1000, n_vertices=100)
        small.add(p)
        big = ExecutionTrace(n_edges=10_000_000, n_vertices=1_000_000)
        big.add(p)
        assert seconds(small, style()) <= seconds(big, style())

    def test_warp_granularity_coalesces_struct_streams(self, model):
        # With heavy structural traffic, warp granularity moves fewer bytes.
        p = profile(
            n_items=200_000,
            inner=np.full(200_000, 12, dtype=np.int64),
            struct_loads_inner=4.0,
            atomics_inner=0.0,
        )
        mem_thread = model._memory_cycles(
            p, style(granularity=Granularity.THREAD), Granularity.THREAD,
            RTX_3090.mem_bytes_per_cycle,
        )
        mem_warp = model._memory_cycles(
            p, style(granularity=Granularity.WARP), Granularity.WARP,
            RTX_3090.mem_bytes_per_cycle,
        )
        assert mem_warp < mem_thread

    def test_edge_based_streams_coalesced(self, model):
        p = IterationProfile(n_items=100_000, struct_loads_base=3.0)
        cuda_edge = style(iteration=Iteration.EDGE)
        cuda_vertex = style(iteration=Iteration.VERTEX)
        a = model._memory_cycles(p, cuda_edge, Granularity.THREAD, 538.0)
        b = model._memory_cycles(p, cuda_vertex, Granularity.THREAD, 538.0)
        assert a == b  # base streams are contiguous either way
