"""Unit tests for the CPU timing model.

Per-step cycles come from the frozen scalar oracle (bit-identical to the
production batch path, see ``test_matrix_identity.py``); whole-program
times go through :func:`repro.machine.time_matrix`.
"""

import numpy as np
import pytest

from repro.machine import (
    ExecutionTrace,
    IterationProfile,
    THREADRIPPER_2950X,
    XEON_GOLD_6226R,
    time_matrix,
)
from repro.styles import (
    Algorithm,
    CppSchedule,
    CpuReduction,
    Model,
    OmpSchedule,
    StyleSpec,
)
from tests.machine.scalar_oracle import ScalarCPUModel


def omp_style(**kw) -> StyleSpec:
    base = dict(
        algorithm=Algorithm.SSSP, model=Model.OPENMP,
        omp_schedule=OmpSchedule.DEFAULT,
    )
    base.update(kw)
    return StyleSpec(**base)


def cpp_style(**kw) -> StyleSpec:
    base = dict(
        algorithm=Algorithm.SSSP, model=Model.CPP_THREADS,
        cpp_schedule=CppSchedule.BLOCKED,
    )
    base.update(kw)
    return StyleSpec(**base)


def profile(**kw) -> IterationProfile:
    base = dict(
        n_items=5000,
        inner=np.full(5000, 10, dtype=np.int64),
        base_cycles=2.0,
        inner_cycles=2.0,
        struct_loads_base=2.0,
        struct_loads_inner=1.0,
        shared_loads_base=1.0,
    )
    base.update(kw)
    return IterationProfile(**base)


def seconds(trace, spec, device=THREADRIPPER_2950X) -> float:
    """Whole-program simulated seconds through the production path."""
    return float(time_matrix(trace, [spec], [device])[0, 0])


@pytest.fixture
def model():
    return ScalarCPUModel(THREADRIPPER_2950X)


class TestBasics:
    def test_rejects_cuda(self, model):
        from repro.styles import AtomicFlavor, Granularity, Persistence

        cuda = StyleSpec(
            algorithm=Algorithm.SSSP, model=Model.CUDA,
            granularity=Granularity.THREAD,
            persistence=Persistence.NON_PERSISTENT,
            atomic_flavor=AtomicFlavor.ATOMIC,
        )
        with pytest.raises(ValueError, match="OpenMP"):
            model.time_trace_batch(
                ExecutionTrace(n_edges=1, n_vertices=1), [cuda]
            )

    def test_empty_step_costs_a_region(self, model):
        p = IterationProfile(n_items=0)
        assert model.profile_cycles(p, omp_style()) == THREADRIPPER_2950X.cycles_region_omp
        assert model.profile_cycles(p, cpp_style()) == THREADRIPPER_2950X.cycles_region_cpp

    def test_cpp_region_pricier_than_omp(self, model):
        p = profile(n_items=10, inner=np.full(10, 1, dtype=np.int64))
        assert model.profile_cycles(p, cpp_style()) > model.profile_cycles(
            p, omp_style()
        )

    def test_throughput(self, model):
        trace = ExecutionTrace(n_edges=1234, n_vertices=10)
        trace.add(profile())
        assert trace.n_edges / seconds(trace, omp_style()) / 1e9 == (
            pytest.approx(1234 / model.time_trace(trace, omp_style()) / 1e9)
        )


class TestMinMaxCritical:
    """Section 5.3.1: OpenMP min/max RMW = critical sections."""

    def test_omp_minmax_is_catastrophic(self, model):
        p = profile(atomics_inner=1.0, atomic_minmax=True)
        q = profile(atomics_inner=1.0, atomic_minmax=False)
        slow = model.profile_cycles(p, omp_style())
        fast = model.profile_cycles(q, omp_style())
        assert slow > 10 * fast

    def test_cpp_minmax_is_cheap_cas(self, model):
        p = profile(atomics_inner=1.0, atomic_minmax=True)
        q = profile(atomics_inner=1.0, atomic_minmax=False)
        a = model.profile_cycles(p, cpp_style())
        b = model.profile_cycles(q, cpp_style())
        assert a == pytest.approx(b)  # C++ has native atomic min via CAS


class TestScheduling:
    def test_dynamic_overhead_on_cheap_items(self, model):
        p = profile()
        default = model.profile_cycles(p, omp_style())
        dynamic = model.profile_cycles(
            p, omp_style(omp_schedule=OmpSchedule.DYNAMIC)
        )
        assert dynamic > default

    def test_dynamic_balances_extreme_skew(self, model):
        # One enormous item at the front: static blocked chains it with
        # its chunk neighbors; dynamic isolates it.
        inner = np.ones(5000, dtype=np.int64)
        inner[:300] = 50_000
        p = profile(inner=inner, inner_cycles=20.0)
        default = model.profile_cycles(p, omp_style())
        dynamic = model.profile_cycles(
            p, omp_style(omp_schedule=OmpSchedule.DYNAMIC)
        )
        assert dynamic < default

    def test_cyclic_locality_penalty(self, model):
        p = profile(struct_loads_inner=4.0)
        blocked = model.profile_cycles(p, cpp_style())
        cyclic = model.profile_cycles(
            p, cpp_style(cpp_schedule=CppSchedule.CYCLIC)
        )
        assert cyclic > blocked

    def test_cyclic_balances_index_correlated_work(self, model):
        # Work decreasing with index (TC's forward degrees): cyclic wins.
        inner = np.linspace(4000, 0, 5000).astype(np.int64)
        p = profile(inner=inner, inner_cycles=10.0, struct_loads_inner=0.0)
        blocked = model.profile_cycles(p, cpp_style())
        cyclic = model.profile_cycles(
            p, cpp_style(cpp_schedule=CppSchedule.CYCLIC)
        )
        assert cyclic < blocked


class TestReductions:
    def style_red(self, red):
        return omp_style(algorithm=Algorithm.TC, cpu_reduction=red)

    def test_figure_11_ordering(self, model):
        p = profile(reduction_items=50_000.0)
        t = {
            red: model.profile_cycles(p, self.style_red(red))
            for red in CpuReduction
        }
        assert t[CpuReduction.CLAUSE] < t[CpuReduction.ATOMIC]
        assert t[CpuReduction.ATOMIC] < t[CpuReduction.CRITICAL]

    def test_no_reduction_axis_is_free(self, model):
        a = model.profile_cycles(profile(reduction_items=99.0), omp_style())
        b = model.profile_cycles(profile(reduction_items=0.0), omp_style())
        assert a == b


class TestDevices:
    def test_xeon_has_more_threads(self):
        p = profile(
            n_items=100_000, inner=np.full(100_000, 40, dtype=np.int64),
            inner_cycles=10.0,
        )
        tr = ScalarCPUModel(THREADRIPPER_2950X).profile_cycles(p, omp_style())
        xeon = ScalarCPUModel(XEON_GOLD_6226R).profile_cycles(p, omp_style())
        # 32 threads at 2.9 GHz vs 16 at 3.5 GHz: more cycles of capacity.
        assert xeon < tr

    def test_l3_resident_not_slower(self, model):
        p = profile(shared_loads_inner=4.0)
        small = ExecutionTrace(n_edges=100, n_vertices=10)
        small.add(p)
        big = ExecutionTrace(n_edges=50_000_000, n_vertices=5_000_000)
        big.add(p)
        assert seconds(small, omp_style()) <= seconds(big, omp_style())
