"""Unit tests for the work-to-unit decompositions.

The hand-computed cases pin the frozen per-launch decompositions of the
scalar oracle (``gpu_units``, ``cpu_blocked_units``, ``cpu_cyclic_units``,
with ``unit_times`` and ``makespan``); :class:`TestPerTraceGeometry`
checks that the production per-trace ragged cuts of
:mod:`repro.machine.scheduling` reproduce them launch by launch.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.scheduling import (
    RaggedSteps,
    cpu_unit_cut,
    gpu_cut_geometry,
    gpu_unit_cut,
)
from repro.styles import Granularity
from tests.machine.scalar_oracle import (
    cpu_blocked_units,
    cpu_cyclic_units,
    gpu_units,
    makespan,
    unit_times,
)


class TestMakespan:
    def test_parallel_bound(self):
        assert makespan(100.0, 5.0, 10.0) == 10.0

    def test_critical_path_bound(self):
        assert makespan(100.0, 50.0, 10.0) == 50.0

    def test_invalid_slots(self):
        with pytest.raises(ValueError):
            makespan(1.0, 1.0, 0.0)


class TestThreadGranularity:
    def test_lockstep_warp_max(self):
        # 64 items, trips = item index; warp time = max lane.
        trips = np.arange(64, dtype=np.int64)
        units = gpu_units(
            trips, 64, Granularity.THREAD, False,
            block_size=256, resident_threads=1024,
        )
        assert units.n_units == 2
        total, longest = unit_times(units, alpha=1.0, beta_par=1.0, beta_ser=0.0)
        # warp 0: 1 + 31; warp 1: 1 + 63.
        assert total == pytest.approx((1 + 31) + (1 + 63))
        assert longest == pytest.approx(1 + 63)

    def test_padding_partial_warp(self):
        trips = np.array([5, 7, 9], dtype=np.int64)
        units = gpu_units(
            trips, 3, Granularity.THREAD, False,
            block_size=256, resident_threads=1024,
        )
        assert units.n_units == 1
        _, longest = unit_times(units, 0.0, 1.0, 0.0)
        assert longest == 9.0

    def test_persistent_strided_assignment(self):
        # 8 items, 4 resident threads: thread j gets items j and j+4.
        trips = np.array([1, 2, 3, 4, 10, 20, 30, 40], dtype=np.int64)
        units = gpu_units(
            trips, 8, Granularity.THREAD, True,
            block_size=256, resident_threads=4,
        )
        assert units.n_units == 1  # 4 threads = a fraction of one warp
        total, longest = unit_times(units, 0.0, 1.0, 0.0)
        # Thread sums: 11, 22, 33, 44 -> warp max 44.
        assert longest == 44.0
        assert total == 44.0


class TestWarpBlockGranularity:
    def test_warp_strip_mining(self):
        trips = np.array([64, 100], dtype=np.int64)
        units = gpu_units(
            trips, 2, Granularity.WARP, False,
            block_size=256, resident_threads=10**6,
        )
        assert units.n_units == 2
        total, _ = unit_times(units, 0.0, 1.0, 0.0)
        assert total == np.ceil(64 / 32) + np.ceil(100 / 32)

    def test_block_width(self):
        trips = np.array([10], dtype=np.int64)
        units = gpu_units(
            trips, 1, Granularity.BLOCK, False,
            block_size=256, resident_threads=10**6,
        )
        assert units.width == 256 / 32

    def test_serial_trips_not_strip_mined(self):
        trips = np.array([100], dtype=np.int64)
        units = gpu_units(
            trips, 1, Granularity.WARP, False,
            block_size=256, resident_threads=10**6,
        )
        total_ser, _ = unit_times(units, 0.0, 0.0, 1.0)
        assert total_ser == 100.0  # raw trips for same-address atomics

    def test_warp_persistent(self):
        trips = np.array([32, 32, 64, 64], dtype=np.int64)
        units = gpu_units(
            trips, 4, Granularity.WARP, True,
            block_size=256, resident_threads=64,  # two resident warps
        )
        assert units.n_units == 2
        total, longest = unit_times(units, 0.0, 1.0, 0.0)
        # Warp 0 gets items 0, 2 (1 + 2 strips); warp 1 gets 1, 3.
        assert total == 6.0
        assert longest == 3.0


class TestUniformFastPath:
    def test_no_inner_loop(self):
        units = gpu_units(
            None, 1000, Granularity.THREAD, False,
            block_size=256, resident_threads=10**6,
        )
        assert units.base is None and units.trips_par is None
        total, longest = unit_times(units, 2.0, 0.0, 0.0)
        assert total == 2.0 * units.n_units
        assert longest == 2.0
        assert units.n_units == int(np.ceil(1000 / 32))

    def test_uniform_persistent(self):
        units = gpu_units(
            None, 1000, Granularity.THREAD, True,
            block_size=256, resident_threads=100,
        )
        # 100 resident threads handle 10 items each.
        assert units.uniform_base == 10.0

    def test_empty_launch(self):
        units = gpu_units(
            None, 0, Granularity.THREAD, False,
            block_size=256, resident_threads=64,
        )
        assert units.n_units == 0
        assert unit_times(units, 1.0, 1.0, 1.0) == (0.0, 0.0)


class TestCpuUnits:
    def test_blocked_contiguous(self):
        inner = np.array([1, 1, 1, 100], dtype=np.int64)
        units = cpu_blocked_units(inner, 4, threads=2)
        # Thread 0: items 0, 1; thread 1: items 2, 3.
        total, longest = unit_times(units, 0.0, 1.0, 0.0)
        assert total == 103.0
        assert longest == 101.0

    def test_cyclic_strided(self):
        inner = np.array([1, 1, 1, 100], dtype=np.int64)
        units = cpu_cyclic_units(inner, 4, threads=2)
        # Thread 0: items 0, 2; thread 1: items 1, 3.
        _, longest = unit_times(units, 0.0, 1.0, 0.0)
        assert longest == 101.0

    def test_cyclic_balances_gradient(self):
        # Work correlated with index: cyclic balances, blocked does not.
        inner = np.arange(100, dtype=np.int64)
        blocked = cpu_blocked_units(inner, 100, threads=4)
        cyclic = cpu_cyclic_units(inner, 100, threads=4)
        _, longest_blocked = unit_times(blocked, 0.0, 1.0, 0.0)
        _, longest_cyclic = unit_times(cyclic, 0.0, 1.0, 0.0)
        assert longest_cyclic < longest_blocked

    def test_fewer_items_than_threads(self):
        units = cpu_blocked_units(np.array([5, 5], dtype=np.int64), 2, threads=16)
        assert units.n_units == 2

    def test_uniform(self):
        units = cpu_blocked_units(None, 64, threads=8)
        total, longest = unit_times(units, 1.0, 0.0, 0.0)
        assert longest == 8.0
        assert total == 64.0

    def test_empty(self):
        units = cpu_cyclic_units(None, 0, threads=4)
        assert units.n_units == 0


# ----------------------------------------------------------------------
# The per-trace ragged cuts against the frozen per-launch decompositions
# ----------------------------------------------------------------------
ragged_inners = st.lists(
    st.lists(st.integers(0, 200), min_size=1, max_size=300).map(
        lambda xs: np.asarray(xs, dtype=np.int32)
    ),
    min_size=1,
    max_size=6,
)


def launch_units(cut, steps, launch):
    """(n_units, base, trips_par, trips_ser) of one launch of a cut."""
    k = int(np.flatnonzero(steps.order == launch)[0])
    lo, hi = cut.leads[k], cut.leads[k + 1]
    assert cut.trips_par[lo] == cut.trips_ser[lo] == 0
    assert cut.base is None or cut.base[lo] == 0.0
    lo += 1  # past the launch's zero slot
    return (
        int(cut.n_units[k]),
        None if cut.base is None else cut.base[lo:hi],
        cut.trips_par[lo:hi],
        cut.trips_ser[lo:hi],
    )


def assert_same_units(got, frozen):
    n_units, base, trips_par, trips_ser = got
    assert n_units == frozen.n_units
    if frozen.base is None:
        assert base is None and frozen.uniform_base == 1.0
    else:
        assert base.dtype == np.float64
        np.testing.assert_array_equal(base, frozen.base)
    np.testing.assert_array_equal(trips_par, frozen.trips_par)
    np.testing.assert_array_equal(trips_ser, frozen.trips_ser)


class TestPerTraceGeometry:
    @given(
        ragged_inners,
        st.sampled_from(list(Granularity)),
        st.booleans(),
        st.sampled_from([32, 64, 256]),
        st.sampled_from([1, 4, 64, 96, 2048]),
    )
    @settings(max_examples=80, deadline=None)
    def test_gpu_cut_equals_frozen_units(
        self, inners, gran, persistent, block_size, resident_threads
    ):
        steps = RaggedSteps(np.arange(len(inners)), inners)
        lanes, slot_cap = gpu_cut_geometry(
            gran, persistent,
            block_size=block_size, resident_threads=resident_threads,
            max_items=max(a.size for a in inners),
        )
        cut = gpu_unit_cut(steps, gran, lanes, slot_cap)
        for launch, inner in enumerate(inners):
            frozen = gpu_units(
                inner, inner.size, gran, persistent,
                block_size=block_size, resident_threads=resident_threads,
            )
            assert_same_units(launch_units(cut, steps, launch), frozen)

    @given(ragged_inners, st.booleans(), st.sampled_from([1, 3, 16, 1000]))
    @settings(max_examples=60, deadline=None)
    def test_cpu_cut_equals_frozen_units(self, inners, cyclic, threads):
        steps = RaggedSteps(np.arange(len(inners)), inners)
        slot_cap = min(threads, max(a.size for a in inners))
        cut = cpu_unit_cut(steps, cyclic, slot_cap)
        builder = cpu_cyclic_units if cyclic else cpu_blocked_units
        for launch, inner in enumerate(inners):
            frozen = builder(inner, inner.size, threads)
            assert_same_units(launch_units(cut, steps, launch), frozen)

    def test_launches_sorted_by_size_behind_zero_slots(self):
        inners = [np.full(n, 3, dtype=np.int32) for n in (5, 2, 5, 9, 2)]
        steps = RaggedSteps(np.arange(5), inners)
        assert steps.order.tolist() == [1, 4, 0, 2, 3]
        cut = gpu_unit_cut(steps, Granularity.WARP, 32, None)
        assert cut.n_units.tolist() == [2, 2, 5, 5, 9]
        assert cut.leads.tolist() == [0, 3, 6, 12, 18, 28]
        assert cut.chunks == [(0, 5)]
