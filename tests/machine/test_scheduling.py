"""Unit tests for the work-to-unit decompositions (hand-computed cases).

Unit times and the list-scheduling bound are evaluated with the frozen
scalar oracle's ``unit_times`` and ``makespan``.
"""

import numpy as np
import pytest

from repro.machine import (
    cpu_blocked_units,
    cpu_cyclic_units,
    gpu_units,
)
from repro.styles import Granularity
from tests.machine.scalar_oracle import makespan, unit_times


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
