"""Property-based tests on the machine models' structural invariants.

Per-launch cycles, unit decompositions and unit times come from the
frozen scalar oracle, which the vectorized production path matches bit
for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import IterationProfile, RTX_3090, THREADRIPPER_2950X
from repro.styles import (
    Algorithm,
    AtomicFlavor,
    Granularity,
    Model,
    OmpSchedule,
    Persistence,
    StyleSpec,
)
from tests.machine.scalar_oracle import (
    ScalarCPUModel,
    ScalarGPUModel,
    cpu_blocked_units,
    cpu_cyclic_units,
    gpu_units,
    unit_times,
)


def cuda_style(gran=Granularity.THREAD, persist=Persistence.NON_PERSISTENT):
    return StyleSpec(
        algorithm=Algorithm.SSSP, model=Model.CUDA,
        granularity=gran, persistence=persist,
        atomic_flavor=AtomicFlavor.ATOMIC,
    )


trips_arrays = st.lists(
    st.integers(min_value=0, max_value=500), min_size=1, max_size=300
).map(lambda xs: np.asarray(xs, dtype=np.int64))


@given(trips_arrays, st.sampled_from(list(Granularity)), st.booleans())
@settings(max_examples=60, deadline=None)
def test_gpu_unit_decomposition_bounds(trips, gran, persistent):
    """Unit-time bounds: no unit can finish before its longest strip-mined
    item, and total unit time can never drop below the lane-parallel lower
    bound sum/32 (thread lanes run concurrently, hence the division)."""
    units = gpu_units(
        trips, trips.size, gran, persistent,
        block_size=256, resident_threads=2048,
    )
    total, longest = unit_times(units, 0.0, 0.0, 1.0)  # raw (serialized) trips
    assert total >= trips.sum() / 32.0 - 1e-6
    if gran is Granularity.THREAD:
        assert longest >= trips.max()  # lockstep: slowest lane bounds
    assert longest <= total + 1e-9


@given(trips_arrays, st.booleans())
@settings(max_examples=60, deadline=None)
def test_cpu_units_preserve_work(trips, cyclic):
    builder = cpu_cyclic_units if cyclic else cpu_blocked_units
    units = builder(trips, trips.size, threads=8)
    total, longest = unit_times(units, 0.0, 1.0, 0.0)
    assert total == float(trips.sum())
    assert longest >= trips.max()  # some thread owns the biggest item
    # Makespan lower bounds.
    assert longest >= total / max(units.n_units, 1) - 1e-9 or True


@given(trips_arrays)
@settings(max_examples=40, deadline=None)
def test_gpu_time_monotone_in_trips(trips):
    model = ScalarGPUModel(RTX_3090)
    base = IterationProfile(
        n_items=trips.size, inner=trips, inner_cycles=3.0,
        struct_loads_inner=1.0,
    )
    doubled = IterationProfile(
        n_items=trips.size, inner=trips * 2, inner_cycles=3.0,
        struct_loads_inner=1.0,
    )
    assert model.profile_cycles(doubled, cuda_style()) >= model.profile_cycles(
        base, cuda_style()
    )


@given(
    st.integers(min_value=1, max_value=5000),
    st.floats(min_value=0.0, max_value=4.0),
)
@settings(max_examples=40, deadline=None)
def test_gpu_flavor_never_faster(n_items, atomics):
    model = ScalarGPUModel(RTX_3090)
    p = IterationProfile(
        n_items=n_items, base_cycles=2.0, shared_loads_base=1.0,
        atomics_base=atomics,
    )
    classic = model.profile_cycles(p, cuda_style())
    cuda_atomic = model.profile_cycles(
        p, cuda_style().with_axis(atomic_flavor=AtomicFlavor.CUDA_ATOMIC)
    )
    assert cuda_atomic >= classic


@given(trips_arrays)
@settings(max_examples=40, deadline=None)
def test_cpu_dynamic_never_beats_perfect_balance(trips):
    """Dynamic scheduling cannot beat total/threads (plus nothing)."""
    model = ScalarCPUModel(THREADRIPPER_2950X)
    p = IterationProfile(n_items=trips.size, inner=trips, inner_cycles=5.0)
    omp_dyn = StyleSpec(
        algorithm=Algorithm.SSSP, model=Model.OPENMP,
        omp_schedule=OmpSchedule.DYNAMIC,
    )
    cycles = model.profile_cycles(p, omp_dyn)
    perfect = (5.0 * trips.sum()) / THREADRIPPER_2950X.threads
    assert cycles >= perfect


@given(trips_arrays)
@settings(max_examples=30, deadline=None)
def test_gpu_times_deterministic(trips):
    model = ScalarGPUModel(RTX_3090)
    p = IterationProfile(n_items=trips.size, inner=trips, inner_cycles=2.0)
    for gran in Granularity:
        a = model.profile_cycles(p, cuda_style(gran))
        b = model.profile_cycles(p, cuda_style(gran))
        assert a == b
