"""Frozen scalar reference for the analytic GPU/CPU timing models.

These are the original per-launch walks of :mod:`repro.machine.gpu`,
:mod:`repro.machine.cpu` and :mod:`repro.machine.scheduling` —
``time_trace``, ``profile_cycles``, ``_core_cycles``, ``_memory_cycles``,
``_reduction_cycles``, the CPU ``_schedule_cycles``/``_units``, the
per-launch unit decompositions (:class:`UnitDecomposition`,
:func:`gpu_units`, :func:`cpu_blocked_units`, :func:`cpu_cyclic_units`
and their helpers), ``UnitDecomposition.times`` and ``makespan`` — kept
verbatim as a test oracle.  The package itself times traces only through
the vectorized :func:`repro.machine.time_matrix` path, which cuts every
launch of a trace into units in one ragged pass; the identity tests check
that every cell of it equals this walk bit for bit.  Do not edit these
bodies: they pin the model's floats.

The only changes from the originals are at call sites: the model methods
live on :class:`ScalarGPUModel`/:class:`ScalarCPUModel` subclasses (which
reuse the production bandwidth resolution and style context, but build
their unit decompositions here, launch by launch, memoized per profile
by :func:`memoized_units`), ``UnitDecomposition.times`` is the free
function :func:`unit_times`, and the GPU style context no longer carries
its unused core key.
"""

from dataclasses import dataclass
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.machine.cpu import CPUModel
from repro.machine.gpu import L2_BANKS, GPUModel
from repro.machine.scheduling import WARP_WIDTH
from repro.machine.specs import CPUSpec, GPUSpec
from repro.machine.trace import ExecutionTrace, IterationProfile
from repro.styles.axes import (
    CppSchedule,
    CpuReduction,
    Granularity,
    GpuReduction,
    Iteration,
    Model,
    OmpSchedule,
)
from repro.styles.spec import StyleSpec

__all__ = [
    "UnitDecomposition",
    "gpu_units",
    "cpu_blocked_units",
    "cpu_cyclic_units",
    "ScalarGPUModel",
    "ScalarCPUModel",
    "scalar_model",
    "time_trace",
    "unit_times",
    "makespan",
]


# ----------------------------------------------------------------------
# Unit decompositions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UnitDecomposition:
    """Per-execution-unit serial work of one launch.

    A "unit" is whatever executes serially with respect to itself: a warp
    (thread/warp granularity), a block (block granularity), or a CPU
    thread.  To keep memory bounded for launches with hundreds of
    thousands of units, the representation is sparse: a ``None`` array
    with the matching ``uniform_*`` scalar set means "this component is
    identical for every unit" (e.g. each warp/block owns exactly one item,
    or there is no inner loop).  ``trips_ser`` may alias the launch's raw
    trip array — it is never mutated.

    Attributes
    ----------
    base:
        Per-unit count of serialized item-base executions
        (or ``uniform_base`` for all units).
    trips_par:
        Per-unit inner trips after strip-mining (lanes share the loop).
    trips_ser:
        Per-unit raw inner trips (for operations that cannot be
        strip-mined, e.g. same-address atomics).
    width:
        Warp-issue slots one unit occupies (1 for warps, block_size/32 for
        blocks, 1 for CPU threads).
    n_units:
        Number of units.
    """

    base: Optional[np.ndarray]
    trips_par: Optional[np.ndarray]
    trips_ser: Optional[np.ndarray]
    width: float
    n_units: int
    uniform_base: float = 0.0
    uniform_trips: float = 0.0


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _pad_reshape(values: np.ndarray, width: int) -> np.ndarray:
    """Pad with zeros to a multiple of ``width`` and reshape to rows."""
    n = values.size
    rows = -(-n // width)
    if rows * width != n:
        padded = np.zeros(rows * width, dtype=values.dtype)
        padded[:n] = values
        values = padded
    return values.reshape(rows, width)


def _strided_sums(values: np.ndarray, n_slots: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-slot (count, sum) under cyclic assignment item ``i -> i % n_slots``."""
    n = values.size
    counts = np.full(n_slots, n // n_slots, dtype=np.int64)
    counts[: n % n_slots] += 1
    waves = _pad_reshape(values, n_slots)
    return counts, waves.sum(axis=0)


def _contiguous_sums(values: np.ndarray, n_slots: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per-slot (count, sum) under blocked assignment (contiguous chunks).

    Chunk boundaries follow the OpenMP static convention:
    slot ``t`` gets ``[t*n//T, (t+1)*n//T)``.
    """
    n = values.size
    bounds = (np.arange(n_slots + 1, dtype=np.int64) * n) // n_slots
    csum = np.concatenate([[0], np.cumsum(values, dtype=np.int64)])
    sums = csum[bounds[1:]] - csum[bounds[:-1]]
    counts = np.diff(bounds)
    return counts, sums


def _lockstep_warps(
    base: np.ndarray, trips: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Collapse per-thread work into per-warp work (lockstep: lane max)."""
    return (
        _pad_reshape(base, WARP_WIDTH).max(axis=1).astype(np.float64),
        _pad_reshape(trips, WARP_WIDTH).max(axis=1),
    )


# ----------------------------------------------------------------------
# GPU decompositions
# ----------------------------------------------------------------------
def gpu_units(
    inner: Optional[np.ndarray],
    n_items: int,
    granularity: Granularity,
    persistent: bool,
    *,
    block_size: int,
    resident_threads: int,
) -> UnitDecomposition:
    """Decompose a GPU launch into warp- or block-level units.

    ``inner is None`` means every item is identical (no inner loop): the
    decomposition collapses to the uniform fast path.
    """
    if n_items == 0:
        return UnitDecomposition(None, None, None, 1.0, 0)

    if inner is None:
        return _gpu_units_uniform(
            n_items, granularity, persistent,
            block_size=block_size, resident_threads=resident_threads,
        )

    trips = inner
    if granularity is Granularity.THREAD:
        if persistent:
            slots = min(resident_threads, n_items)
            counts, sums = _strided_sums(trips, slots)
            wbase, wtrips = _lockstep_warps(counts, sums)
            return UnitDecomposition(wbase, wtrips, wtrips, 1.0, wbase.size)
        # Lockstep warps of one item per lane: every warp runs the item
        # base once; its trip time is the slowest lane's trip count.
        wtrips = _pad_reshape(trips, WARP_WIDTH).max(axis=1)
        return UnitDecomposition(
            None, wtrips, wtrips, 1.0, wtrips.size, uniform_base=1.0
        )

    lane_width = WARP_WIDTH if granularity is Granularity.WARP else block_size
    unit_width = 1.0 if granularity is Granularity.WARP else block_size / WARP_WIDTH
    strip = -(-trips // lane_width)  # ceil(t / lanes): strip-mined trips
    if persistent:
        n_resident_units = max(1, resident_threads // lane_width)
        slots = min(n_resident_units, n_items)
        counts, strip_sums = _strided_sums(strip, slots)
        _, raw_sums = _strided_sums(trips, slots)
        return UnitDecomposition(
            counts.astype(np.float64),
            strip_sums,
            raw_sums,
            unit_width,
            slots,
        )
    # One unit per item; the raw trip array is aliased, never copied.
    return UnitDecomposition(
        None, strip, trips, unit_width, n_items, uniform_base=1.0
    )


def _gpu_units_uniform(
    n_items: int,
    granularity: Granularity,
    persistent: bool,
    *,
    block_size: int,
    resident_threads: int,
) -> UnitDecomposition:
    """Uniform-item fast path (no per-unit arrays needed)."""
    if granularity is Granularity.THREAD:
        if persistent:
            slots = min(resident_threads, n_items)
            per_thread = -(-n_items // slots)
            n_units = -(-slots // WARP_WIDTH)
            return UnitDecomposition(
                None, None, None, 1.0, n_units,
                uniform_base=float(per_thread), uniform_trips=0.0,
            )
        n_units = -(-n_items // WARP_WIDTH)
        return UnitDecomposition(None, None, None, 1.0, n_units, uniform_base=1.0)

    lane_width = WARP_WIDTH if granularity is Granularity.WARP else block_size
    unit_width = 1.0 if granularity is Granularity.WARP else block_size / WARP_WIDTH
    if persistent:
        n_units = max(1, min(resident_threads // lane_width, n_items))
        per_unit = -(-n_items // n_units)
        return UnitDecomposition(
            None, None, None, unit_width, n_units, uniform_base=float(per_unit)
        )
    return UnitDecomposition(None, None, None, unit_width, n_items, uniform_base=1.0)


# ----------------------------------------------------------------------
# CPU decompositions
# ----------------------------------------------------------------------
def cpu_blocked_units(
    inner: Optional[np.ndarray], n_items: int, threads: int
) -> UnitDecomposition:
    """Static contiguous chunks (OpenMP default / C++ blocked)."""
    if n_items == 0:
        return UnitDecomposition(None, None, None, 1.0, 0)
    n_units = min(threads, n_items)
    if inner is None:
        per = -(-n_items // n_units)
        return UnitDecomposition(
            None, None, None, 1.0, n_units, uniform_base=float(per)
        )
    counts, sums = _contiguous_sums(inner, n_units)
    return UnitDecomposition(
        counts.astype(np.float64),
        sums.astype(np.float64),
        sums.astype(np.float64),
        1.0,
        n_units,
    )


def cpu_cyclic_units(
    inner: Optional[np.ndarray], n_items: int, threads: int
) -> UnitDecomposition:
    """Round-robin assignment (C++ cyclic schedule)."""
    if n_items == 0:
        return UnitDecomposition(None, None, None, 1.0, 0)
    n_units = min(threads, n_items)
    if inner is None:
        per = -(-n_items // n_units)
        return UnitDecomposition(
            None, None, None, 1.0, n_units, uniform_base=float(per)
        )
    counts, sums = _strided_sums(inner, n_units)
    return UnitDecomposition(
        counts.astype(np.float64),
        sums.astype(np.float64),
        sums.astype(np.float64),
        1.0,
        n_units,
    )




def memoized_units(p: IterationProfile, key, builder) -> UnitDecomposition:
    """A profile's decomposition, built once per (cut, geometry) key.

    The memo lives on the profile, so it is released with the trace; it
    keeps the per-launch walk as cheap as it was when the production
    models memoized the same decompositions, which is the baseline
    ``tools/perf_smoke.py`` measures the vectorized path against.
    """
    memo = p.__dict__.setdefault("_oracle_units", {})
    units = memo.get(key)
    if units is None:
        units = memo[key] = builder()
    return units


# ----------------------------------------------------------------------
# Scheduling
# ----------------------------------------------------------------------
def unit_times(
    units: UnitDecomposition, alpha: float, beta_par: float, beta_ser: float
) -> Tuple[float, float]:
    """(sum of unit times, max unit time) for the given coefficients."""
    if units.n_units == 0:
        return 0.0, 0.0
    if units.base is None and units.trips_par is None:
        t = (
            alpha * units.uniform_base
            + (beta_par + beta_ser) * units.uniform_trips
        )
        return t * units.n_units, t
    const = alpha * units.uniform_base if units.base is None else 0.0
    t = None if units.base is None else alpha * units.base
    if units.trips_par is not None and (beta_par != 0.0 or beta_ser != 0.0):
        trips = beta_par * units.trips_par
        if beta_ser != 0.0:
            trips = trips + beta_ser * units.trips_ser
        t = trips if t is None else t + trips
    if t is None:
        return const * units.n_units, const
    return float(t.sum()) + const * units.n_units, float(t.max()) + const


def makespan(total: float, longest: float, slots: float) -> float:
    """Greedy list-scheduling makespan bound: max(total/slots, longest)."""
    if slots <= 0:
        raise ValueError("slots must be positive")
    return max(total / slots, longest)


# ----------------------------------------------------------------------
# GPU
# ----------------------------------------------------------------------
class ScalarGPUModel(GPUModel):
    """:class:`GPUModel` plus its original scalar walk."""

    def time_trace(self, trace: ExecutionTrace, style: StyleSpec) -> float:
        """Simulated wall time in seconds for the whole program."""
        if style.model is not Model.CUDA:
            raise ValueError("GPUModel times CUDA specs only")
        mem_bw = self._bandwidth_for(trace)
        cycles = 0.0
        for profile in trace.profiles:
            cycles += self.profile_cycles(profile, style, mem_bw=mem_bw)
        return self.spec.seconds(cycles)

    def profile_cycles(
        self,
        p: IterationProfile,
        style: StyleSpec,
        *,
        mem_bw: Optional[float] = None,
    ) -> float:
        """Simulated cycles of one kernel launch."""
        s = self.spec
        if mem_bw is None:
            mem_bw = s.mem_bytes_per_cycle
        if p.n_items == 0:
            return s.cycles_launch
        _, gran, persistent, flavor_ls, flavor_rmw = self._style_context(style)
        core = self._core_cycles(
            p, style, gran, persistent, flavor_ls, flavor_rmw, mem_bw
        )
        red_cycles = self._reduction_cycles(p, style, gran, flavor_rmw)
        return core + red_cycles + s.cycles_launch

    def _core_cycles(
        self,
        p: IterationProfile,
        style: StyleSpec,
        gran: Granularity,
        persistent: bool,
        flavor_ls: float,
        flavor_rmw: float,
        mem_bw: float,
    ) -> float:
        """Issue + memory + contention cycles of one launch — everything
        except the reduction style and the launch overhead.  Depends on the
        style only through (atomic flavor, granularity, persistence,
        iteration), which is what makes batch sharing possible."""
        s = self.spec
        # --- per-item coefficient assembly -----------------------------
        alpha = (
            p.base_cycles * s.cycles_compute
            + p.struct_loads_base * s.cycles_load
            + p.shared_loads_base * s.cycles_load * flavor_ls
            + p.shared_stores_base * s.cycles_store * flavor_ls
            + p.atomics_base * s.cycles_atomic * flavor_rmw
        )
        beta_atomic = p.atomics_inner * s.cycles_atomic * flavor_rmw
        beta_other = (
            p.inner_cycles * s.cycles_compute
            + p.struct_loads_inner * s.cycles_load
            + p.shared_loads_inner * s.cycles_load * flavor_ls
            + p.shared_stores_inner * s.cycles_store * flavor_ls
        )
        # Same-address inner atomics cannot be strip-mined across lanes.
        if p.atomics_same_address_per_item and gran is not Granularity.THREAD:
            beta_par, beta_ser = beta_other, beta_atomic
        else:
            beta_par, beta_ser = beta_other + beta_atomic, 0.0
        # Granularity synchronization: block-wide processing of one item
        # requires a barrier per item; warps sync implicitly (lockstep).
        if gran is Granularity.BLOCK:
            alpha += (p.barriers_per_item + 1.0) * s.cycles_barrier
        elif p.barriers_per_item:
            alpha += p.barriers_per_item * s.cycles_barrier

        # --- issue makespan --------------------------------------------
        units = self._units(p, gran, persistent)
        total, longest = unit_times(units, alpha, beta_par, beta_ser)
        issue_cycles = makespan(total * units.width, longest, s.issue_slots)

        # --- memory time -------------------------------------------------
        mem_cycles = self._memory_cycles(
            p, style, gran, mem_bw, flavor_ls=flavor_ls, flavor_rmw=flavor_rmw
        )

        # --- serial add-ons ----------------------------------------------
        # Same-address atomics serialize per address; different addresses
        # proceed in parallel across the L2 banks.  The launch pays the
        # longest single-address chain plus the bank-throughput cost of the
        # remaining collisions (scaled by how much of the launch is
        # actually concurrent).
        active_threads = s.issue_slots * WARP_WIDTH
        overlap = min(1.0, active_threads / p.n_items)
        conflict_cycles = flavor_rmw * s.cycles_atomic_conflict * (
            p.max_conflict
            + p.conflict_extra * overlap / L2_BANKS
        )
        hot_cycles = p.hot_atomics * s.cycles_hot_atomic * flavor_rmw

        return max(issue_cycles, mem_cycles) + conflict_cycles + hot_cycles

    def _units(
        self, p: IterationProfile, gran: Granularity, persistent: bool
    ) -> UnitDecomposition:
        s = self.spec
        return memoized_units(
            p,
            ("gpu", gran, persistent, s.block_size, s.resident_threads),
            lambda: gpu_units(
                p.inner,
                p.n_items,
                gran,
                persistent,
                block_size=s.block_size,
                resident_threads=s.resident_threads,
            ),
        )

    def _memory_cycles(
        self,
        p: IterationProfile,
        style: StyleSpec,
        gran: Granularity,
        mem_bw: float,
        *,
        flavor_ls: float = 1.0,
        flavor_rmw: float = 1.0,
    ) -> float:
        """DRAM time: bytes moved / bandwidth, sector-expanded when
        scattered.

        Structure streams (CSR/COO/worklist) coalesce when consecutive
        lanes touch consecutive addresses: always true for the per-item
        (base) accesses and for strip-mined inner loops (warp/block
        granularity), but false for thread-granularity neighbor walks,
        where each lane streams through its own adjacency list.
        Data-array accesses (dist/comp/rank...) are scattered by nature.
        """
        s = self.spec
        inner_total = float(p.total_inner)
        n = float(p.n_items)
        struct_inner_factor = (
            s.uncoalesced_factor if gran is Granularity.THREAD else 1.0
        )
        if style.iteration is Iteration.EDGE and p.inner is None:
            struct_inner_factor = 1.0
        struct_bytes = 4.0 * (
            p.struct_loads_base * n + p.struct_loads_inner * inner_total * struct_inner_factor
        )
        shared_accesses = (
            (p.shared_loads_base + p.shared_stores_base) * n
            + (p.shared_loads_inner + p.shared_stores_inner) * inner_total
        )
        if p.atomics_same_address_per_item:
            # An item's inner atomics all hit one cell: the line stays in
            # the L2 and reaches memory once, not once per trip.
            atomic_accesses = (p.atomics_base + min(p.atomics_inner, 1.0)) * n
        else:
            atomic_accesses = p.atomics_base * n + p.atomics_inner * inner_total
        # Default cuda::atomic (seq_cst, system scope) defeats caching and
        # pipelining of the data-array traffic; the stall time is modeled
        # as serialization-equivalent extra traffic.
        scattered_bytes = 4.0 * s.scatter_factor * (
            shared_accesses * flavor_ls + 2.0 * atomic_accesses * flavor_rmw
        )
        return (struct_bytes + scattered_bytes) / mem_bw

    def _reduction_cycles(
        self,
        p: IterationProfile,
        style: StyleSpec,
        gran: Granularity,
        flavor_rmw: float,
    ) -> float:
        """Section 2.10.1 reduction styles.

        * global-add: every contribution is an atomic on one L2 address —
          fully serialized at the hot-atomic rate.
        * block-add: block-scope atomics on a global block counter do not
          beat the L2 (same path, narrower scope), and the style adds a
          barrier plus one global add per block — the slowest, matching
          Figure 10 and the paper's explanation.
        * reduction-add: warp-shuffle trees are issue-parallel; only one
          global add per block remains.
        """
        if p.reduction_items <= 0 or style.gpu_reduction is None:
            return 0.0
        s = self.spec
        items = p.reduction_items
        lanes_per_item = {
            Granularity.THREAD: 1,
            Granularity.WARP: WARP_WIDTH,
            Granularity.BLOCK: s.block_size,
        }[gran]
        launch_threads = max(p.n_items * lanes_per_item, 1)
        n_blocks = max(1, -(-launch_threads // s.block_size))
        red = style.gpu_reduction
        if red is GpuReduction.GLOBAL_ADD:
            return items * s.cycles_hot_atomic * flavor_rmw
        if red is GpuReduction.BLOCK_ADD:
            return (
                items * s.cycles_hot_atomic * flavor_rmw
                + n_blocks * (s.cycles_hot_atomic + 2.0 * s.cycles_barrier)
            )
        # REDUCTION_ADD: parallel shuffle tree + one global add per block.
        parallel = items * s.cycles_shuffle_red / (s.issue_slots * WARP_WIDTH)
        return parallel + n_blocks * s.cycles_hot_atomic


# ----------------------------------------------------------------------
# CPU
# ----------------------------------------------------------------------
class ScalarCPUModel(CPUModel):
    """:class:`CPUModel` plus its original scalar walk."""

    def time_trace(self, trace: ExecutionTrace, style: StyleSpec) -> float:
        """Simulated wall time in seconds for the whole program."""
        if style.model is Model.CUDA:
            raise ValueError("CPUModel times OpenMP / C++-threads specs only")
        mem_bw = self._bandwidth_for(trace)
        cycles = 0.0
        for profile in trace.profiles:
            cycles += self.profile_cycles(profile, style, mem_bw=mem_bw)
        return self.spec.seconds(cycles)

    def profile_cycles(
        self,
        p: IterationProfile,
        style: StyleSpec,
        *,
        mem_bw: Optional[float] = None,
    ) -> float:
        """Simulated cycles of one parallel step."""
        s = self.spec
        if mem_bw is None:
            mem_bw = s.mem_bytes_per_cycle
        region = (
            s.cycles_region_omp
            if style.model is Model.OPENMP
            else s.cycles_region_cpp
        )
        if p.n_items == 0:
            return region
        core = self._core_cycles(p, style, mem_bw)
        red_cycles = self._reduction_cycles(p, style)
        return core + red_cycles + region

    def _core_cycles(
        self, p: IterationProfile, style: StyleSpec, mem_bw: float
    ) -> float:
        """Work + memory + contention cycles of one step — everything except
        the reduction style and the parallel-region overhead.  Depends on
        the style only through (model, omp_schedule, cpp_schedule), which is
        what makes batch sharing possible."""
        s = self.spec
        cyclic = style.cpp_schedule is CppSchedule.CYCLIC
        load_factor = s.cyclic_locality_factor if cyclic else 1.0

        # OpenMP realizes min/max RMW as critical sections, which serialize
        # chip-wide; everything else stays in the per-item coefficients.
        minmax_critical = style.model is Model.OPENMP and p.atomic_minmax
        atomic_cost = 0.0 if minmax_critical else s.cycles_atomic

        alpha = (
            p.base_cycles * s.cycles_compute
            + p.struct_loads_base * s.cycles_load * load_factor
            + p.shared_loads_base * s.cycles_load
            + p.shared_stores_base * s.cycles_store
            + p.atomics_base * atomic_cost
        )
        beta = (
            p.inner_cycles * s.cycles_compute
            + p.struct_loads_inner * s.cycles_load * load_factor
            + p.shared_loads_inner * s.cycles_load
            + p.shared_stores_inner * s.cycles_store
            + p.atomics_inner * atomic_cost
        )

        work_cycles = self._schedule_cycles(p, style, alpha, beta)

        serial_cycles = 0.0
        if minmax_critical:
            serial_cycles += p.total_atomics * s.cycles_critical

        mem_cycles = self._memory_cycles(p, load_factor, mem_bw)

        overlap = min(1.0, s.threads / p.n_items)
        conflict_cycles = p.conflict_extra * s.cycles_atomic_conflict * overlap
        hot_cycles = p.hot_atomics * s.cycles_hot_atomic

        return (
            max(work_cycles, mem_cycles)
            + serial_cycles
            + conflict_cycles
            + hot_cycles
        )

    def _schedule_cycles(
        self, p: IterationProfile, style: StyleSpec, alpha: float, beta: float
    ) -> float:
        """Makespan under the spec's scheduling policy."""
        s = self.spec
        if style.model is Model.OPENMP and style.omp_schedule is OmpSchedule.DYNAMIC:
            # Greedy dynamic scheduling: classic bound (balanced up to the
            # longest single chunk) plus dispatch overhead.  Every chunk
            # grab is a fetch-add on the shared loop counter — a hot
            # atomic that serializes across the chip — plus some per-chunk
            # bookkeeping that runs inside the grabbing thread.
            total = alpha * p.n_items + beta * p.total_inner
            if p.inner is not None and p.inner.size:
                longest_item = alpha + beta * float(p.inner.max())
            else:
                longest_item = alpha
            chunk = max(1, s.dynamic_chunk)
            n_chunks = -(-p.n_items // chunk)
            # The loop counter only becomes a serialization point when
            # threads finish chunks faster than the counter can hand new
            # ones out; pressure is the ratio of grab rate to service rate.
            body = max(total / n_chunks, 1.0)
            pressure = min(1.0, s.threads * s.cycles_hot_atomic / body)
            dispatch_serial = n_chunks * s.cycles_hot_atomic * pressure
            dispatch_local = n_chunks * s.cycles_dynamic_dispatch / s.threads
            return (
                total / s.threads
                + longest_item * chunk
                + dispatch_serial
                + dispatch_local
            )

        units = self._units(p, style)
        total, longest = unit_times(units, alpha, beta, 0.0)
        return makespan(total, longest, units.n_units or 1)

    def _units(self, p: IterationProfile, style: StyleSpec) -> UnitDecomposition:
        cyclic = style.cpp_schedule is CppSchedule.CYCLIC
        builder = cpu_cyclic_units if cyclic else cpu_blocked_units
        return memoized_units(
            p,
            ("cpu", cyclic, self.spec.threads),
            lambda: builder(p.inner, p.n_items, self.spec.threads),
        )

    def _memory_cycles(
        self, p: IterationProfile, load_factor: float, mem_bw: float
    ) -> float:
        """Bandwidth bound: streaming structure + scattered data traffic."""
        n = float(p.n_items)
        inner_total = float(p.total_inner)
        struct_bytes = 4.0 * load_factor * (
            p.struct_loads_base * n + p.struct_loads_inner * inner_total
        )
        data_accesses = (
            (p.shared_loads_base + p.shared_stores_base) * n
            + (p.shared_loads_inner + p.shared_stores_inner) * inner_total
            + 2.0 * (p.atomics_base * n + p.atomics_inner * inner_total)
        )
        # Scattered 4-byte accesses pull whole 64-byte lines; charge a
        # conservative 16-byte effective cost (partial line reuse).
        return (struct_bytes + 16.0 * data_accesses) / mem_bw

    def _reduction_cycles(self, p: IterationProfile, style: StyleSpec) -> float:
        """Section 2.10.2 reduction styles.

        * atomic: every contribution is a lock-prefixed RMW on one hot
          line — serialized through the LLC.
        * critical: every contribution enters a mutex — serialized and an
          order of magnitude pricier per op (Figure 11's worst case).
        * clause (OpenMP) / private partials (C++): thread-local adds,
          one combining atomic per thread.
        """
        if p.reduction_items <= 0 or style.cpu_reduction is None:
            return 0.0
        s = self.spec
        items = p.reduction_items
        red = style.cpu_reduction
        if red is CpuReduction.ATOMIC:
            return items * s.cycles_hot_atomic
        if red is CpuReduction.CRITICAL:
            return items * s.cycles_critical
        # CLAUSE: private accumulation in registers/L1, combine at the end.
        return items * s.cycles_compute / s.threads + s.threads * s.cycles_atomic


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
_MODELS: Dict[Union[GPUSpec, CPUSpec], Union[ScalarGPUModel, ScalarCPUModel]] = {}


def scalar_model(device: Union[GPUSpec, CPUSpec]):
    """The (memoized, spec-keyed) oracle model of a device."""
    model = _MODELS.get(device)
    if model is None:
        model = (
            ScalarGPUModel(device)
            if isinstance(device, GPUSpec)
            else ScalarCPUModel(device)
        )
        _MODELS[device] = model
    return model


def time_trace(
    trace: ExecutionTrace, style: StyleSpec, device: Union[GPUSpec, CPUSpec]
) -> float:
    """Scalar simulated seconds of one style on one device."""
    return scalar_model(device).time_trace(trace, style)
