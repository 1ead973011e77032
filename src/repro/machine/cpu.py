"""Analytic CPU timing model (OpenMP and C++ threads).

Structure mirrors :mod:`repro.machine.gpu` with the CPU-specific effects of
Sections 2.10.2, 2.11, 2.12 and 5.3/5.5:

* **OpenMP min/max updates are critical sections** — OpenMP's ``atomic``
  pragma supports only simple operators, so the RMW-style min/max relaxation
  must use ``omp critical`` (Section 5.3.1: "max and min operations ... must
  be implemented with slow critical sections in OpenMP but can be done with
  fast atomics in C++").  Critical sections serialize chip-wide, which is
  where the enormous OpenMP ratio ranges of Figures 3-6 come from.
* **Scheduling** — OpenMP default = static contiguous chunks; dynamic =
  work-stealing chunks with per-chunk dispatch overhead (Section 2.11).
  C++ blocked/cyclic are explicit contiguous/strided assignments
  (Section 2.12); cyclic loses spatial locality on streaming accesses.
* **Parallel-region overhead** — every launch pays a fork/join; the
  straightforward C++-threads style creates and joins ``std::thread``
  objects per step, which is an order of magnitude pricier than OpenMP's
  pooled workers.  This is why small-frontier data-driven codes pay more in
  C++ (Section 5.16: "C++ prefers the topology-driven style because the
  worklist overhead often cannot offset the work-efficiency benefit").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ..styles.axes import (
    CppSchedule,
    CpuReduction,
    Model,
    OmpSchedule,
)
from .scheduling import cpu_uniform_geometry, cpu_unit_cut
from .specs import CPUSpec
from .trace import ExecutionTrace, Footprint, ProfileMatrix, as_block

__all__ = ["CPUModel"]


class CPUModel:
    """Times execution traces on one CPU spec, for OpenMP or C++ codes."""

    def __init__(self, spec: CPUSpec):
        self.spec = spec
        self._bw_cache: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    def _bandwidth_for(
        self, trace: Union[ExecutionTrace, Footprint]
    ) -> float:
        """L3-resident working sets stream at L3, not DRAM, speed.

        Memoized per trace fingerprint — the (n_vertices, n_edges) pair
        that fully determines it — so repeated batch calls skip it.
        """
        key = (trace.n_vertices, trace.n_edges)
        bw = self._bw_cache.get(key)
        if bw is None:
            footprint = trace.n_vertices * 16.0 + trace.n_edges * 8.0
            if footprint <= self.spec.l3_size_bytes:
                bw = self.spec.l3_bytes_per_cycle
            else:
                bw = self.spec.mem_bytes_per_cycle
            self._bw_cache[key] = bw
        return bw

    def time_trace_batch(self, block, cells) -> List[float]:
        """Simulated wall times of many (trace, mapping variant) cells.

        ``block`` and ``cells`` are as in
        :meth:`repro.machine.gpu.GPUModel.time_trace_batch`.  Core (work +
        memory + contention) cycles are evaluated once per distinct
        (model, omp_schedule, cpp_schedule) combination as a vector over
        every step of the block, reduction cycles once per reduction
        style, and each cell gathers its trace's slice of both — a style
        whose mapping differs only in the reduction axis reuses the exact
        same core floats.  Each trace's cells are summed over its steps in
        step order (:meth:`~repro.machine.trace.ProfileMatrix.cell_totals`),
        so every result is bit-identical to the frozen scalar walk in
        ``tests/machine/scalar_oracle.py``, whatever the block or batch.
        """
        pm, cells = as_block(block, cells)
        if not cells:
            return []
        s = self.spec
        regions = np.empty(len(cells))
        core_index: Dict[Tuple, int] = {}
        red_index: Dict[Optional[CpuReduction], int] = {}
        core_at = np.empty(len(cells), dtype=np.int64)
        red_at = np.empty(len(cells), dtype=np.int64)
        for c, (_, style) in enumerate(cells):
            if style.model is Model.CUDA:
                raise ValueError("CPUModel times OpenMP / C++-threads specs only")
            regions[c] = (
                s.cycles_region_omp
                if style.model is Model.OPENMP
                else s.cycles_region_cpp
            )
            key = (style.model, style.omp_schedule, style.cpp_schedule)
            core_at[c] = core_index.setdefault(key, len(core_index))
            red_at[c] = red_index.setdefault(
                style.cpu_reduction, len(red_index)
            )
        core = red = np.empty((0, 0))
        if pm.nonzero.size:
            mem_bw = self._bandwidth_for(pm.footprint)
            core = np.empty((len(core_index), pm.nonzero.size))
            for key, at in core_index.items():
                core[at] = self._core_cycles_batch(pm, *key, mem_bw=mem_bw)
            red = np.empty((len(red_index), pm.nonzero.size))
            for red_style, at in red_index.items():
                red[at] = self._reduction_cycles_batch(pm, red_style)
        totals = pm.cell_totals(
            np.array([t for t, _ in cells], dtype=np.int64),
            regions, core, core_at, red, red_at,
        )
        return [float(s.seconds(t)) for t in totals]

    # ------------------------------------------------------------------
    def _core_cycles_batch(
        self,
        pm: ProfileMatrix,
        model: Model,
        omp: Optional[OmpSchedule],
        cpp: Optional[CppSchedule],
        *,
        mem_bw: float,
    ) -> np.ndarray:
        """Work + memory + contention cycles of one step — everything
        except the reduction style and the parallel-region overhead — as
        one vector over the trace's nonzero steps.

        Depends on the style only through (model, omp_schedule,
        cpp_schedule), which is what makes batch sharing possible.
        Entry-for-entry bit-identical to the scalar expression."""
        s = self.spec
        cyclic = cpp is CppSchedule.CYCLIC
        load_factor = s.cyclic_locality_factor if cyclic else 1.0

        # OpenMP realizes min/max RMW as critical sections (chip-wide
        # serialization); the atomic cost then leaves the coefficients.
        if model is Model.OPENMP:
            atomic_cost = np.where(pm.atomic_minmax, 0.0, s.cycles_atomic)
            serial = np.where(
                pm.atomic_minmax, pm.total_atomics * s.cycles_critical, 0.0
            )
        else:
            atomic_cost = s.cycles_atomic
            serial = 0.0

        alpha = (
            pm.base_cycles * s.cycles_compute
            + pm.struct_loads_base * s.cycles_load * load_factor
            + pm.shared_loads_base * s.cycles_load
            + pm.shared_stores_base * s.cycles_store
            + pm.atomics_base * atomic_cost
        )
        beta = (
            pm.inner_cycles * s.cycles_compute
            + pm.struct_loads_inner * s.cycles_load * load_factor
            + pm.shared_loads_inner * s.cycles_load
            + pm.shared_stores_inner * s.cycles_store
            + pm.atomics_inner * atomic_cost
        )

        work = self._schedule_cycles_batch(pm, model, omp, cyclic, alpha, beta)
        mem = self._memory_cycles_batch(pm, load_factor, mem_bw)

        overlap = np.minimum(1.0, s.threads / pm.n_items)
        conflict = pm.conflict_extra * s.cycles_atomic_conflict * overlap
        hot = pm.hot_atomics * s.cycles_hot_atomic

        return np.maximum(work, mem) + serial + conflict + hot

    def _schedule_cycles_batch(
        self,
        pm: ProfileMatrix,
        model: Model,
        omp: Optional[OmpSchedule],
        cyclic: bool,
        alpha: np.ndarray,
        beta: np.ndarray,
    ) -> np.ndarray:
        """Makespan under the spec's scheduling policy, per nonzero step."""
        s = self.spec
        if model is Model.OPENMP and omp is OmpSchedule.DYNAMIC:
            # Greedy dynamic scheduling: classic bound (balanced up to the
            # longest single chunk) plus dispatch overhead.  Every chunk
            # grab is a fetch-add on the shared loop counter — a hot
            # atomic that serializes across the chip — plus some per-chunk
            # bookkeeping that runs inside the grabbing thread.
            total = alpha * pm.n_items + beta * pm.total_inner
            # For steps without an inner loop ``max_inner`` is 0 and the
            # term is an exact + 0.0, matching the scalar branch.
            longest_item = alpha + beta * pm.max_inner
            chunk = max(1, s.dynamic_chunk)
            n_chunks = -(-pm.n_items_int // chunk)
            # The loop counter only becomes a serialization point when
            # threads finish chunks faster than the counter can hand new
            # ones out; pressure is the ratio of grab rate to service rate.
            body = np.maximum(total / n_chunks, 1.0)
            pressure = np.minimum(1.0, s.threads * s.cycles_hot_atomic / body)
            dispatch_serial = n_chunks * s.cycles_hot_atomic * pressure
            dispatch_local = n_chunks * s.cycles_dynamic_dispatch / s.threads
            return (
                total / s.threads
                + longest_item * chunk
                + dispatch_serial
                + dispatch_local
            )

        total = np.empty_like(alpha)
        longest = np.empty_like(alpha)
        n_units = np.empty(alpha.shape, dtype=np.int64)
        # Every launch runs on min(threads, n_items) threads, so CPUs with
        # more threads than the largest launch share one geometry.
        slot_cap = min(s.threads, int(pm.n_items_int.max()))
        uniform = ~pm.has_inner
        if uniform.any():
            units_u, base_u = pm.geometry(
                ("cpu-uniform", slot_cap),
                lambda: cpu_uniform_geometry(
                    pm.n_items_int[uniform], slot_cap
                ),
            )
            t = alpha[uniform] * base_u
            total[uniform] = t * units_u
            longest[uniform] = t
            n_units[uniform] = units_u
        steps = pm.ragged
        if steps.order.size:
            cut = pm.geometry(
                ("cpu-cut", cyclic, slot_cap),
                lambda: cpu_unit_cut(steps, cyclic, slot_cap),
            )
            pos = steps.order
            total[pos], longest[pos] = cut.times(alpha[pos], beta[pos])
            n_units[pos] = cut.n_units
        # Greedy list-scheduling bound: max(total / units, longest unit).
        return np.maximum(total / n_units, longest)

    def _memory_cycles_batch(
        self,
        pm: ProfileMatrix,
        load_factor: float,
        mem_bw: float,
    ) -> np.ndarray:
        """Bandwidth bound over the nonzero steps: streaming structure +
        scattered data traffic."""
        struct_bytes = 4.0 * load_factor * (
            pm.struct_loads_base * pm.n_items
            + pm.struct_loads_inner * pm.total_inner
        )
        data_accesses = (
            (pm.shared_loads_base + pm.shared_stores_base) * pm.n_items
            + (pm.shared_loads_inner + pm.shared_stores_inner) * pm.total_inner
            + 2.0 * (
                pm.atomics_base * pm.n_items
                + pm.atomics_inner * pm.total_inner
            )
        )
        # Scattered 4-byte accesses pull whole 64-byte lines; charge a
        # conservative 16-byte effective cost (partial line reuse).
        return (struct_bytes + 16.0 * data_accesses) / mem_bw

    def _reduction_cycles_batch(
        self, pm: ProfileMatrix, red: Optional[CpuReduction]
    ):
        """Section 2.10.2 reduction styles over the nonzero steps.

        * atomic: every contribution is a lock-prefixed RMW on one hot
          line — serialized through the LLC.
        * critical: every contribution enters a mutex — serialized and an
          order of magnitude pricier per op (Figure 11's worst case).
        * clause (OpenMP) / private partials (C++): thread-local adds,
          one combining atomic per thread.

        Returns the scalar ``0.0`` when the style has no reduction axis
        (broadcasting it is exact: ``x + 0.0 == x`` for the non-negative
        cycle counts involved)."""
        if red is None:
            return 0.0
        s = self.spec
        items = pm.reduction_items
        if red is CpuReduction.ATOMIC:
            val = items * s.cycles_hot_atomic
        elif red is CpuReduction.CRITICAL:
            val = items * s.cycles_critical
        else:
            val = (
                items * s.cycles_compute / s.threads
                + s.threads * s.cycles_atomic
            )
        return np.where(items > 0, val, 0.0)
