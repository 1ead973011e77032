"""Analytic GPU timing model.

Converts an :class:`~repro.machine.trace.ExecutionTrace` plus the mapping
axes of a :class:`~repro.styles.spec.StyleSpec` into simulated time on a
:class:`~repro.machine.specs.GPUSpec`.

Model structure per launch (one :class:`IterationProfile`):

1. **Issue makespan** — per-item costs are decomposed into execution units
   (warps or blocks) according to the granularity and persistence axes
   (:mod:`repro.machine.scheduling`); the launch's issue time is the list-
   scheduling bound ``max(total_width_weighted / issue_slots, longest_unit)``.
2. **Memory time** — total bytes moved divided by bandwidth, with
   uncoalesced (scattered) accesses expanded to full sectors.  The launch
   takes ``max(issue, memory)`` — whichever resource saturates first.
3. **Serial add-ons** — same-address atomic conflicts, hot-counter
   operations (worklist size), the reduction of the chosen reduction style,
   and the kernel-launch overhead.

The default-``cuda::atomic`` flavor multiplies the RMW and data-array
load/store costs (seq_cst + system scope), which is the entire Figure 1
effect: kernels that stream loads/stores through ``cuda::atomic`` (CC, MIS,
BFS, SSSP) slow down by the ls-multiplier while TC (one add, plain
structure reads) barely moves.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..styles.axes import (
    AtomicFlavor,
    Granularity,
    GpuReduction,
    Iteration,
    Model,
    Persistence,
)
from ..styles.spec import StyleSpec
from .scheduling import (
    WARP_WIDTH,
    gpu_cut_geometry,
    gpu_uniform_geometry,
    gpu_unit_cut,
)
from .specs import GPUSpec
from .trace import ExecutionTrace, Footprint, ProfileMatrix, as_block

__all__ = ["GPUModel"]

#: Independent L2 atomic units: collisions on different addresses are
#: processed concurrently across this many banks.
L2_BANKS = 32.0


class GPUModel:
    """Times execution traces on one GPU spec."""

    def __init__(self, spec: GPUSpec):
        self.spec = spec
        self._bw_cache: Dict[Tuple[int, int], float] = {}

    # ------------------------------------------------------------------
    def _bandwidth_for(
        self, trace: Union[ExecutionTrace, Footprint]
    ) -> float:
        """Effective streaming bandwidth for this program's working set.

        When the CSR arrays plus the data arrays fit in the L2, repeated
        sweeps stream from L2, not DRAM (the paper's inputs exceed all
        caches; scaled inputs often do not).  The resolution is memoized
        per trace fingerprint — the (n_vertices, n_edges) pair that fully
        determines it — so repeated batch calls skip it.
        """
        key = (trace.n_vertices, trace.n_edges)
        bw = self._bw_cache.get(key)
        if bw is None:
            footprint = trace.n_vertices * 16.0 + trace.n_edges * 8.0
            if footprint <= self.spec.l2_size_bytes:
                bw = self.spec.l2_bytes_per_cycle
            else:
                bw = self.spec.mem_bytes_per_cycle
            self._bw_cache[key] = bw
        return bw

    def time_trace_batch(self, block, cells) -> List[float]:
        """Simulated wall times of many (trace, mapping variant) cells.

        ``block`` is a :class:`~repro.machine.trace.ProfileMatrix` and
        ``cells`` its ``(trace index, style)`` pairs, or an
        :class:`~repro.machine.trace.ExecutionTrace` and a list of styles
        (see :func:`~repro.machine.trace.as_block`).

        Computed as one vectorized pass over the block's steps: core
        (issue + memory + contention) cycles are evaluated once per
        distinct (granularity, persistence, iteration) × atomic-flavor
        combination as a vector over every step of the block, reduction
        cycles once per distinct reduction context, and each cell gathers
        its trace's slice of both — a style whose mapping differs only in
        the reduction axis reuses the exact same core floats.  Each
        trace's cells are summed over its steps in launch order
        (:meth:`~repro.machine.trace.ProfileMatrix.cell_totals`), so
        every result is bit-identical to the frozen scalar walk in
        ``tests/machine/scalar_oracle.py``, whatever the block or batch.
        """
        pm, cells = as_block(block, cells)
        contexts = [self._style_context(style) for _, style in cells]
        if not cells:
            return []
        s = self.spec
        # Styles sharing (granularity, persistence, iteration) share one
        # core evaluation, with their distinct atomic-flavor pairs as its
        # rows; reduction vectors are shared per reduction context.
        groups: Dict[Tuple, Dict[Tuple[float, float], None]] = {}
        red_index: Dict[Tuple, int] = {}
        core_keys = []
        red_at = []
        for style, gran, persistent, flavor_ls, flavor_rmw in contexts:
            gkey = (gran, persistent, style.iteration)
            groups.setdefault(gkey, {})[flavor_ls, flavor_rmw] = None
            core_keys.append((gkey, (flavor_ls, flavor_rmw)))
            rkey = (style.gpu_reduction, gran, flavor_rmw)
            red_at.append(red_index.setdefault(rkey, len(red_index)))
        row_of: Dict[Tuple, int] = {}
        for gkey, flavors in groups.items():
            for flavor in flavors:
                row_of[gkey, flavor] = len(row_of)
        core = red = np.empty((0, 0))
        if pm.nonzero.size:
            mem_bw = self._bandwidth_for(pm.footprint)
            core = np.concatenate([
                self._core_cycles_batch(pm, *gkey, list(flavors), mem_bw)
                for gkey, flavors in groups.items()
            ])
            red = np.empty((len(red_index), pm.nonzero.size))
            for rkey, at in red_index.items():
                red[at] = self._reduction_cycles_batch(pm, *rkey)
        totals = pm.cell_totals(
            np.array([t for t, _ in cells], dtype=np.int64),
            np.full(len(cells), s.cycles_launch),
            core, np.array([row_of[key] for key in core_keys]),
            red, np.array(red_at),
        )
        return [float(s.seconds(t)) for t in totals]

    def _style_context(self, style: StyleSpec) -> Tuple:
        """Pre-resolved mapping context of one style: ``(style,
        granularity, persistent, load/store flavor multiplier, RMW flavor
        multiplier)``."""
        if style.model is not Model.CUDA:
            raise ValueError("GPUModel times CUDA specs only")
        s = self.spec
        flavor_rmw = (
            s.cudaatomic_rmw_mult
            if style.atomic_flavor is AtomicFlavor.CUDA_ATOMIC
            else 1.0
        )
        flavor_ls = (
            s.cudaatomic_ls_mult
            if style.atomic_flavor is AtomicFlavor.CUDA_ATOMIC
            else 1.0
        )
        gran = style.granularity or Granularity.THREAD
        persistent = style.persistence is Persistence.PERSISTENT
        return style, gran, persistent, flavor_ls, flavor_rmw

    # ------------------------------------------------------------------
    def _core_cycles_batch(
        self,
        pm: ProfileMatrix,
        gran: Granularity,
        persistent: bool,
        iteration: Optional[Iteration],
        flavors: Sequence[Tuple[float, float]],
        mem_bw: float,
    ) -> np.ndarray:
        """Issue + memory + contention cycles of one launch — everything
        except the reduction style and the launch overhead — as one
        ``(flavors × steps)`` matrix over the trace's nonzero steps.

        Depends on the style only through (atomic flavor, granularity,
        persistence, iteration), which is what makes batch sharing
        possible.  Entry-for-entry bit-identical to the scalar expression;
        the zero-coefficient branches the scalar walk skips only ever skip
        exact ``+ 0.0`` terms, so they are applied unconditionally here."""
        s = self.spec
        fls = np.array([f[0] for f in flavors])[:, None]
        frm = np.array([f[1] for f in flavors])[:, None]
        # --- per-item coefficient assembly -----------------------------
        alpha = (
            pm.base_cycles * s.cycles_compute
            + pm.struct_loads_base * s.cycles_load
            + pm.shared_loads_base * s.cycles_load * fls
            + pm.shared_stores_base * s.cycles_store * fls
            + pm.atomics_base * s.cycles_atomic * frm
        )
        beta_atomic = pm.atomics_inner * s.cycles_atomic * frm
        beta_other = (
            pm.inner_cycles * s.cycles_compute
            + pm.struct_loads_inner * s.cycles_load
            + pm.shared_loads_inner * s.cycles_load * fls
            + pm.shared_stores_inner * s.cycles_store * fls
        )
        # Same-address inner atomics cannot be strip-mined across lanes.
        if gran is Granularity.THREAD:
            beta_par = beta_other + beta_atomic
            beta_ser = None
        else:
            beta_par = np.where(
                pm.same_address, beta_other, beta_other + beta_atomic
            )
            beta_ser = np.where(pm.same_address, beta_atomic, 0.0)
        # Granularity synchronization: block-wide processing of one item
        # requires a barrier per item; warps sync implicitly (lockstep).
        if gran is Granularity.BLOCK:
            alpha = alpha + (pm.barriers_per_item + 1.0) * s.cycles_barrier
        else:
            alpha = alpha + pm.barriers_per_item * s.cycles_barrier

        # --- issue makespan --------------------------------------------
        # Greedy list-scheduling bound over the execution units:
        # max(width-weighted total / issue slots, longest unit).
        total = np.empty_like(alpha)
        longest = np.empty_like(alpha)
        lanes, slot_cap = gpu_cut_geometry(
            gran, persistent,
            block_size=s.block_size,
            resident_threads=s.resident_threads,
            max_items=int(pm.n_items_int.max()),
        )
        uniform = ~pm.has_inner
        if uniform.any():
            units_u, base_u = pm.geometry(
                ("gpu-uniform", gran, lanes, slot_cap),
                lambda: gpu_uniform_geometry(
                    pm.n_items_int[uniform], gran, slot_cap
                ),
            )
            t = alpha[:, uniform] * base_u
            total[:, uniform] = t * units_u
            longest[:, uniform] = t
        steps = pm.ragged
        if steps.order.size:
            cut = pm.geometry(
                ("gpu-cut", gran, lanes, slot_cap),
                lambda: gpu_unit_cut(steps, gran, lanes, slot_cap),
            )
            pos = steps.order
            total[:, pos], longest[:, pos] = cut.times(
                alpha[:, pos],
                beta_par[:, pos],
                None if beta_ser is None else beta_ser[:, pos],
            )
        width = (
            s.block_size / WARP_WIDTH if gran is Granularity.BLOCK else 1.0
        )
        issue = np.maximum(total * width / s.issue_slots, longest)

        # --- memory time -----------------------------------------------
        mem = self._memory_cycles_batch(pm, gran, iteration, fls, frm, mem_bw)

        # --- serial add-ons --------------------------------------------
        # Same-address atomics serialize per address; different addresses
        # proceed in parallel across the L2 banks.  The launch pays the
        # longest single-address chain plus the bank-throughput cost of the
        # remaining collisions (scaled by how much of the launch is
        # actually concurrent).
        overlap = np.minimum(1.0, s.issue_slots * WARP_WIDTH / pm.n_items)
        conflict = frm * s.cycles_atomic_conflict * (
            pm.max_conflict + pm.conflict_extra * overlap / L2_BANKS
        )
        hot = pm.hot_atomics * s.cycles_hot_atomic * frm
        return np.maximum(issue, mem) + conflict + hot

    def _memory_cycles_batch(
        self,
        pm: ProfileMatrix,
        gran: Granularity,
        iteration: Optional[Iteration],
        fls: np.ndarray,
        frm: np.ndarray,
        mem_bw: float,
    ) -> np.ndarray:
        """DRAM time over the nonzero steps: bytes moved / bandwidth,
        sector-expanded when scattered.

        Structure streams (CSR/COO/worklist) coalesce when consecutive
        lanes touch consecutive addresses: always true for the per-item
        (base) accesses and for strip-mined inner loops (warp/block
        granularity), but false for thread-granularity neighbor walks,
        where each lane streams through its own adjacency list.
        Data-array accesses (dist/comp/rank...) are scattered by nature.
        """
        s = self.spec
        sif = s.uncoalesced_factor if gran is Granularity.THREAD else 1.0
        sif_vec = np.full(pm.n_items.shape, sif)
        if iteration is Iteration.EDGE:
            sif_vec[~pm.has_inner] = 1.0
        struct_bytes = 4.0 * (
            pm.struct_loads_base * pm.n_items
            + pm.struct_loads_inner * pm.total_inner * sif_vec
        )
        shared_accesses = (
            (pm.shared_loads_base + pm.shared_stores_base) * pm.n_items
            + (pm.shared_loads_inner + pm.shared_stores_inner) * pm.total_inner
        )
        # Where an item's inner atomics all hit one cell, the line stays
        # in the L2 and reaches memory once, not once per trip.
        atomic_accesses = np.where(
            pm.same_address,
            (pm.atomics_base + np.minimum(pm.atomics_inner, 1.0)) * pm.n_items,
            pm.atomics_base * pm.n_items + pm.atomics_inner * pm.total_inner,
        )
        # Default cuda::atomic (seq_cst, system scope) defeats caching and
        # pipelining of the data-array traffic; the stall time is modeled
        # as serialization-equivalent extra traffic.
        scattered_bytes = 4.0 * s.scatter_factor * (
            shared_accesses * fls + 2.0 * atomic_accesses * frm
        )
        return (struct_bytes + scattered_bytes) / mem_bw

    def _reduction_cycles_batch(
        self,
        pm: ProfileMatrix,
        red: Optional[GpuReduction],
        gran: Granularity,
        flavor_rmw: float,
    ):
        """Section 2.10.1 reduction styles over the nonzero steps.

        * global-add: every contribution is an atomic on one L2 address —
          fully serialized at the hot-atomic rate.
        * block-add: block-scope atomics on a global block counter do not
          beat the L2 (same path, narrower scope), and the style adds a
          barrier plus one global add per block — the slowest, matching
          Figure 10 and the paper's explanation.
        * reduction-add: warp-shuffle trees are issue-parallel; only one
          global add per block remains.

        Returns the scalar ``0.0`` when the style has no reduction axis
        (broadcasting it is exact: ``x + 0.0 == x`` for the non-negative
        cycle counts involved)."""
        if red is None:
            return 0.0
        s = self.spec
        lanes_per_item = {
            Granularity.THREAD: 1,
            Granularity.WARP: WARP_WIDTH,
            Granularity.BLOCK: s.block_size,
        }[gran]
        launch_threads = np.maximum(pm.n_items_int * lanes_per_item, 1)
        n_blocks = np.maximum(1, -(-launch_threads // s.block_size))
        items = pm.reduction_items
        if red is GpuReduction.GLOBAL_ADD:
            val = items * s.cycles_hot_atomic * flavor_rmw
        elif red is GpuReduction.BLOCK_ADD:
            val = (
                items * s.cycles_hot_atomic * flavor_rmw
                + n_blocks * (s.cycles_hot_atomic + 2.0 * s.cycles_barrier)
            )
        else:
            val = (
                items * s.cycles_shuffle_red / (s.issue_slots * WARP_WIDTH)
                + n_blocks * s.cycles_hot_atomic
            )
        return np.where(items > 0, val, 0.0)
