"""Execution traces: the interface between kernels and machine models.

A styled kernel *executes* its algorithm (vectorized, on the real graph)
and, for every parallel step it performs, records an
:class:`IterationProfile` — an exact operation profile of that step.  The
machine models then convert profiles into simulated time for any mapping
combination (granularity, persistence, atomic flavor, reduction style,
schedule) without re-executing the kernel.

Profiles use a ``base + inner`` coefficient form: a work item (vertex, edge
or worklist entry) performs ``*_base`` operations unconditionally plus
``*_inner`` operations per inner-loop trip, with the per-item trip counts in
:attr:`IterationProfile.inner`.  This is exact for the kernels in this
suite, whose inner loops are uniform per trip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .scheduling import RaggedSteps

__all__ = [
    "IterationProfile",
    "ExecutionTrace",
    "ProfileMatrix",
    "as_block",
    "conflict_stats",
]


def conflict_stats(addresses: np.ndarray, n_cells: int) -> "tuple[float, int]":
    """Contention statistics of one launch's atomic destinations.

    Returns ``(conflict_extra, max_conflict)`` where ``conflict_extra`` is
    the total number of same-address collisions, i.e. ``sum(max(0, c-1))``
    over addresses, and ``max_conflict`` is the largest per-address count.
    """
    if addresses.size == 0:
        return 0.0, 0
    counts = np.bincount(addresses, minlength=n_cells)
    counts = counts[counts > 0]
    return float((counts - 1).sum()), int(counts.max())


@dataclass
class IterationProfile:
    """Operation profile of one parallel step (one kernel launch / one
    parallel region).

    Attributes
    ----------
    n_items:
        Number of work items launched.
    inner:
        ``int64[n_items]`` inner-loop trip counts (neighbor counts for
        vertex items, merge lengths for TC).  ``None`` means no inner loop.
    base_cycles / inner_cycles:
        Arithmetic/control steps per item / per trip.
    struct_loads_*:
        Loads of graph structure (row_ptr/col_idx/weights/worklist): these
        are plain loads in every atomic flavor, and they form the streaming
        access pattern whose coalescing depends on the mapping.
    shared_loads_* / shared_stores_*:
        Accesses to the shared *data* arrays (dist/comp/rank/status...).
        Under the default-CudaAtomic flavor these go through
        ``cuda::atomic<T>::load/store`` and pay the seq_cst penalty.
    atomics_*:
        Atomic RMW operations on the data arrays.
    atomic_minmax:
        True when the RMWs are min/max (OpenMP must realize them as
        critical sections; C++ and CUDA have native RMW for them).
    atomics_same_address_per_item:
        True when an item's inner-loop atomics all hit one address (the
        pull style updating its own vertex): warp/block strip-mining cannot
        parallelize those.
    conflict_extra / max_conflict:
        Cross-item same-address collision statistics (from
        :func:`conflict_stats` over the real destination addresses).
    store_conflict_extra / store_max_conflict:
        Same statistics for *plain* (non-atomic) stores of the read-write
        styles: the wave-granular write-write races of Section 2.5.  The
        trace sanitizer asserts they stay benign; the timing models do not
        charge them (plain stores do not serialize).
    wl_pushes:
        Worklist pushes performed by a data-driven pass (must equal the
        next pass's item count).  ``-1`` on launches that are not
        worklist passes.
    hot_atomics:
        Operations on a single hot address (worklist-size counter).
    reduction_items:
        Contributions to the sum reduction of PR/TC, timed according to the
        reduction-style mapping axis.
    barriers_per_item:
        Block-level barriers per item (beyond the implicit granularity
        sync the device model already charges).
    label:
        Phase name, for debugging and trace inspection.
    """

    n_items: int
    inner: Optional[np.ndarray] = None
    base_cycles: float = 1.0
    inner_cycles: float = 0.0
    struct_loads_base: float = 0.0
    struct_loads_inner: float = 0.0
    shared_loads_base: float = 0.0
    shared_loads_inner: float = 0.0
    shared_stores_base: float = 0.0
    shared_stores_inner: float = 0.0
    atomics_base: float = 0.0
    atomics_inner: float = 0.0
    atomic_minmax: bool = False
    atomics_same_address_per_item: bool = False
    conflict_extra: float = 0.0
    max_conflict: int = 0
    store_conflict_extra: float = 0.0
    store_max_conflict: int = 0
    wl_pushes: int = -1
    hot_atomics: float = 0.0
    reduction_items: float = 0.0
    barriers_per_item: float = 0.0
    label: str = "step"

    def __post_init__(self) -> None:
        if self.n_items < 0:
            raise ValueError("n_items must be non-negative")
        if self.inner is not None:
            # int32 halves the footprint of large worklist traces; trip
            # counts are far below 2**31 (reductions promote to int64).
            self.inner = np.asarray(self.inner, dtype=np.int32)
            if self.inner.shape != (self.n_items,):
                raise ValueError(
                    f"inner must have shape ({self.n_items},), "
                    f"got {self.inner.shape}"
                )

    # ------------------------------------------------------------------
    @property
    def total_inner(self) -> int:
        """Total inner-loop trips across all items."""
        if self.inner is None:
            return 0
        return int(self.inner.sum())

    def total_of(self, base: float, per_inner: float) -> float:
        """Total count of an operation class over the whole launch."""
        return base * self.n_items + per_inner * self.total_inner

    @property
    def total_loads(self) -> float:
        return self.total_of(
            self.struct_loads_base + self.shared_loads_base,
            self.struct_loads_inner + self.shared_loads_inner,
        )

    @property
    def total_stores(self) -> float:
        return self.total_of(self.shared_stores_base, self.shared_stores_inner)

    @property
    def total_atomics(self) -> float:
        return self.total_of(self.atomics_base, self.atomics_inner)


class Footprint(NamedTuple):
    """The input size of one trace, which fixes its streaming bandwidth."""

    n_vertices: int
    n_edges: int


#: Float64 counter columns of :class:`ProfileMatrix`, in storage order.
#: ``total_inner``/``max_inner``/``total_atomics`` are derived from the
#: profile once so the vectorized models never walk ``inner`` arrays again.
PROFILE_FIELDS = (
    "n_items",
    "total_inner",
    "max_inner",
    "base_cycles",
    "inner_cycles",
    "struct_loads_base",
    "struct_loads_inner",
    "shared_loads_base",
    "shared_loads_inner",
    "shared_stores_base",
    "shared_stores_inner",
    "atomics_base",
    "atomics_inner",
    "conflict_extra",
    "max_conflict",
    "hot_atomics",
    "reduction_items",
    "barriers_per_item",
    "total_atomics",
)


class ProfileMatrix:
    """The per-step counters of one or more traces stacked into one
    ``(steps × fields)`` ndarray, plus the masks and index vectors the
    vectorized device models broadcast over.

    A sweep block's traces (every semantic execution of one algorithm on
    one graph) share one matrix: their steps are concatenated in trace
    order and :attr:`bounds` marks where each trace's steps start, so a
    device model evaluates each of its cycle vectors once for the whole
    block.  The traces must share one input size (:attr:`footprint`).
    Everything per step is elementwise, so a step's cycles do not depend
    on which other traces share the matrix.

    The device models only spend cycles on steps with work, so every field
    attribute (``base_cycles``, ``atomics_inner``, ...) is the column
    restricted to the steps with ``n_items > 0``; :attr:`nonzero` maps
    those rows back to step positions, :attr:`live_bounds` marks each
    trace's first such row and :attr:`data` holds the full unrestricted
    matrix.  All counts are exactly representable in float64 (they are
    far below 2**53), so stacking loses no precision.

    The nonzero steps with an inner loop additionally have their trip
    arrays concatenated once, with their start positions, into
    :attr:`ragged` (a :class:`~repro.machine.scheduling.RaggedSteps`
    indexed by nonzero row): the device-independent input from which each
    device cut derives every launch's per-unit work in one pass.

    A one-trace matrix is built by :meth:`ExecutionTrace.profile_matrix`
    and cached there.  Every matrix memoizes the unit geometry derived
    from it (:meth:`geometry`), so devices that cut its launches alike
    share one cut.
    """

    __slots__ = ("data", "n_steps", "nonzero", "n_items_int", "has_inner",
                 "same_address", "atomic_minmax", "ragged", "bounds",
                 "live_bounds", "footprint", "_geometry") + PROFILE_FIELDS

    def __init__(self, traces: Sequence["ExecutionTrace"]):
        profiles = [p for trace in traces for p in trace.profiles]
        n = len(profiles)
        rows = []
        for p in profiles:
            inner = p.inner
            if inner is None or inner.size == 0:
                total_inner = 0
                max_inner = 0
            else:
                total_inner = int(inner.sum())
                max_inner = int(inner.max())
            rows.append((
                p.n_items, total_inner, max_inner,
                p.base_cycles, p.inner_cycles,
                p.struct_loads_base, p.struct_loads_inner,
                p.shared_loads_base, p.shared_loads_inner,
                p.shared_stores_base, p.shared_stores_inner,
                p.atomics_base, p.atomics_inner,
                p.conflict_extra, p.max_conflict,
                p.hot_atomics, p.reduction_items, p.barriers_per_item,
                p.atomics_base * p.n_items + p.atomics_inner * total_inner,
            ))
        data = np.array(rows, dtype=np.float64).reshape(n, len(PROFILE_FIELDS))
        self.data = data
        self.n_steps = n
        bounds = np.zeros(len(traces) + 1, dtype=np.int64)
        np.cumsum([len(trace.profiles) for trace in traces], out=bounds[1:])
        self.bounds = bounds
        footprints = {Footprint(t.n_vertices, t.n_edges) for t in traces}
        if len(footprints) > 1:
            raise ValueError("a block's traces must share one input graph")
        #: The input size, which fixes the streaming bandwidth.
        self.footprint = footprints.pop() if footprints else Footprint(0, 0)
        nonzero = np.flatnonzero(data[:, 0] > 0)
        self.nonzero = nonzero
        self.live_bounds = np.searchsorted(nonzero, bounds)
        sub = data[nonzero]
        for i, name in enumerate(PROFILE_FIELDS):
            setattr(self, name, sub[:, i])
        self.n_items_int = sub[:, 0].astype(np.int64)
        live = [profiles[k] for k in nonzero]
        self.has_inner = np.array(
            [p.inner is not None for p in live], dtype=bool
        )
        self.same_address = np.array(
            [p.atomics_same_address_per_item for p in live], dtype=bool
        )
        self.atomic_minmax = np.array(
            [p.atomic_minmax for p in live], dtype=bool
        )
        self.ragged = RaggedSteps(
            np.flatnonzero(self.has_inner),
            [p.inner for p in live if p.inner is not None],
        )
        self._geometry: dict = {}

    def geometry(self, key, builder):
        """Memoize a geometry-dependent derivation (e.g. the
        :class:`~repro.machine.scheduling.UnitCut` of one granularity and
        resident-slot count) for the lifetime of this matrix."""
        value = self._geometry.get(key)
        if value is None:
            value = builder()
            self._geometry[key] = value
        return value

    def cell_totals(
        self,
        traces: np.ndarray,
        launch: np.ndarray,
        core: np.ndarray,
        core_rows: np.ndarray,
        red: np.ndarray,
        red_rows: np.ndarray,
    ) -> np.ndarray:
        """Total cycles of many (trace, style) cells of this matrix.

        Cell ``c`` belongs to trace ``traces[c]``, pays ``launch[c]`` on
        every one of its steps and ``core[core_rows[c]] +
        red[red_rows[c]]`` (vectors over the nonzero steps) on top on the
        steps with work.  Each trace's cells are summed over that trace's
        own steps in step order (:meth:`step_totals`), exactly as a
        matrix of that trace alone sums them.
        """
        totals = np.empty(len(traces))
        order = np.argsort(traces, kind="stable")
        cuts = np.flatnonzero(np.diff(traces[order])) + 1
        bounds, live = self.bounds, self.live_bounds
        for idx in np.split(order, cuts):
            t = traces[idx[0]]
            lo, zlo, zhi = bounds[t], live[t], live[t + 1]
            cycles = np.empty((bounds[t + 1] - lo, idx.size))
            cycles[:] = launch[idx]
            if zhi > zlo:
                add = core[core_rows[idx], zlo:zhi]
                add += red[red_rows[idx], zlo:zhi]
                cycles[self.nonzero[zlo:zhi] - lo] += add.T
            totals[idx] = self.step_totals(cycles)
        return totals

    @staticmethod
    def step_totals(cycles: np.ndarray) -> np.ndarray:
        """Column sums of a ``(steps × styles)`` cycle matrix, accumulated
        strictly in step order, as a per-launch loop adds them.

        ``np.add.reduce`` over the step axis does exactly that when there
        are several columns (a strided reduction adds row after row), but
        a single column is contiguous and gets numpy's pairwise summation,
        which differs in the last bits once a trace has 8 or more steps.
        """
        if cycles.shape[1] > 1 or not len(cycles):
            return np.add.reduce(cycles, axis=0)
        return np.add.accumulate(cycles, axis=0)[-1]


def as_block(block, cells) -> "Tuple[ProfileMatrix, list]":
    """The ``(matrix, cells)`` form of a timing call's arguments.

    A block is a :class:`ProfileMatrix` with ``(trace index, style)``
    cells; an :class:`ExecutionTrace` with a list of styles is the
    one-trace block of its own cached matrix.
    """
    if isinstance(block, ExecutionTrace):
        return block.profile_matrix(), [(0, style) for style in cells]
    return block, list(cells)


@dataclass
class ExecutionTrace:
    """The full simulated execution of one semantic program on one graph.

    Produced once per (semantic style combination, graph); timed many times
    (once per mapping combination per device).
    """

    profiles: List[IterationProfile] = field(default_factory=list)
    n_edges: int = 0  #: directed edge count of the input (for throughput)
    n_vertices: int = 0
    iterations: int = 0  #: convergence iterations of the outer loop
    converged: bool = True
    label: str = ""

    def add(self, profile: IterationProfile) -> None:
        self.profiles.append(profile)
        self._profile_matrix = None

    def profile_matrix(self) -> ProfileMatrix:
        """The (cached) stacked counter matrix of this trace's steps.

        Invalidated by :meth:`add`; traces are append-only in practice, so
        once timing starts the cache lives as long as the trace does.
        """
        pm = getattr(self, "_profile_matrix", None)
        if pm is None:
            pm = ProfileMatrix([self])
            self._profile_matrix = pm
        return pm

    @property
    def total_work_items(self) -> int:
        return sum(p.n_items for p in self.profiles)

    @property
    def total_inner(self) -> int:
        return sum(p.total_inner for p in self.profiles)

    @property
    def total_atomics(self) -> float:
        return sum(p.total_atomics for p in self.profiles)

    @property
    def n_launches(self) -> int:
        return len(self.profiles)

    def summary(self) -> str:
        return (
            f"trace {self.label!r}: {self.iterations} iterations, "
            f"{self.n_launches} launches, {self.total_work_items} items, "
            f"{self.total_inner} inner trips"
        )
