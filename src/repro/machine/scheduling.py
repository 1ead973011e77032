"""Work-to-execution-unit decomposition, one ragged pass per trace.

Turning a launch's per-item inner-trip counts into per-unit serial work is
where most of the style effects physically live:

* thread/warp/block granularity (Section 2.8) changes which unit owns an
  item's inner loop and whether that loop is strip-mined across lanes;
* persistent vs non-persistent (Section 2.7) changes the item-to-thread
  assignment (cyclic over a resident grid vs one thread per item);
* blocked vs cyclic C++ scheduling (Section 2.12) and OpenMP default
  (static) scheduling (Section 2.11) change the item-to-thread assignment
  on CPUs.

Everything here is exact list accounting over the launches' real trip
counts — no statistical assumptions about the degree distribution.

The decomposition is done for every launch of a trace at once, the way
load-balanced graph frameworks map ragged per-item work onto execution
units: the launches' ``inner`` arrays are concatenated once, with their
start positions (:class:`RaggedSteps`), and each cut — one (granularity,
strip-mining width, resident slots) choice on a GPU, one (schedule,
threads) choice on a CPU — derives every launch's per-unit integer arrays
(:class:`UnitCut`) in whole-trace numpy calls: lockstep warp maxima by
``np.maximum.reduceat``, strip-mining by ceil division, strided slot
sums as wave sums of ``(launches, waves, slots)`` views, and contiguous
chunk sums from one int64 ``cumsum``.  Integer arithmetic is exact in
any order, so the geometry may be segmented freely.

Float unit *totals* may not: a float ``np.add.reduceat`` segment sum is
``x[0] + pairwise(x[1:])``, which differs from the scalar walk's
``np.add.reduce`` (``0 + pairwise(x)``) once a segment has three units.
Every launch's units in a :class:`UnitCut` are therefore preceded by one
zero slot: the segmented sum of ``[0, x...]`` is ``0 + pairwise(x)``,
numpy's own pairwise routine over exactly that launch's units, for all
launches in one call.  Unit maxima are exact in any order.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..styles.axes import Granularity

__all__ = [
    "WARP_WIDTH",
    "RaggedSteps",
    "UnitCut",
    "gpu_cut_geometry",
    "gpu_unit_cut",
    "gpu_uniform_geometry",
    "cpu_unit_cut",
    "cpu_uniform_geometry",
]

WARP_WIDTH = 32

#: Units one :meth:`UnitCut.times` chunk evaluates together (a launch
#: with more units is a chunk of its own).  The float temporaries of a
#: 16 Ki-unit chunk stay cache-resident, which measured faster than
#: whole-trace passes at both tiny and default scale.
CHUNK_UNITS = 1 << 14


def _exclusive_offsets(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0+c1, ...]`` (length ``len(counts) + 1``, int64)."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _local_index(offsets: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each flat element's index within its own segment."""
    return np.arange(offsets[-1], dtype=np.int64) - np.repeat(
        offsets[:-1], counts
    )


class RaggedSteps:
    """The device-independent half of the decomposition: the trip counts
    of a trace's launches that have an inner loop, concatenated.

    Launches are ordered by item count (stably), so launches of one size
    are contiguous.  Each launch's items are preceded by one zero slot,
    the layout every :class:`UnitCut` array shares (a launch whose units
    are its items uses these arrays as they are).

    Attributes
    ----------
    order:
        Position of each launch in the caller's step axis.
    n_items:
        int64 item count per launch, in this order.
    leads:
        int64 position of each launch's zero slot in :attr:`inner`, plus
        the total length; the launch's items follow its slot.
    inner:
        The launches' trip counts, concatenated behind their zero slots.
    """

    __slots__ = ("order", "n_items", "leads", "inner")

    def __init__(self, positions: np.ndarray, inners: Sequence[np.ndarray]):
        n_items = np.array([a.size for a in inners], dtype=np.int64)
        order = np.argsort(n_items, kind="stable")
        self.order = np.asarray(positions)[order]
        self.n_items = n_items[order]
        self.leads = _exclusive_offsets(self.n_items + 1)
        lead = np.zeros(1, dtype=np.int32)
        pieces = [part for k in order for part in (lead, inners[k])]
        self.inner = np.concatenate(pieces) if pieces else lead[:0]


def _segment_maxima(
    values: np.ndarray, leads: np.ndarray, lengths: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Lockstep maxima over consecutive ``width``-element windows of every
    zero-led segment (the last window of a segment may be partial).

    Returns ``(windows per segment, zero-led per-window maxima)``: each
    zero slot is a one-element segment of its own.  Every segment must be
    non-empty.
    """
    windows = -(-lengths // width)
    local = _local_index(_exclusive_offsets(windows + 1), windows + 1)
    starts = np.repeat(leads[:-1], windows + 1) + np.maximum(
        0, width * local - (width - 1)
    )
    return windows, np.maximum.reduceat(values, starts)


def _strided_sums(
    values: np.ndarray,
    leads: np.ndarray,
    lengths: np.ndarray,
    slot_cap: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Zero-led per-slot (count, sum) under cyclic assignment: item ``i``
    of a segment goes to slot ``i % slots`` of ``slots = min(slot_cap, n)``.

    ``lengths`` must be non-decreasing, as in :class:`RaggedSteps`: the
    segments that fit (``n <= slot_cap``, one item per slot) then form a
    prefix that passes through unchanged, and every later segment has
    exactly ``slot_cap`` slots.  Segments of one length are contiguous,
    so each such run is one ``(segments, waves, slot_cap)`` view summed
    over its waves.  Sums are exact int64.
    """
    slots = np.minimum(slot_cap, lengths)
    slot_leads = _exclusive_offsets(slots + 1)
    counts = np.ones(int(slot_leads[-1]), dtype=np.int64)
    counts[slot_leads[:-1]] = 0
    fit = int(np.searchsorted(lengths, slot_cap, side="right"))
    if fit == lengths.size:
        return counts, values
    head = int(leads[fit])  # the prefix has as many slots as items
    n = lengths[fit:]
    counts[head:].reshape(n.size, slot_cap + 1)[:, 1:] = (
        (n // slot_cap)[:, None] + (np.arange(slot_cap) < (n % slot_cap)[:, None])
    )
    sums = np.zeros(counts.size, dtype=np.int64)
    sums[:head] = values[:head]
    grid = sums[head:].reshape(n.size, slot_cap + 1)[:, 1:]
    runs = (np.flatnonzero(np.diff(n)) + 1).tolist()
    firsts = [0] + runs
    starts = leads[fit:][firsts].tolist()
    for first, stop, length, start in zip(
        firsts, runs + [n.size], n[firsts].tolist(), starts
    ):
        g = stop - first
        waves, rest = divmod(length, slot_cap)
        block = values[start:start + g * (length + 1)].reshape(g, length + 1)
        np.add.reduce(
            block[:, 1:waves * slot_cap + 1].reshape(g, waves, slot_cap),
            axis=1, dtype=np.int64, out=grid[first:stop],
        )
        grid[first:stop, :rest] += block[:, waves * slot_cap + 1:]
    return counts, sums


def _contiguous_sums(
    values: np.ndarray,
    leads: np.ndarray,
    lengths: np.ndarray,
    slot_cap: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Zero-led per-slot (count, sum) under blocked assignment
    (contiguous chunks) over ``slots = min(slot_cap, n)`` slots per
    segment.

    Chunk boundaries follow the OpenMP static convention: slot ``t`` of a
    segment of ``n`` items gets ``[t*n//T, (t+1)*n//T)``; a zero slot is
    the empty range before slot 0.
    """
    csum = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, dtype=np.int64, out=csum[1:])
    slots = np.minimum(slot_cap, lengths)
    t = _local_index(_exclusive_offsets(slots + 1), slots + 1) - 1
    n = np.repeat(lengths, slots + 1)
    s = np.repeat(slots, slots + 1)
    start = np.repeat(leads[:-1] + 1, slots + 1)
    lo = start + (np.maximum(t, 0) * n) // s
    hi = start + ((t + 1) * n) // s
    return hi - lo, csum[hi] - csum[lo]


class UnitCut:
    """Per-unit serial work of every launch of a :class:`RaggedSteps`
    under one cut, concatenated in the same launch order.

    A "unit" is whatever executes serially with respect to itself: a warp
    (thread/warp granularity), a block (block granularity), or a CPU
    thread.  In every per-unit array each launch's units are preceded by
    one zero slot, as in :class:`RaggedSteps` (see the module docstring).

    Attributes
    ----------
    n_units:
        int64 unit count per launch.
    leads:
        int64 position of each launch's zero slot, plus the total length.
    base:
        Per-unit count of serialized item-base executions (float64), or
        ``None`` when every unit runs exactly one item base.
    trips_par:
        Per-unit inner trips after strip-mining (lanes share the loop).
    trips_ser:
        Per-unit raw inner trips (for operations that cannot be
        strip-mined, e.g. same-address atomics).
    chunks:
        ``(first, stop)`` launch ranges :meth:`times` evaluates together:
        at most :data:`CHUNK_UNITS` units, or one larger launch.
    """

    __slots__ = ("n_units", "leads", "base", "trips_par", "trips_ser",
                 "chunks")

    def __init__(
        self,
        n_units: np.ndarray,
        base: Optional[np.ndarray],
        trips_par: np.ndarray,
        trips_ser: np.ndarray,
    ):
        self.n_units = n_units
        self.leads = _exclusive_offsets(n_units + 1)
        self.base = base
        self.trips_par = trips_par
        self.trips_ser = trips_ser
        plain = _exclusive_offsets(n_units)
        chunks = []
        first = 0
        while first < n_units.size:
            stop = int(
                np.searchsorted(plain, plain[first] + CHUNK_UNITS, "right")
            )
            stop = max(first + 1, stop - 1)
            chunks.append((first, stop))
            first = stop
        self.chunks = chunks

    def times(
        self,
        alphas: np.ndarray,
        betas_par: np.ndarray,
        betas_ser: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(totals, longests) for coefficient arrays of shape ``(..., launches)``.

        The trailing axis indexes the launches; any leading axes
        broadcast (e.g. atomic-flavor rows).  A unit's time is
        ``alpha * base + (beta_par * trips_par + beta_ser * trips_ser)``;
        when every unit runs one item base it is
        ``beta_par * trips_par (+ ...)``, and ``alpha`` is added to the
        maximum and ``alpha * n_units`` to the sum.  Each entry is
        bit-identical to the scalar per-launch evaluation (``unit_times``
        in ``tests/machine/scalar_oracle.py``): operations apply in the
        same order, every sum is numpy's pairwise sum of one launch's
        units, and a ``None`` ``betas_ser`` skips the serial term like the
        scalar zero-coefficient branch.
        """
        total = np.empty(alphas.shape)
        longest = np.empty(alphas.shape)
        for first, stop in self.chunks:
            u0, u1 = self.leads[first], self.leads[stop]
            reps = self.n_units[first:stop] + 1
            t = np.repeat(betas_par[..., first:stop], reps, axis=-1)
            t *= self.trips_par[u0:u1]
            # A zero serial coefficient only ever adds an exact +0.0 (the
            # scalar walk skips it), so chunks without one skip the term.
            if betas_ser is not None and betas_ser[..., first:stop].any():
                ser = np.repeat(betas_ser[..., first:stop], reps, axis=-1)
                ser *= self.trips_ser[u0:u1]
                t += ser
                del ser
            if self.base is not None:
                rows = t
                t = np.repeat(alphas[..., first:stop], reps, axis=-1)
                t *= self.base[u0:u1]
                t += rows
                del rows
            leads = self.leads[first:stop] - u0
            total[..., first:stop] = np.add.reduceat(t, leads, axis=-1)
            # Maxima skip the zero slots: segments alternate between one
            # launch's units and the next launch's lone zero slot.
            spans = np.empty(2 * leads.size - 1, dtype=np.int64)
            spans[0::2] = leads + 1
            spans[1::2] = leads[1:]
            longest[..., first:stop] = np.maximum.reduceat(
                t, spans, axis=-1
            )[..., 0::2]
            if self.base is None:
                const = alphas[..., first:stop]
                total[..., first:stop] += const * self.n_units[first:stop]
                longest[..., first:stop] += const
        return total, longest


# ----------------------------------------------------------------------
# GPU cuts
# ----------------------------------------------------------------------
def gpu_cut_geometry(
    granularity: Granularity,
    persistent: bool,
    *,
    block_size: int,
    resident_threads: int,
    max_items: int,
) -> Tuple[Optional[int], Optional[int]]:
    """``(lanes, slot_cap)``: all of a GPU's geometry a cut depends on.

    ``lanes`` is the strip-mining width of an item's inner loop (``None``
    at thread granularity, where one lane owns an item).  ``slot_cap`` is
    ``None`` for non-persistent launches (one thread/unit per item);
    persistent launches spread their items cyclically over
    ``min(slot_cap, n_items)`` resident threads (thread granularity) or
    units.  Capping the resident count at the trace's largest launch
    makes devices whose resident grids all exceed every launch share one
    cut.
    """
    if granularity is Granularity.THREAD:
        lanes = None
        resident = resident_threads
    else:
        lanes = WARP_WIDTH if granularity is Granularity.WARP else block_size
        resident = max(1, resident_threads // lanes)
    return lanes, (min(resident, max_items) if persistent else None)


def gpu_unit_cut(
    steps: RaggedSteps,
    granularity: Granularity,
    lanes: Optional[int],
    slot_cap: Optional[int],
) -> UnitCut:
    """Decompose every launch of ``steps`` into warp- or block-level units
    (see :func:`gpu_cut_geometry` for ``lanes`` and ``slot_cap``)."""
    trips, leads, n = steps.inner, steps.leads, steps.n_items
    if granularity is Granularity.THREAD:
        if slot_cap is None:
            # Lockstep warps of one item per lane: every warp runs the
            # item base once; its trip time is the slowest lane's.
            warps, wtrips = _segment_maxima(trips, leads, n, WARP_WIDTH)
            return UnitCut(warps, None, wtrips, wtrips)
        slots = np.minimum(slot_cap, n)
        counts, sums = _strided_sums(trips, leads, n, slot_cap)
        slot_leads = _exclusive_offsets(slots + 1)
        warps, wbase = _segment_maxima(counts, slot_leads, slots, WARP_WIDTH)
        _, wtrips = _segment_maxima(sums, slot_leads, slots, WARP_WIDTH)
        return UnitCut(warps, wbase.astype(np.float64), wtrips, wtrips)

    strip = -(-trips // lanes)  # ceil(t / lanes): strip-mined trips
    if slot_cap is None:
        # One unit per item; the raw trip array is shared, never copied.
        return UnitCut(n, None, strip, trips)
    counts, strip_sums = _strided_sums(strip, leads, n, slot_cap)
    _, raw_sums = _strided_sums(trips, leads, n, slot_cap)
    return UnitCut(
        np.minimum(slot_cap, n), counts.astype(np.float64), strip_sums, raw_sums
    )


def gpu_uniform_geometry(
    n_items: np.ndarray,
    granularity: Granularity,
    slot_cap: Optional[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Unit geometry of launches without an inner loop, over an int64
    vector of positive item counts.

    Every unit of such a launch does the same work, so the decomposition
    collapses to ``(n_units, uniform_base)`` per launch (int64, float64).
    ``slot_cap`` is :func:`gpu_cut_geometry`'s.  All integer math uses the
    floor-division ceil idiom, so the values are exact.
    """
    n = np.asarray(n_items, dtype=np.int64)
    if granularity is Granularity.THREAD:
        if slot_cap is not None:
            slots = np.minimum(slot_cap, n)
            base = -(-n // slots)
            return -(-slots // WARP_WIDTH), base.astype(np.float64)
        return -(-n // WARP_WIDTH), np.ones(n.shape)
    if slot_cap is not None:
        units = np.minimum(slot_cap, n)
        return units, (-(-n // units)).astype(np.float64)
    return n.copy(), np.ones(n.shape)


# ----------------------------------------------------------------------
# CPU cuts
# ----------------------------------------------------------------------
def cpu_unit_cut(steps: RaggedSteps, cyclic: bool, slot_cap: int) -> UnitCut:
    """Static CPU schedules of every launch of ``steps`` over
    ``min(slot_cap, n_items)`` threads: contiguous chunks (OpenMP default /
    C++ blocked) or round-robin items (C++ cyclic)."""
    split = _strided_sums if cyclic else _contiguous_sums
    counts, sums = split(steps.inner, steps.leads, steps.n_items, slot_cap)
    sums = sums.astype(np.float64)
    return UnitCut(
        np.minimum(slot_cap, steps.n_items),
        counts.astype(np.float64),
        sums,
        sums,
    )


def cpu_uniform_geometry(
    n_items: np.ndarray, slot_cap: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized uniform-step geometry of the static CPU schedules over
    ``min(slot_cap, n_items)`` threads.

    Blocked and cyclic assignment coincide when every item is identical,
    so one ``(n_units, uniform_base)`` pair serves both.  Every
    ``n_items`` entry must be positive.
    """
    n = np.asarray(n_items, dtype=np.int64)
    units = np.minimum(slot_cap, n)
    per = -(-n // units)
    return units, per.astype(np.float64)
