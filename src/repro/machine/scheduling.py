"""Work-to-execution-unit decomposition.

Turning a launch's per-item inner-trip counts into per-unit serial work is
where most of the style effects physically live:

* thread/warp/block granularity (Section 2.8) changes which unit owns an
  item's inner loop and whether that loop is strip-mined across lanes;
* persistent vs non-persistent (Section 2.7) changes the item-to-thread
  assignment (cyclic over a resident grid vs one thread per item);
* blocked vs cyclic C++ scheduling (Section 2.12) and OpenMP default
  (static) scheduling (Section 2.11) change the item-to-thread assignment
  on CPUs.

Everything here is exact list accounting over the launch's real trip
counts — no statistical assumptions about the degree distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..styles.axes import Granularity

__all__ = [
    "UnitDecomposition",
    "StackedUnits",
    "stack_decompositions",
    "gpu_units",
    "gpu_uniform_geometry",
    "cpu_blocked_units",
    "cpu_cyclic_units",
    "cpu_uniform_geometry",
    "cached_decomposition",
]

WARP_WIDTH = 32


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


@dataclass(frozen=True)
class StackedUnits:
    """Same-shape array decompositions of several launches, stacked.

    Launch steps whose :class:`UnitDecomposition` arrays have identical
    length and component layout are stacked into one 2-D matrix: row ``g``
    holds step ``positions[g]``'s per-unit arrays, so a whole batch of
    launches reduces in a few broadcast expressions instead of a Python
    loop over steps.  Row-wise reductions over the stacked matrix are
    bit-identical to each step's 1-D reduction: numpy applies the same
    pairwise routine to every same-length contiguous row.
    """

    positions: np.ndarray
    base: Optional[np.ndarray]
    trips_par: Optional[np.ndarray]
    trips_ser: Optional[np.ndarray]
    uniform_base: float
    n_units: int

    def times_batch(
        self,
        alphas: np.ndarray,
        betas_par: np.ndarray,
        betas_ser: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(totals, longests) for coefficient arrays of shape ``(..., g)``.

        The trailing axis indexes the stacked steps; any leading axes
        broadcast (e.g. atomic-flavor rows).  Each entry is bit-identical
        to the scalar per-unit evaluation of that step's decomposition
        (``unit_times`` in ``tests/machine/scalar_oracle.py``) with the
        matching coefficients: operations apply in the same order and a
        ``None`` ``betas_ser`` skips the serial term exactly like the
        scalar zero-coefficient branch.
        """
        rows = None
        if self.trips_par is not None:
            rows = betas_par[..., None] * self.trips_par
            if betas_ser is not None and self.trips_ser is not None:
                rows = rows + betas_ser[..., None] * self.trips_ser
        if self.base is None:
            const = alphas * self.uniform_base
            if rows is None:
                return const * self.n_units, const.copy()
            return (
                np.add.reduce(rows, axis=-1) + const * self.n_units,
                np.maximum.reduce(rows, axis=-1) + const,
            )
        t = alphas[..., None] * self.base
        if rows is not None:
            t = t + rows
        return np.add.reduce(t, axis=-1), np.maximum.reduce(t, axis=-1)


def stack_decompositions(
    units_list: Sequence[UnitDecomposition], positions: np.ndarray
) -> List[StackedUnits]:
    """Group per-step array decompositions into stackable batches.

    ``units_list[i]`` is step ``positions[i]``'s decomposition.  Steps are
    grouped by unit count and component layout — launches over the same
    item set (e.g. every round of a topology-driven sweep) collapse into
    one group.  ``np.stack`` copies and dtype-promotes the rows;
    int→float64 promotion is exact for the trip-count magnitudes involved,
    so the stacked products match the per-step ones bit-for-bit.
    """
    groups: Dict[Tuple, List[Tuple[int, UnitDecomposition]]] = {}
    for pos, u in zip(positions, units_list):
        kind = (
            u.n_units,
            u.base is None,
            u.trips_par is None,
            u.trips_ser is None,
            u.uniform_base,
            u.uniform_trips,
        )
        groups.setdefault(kind, []).append((int(pos), u))
    out = []
    for items in groups.values():
        first = items[0][1]
        out.append(
            StackedUnits(
                np.array([p for p, _ in items], dtype=np.intp),
                None
                if first.base is None
                else np.stack([u.base for _, u in items]),
                None
                if first.trips_par is None
                else np.stack([u.trips_par for _, u in items]),
                None
                if first.trips_ser is None
                else np.stack([u.trips_ser for _, u in items]),
                first.uniform_base,
                first.n_units,
            )
        )
    return out


def cached_decomposition(profile, cache_attr: str, key, builder):
    """Fetch (or build and memoize) a profile's :class:`UnitDecomposition`.

    A decomposition depends only on the mapping axes and the device
    geometry, so every mapping variant that re-times the same launch
    shares it.  The memo lives on the profile object itself and therefore
    has exactly the trace cache's lifetime — released together with the
    trace when the sweep drops the block.
    """
    cache = getattr(profile, cache_attr, None)
    if cache is None:
        cache = {}
        setattr(profile, cache_attr, cache)
    units = cache.get(key)
    if units is None:
        units = builder()
        cache[key] = units
    return units


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


# ----------------------------------------------------------------------
# Vectorized uniform-step geometry
# ----------------------------------------------------------------------
def gpu_uniform_geometry(
    n_items: np.ndarray,
    granularity: Granularity,
    persistent: bool,
    *,
    block_size: int,
    resident_threads: int,
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Vectorized :func:`_gpu_units_uniform` over an int64 step vector.

    For launches without an inner loop the unit decomposition collapses to
    three numbers; this computes them for a whole vector of such launches
    at once.  Returns ``(n_units, uniform_base, width)`` where the arrays
    are per step (``n_units`` int64, ``uniform_base`` float64) and
    ``width`` is the scalar unit width shared by every step of this
    (granularity, persistence) pair.  All integer math uses the same
    floor-division ceil idiom as the scalar path, so the values are exact.
    Every ``n_items`` entry must be positive.
    """
    n = np.asarray(n_items, dtype=np.int64)
    if granularity is Granularity.THREAD:
        if persistent:
            slots = np.minimum(resident_threads, n)
            base = -(-n // slots)
            units = -(-slots // WARP_WIDTH)
            return units, base.astype(np.float64), 1.0
        return -(-n // WARP_WIDTH), np.ones(n.shape), 1.0
    lane_width = WARP_WIDTH if granularity is Granularity.WARP else block_size
    unit_width = 1.0 if granularity is Granularity.WARP else block_size / WARP_WIDTH
    if persistent:
        units = np.maximum(1, np.minimum(resident_threads // lane_width, n))
        per_unit = -(-n // units)
        return units, per_unit.astype(np.float64), unit_width
    return n.copy(), np.ones(n.shape), unit_width


def cpu_uniform_geometry(
    n_items: np.ndarray, threads: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized uniform-step geometry of the static CPU schedules.

    Blocked and cyclic assignment coincide when every item is identical,
    so one ``(n_units, uniform_base)`` pair serves both.  Every
    ``n_items`` entry must be positive.
    """
    n = np.asarray(n_items, dtype=np.int64)
    units = np.minimum(threads, n)
    per = -(-n // units)
    return units, per.astype(np.float64)
