"""Style-parameterized Maximal Independent Set kernel (Luby-style).

Fixed, unique per-vertex hash priorities make the fixed point unique: the
parallel rounds converge to exactly the greedy sequential MIS in priority
order, which is what :func:`repro.kernels.serial.serial_mis` computes.

A vertex decides by scanning its neighbor list in order and stopping at the
first *event*: an IN neighbor (the vertex becomes OUT) or a higher-priority
undecided neighbor (the vertex stays undecided this round).  A scan that
completes without events joins the set.  The early exit is why the paper
observes that "the MIS code typically only visits a few neighbors per
vertex" (Section 5.2) — the per-item trip counts recorded here are the real
early-exit positions, which is what makes vertex-based MIS so well balanced.
The simulator stops reading there too: :meth:`MISKernel._scan` gathers each
vertex's neighbor slots in windows of a fixed doubling schedule
(:data:`_FIRST_WINDOW` slots, then twice as many each window) and drops a
vertex at its first event, instead of testing every slot of every list.

Push-style deciders immediately mark their neighbors OUT (atomic stores,
with real conflict accounting); pull-style vertices discover IN neighbors
by scanning in a later round.  Data-driven runs keep the undecided vertices
on a no-duplicates worklist (Table 2: MIS supports nodup only).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..graph.csr import CSRGraph
from ..machine.trace import ExecutionTrace, IterationProfile, conflict_stats
from ..styles.axes import Determinism, Driver, Flow, Iteration
from ..styles.spec import SemanticKey
from .base import (
    MAX_ROUNDS_FACTOR,
    WAVE,
    ConvergenceError,
    DegenerateGraphError,
    KernelResult,
    flat_neighbors,
    vertex_hash_priority,
)

__all__ = ["MISKernel", "UNDECIDED", "IN_SET", "OUT"]

UNDECIDED = np.int8(0)
IN_SET = np.int8(1)
OUT = np.int8(2)

#: Neighbor slots a still-scanning vertex gathers in its first window of
#: :meth:`MISKernel._scan`; each later window is twice as wide.
_FIRST_WINDOW = 2


class MISKernel:
    """Runs MIS on one graph in any semantic style."""

    def __init__(self, graph: CSRGraph, label: str = "mis"):
        if graph.n_vertices == 0:
            raise DegenerateGraphError("empty graph")
        self.graph = graph
        self.label = label
        self.pri = vertex_hash_priority(graph.n_vertices)
        self._src = graph.edge_sources().astype(np.int64)
        self._dst = graph.col_idx.astype(np.int64)
        self._degrees = graph.degrees

    # ------------------------------------------------------------------
    def run(self, sem: SemanticKey) -> KernelResult:
        trace = ExecutionTrace(
            n_edges=self.graph.n_edges,
            n_vertices=self.graph.n_vertices,
            label=f"{self.label}:{sem.iteration.value}:{sem.driver.value}",
        )
        status = np.full(self.graph.n_vertices, UNDECIDED, dtype=np.int8)
        trace.add(
            IterationProfile(
                n_items=self.graph.n_vertices,
                base_cycles=1.0,
                shared_stores_base=1.0,
                label="init",
            )
        )
        if sem.iteration is Iteration.VERTEX:
            self._run_vertex(sem, status, trace)
        else:
            self._run_edge(sem, status, trace)
        return KernelResult(values=(status == IN_SET).astype(np.int8), trace=trace)

    @staticmethod
    def _copy_profile(n: int) -> IterationProfile:
        """Double-buffer refresh of the deterministic style (Section 2.6)."""
        return IterationProfile(
            n_items=n,
            base_cycles=1.0,
            shared_loads_base=1.0,
            shared_stores_base=1.0,
            label="double-buffer refresh",
        )

    # ------------------------------------------------------------------
    # Vertex-based rounds
    # ------------------------------------------------------------------
    def _run_vertex(
        self, sem: SemanticKey, status: np.ndarray, trace: ExecutionTrace
    ) -> None:
        n = self.graph.n_vertices
        max_rounds = MAX_ROUNDS_FACTOR * n + 10
        data = sem.driver is Driver.DATA
        worklist = np.flatnonzero(status == UNDECIDED).astype(np.int64)
        for _round in range(max_rounds):
            if not np.any(status == UNDECIDED):
                trace.converged = True
                return
            items = worklist if data else np.arange(n, dtype=np.int64)
            if sem.determinism is Determinism.DETERMINISTIC:
                read = status.copy()
                trace.add(self._copy_profile(n))
            else:
                read = status
            trips = np.zeros(items.size, dtype=np.int64)
            marks = 0
            mark_conflict = 0.0
            mark_max = 0
            new_in_parts = []
            for beg in range(0, items.size, WAVE):
                sl = slice(beg, min(beg + WAVE, items.size))
                wave_items = items[sl]
                # A thread first checks its own status (the snapshot in the
                # deterministic style, the live array otherwise).
                active_mask = read[wave_items] == UNDECIDED
                active = wave_items[active_mask]
                if active.size == 0:
                    continue
                w_trips, became_in, became_out = self._scan(read, active)
                trips_w = np.zeros(wave_items.size, dtype=np.int64)
                trips_w[active_mask] = w_trips
                trips[sl] = trips_w
                if became_out.size:
                    status[became_out] = OUT
                if became_in.size:
                    status[became_in] = IN_SET
                    new_in_parts.append(became_in)
                    if sem.flow is Flow.PUSH:
                        edge_pos, _owner = flat_neighbors(self.graph, became_in)
                        nbrs = self._dst[edge_pos]
                        status[nbrs[status[nbrs] == UNDECIDED]] = OUT
                        marks += edge_pos.size
                        extra, mx = conflict_stats(nbrs, n)
                        mark_conflict += extra
                        mark_max = max(mark_max, mx)
            deciders = sum(part.size for part in new_in_parts)
            # Push deciders walk their adjacency twice (scan + mark); add
            # the marking trips to the per-item totals for those items.
            if sem.flow is Flow.PUSH and deciders:
                new_in = np.concatenate(new_in_parts)
                pos = np.searchsorted(items, new_in)
                trips[pos] += self._degrees[new_in]
            trace.add(
                self._vertex_profile(
                    sem, items.size, trips, marks, mark_conflict, mark_max,
                    deciders, data,
                )
            )
            trace.iterations += 1
            if data:
                worklist = items[status[items] == UNDECIDED]
        raise ConvergenceError(f"{self.label} vertex rounds exceeded {max_rounds}")

    def _scan(
        self, read: np.ndarray, active: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Early-exit neighbor scan for the active (undecided) vertices.

        Returns per-item trip counts and the items that became IN / OUT.

        The scan reads neighbor slots in windows of a fixed schedule
        (:data:`_FIRST_WINDOW` slots, then twice as many each window):
        only vertices that have not met an event yet gather their next
        window, so the simulator reads about as many slots as the
        simulated threads do and stops at the recorded early-exit
        position.  A vertex's first event decides it: an IN neighbor makes
        it OUT, a higher-priority undecided neighbor leaves it undecided,
        and a list without events makes it IN (so does an empty list, with
        zero trips).
        """
        deg = self._degrees[active]
        begs = self.graph.row_ptr[active]
        pri_self = self.pri[active]
        trips = deg.copy()  # a scan without events reads the whole list
        stopped = np.zeros(active.size, dtype=bool)
        became_out = np.zeros(active.size, dtype=bool)
        scanning = np.flatnonzero(deg > 0)
        offset, width = 0, _FIRST_WINDOW
        while scanning.size:
            counts = np.minimum(deg[scanning] - offset, width)
            owner = np.repeat(np.arange(scanning.size, dtype=np.int64), counts)
            seg_starts = np.cumsum(counts) - counts
            slot = np.arange(owner.size, dtype=np.int64) + (
                begs[scanning] + offset - seg_starts
            )[owner]
            nbrs = self._dst[slot]
            s_nbr = read[nbrs]
            in_event = s_nbr == IN_SET
            event = in_event | (
                (s_nbr == UNDECIDED) & (self.pri[nbrs] > pri_self[scanning][owner])
            )
            hits = np.flatnonzero(event)
            # Slots are grouped by owner in order, so a vertex's first
            # event is where the owner of the event slots changes.
            first = np.ones(hits.size, dtype=bool)
            first[1:] = owner[hits[1:]] != owner[hits[:-1]]
            hits = hits[first]
            who = owner[hits]
            hit_items = scanning[who]
            trips[hit_items] = offset + (hits - seg_starts[who]) + 1
            stopped[hit_items] = True
            became_out[hit_items] = in_event[hits]
            more = deg[scanning] > offset + width
            more[who] = False
            scanning = scanning[more]
            offset += width
            width *= 2
        return trips, active[~stopped], active[became_out]

    def _vertex_profile(
        self,
        sem: SemanticKey,
        n_items: int,
        trips: np.ndarray,
        marks: int,
        mark_conflict: float,
        mark_max: int,
        deciders: int,
        data: bool,
    ) -> IterationProfile:
        total_trips = max(int(trips.sum()), 1)
        items = max(n_items, 1)
        push = sem.flow is Flow.PUSH
        # Status writes: one per decision; push marking adds atomics on
        # neighbor cells.  These are CAS/exchange-style ops (not min/max),
        # so OpenMP realizes them as atomics, not critical sections.
        atomics_base = deciders / items
        atomics_inner = (marks / total_trips) if push else 0.0
        stamp = 0.0
        if data:
            # No-duplicates worklist: stamp check per still-undecided item
            # (Listing 3b's atomicMax) — a min/max op.
            stamp = 1.0
        return IterationProfile(
            n_items=n_items,
            inner=trips,
            base_cycles=2.0,
            inner_cycles=2.0,
            struct_loads_base=2.0 + (1.0 if data else 0.0),
            struct_loads_inner=1.0,
            shared_loads_base=2.0,  # own status + own priority
            shared_loads_inner=2.0,  # neighbor status + priority
            atomics_base=atomics_base + stamp,
            atomics_inner=atomics_inner,
            atomic_minmax=data,  # the stamp is an atomicMax
            conflict_extra=mark_conflict,
            max_conflict=mark_max,
            hot_atomics=float(n_items if data else 0) + 1.0,
            label="mis-vertex" + ("-wl" if data else ""),
        )

    # ------------------------------------------------------------------
    # Edge-based rounds (two phases per round)
    # ------------------------------------------------------------------
    def _run_edge(
        self, sem: SemanticKey, status: np.ndarray, trace: ExecutionTrace
    ) -> None:
        n, m = self.graph.n_vertices, self.graph.n_edges
        max_rounds = MAX_ROUNDS_FACTOR * n + 10
        data = sem.driver is Driver.DATA
        for _round in range(max_rounds):
            undecided = status == UNDECIDED
            if not undecided.any():
                trace.converged = True
                return
            if data:
                # The worklist keeps the edges whose *deciding* endpoint is
                # still undecided (the side the edge writes to).
                mine_side = self._src if sem.flow is Flow.PULL else self._dst
                edge_ids = np.flatnonzero(undecided[mine_side]).astype(np.int64)
            else:
                edge_ids = np.arange(m, dtype=np.int64)
            if sem.determinism is Determinism.DETERMINISTIC:
                read = status.copy()
                trace.add(self._copy_profile(n))
            else:
                read = status
            blocked = np.zeros(n, dtype=bool)
            writes = 0
            conflict_extra = 0.0
            max_conflict = 0
            # Phase 1: per-edge blocking / OUT propagation.
            for beg in range(0, edge_ids.size, WAVE):
                ids = edge_ids[beg : beg + WAVE]
                if sem.flow is Flow.PULL:
                    mine, other = self._src[ids], self._dst[ids]
                else:
                    mine, other = self._dst[ids], self._src[ids]
                s_mine = status[mine]
                s_other = read[other]
                live = s_mine == UNDECIDED
                outs = live & (s_other == IN_SET)
                if outs.any():
                    status[mine[outs]] = OUT
                blocks = live & (s_other == UNDECIDED) & (
                    self.pri[other] > self.pri[mine]
                )
                if blocks.any():
                    blocked[mine[blocks]] = True
                writes += int(outs.sum()) + int(blocks.sum())
                written_to = mine[outs | blocks]
                extra, mx = conflict_stats(written_to, n)
                conflict_extra += extra
                max_conflict = max(max_conflict, mx)
            trace.add(
                self._edge_profile(sem, edge_ids.size, writes, conflict_extra,
                                   max_conflict, data)
            )
            # Phase 2: unblocked undecided vertices join the set.
            joiners = np.flatnonzero((status == UNDECIDED) & ~blocked)
            if joiners.size:
                status[joiners] = IN_SET
            trace.add(
                IterationProfile(
                    n_items=n,
                    base_cycles=2.0,
                    shared_loads_base=2.0,  # status + blocked flag
                    shared_stores_base=joiners.size / max(n, 1),
                    label="mis-join",
                )
            )
            trace.iterations += 1
        raise ConvergenceError(f"{self.label} edge rounds exceeded {max_rounds}")

    def _edge_profile(
        self,
        sem: SemanticKey,
        n_items: int,
        writes: int,
        conflict_extra: float,
        max_conflict: int,
        data: bool,
    ) -> IterationProfile:
        items = max(n_items, 1)
        return IterationProfile(
            n_items=n_items,
            base_cycles=3.0,
            struct_loads_base=2.0 + (1.0 if data else 0.0),
            shared_loads_base=4.0,  # two statuses + two priorities
            atomics_base=writes / items + (1.0 if data else 0.0),
            atomic_minmax=data,  # worklist stamp
            conflict_extra=conflict_extra,
            max_conflict=max_conflict,
            hot_atomics=float(n_items if data else 0) + 1.0,
            label="mis-edge" + ("-wl" if data else ""),
        )
