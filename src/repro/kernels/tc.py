"""Style-parameterized Triangle Counting kernel.

TC is the study's substructure problem: topology-driven, deterministic,
read-modify-write only (Table 2), with no push/pull axis (Section 5.4), but
with both vertex- and edge-based iteration and the full reduction-style
axis.  Uniquely among the non-reduction algorithms, edge-based TC retains
an inner loop (the neighbor-list intersection), so warp/block granularity
applies to it (the merge is strip-mined across lanes).

Counting uses the standard forward-edge formulation: orient every edge
from the smaller to the larger id; a triangle ``a < b < c`` is counted
exactly once as ``|N+(a) ∩ N+(b)|`` contributions on the edge ``(a, b)``.
The per-item trip counts are the real sorted-merge lengths
``|N+(u)| + |N+(v)|``, which is where TC's severe load imbalance (and the
edge-based style's advantage on skewed graphs, Section 5.2) comes from.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..machine.trace import ExecutionTrace, IterationProfile
from ..styles.axes import Iteration
from ..styles.spec import SemanticKey
from .base import DegenerateGraphError, KernelResult

__all__ = ["TriangleCountKernel"]


class TriangleCountKernel:
    """Runs triangle counting on one graph (vertex- or edge-based)."""

    def __init__(self, graph: CSRGraph, label: str = "tc"):
        if graph.n_vertices == 0:
            raise DegenerateGraphError("empty graph")
        if not graph.has_sorted_neighbors():
            raise ValueError("TC requires sorted adjacency lists")
        self.graph = graph
        self.label = label
        src = graph.edge_sources().astype(np.int64)
        dst = graph.col_idx.astype(np.int64)
        fwd_mask = src < dst
        self._fsrc = src[fwd_mask]
        self._fdst = dst[fwd_mask]
        self._fwd_mask = fwd_mask
        n = graph.n_vertices
        #: forward degree |N+(v)| of every vertex.
        self.fdeg = np.bincount(self._fsrc, minlength=n).astype(np.int64)
        # Imported here: scipy costs about 0.14 s to import, and only TC
        # kernels need it.
        from scipy import sparse

        self._adj = sparse.csr_matrix(
            (np.ones(self._fsrc.size, dtype=np.int64), (self._fsrc, self._fdst)),
            shape=(n, n),
        )

    # ------------------------------------------------------------------
    def count(self) -> int:
        """Exact triangle count via the forward-adjacency product."""
        return int(self._per_edge_counts().sum())

    def _per_edge_counts(self) -> np.ndarray:
        """Triangles closed on each forward edge (aligned with _fsrc)."""
        if self._fsrc.size == 0:
            return np.zeros(0, dtype=np.int64)
        paths = self._adj @ self._adj  # paths a -> b -> c with a<b<c
        closed = paths.multiply(self._adj).tocoo()  # closed by edge a -> c
        n = np.int64(self.graph.n_vertices)
        keys = closed.row.astype(np.int64) * n + closed.col
        order = np.argsort(keys)
        keys = keys[order]
        data = closed.data[order]
        edge_keys = self._fsrc * n + self._fdst
        idx = np.searchsorted(keys, edge_keys)
        counts = np.zeros(self._fsrc.size, dtype=np.int64)
        in_range = idx < keys.size
        hit = in_range.copy()
        hit[in_range] = keys[idx[in_range]] == edge_keys[in_range]
        counts[hit] = data[idx[hit]]
        return counts

    def run(self, sem: SemanticKey) -> KernelResult:
        trace = ExecutionTrace(
            n_edges=self.graph.n_edges,
            n_vertices=self.graph.n_vertices,
            iterations=1,
            label=f"{self.label}:{sem.iteration.value}",
        )
        per_edge = self._per_edge_counts()
        total = int(per_edge.sum())
        merge_per_fwd_edge = self.fdeg[self._fsrc] + self.fdeg[self._fdst]
        if sem.iteration is Iteration.VERTEX:
            trace.add(self._vertex_profile(merge_per_fwd_edge, per_edge))
        else:
            trace.add(self._edge_profile(merge_per_fwd_edge, per_edge))
        return KernelResult(
            values=np.array([total], dtype=np.int64), trace=trace
        )

    # ------------------------------------------------------------------
    def _vertex_profile(
        self, merge_per_fwd_edge: np.ndarray, per_edge: np.ndarray
    ) -> IterationProfile:
        n = self.graph.n_vertices
        # Each vertex u performs the merges of all its forward edges.
        trips = np.zeros(n, dtype=np.int64)
        np.add.at(trips, self._fsrc, merge_per_fwd_edge)
        # A thread only adds its partial when it found triangles
        # ("if (count) atomicAdd(...)"), so the reduction traffic is the
        # number of vertices that closed at least one triangle.
        per_vertex = np.zeros(n, dtype=np.int64)
        np.add.at(per_vertex, self._fsrc, per_edge)
        contributors = int(np.count_nonzero(per_vertex))
        return IterationProfile(
            n_items=n,
            inner=trips,
            base_cycles=2.0,
            inner_cycles=1.5,  # compare + advance of the sorted merge
            struct_loads_base=2.0,
            struct_loads_inner=1.0,  # one adjacency element per merge step
            reduction_items=float(contributors),
            label="tc-vertex",
        )

    def _edge_profile(
        self, merge_per_fwd_edge: np.ndarray, per_edge: np.ndarray
    ) -> IterationProfile:
        # Edge-based codes iterate over all directed edges; the backward
        # half exits after the u < v check (trip count 0, no add).
        m = self.graph.n_edges
        trips = np.zeros(m, dtype=np.int64)
        trips[self._fwd_mask] = merge_per_fwd_edge
        contributors = int(np.count_nonzero(per_edge))
        return IterationProfile(
            n_items=m,
            inner=trips,
            base_cycles=2.0,
            inner_cycles=1.5,
            struct_loads_base=3.0,  # endpoints; list offsets on the fwd half
            struct_loads_inner=1.0,
            reduction_items=float(contributors),
            label="tc-edge",
        )
