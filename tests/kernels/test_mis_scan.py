"""Differential tests: the windowed MIS scan against the frozen full scan.

:meth:`repro.kernels.mis.MISKernel._scan` stops gathering a vertex's
neighbor slots at its first event; :func:`mis_scan_oracle.full_scan`
gathers them all.  Both must return the same per-item trips (int64), the
same IN items and the same OUT items, in the same order, on every input —
so every MIS trace, and with it every digest and figure, stays
bit-identical.
"""

import numpy as np
import pytest

from repro.bench.tracestore import trace_digest
from repro.graph import from_edge_arrays
from repro.kernels import MISKernel
from repro.kernels.mis import IN_SET, OUT, UNDECIDED
from repro.styles import Algorithm, Model, semantic_combinations

from .mis_scan_oracle import full_scan

HUB_DEGREE = 700


def assert_same_scan(kernel, read, active):
    trips, became_in, became_out = kernel._scan(read, active)
    want_trips, want_in, want_out = full_scan(kernel, read, active)
    assert trips.dtype == np.int64
    assert np.array_equal(trips, want_trips)
    assert np.array_equal(became_in, want_in)
    assert np.array_equal(became_out, want_out)
    return trips, became_in, became_out


def random_graph(rng, n, m, n_isolated=0):
    """A random undirected graph; its last ``n_isolated`` vertices have no
    edges."""
    live = n - n_isolated
    src = rng.integers(0, live, size=m)
    dst = rng.integers(0, live, size=m)
    return from_edge_arrays(src, dst, n)


def random_status(rng, n):
    weights = rng.dirichlet(np.ones(3))
    return rng.choice(
        np.array([UNDECIDED, IN_SET, OUT], dtype=np.int8), size=n, p=weights
    )


def hub_graph():
    """Vertex 0 is adjacent to every other vertex (degree 700); the leaves
    form a sparse ring."""
    leaves = np.arange(1, HUB_DEGREE + 1, dtype=np.int64)
    src = np.concatenate([np.zeros(HUB_DEGREE, dtype=np.int64), leaves[:-1]])
    dst = np.concatenate([leaves, leaves[1:]])
    return from_edge_arrays(src, dst, HUB_DEGREE + 1)


class TestRandomScans:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_graphs_and_statuses(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 120))
        m = int(rng.integers(0, 4 * n))
        g = random_graph(rng, n, m, n_isolated=int(rng.integers(0, 4)))
        kernel = MISKernel(g)
        read = random_status(rng, n)
        undecided = np.flatnonzero(read == UNDECIDED).astype(np.int64)
        keep = rng.random(undecided.size) < rng.uniform(0.3, 1.0)
        assert_same_scan(kernel, read, undecided[keep])

    def test_all_undecided(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 200, 900, n_isolated=5)
        read = np.full(g.n_vertices, UNDECIDED, dtype=np.int8)
        assert_same_scan(MISKernel(g), read, np.arange(200, dtype=np.int64))

    def test_isolated_vertices_join_with_zero_trips(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 30, 60, n_isolated=6)
        read = np.full(g.n_vertices, UNDECIDED, dtype=np.int8)
        active = np.arange(20, 30, dtype=np.int64)
        trips, became_in, _ = assert_same_scan(MISKernel(g), read, active)
        assert np.array_equal(trips[-6:], np.zeros(6, dtype=np.int64))
        assert set(range(24, 30)) <= set(became_in.tolist())

    def test_wave_without_edges(self):
        g = from_edge_arrays(
            np.array([0], dtype=np.int64), np.array([1], dtype=np.int64), 8
        )
        read = np.full(8, UNDECIDED, dtype=np.int8)
        active = np.arange(2, 8, dtype=np.int64)
        trips, became_in, became_out = assert_same_scan(
            MISKernel(g), read, active
        )
        assert not trips.any() and became_out.size == 0
        assert np.array_equal(became_in, active)

    def test_empty_wave(self):
        g = hub_graph()
        read = np.full(g.n_vertices, UNDECIDED, dtype=np.int8)
        assert_same_scan(MISKernel(g), read, np.empty(0, dtype=np.int64))


class TestHubScans:
    def scan_hub(self, read):
        kernel = MISKernel(hub_graph())
        active = np.flatnonzero(read == UNDECIDED).astype(np.int64)
        trips, became_in, became_out = assert_same_scan(kernel, read, active)
        return dict(zip(active.tolist(), trips.tolist())), became_in, became_out

    def test_event_free_hub_scans_every_slot(self):
        read = np.full(HUB_DEGREE + 1, OUT, dtype=np.int8)
        read[0] = UNDECIDED
        trips, became_in, _ = self.scan_hub(read)
        assert trips[0] == HUB_DEGREE and became_in.tolist() == [0]

    def test_in_event_in_the_last_slot(self):
        read = np.full(HUB_DEGREE + 1, OUT, dtype=np.int8)
        read[0] = UNDECIDED
        read[HUB_DEGREE] = IN_SET
        trips, became_in, became_out = self.scan_hub(read)
        assert trips[0] == HUB_DEGREE
        assert became_in.size == 0 and became_out.tolist() == [0]

    def test_blocker_in_the_last_slot(self):
        kernel = MISKernel(hub_graph())
        read = np.full(HUB_DEGREE + 1, OUT, dtype=np.int8)
        read[0] = UNDECIDED
        read[HUB_DEGREE] = UNDECIDED
        active = np.array([0], dtype=np.int64)
        assert kernel.pri[HUB_DEGREE] > kernel.pri[0]
        trips, became_in, became_out = assert_same_scan(kernel, read, active)
        assert trips.tolist() == [HUB_DEGREE]
        assert became_in.size == 0 and became_out.size == 0

    @pytest.mark.parametrize("seed", range(10))
    def test_random_hub_statuses(self, seed):
        rng = np.random.default_rng(100 + seed)
        read = random_status(rng, HUB_DEGREE + 1)
        read[0] = UNDECIDED
        self.scan_hub(read)

    @pytest.mark.parametrize("position", [0, 1, 2, 3, 5, 6, 7, 14, 30, 511])
    def test_first_event_at_every_window_edge(self, position):
        # Slot ``position`` of the hub's list holds its only IN neighbor;
        # the windows of 2, 4, 8, ... slots start at 0, 2, 6, 14, 30, ...
        read = np.full(HUB_DEGREE + 1, OUT, dtype=np.int8)
        read[0] = UNDECIDED
        read[1 + position] = IN_SET
        trips, _, became_out = self.scan_hub(read)
        assert trips[0] == position + 1 and became_out.tolist() == [0]


MIS_KEYS = list(
    dict.fromkeys(
        s.semantic_key()
        for s in semantic_combinations(Algorithm.MIS, Model.CUDA)
    )
)


def key_id(key):
    return "-".join(
        getattr(axis, "value", str(axis))
        for axis in vars(key).values()
        if axis is not None
    )


def test_sixteen_semantic_keys():
    assert len(MIS_KEYS) == 16


@pytest.mark.parametrize("key", MIS_KEYS, ids=key_id)
def test_whole_kernel_traces_match_full_scan(tiny_graphs, key):
    for name, graph in tiny_graphs.items():
        windowed = MISKernel(graph).run(key)
        oracle = MISKernel(graph)
        oracle._scan = lambda read, active, k=oracle: full_scan(k, read, active)
        full = oracle.run(key)
        assert trace_digest(windowed.trace) == trace_digest(full.trace), name
        assert np.array_equal(windowed.values, full.values), name
