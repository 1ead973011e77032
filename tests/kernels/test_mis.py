"""Unit tests for the style-parameterized MIS kernel."""

import numpy as np
import pytest

from repro.graph import from_edge_list, grid2d, load_dataset
from repro.kernels import (
    MISKernel,
    is_maximal_independent_set,
    serial_mis,
    vertex_hash_priority,
)
from repro.styles import (
    Algorithm,
    Determinism,
    Driver,
    Flow,
    Iteration,
    Model,
    semantic_combinations,
)


def all_semantics():
    return list(semantic_combinations(Algorithm.MIS, Model.CUDA))


class TestCorrectness:
    @pytest.mark.parametrize("sem", all_semantics(), ids=lambda s: s.label())
    def test_all_styles_match_greedy_reference(self, small_social, sem):
        result = MISKernel(small_social).run(sem.semantic_key())
        assert is_maximal_independent_set(small_social, result.values)
        assert np.array_equal(result.values, serial_mis(small_social))
        assert result.trace.converged

    @pytest.mark.parametrize("sem", all_semantics(), ids=lambda s: s.label())
    def test_all_styles_on_grid(self, sem):
        g = grid2d(7, 9, weighted=False)
        result = MISKernel(g).run(sem.semantic_key())
        assert np.array_equal(result.values, serial_mis(g))

    def test_isolated_vertices_join(self):
        g = from_edge_list([(0, 1)], n_vertices=4)
        sem = all_semantics()[0].semantic_key()
        result = MISKernel(g).run(sem)
        assert result.values[2] == 1 and result.values[3] == 1


class TestPriorities:
    def test_priorities_are_a_permutation(self):
        pri = vertex_hash_priority(500)
        assert sorted(pri.tolist()) == list(range(500))

    def test_priorities_deterministic(self):
        assert np.array_equal(vertex_hash_priority(64), vertex_hash_priority(64))

    def test_priorities_not_identity(self):
        # They must look random, not ordered by id.
        pri = vertex_hash_priority(100)
        assert not np.array_equal(pri, np.arange(100))


class TestTraceShape:
    def sem(self, **kw):
        from repro.styles.spec import SemanticKey

        base = dict(
            algorithm=Algorithm.MIS,
            iteration=Iteration.VERTEX,
            driver=Driver.TOPOLOGY,
            dup=None,
            flow=Flow.PULL,
            update=None,
            determinism=Determinism.NON_DETERMINISTIC,
        )
        from repro.styles import Update

        base["update"] = Update.READ_MODIFY_WRITE
        base.update(kw)
        return SemanticKey(**base)

    def test_early_exit_trips_below_full_scan(self, small_social):
        result = MISKernel(small_social).run(self.sem())
        rounds = [
            p for p in result.trace.profiles if p.label.startswith("mis-vertex")
        ]
        total_trips = sum(p.total_inner for p in rounds)
        # The early exit must save a lot of neighbor visits vs scanning
        # every list fully each round (the Section 5.2 observation).
        full_scan = small_social.n_edges * len(rounds)
        assert total_trips < 0.8 * full_scan

    def test_data_driven_worklist_shrinks(self, small_social):
        from repro.styles import Dup

        result = MISKernel(small_social).run(
            self.sem(driver=Driver.DATA, dup=Dup.NODUP, flow=Flow.PUSH)
        )
        sizes = [
            p.n_items for p in result.trace.profiles if p.label == "mis-vertex-wl"
        ]
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] < sizes[0]

    def test_push_marks_record_conflicts_or_atomics(self, small_social):
        result = MISKernel(small_social).run(self.sem(flow=Flow.PUSH))
        rounds = [
            p for p in result.trace.profiles if p.label.startswith("mis-vertex")
        ]
        assert any(p.total_atomics > 0 for p in rounds)

    def test_deterministic_adds_copy_kernels(self, small_social):
        result = MISKernel(small_social).run(
            self.sem(determinism=Determinism.DETERMINISTIC)
        )
        labels = [p.label for p in result.trace.profiles]
        assert "double-buffer refresh" in labels

    def test_edge_based_two_phases_per_round(self, small_social):
        result = MISKernel(small_social).run(self.sem(iteration=Iteration.EDGE))
        labels = [p.label for p in result.trace.profiles]
        assert labels.count("mis-edge") == labels.count("mis-join")
        assert result.trace.iterations == labels.count("mis-join")


class CountingIndex(np.ndarray):
    """An array that counts the elements its fancy indexing gathers."""

    gathered = 0

    def __getitem__(self, index):
        out = np.asarray(super().__getitem__(index))
        if isinstance(index, np.ndarray):
            CountingIndex.gathered += index.size
        return out


class TestScanGathers:
    def test_gathered_slots_track_recorded_trips(self, monkeypatch):
        """The scan stops reading where the simulated threads stop: over the
        vertex-based variants on the LiveJournal stand-in it gathers at most
        twice the trips it records (a full scan gathers about 4.5x)."""
        graph = load_dataset("soc-LiveJournal1", "tiny")
        scan = MISKernel._scan
        recorded = []

        def counting_scan(self, read, active):
            plain = self._dst
            self._dst = plain.view(CountingIndex)
            try:
                trips, became_in, became_out = scan(self, read, active)
            finally:
                self._dst = plain
            recorded.append(int(trips.sum()))
            return trips, became_in, became_out

        monkeypatch.setattr(MISKernel, "_scan", counting_scan)
        monkeypatch.setattr(CountingIndex, "gathered", 0)
        keys = {
            s.semantic_key()
            for s in all_semantics()
            if s.iteration is Iteration.VERTEX
        }
        assert len(keys) == 8
        for key in keys:
            MISKernel(graph).run(key)
        assert sum(recorded) > 0
        assert CountingIndex.gathered <= 2 * sum(recorded)
