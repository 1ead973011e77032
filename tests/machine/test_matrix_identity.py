"""Bit-identity of the vectorized variant-matrix timing path.

The vectorized pipeline — :class:`ProfileMatrix` counters, stacked
cross-step decompositions (:func:`stack_decompositions`), the batched
``*_batch`` model methods, and :func:`time_matrix` — must reproduce the
frozen scalar walk of :mod:`tests.machine.scalar_oracle` *bit for bit*:
the analysis layer compares and ranks these floats, so even one ULP of
drift could flip a paper figure.
Every assertion here is ``==``, never ``approx``.
"""

import numpy as np
import pytest

from repro.graph import load_dataset
from repro.machine import (
    DEVICES,
    RTX_3090,
    THREADRIPPER_2950X,
    CPUModel,
    ExecutionTrace,
    GPUModel,
    IterationProfile,
    time_matrix,
)
from repro.machine.scheduling import UnitDecomposition, stack_decompositions
from repro.runtime import Launcher
from repro.styles import Algorithm, Model, enumerate_specs
from tests.machine import scalar_oracle
from tests.machine.scalar_oracle import unit_times

ALL_DEVICES = list(DEVICES.values())


def semantic_groups(algorithm, model):
    groups = {}
    for spec in enumerate_specs(algorithm, model):
        groups.setdefault(spec.semantic_key(), []).append(spec)
    return list(groups.values())


def scalar_cell(trace, spec, device):
    return scalar_oracle.time_trace(trace, spec, device)


class TestFullMatrixIdentity:
    """time_matrix == the scalar oracle over whole device matrices."""

    @pytest.mark.parametrize(
        "algorithm,graph_name",
        [
            (Algorithm.BFS, "USA-road-d.NY"),
            (Algorithm.PR, "soc-LiveJournal1"),
            (Algorithm.TC, "soc-LiveJournal1"),
        ],
    )
    def test_matrix_matches_scalar(self, algorithm, graph_name):
        graph = load_dataset(graph_name, "tiny")
        launcher = Launcher()
        for model in Model:
            for group in semantic_groups(algorithm, model):
                trace = launcher.execute_semantic(group[0], graph).trace
                matrix = time_matrix(trace, group, ALL_DEVICES)
                assert matrix.shape == (len(group), len(ALL_DEVICES))
                for i, spec in enumerate(group):
                    for j, device in enumerate(ALL_DEVICES):
                        cell = matrix[i, j]
                        if spec.model.is_gpu != hasattr(device, "sm_count"):
                            assert np.isnan(cell)
                        else:
                            assert cell == scalar_cell(trace, spec, device)

    def test_one_style_matrix_matches_scalar(self):
        """A 1×1 matrix (what ``Launcher.run`` times) must also sum its
        steps in launch order: a lone style column must not fall into
        numpy's pairwise summation."""
        graph = load_dataset("USA-road-d.NY", "tiny")
        launcher = Launcher()
        for model in Model:
            for spec in enumerate_specs(Algorithm.BFS, model)[:6]:
                trace = launcher.execute_semantic(spec, graph).trace
                assert trace.n_launches >= 8  # long enough to go pairwise
                for device in ALL_DEVICES:
                    if spec.model.is_gpu != hasattr(device, "sm_count"):
                        continue
                    cell = time_matrix(trace, [spec], [device])[0, 0]
                    assert cell == scalar_cell(trace, spec, device)

    def test_mixed_model_styles_interleave(self):
        """GPU and CPU styles of one semantic trace can share a matrix;
        each lands only in its own device columns."""
        graph = load_dataset("USA-road-d.NY", "tiny")
        launcher = Launcher()
        cuda = semantic_groups(Algorithm.BFS, Model.CUDA)[0]
        omp = semantic_groups(Algorithm.BFS, Model.OPENMP)[0]
        trace = launcher.execute_semantic(cuda[0], graph).trace
        styles = [cuda[0], omp[0], cuda[1], omp[1]]
        matrix = time_matrix(trace, styles, ALL_DEVICES)
        for i, spec in enumerate(styles):
            for j, device in enumerate(ALL_DEVICES):
                gpu_device = hasattr(device, "sm_count")
                assert np.isnan(matrix[i, j]) == (
                    spec.model.is_gpu != gpu_device
                )


class TestBatchedEdgeTraces:
    """Synthetic traces that stress the stacked-evaluation corner cases."""

    def _check(self, trace):
        for model_axis, device, mk in (
            (Model.CUDA, RTX_3090, GPUModel),
            (Model.OPENMP, THREADRIPPER_2950X, CPUModel),
        ):
            model = mk(device)
            specs = enumerate_specs(Algorithm.BFS, model_axis)
            batch = model.time_trace_batch(trace, specs)
            assert batch == [scalar_cell(trace, s, device) for s in specs]

    def test_empty_step(self):
        trace = ExecutionTrace(n_vertices=16, n_edges=16)
        trace.add(IterationProfile(n_items=0))
        trace.add(IterationProfile(n_items=0, inner=np.empty(0, np.int64)))
        self._check(trace)

    def test_steps_without_inner_loops(self):
        trace = ExecutionTrace(n_vertices=64, n_edges=64)
        for n in (1, 7, 64):
            trace.add(IterationProfile(n_items=n, shared_stores_base=1.0))
        self._check(trace)

    def test_mixed_lengths_stack_separately(self):
        """Steps with different item counts must not be padded into one
        matrix (padding would change the pairwise reduction tree)."""
        rng = np.random.RandomState(7)
        trace = ExecutionTrace(n_vertices=128, n_edges=512)
        for n in (5, 128, 5, 33, 128):
            trace.add(IterationProfile(
                n_items=n,
                inner=rng.randint(0, 9, size=n).astype(np.int64),
                struct_loads_inner=1.0,
                shared_loads_inner=1.0,
                atomics_inner=0.5,
            ))
        self._check(trace)

    def test_append_invalidates_profile_matrix(self):
        trace = ExecutionTrace(n_vertices=8, n_edges=8)
        trace.add(IterationProfile(n_items=4, shared_stores_base=1.0))
        model = GPUModel(RTX_3090)
        specs = enumerate_specs(Algorithm.BFS, Model.CUDA)[:4]
        before = model.time_trace_batch(trace, specs)
        trace.add(IterationProfile(n_items=8, shared_stores_base=1.0))
        after = model.time_trace_batch(trace, specs)
        assert after == [scalar_cell(trace, s, RTX_3090) for s in specs]
        assert after != before


class TestStackedUnits:
    """stack_decompositions groups equal-shape rows and reproduces each
    row's scalar evaluation exactly."""

    def _decomp(self, rng, n_units, with_base=True, with_trips=True):
        return UnitDecomposition(
            base=rng.rand(n_units) if with_base else None,
            trips_par=rng.rand(n_units) if with_trips else None,
            trips_ser=rng.rand(n_units) if with_trips else None,
            width=1.0,
            n_units=n_units,
            uniform_base=0.0 if with_base else 1.5,
        )

    def test_groups_only_equal_shapes(self):
        rng = np.random.RandomState(3)
        units = [
            self._decomp(rng, 10),
            self._decomp(rng, 20),
            self._decomp(rng, 10),
            self._decomp(rng, 10, with_base=False),
        ]
        stacked = stack_decompositions(units, np.arange(len(units)))
        sizes = sorted(len(s.positions) for s in stacked)
        assert sizes == [1, 1, 2]
        covered = sorted(p for s in stacked for p in s.positions)
        assert covered == [0, 1, 2, 3]

    def test_times_batch_matches_scalar_rows(self):
        rng = np.random.RandomState(11)
        units = [self._decomp(rng, 33) for _ in range(5)]
        stacked = stack_decompositions(units, np.arange(5))
        (su,) = stacked
        alphas = rng.rand(4, 5)
        betas_par = rng.rand(4, 5)
        betas_ser = rng.rand(4, 5)
        totals, longests = su.times_batch(alphas, betas_par, betas_ser)
        for k in range(4):
            for col, pos in enumerate(su.positions):
                total, longest = unit_times(
                    units[pos],
                    alphas[k, col], betas_par[k, col], betas_ser[k, col],
                )
                assert totals[k, col] == total
                assert longests[k, col] == longest

    def test_none_betas_ser_matches_zero_coefficient(self):
        rng = np.random.RandomState(13)
        units = [self._decomp(rng, 17) for _ in range(3)]
        (su,) = stack_decompositions(units, np.arange(3))
        alphas = rng.rand(2, 3)
        betas_par = rng.rand(2, 3)
        with_none = su.times_batch(alphas, betas_par, None)
        for k in range(2):
            for col, pos in enumerate(su.positions):
                total, longest = unit_times(
                    units[pos], alphas[k, col], betas_par[k, col], 0.0
                )
                assert with_none[0][k, col] == total
                assert with_none[1][k, col] == longest
