"""Bit-identity of the vectorized variant-matrix timing path.

The vectorized pipeline — :class:`ProfileMatrix` counters, the
per-trace ragged unit cuts (:mod:`repro.machine.scheduling`), the
batched ``*_batch`` model methods, and :func:`time_matrix` — must
reproduce the frozen scalar walk of :mod:`tests.machine.scalar_oracle`
*bit for bit*: the analysis layer compares and ranks these floats, so
even one ULP of drift could flip a paper figure.
Every assertion here is ``==``, never ``approx``.
"""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph import load_dataset
from repro.machine import (
    DEVICES,
    RTX_3090,
    THREADRIPPER_2950X,
    TITAN_V,
    XEON_GOLD_6226R,
    CPUModel,
    ExecutionTrace,
    GPUModel,
    IterationProfile,
    ProfileMatrix,
    time_matrix,
)
from repro.machine import cpu as cpu_module
from repro.machine import gpu as gpu_module
from repro.machine.scheduling import CHUNK_UNITS, gpu_unit_cut
from repro.runtime import Launcher
from repro.styles import (
    Algorithm,
    AtomicFlavor,
    CppSchedule,
    CpuReduction,
    GpuReduction,
    Granularity,
    Iteration,
    Model,
    OmpSchedule,
    Persistence,
    StyleSpec,
    enumerate_specs,
)
from tests.machine import scalar_oracle

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


# ----------------------------------------------------------------------
# Differential test at the summation boundaries
# ----------------------------------------------------------------------
#: A GPU whose resident grid is smaller than the generated launches, so
#: persistent launches spread several items over each resident slot
#: (96 threads: 3 warps, 1 block of 64).
SMALL_GPU = dataclasses.replace(
    RTX_3090, name="small GPU", block_size=64, resident_threads=96
)
#: A CPU with fewer threads than most generated launches have items.
SMALL_CPU = dataclasses.replace(THREADRIPPER_2950X, name="small CPU", threads=3)
BOUNDARY_DEVICES = [
    RTX_3090, TITAN_V, SMALL_GPU, THREADRIPPER_2950X, XEON_GOLD_6226R,
    SMALL_CPU,
]

#: One style per GPU/CPU mapping context, plus the reduction axes.
BOUNDARY_STYLES = [
    StyleSpec(
        algorithm=Algorithm.PR, model=Model.CUDA, iteration=iteration,
        granularity=gran, persistence=persistence, atomic_flavor=flavor,
        gpu_reduction=red,
    )
    for gran, persistence, flavor, (iteration, red) in itertools.product(
        Granularity, Persistence, AtomicFlavor,
        [(Iteration.VERTEX, None), (Iteration.EDGE, GpuReduction.BLOCK_ADD)],
    )
] + [
    StyleSpec(
        algorithm=Algorithm.PR, model=Model.OPENMP, omp_schedule=sched,
        cpu_reduction=red,
    )
    for sched, red in itertools.product(
        OmpSchedule, [None, CpuReduction.CRITICAL]
    )
] + [
    StyleSpec(
        algorithm=Algorithm.PR, model=Model.CPP_THREADS, cpp_schedule=sched,
        cpu_reduction=CpuReduction.CLAUSE,
    )
    for sched in CppSchedule
]

#: Item counts whose unit counts (one unit per item, per 32-item warp, or
#: per min(slots, items) resident unit) straddle numpy's pairwise-sum
#: edges: below 8 (sequential), 127-129 (the 128-element block) and past
#: 256 (recursive halving).
BOUNDARY_ITEMS = (
    list(range(1, 10)) + [127, 128, 129, 257, 300]
    + [32 * 127, 32 * 128, 32 * 128 + 1, 32 * 257 + 5]
)


@st.composite
def ragged_traces(draw):
    """Traces mixing uniform and arrayful launches with zero-trip items,
    repeated item counts (equal-length groups of several launches) and
    item counts at the summation boundaries."""
    sizes = draw(st.lists(
        st.sampled_from(BOUNDARY_ITEMS), min_size=1, max_size=3
    ))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.RandomState(seed)
    trace = ExecutionTrace(  # L2/L3-resident or not
        n_vertices=int(rng.choice([64, 10**6])),
        n_edges=int(rng.choice([256, 10**7])),
    )
    for _ in range(draw(st.integers(1, 6))):
        n = int(rng.choice(sizes))
        arrayful = draw(st.booleans())
        inner = None
        if arrayful:
            inner = rng.randint(0, int(rng.choice([2, 9, 300])), size=n)
            inner[rng.rand(n) < 0.3] = 0  # zero-trip items
        trace.add(IterationProfile(
            n_items=n,
            inner=inner,
            base_cycles=float(rng.choice([1.0, 2.5])),
            inner_cycles=float(rng.rand() * 4),
            struct_loads_base=float(rng.randint(0, 3)),
            struct_loads_inner=float(rng.randint(0, 3)),
            shared_loads_inner=float(rng.rand()),
            shared_stores_base=float(rng.rand()),
            atomics_inner=float(rng.choice([0.0, 0.5, 1.0])),
            atomic_minmax=bool(rng.rand() < 0.5),
            atomics_same_address_per_item=bool(rng.rand() < 0.5),
            conflict_extra=float(rng.randint(0, 50)),
            max_conflict=int(rng.randint(0, 5)),
            reduction_items=float(rng.choice([0.0, n])),
            barriers_per_item=float(rng.choice([0.0, 1.0])),
        ))
    return trace


def assert_matrix_matches_oracle(trace, styles, devices):
    matrix = time_matrix(trace, styles, devices)
    for i, spec in enumerate(styles):
        for j, device in enumerate(devices):
            if spec.model.is_gpu != hasattr(device, "sm_count"):
                assert np.isnan(matrix[i, j])
            else:
                assert matrix[i, j] == scalar_cell(trace, spec, device), (
                    spec.label(), device.name
                )


class TestRaggedPassBoundaries:
    """Every time_matrix cell of a ragged trace == the scalar oracle, with
    unit segments of every length class numpy sums differently."""

    @given(ragged_traces())
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_matrix_cells_equal_oracle(self, trace):
        assert_matrix_matches_oracle(trace, BOUNDARY_STYLES, BOUNDARY_DEVICES)

    @given(ragged_traces(), st.sampled_from(BOUNDARY_STYLES))
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_one_style_batch_equals_oracle(self, trace, spec):
        """A lone style column takes the single-column step_totals path."""
        assert_matrix_matches_oracle(trace, [spec], BOUNDARY_DEVICES)

    @pytest.mark.parametrize("n_items", [1, 8, 128, 129, 257, 5000])
    def test_groups_of_equal_length_launches(self, n_items):
        """Launches with one unit count sit side by side in the ragged
        pass; each must still sum exactly like its own scalar walk."""
        rng = np.random.RandomState(n_items)
        trace = ExecutionTrace(n_vertices=10**6, n_edges=10**7)
        for _ in range(4):
            trace.add(IterationProfile(
                n_items=n_items,
                inner=rng.randint(0, 40, size=n_items),
                inner_cycles=1.7, struct_loads_inner=1.0,
                atomics_inner=0.5, atomics_same_address_per_item=True,
            ))
        assert_matrix_matches_oracle(trace, BOUNDARY_STYLES, BOUNDARY_DEVICES)


    def test_chunked_pass(self):
        """A trace too large for one chunk is timed chunk by chunk: each
        chunk is at most CHUNK_UNITS units or a single larger launch."""
        rng = np.random.RandomState(5)
        trace = ExecutionTrace(n_vertices=10**6, n_edges=10**7)
        for n_items in [1000 + k for k in range(30)] + [40_000, 50_000]:
            trace.add(IterationProfile(
                n_items=n_items,
                inner=rng.randint(0, 60, size=n_items),
                inner_cycles=1.3, struct_loads_inner=1.0, atomics_inner=0.5,
            ))
        pm = trace.profile_matrix()
        cut = gpu_unit_cut(pm.ragged, Granularity.WARP, 32, None)
        assert len(cut.chunks) == 4
        for first, stop in cut.chunks:
            assert (
                cut.n_units[first:stop].sum() <= CHUNK_UNITS
                or stop == first + 1
            )
        styles = [s for s in BOUNDARY_STYLES if s.atomic_flavor is not
                  AtomicFlavor.CUDA_ATOMIC]
        assert_matrix_matches_oracle(trace, styles, [RTX_3090, SMALL_CPU])


class TestLaunchCountIndependence:
    """The unit geometry is built once per cut for the whole trace, never
    once per launch."""

    @staticmethod
    def _trace(n_launches, sizes=(300, 1, 5, 77, 129, 33, 256, 2, 64, 150)):
        rng = np.random.RandomState(n_launches)
        trace = ExecutionTrace(n_vertices=4096, n_edges=65536)
        for k in range(n_launches):
            n = sizes[k % len(sizes)]
            trace.add(IterationProfile(
                n_items=n,
                inner=rng.randint(0, 30, size=n),
                inner_cycles=1.0, struct_loads_inner=1.0, atomics_inner=1.0,
            ))
        return trace

    @staticmethod
    def _count_builds(monkeypatch, trace, devices):
        """Geometry memo misses and cut builds of one time_matrix pass."""
        counts = {"geometry": 0, "gpu_cut": 0, "cpu_cut": 0}
        real_geometry = ProfileMatrix.geometry

        def geometry(pm, key, builder):
            def counted():
                counts["geometry"] += 1
                return builder()
            return real_geometry(pm, key, counted)

        def counting(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper

        with monkeypatch.context() as m:
            m.setattr(ProfileMatrix, "geometry", geometry)
            m.setattr(gpu_module, "gpu_unit_cut",
                      counting("gpu_cut", gpu_module.gpu_unit_cut))
            m.setattr(cpu_module, "cpu_unit_cut",
                      counting("cpu_cut", cpu_module.cpu_unit_cut))
            time_matrix(trace, BOUNDARY_STYLES, devices)
        return counts

    def test_same_builds_for_10_and_1000_launches(self, monkeypatch):
        few = self._count_builds(
            monkeypatch, self._trace(10), BOUNDARY_DEVICES
        )
        many = self._count_builds(
            monkeypatch, self._trace(1000), BOUNDARY_DEVICES
        )
        assert few == many
        assert few["gpu_cut"] > 0 and few["cpu_cut"] > 0

    def test_devices_share_cuts_they_cannot_tell_apart(self, monkeypatch):
        """Launches below both GPUs' resident grids and both CPUs' thread
        counts cut identically on either device, so timing the second
        device builds no new cut; a device with a smaller resident grid
        (or fewer threads) than the launches does."""
        trace = self._trace(10, sizes=(16, 3, 9, 1))
        counts = [
            self._count_builds(monkeypatch, trace, [device])
            for device in (
                RTX_3090, TITAN_V, SMALL_GPU,
                THREADRIPPER_2950X, XEON_GOLD_6226R, SMALL_CPU,
            )
        ]
        rtx, titan, small_gpu, threadripper, xeon, small_cpu = counts
        assert rtx["gpu_cut"] == len(Granularity) * len(Persistence)
        assert titan["gpu_cut"] == 0
        assert small_gpu["gpu_cut"] > 0
        assert threadripper["cpu_cut"] == len(CppSchedule)
        assert xeon["cpu_cut"] == 0
        assert small_cpu["cpu_cut"] > 0


# ----------------------------------------------------------------------
# Block matrices: many traces share one ProfileMatrix
# ----------------------------------------------------------------------
#: Item counts for block traces: below and above SMALL_GPU's 96 resident
#: threads (and SMALL_CPU's 3), all far below RTX 3090's grid.
BLOCK_ITEMS = [0, 1, 2, 5, 31, 33, 95, 97, 150, 300]


@st.composite
def trace_blocks(draw):
    """Blocks of synthetic traces on one input (cache-resident or not):
    1-step and long (>= 8-step) traces, ``n_items == 0`` steps, traces
    without any ``inner``, launches between the two GPUs' resident
    grids, and per trace either VERTEX or EDGE styles (some timed by a
    single style)."""
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    n_vertices = int(rng.choice([64, 10**6]))
    n_edges = int(rng.choice([256, 10**7]))
    traces, cells = [], []
    for t in range(draw(st.integers(1, 5))):
        trace = ExecutionTrace(n_vertices=n_vertices, n_edges=n_edges)
        n_steps = draw(st.sampled_from([1, 2, 5, 8, 9, 13]))
        arrayful = draw(st.sampled_from(["none", "some", "all"]))
        for _ in range(n_steps):
            n = int(rng.choice(BLOCK_ITEMS))
            inner = None
            if arrayful == "all" or (arrayful == "some" and rng.rand() < 0.5):
                inner = rng.randint(0, int(rng.choice([2, 40])), size=n)
            trace.add(IterationProfile(
                n_items=n,
                inner=inner,
                base_cycles=float(rng.choice([1.0, 3.5])),
                inner_cycles=float(rng.rand() * 3),
                struct_loads_base=float(rng.randint(0, 3)),
                struct_loads_inner=float(rng.randint(0, 2)),
                shared_loads_base=float(rng.rand()),
                shared_stores_inner=float(rng.rand()),
                atomics_base=float(rng.choice([0.0, 1.0])),
                atomics_inner=float(rng.choice([0.0, 0.5])),
                atomic_minmax=bool(rng.rand() < 0.5),
                atomics_same_address_per_item=bool(rng.rand() < 0.3),
                conflict_extra=float(rng.randint(0, 20)),
                max_conflict=int(rng.randint(0, 4)),
                hot_atomics=float(rng.choice([0.0, 1.0])),
                reduction_items=float(rng.choice([0.0, n])),
                barriers_per_item=float(rng.choice([0.0, 1.0])),
            ))
        traces.append(trace)
        iteration = draw(st.sampled_from(list(Iteration)))
        pool = [
            s for s in BOUNDARY_STYLES
            if not s.model.is_gpu or s.iteration is iteration
        ]
        styles = draw(st.lists(
            st.sampled_from(pool), min_size=1, max_size=6, unique=True
        ))
        cells.extend((t, style) for style in styles)
    return traces, cells


def block_of(traces, cells):
    """time_matrix over one block matrix of ``traces``."""
    return time_matrix(ProfileMatrix(traces), cells, BOUNDARY_DEVICES)


class TestBlockMatrix:
    """A block of traces timed together: every cell equals its trace
    timed alone and the scalar oracle, whatever else is in the block."""

    @given(trace_blocks())
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_block_cells_equal_lone_traces_and_oracle(self, block):
        traces, cells = block
        matrix = block_of(traces, cells)
        for t, trace in enumerate(traces):
            rows = [c for c, (owner, _) in enumerate(cells) if owner == t]
            styles = [cells[c][1] for c in rows]
            alone = time_matrix(trace, styles, BOUNDARY_DEVICES)
            np.testing.assert_array_equal(matrix[rows], alone)
            for row, style in zip(rows, styles):
                for j, device in enumerate(BOUNDARY_DEVICES):
                    if style.model.is_gpu != hasattr(device, "sm_count"):
                        assert np.isnan(matrix[row, j])
                    else:
                        assert matrix[row, j] == scalar_cell(
                            trace, style, device
                        ), (t, style.label(), device.name)

    @given(trace_blocks(), st.randoms(use_true_random=False))
    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_trace_order_changes_no_cell(self, block, random):
        traces, cells = block
        order = list(range(len(traces)))
        random.shuffle(order)
        position = {t: k for k, t in enumerate(order)}
        shuffled = block_of(
            [traces[t] for t in order],
            [(position[t], style) for t, style in cells],
        )
        np.testing.assert_array_equal(shuffled, block_of(traces, cells))

    def test_traces_of_different_inputs_are_rejected(self):
        small = ExecutionTrace(n_vertices=8, n_edges=8)
        large = ExecutionTrace(n_vertices=8, n_edges=16)
        with pytest.raises(ValueError, match="one input graph"):
            ProfileMatrix([small, large])

    def test_one_model_call_per_device(self, monkeypatch):
        """A block is timed with one batch call per device, over all of
        its cells of that device's kind."""
        traces = [TestLaunchCountIndependence._trace(n) for n in (3, 4, 5)]
        cells = [(t, style) for t in range(3) for style in BOUNDARY_STYLES]
        calls = []
        for cls in (GPUModel, CPUModel):
            real = cls.time_trace_batch

            def counted(model, block, batch, real=real):
                calls.append((model.spec.name, len(batch)))
                return real(model, block, batch)

            monkeypatch.setattr(cls, "time_trace_batch", counted)
        block_of(traces, cells)
        n_gpu = sum(style.model.is_gpu for style in BOUNDARY_STYLES)
        assert calls == [
            (device.name,
             3 * (n_gpu if hasattr(device, "sm_count")
                  else len(BOUNDARY_STYLES) - n_gpu))
            for device in BOUNDARY_DEVICES
        ]
