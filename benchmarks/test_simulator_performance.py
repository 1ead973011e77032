"""Performance benchmarks of the simulator itself.

These are classic pytest-benchmark measurements (multiple rounds) of the
hot paths: semantic kernel execution, device timing of a cached trace, and
the ratio statistics — the costs that bound a full-study sweep.

The sweep-block benchmark at the bottom times one full (algorithm, graph)
block end-to-end under both execution styles — per-spec ``Launcher.run``
calls (the pre-batching sweep body) and the batched
``sweep_block_runs``/``time_matrix`` path — and writes the numbers to
``BENCH_sweep.json`` in the test's temporary directory (the tracked
sweep-performance trajectory is ``BENCH_matrix.json``, recorded by
``tools/perf_smoke.py``).
"""

import json
import time

import pytest

from repro.bench import SweepConfig, sweep_block_runs
from repro.graph import load_dataset
from repro.machine import RTX_3090, THREADRIPPER_2950X, time_matrix
from repro.runtime import Launcher
from repro.styles import Algorithm, Granularity, Model, enumerate_specs

@pytest.fixture(scope="module")
def road():
    return load_dataset("USA-road-d.NY", "tiny")


@pytest.fixture(scope="module")
def social():
    return load_dataset("soc-LiveJournal1", "tiny")


def cuda_spec(alg, index=0):
    return enumerate_specs(alg, Model.CUDA)[index]


def test_bfs_semantic_execution(benchmark, road):
    spec = cuda_spec(Algorithm.BFS)
    sem = spec.semantic_key()

    def run():
        from repro.kernels import BFSKernel

        return BFSKernel(road, 0).run(sem)

    result = benchmark(run)
    assert result.trace.converged


def test_tc_semantic_execution(benchmark, social):
    spec = cuda_spec(Algorithm.TC)
    sem = spec.semantic_key()

    def run():
        from repro.kernels import TriangleCountKernel

        return TriangleCountKernel(social).run(sem)

    result = benchmark(run)
    assert int(result.values[0]) > 0


def test_gpu_trace_timing(benchmark, social):
    launcher = Launcher()
    spec = cuda_spec(Algorithm.SSSP)
    trace = launcher.execute_semantic(spec, social).trace
    warp = spec.with_axis(granularity=Granularity.WARP)

    seconds = benchmark(time_matrix, trace, [warp], [RTX_3090])
    assert seconds[0, 0] > 0


def test_cpu_trace_timing(benchmark, social):
    launcher = Launcher()
    omp = enumerate_specs(Algorithm.SSSP, Model.OPENMP)[0]
    trace = launcher.execute_semantic(omp, social).trace

    seconds = benchmark(time_matrix, trace, [omp], [THREADRIPPER_2950X])
    assert seconds[0, 0] > 0


def test_launcher_cached_run(benchmark, road):
    """A fully cached run (trace + decompositions) is the sweep's unit of
    work for mapping variants — it must stay well under a millisecond."""
    launcher = Launcher()
    spec = cuda_spec(Algorithm.BFS)
    launcher.run(spec, road, RTX_3090)  # warm the caches

    result = benchmark(launcher.run, spec, road, RTX_3090)
    assert result.verified


# ----------------------------------------------------------------------
# Sweep-block benchmark: batched vs per-spec mapping-variant timing
# ----------------------------------------------------------------------
# Semantic kernel execution is identical in both paths (the Launcher
# caches one trace per semantic group either way), so the benchmark warms
# a shared Launcher once and then times only the part the batched engine
# changes: evaluating every mapping variant of the block against the
# cached traces.  PR carries a reduction axis, so variants differing only
# in reduction style share their core-cycle computation in a batch.
BLOCK_CONFIG = SweepConfig(scale="tiny", algorithms=(Algorithm.PR,))
ROUNDS = 7


def _block_per_spec(launcher, graph):
    """The pre-batching sweep body: one Launcher.run (a 1×1 matrix) per
    (spec, device)."""
    runs = []
    for model in BLOCK_CONFIG.models:
        specs = enumerate_specs(BLOCK_CONFIG.algorithms[0], model)
        devices = BLOCK_CONFIG.devices_for(model)
        for spec in specs:
            for device in devices:
                runs.append(launcher.run(spec, graph, device))
    return runs


def _block_batched(launcher, graph):
    """The batched sweep body: one time_matrix pass per trace."""
    runs = []
    for model in BLOCK_CONFIG.models:
        specs = enumerate_specs(BLOCK_CONFIG.algorithms[0], model)
        devices = BLOCK_CONFIG.devices_for(model)
        runs.extend(sweep_block_runs(launcher, specs, graph, devices))
    return runs


def test_sweep_block_batched_vs_per_spec(social, tmp_path):
    """Batched mapping-variant timing must beat the per-spec loop on a
    full (algorithm, graph) block, at workers=1, with identical results.
    The measured numbers are written to BENCH_sweep.json under
    ``tmp_path``."""
    launcher = Launcher()
    per_spec_runs = _block_per_spec(launcher, social)
    batched_runs = _block_batched(launcher, social)
    assert batched_runs == per_spec_runs  # bit-identical, not just close

    per_spec = batched = float("inf")
    for _ in range(ROUNDS):  # interleaved so drift hits both paths alike
        start = time.perf_counter()
        _block_per_spec(launcher, social)
        per_spec = min(per_spec, time.perf_counter() - start)
        start = time.perf_counter()
        _block_batched(launcher, social)
        batched = min(batched, time.perf_counter() - start)
    speedup = per_spec / batched

    payload = {
        "benchmark": "sweep-block PR x soc-LiveJournal1 (tiny), all models/devices",
        "runs_per_block": len(batched_runs),
        "rounds": ROUNDS,
        "per_spec_seconds": round(per_spec, 6),
        "batched_seconds": round(batched, 6),
        "batched_speedup": round(speedup, 3),
    }
    (tmp_path / "BENCH_sweep.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    assert speedup > 1.0, f"batched timing slower than per-spec: {payload}"
