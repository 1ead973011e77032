"""Calibration helper: run the full sweep once, pickle it, and print the
medians behind every figure of the paper so cost-model changes can be
checked quickly.

Usage:
    python tools/calibrate.py --fresh   # re-run the sweep
    python tools/calibrate.py           # reuse /tmp/repro_sweep.pkl
"""

import pickle
import sys
import time

import numpy as np

from repro.bench.harness import SweepConfig, run_sweep
from repro.bench.ratios import driver_ratios, ratios_by_algorithm, throughputs_by_option
from repro.styles import (
    Algorithm,
    AtomicFlavor,
    CppSchedule,
    Determinism,
    Dup,
    Flow,
    Granularity,
    Iteration,
    Model,
    OmpSchedule,
    Persistence,
    Update,
)

CACHE = "/tmp/repro_sweep.pkl"


def med(x):
    return float(np.median(x)) if len(x) else float("nan")


def get_results(fresh: bool):
    if not fresh:
        try:
            with open(CACHE, "rb") as fh:
                return pickle.load(fh)
        except (OSError, pickle.PickleError):
            pass
    t0 = time.time()
    res = run_sweep(SweepConfig())
    print(f"sweep: {time.time() - t0:.0f}s, {len(res)} runs")
    res.graphs = {}  # graphs don't pickle small; drop
    with open(CACHE, "wb") as fh:
        pickle.dump(res, fh)
    return res


def main():
    res = get_results("--fresh" in sys.argv)

    print("\n== Fig 1: Atomic/CudaAtomic (want ~10 on 3090, ~100 on TitanV, TC low)")
    for dev in ("RTX 3090", "Titan V"):
        by = ratios_by_algorithm(res, "atomic_flavor", AtomicFlavor.ATOMIC, AtomicFlavor.CUDA_ATOMIC, devices=[dev])
        print(f"  {dev}:", {a.value: round(med(v), 1) for a, v in by.items()})

    print("\n== Fig 2: vertex/edge (GPU ~1 except MIS>>1, TC<1; CPU >1)")
    for label, models in [("CUDA", [Model.CUDA]), ("OMP+CPP", [Model.OPENMP, Model.CPP_THREADS])]:
        by = ratios_by_algorithm(res, "iteration", Iteration.VERTEX, Iteration.EDGE, models=models)
        print(f"  {label}:", {a.value: round(med(v), 2) for a, v in by.items()})
    # Fig 2c: thread-level TC only
    by = ratios_by_algorithm(res, "iteration", Iteration.VERTEX, Iteration.EDGE,
                             models=[Model.CUDA], algorithms=[Algorithm.TC])
    # need granularity filter: do it manually
    vals = []
    for run in res.select(models=[Model.CUDA], algorithms=[Algorithm.TC]):
        if run.spec.granularity is not Granularity.THREAD:
            continue
        if run.spec.iteration is not Iteration.VERTEX:
            continue
        p = res.get(run.spec.with_axis(iteration=Iteration.EDGE), run.device, run.graph)
        if p:
            vals.append(run.throughput_ges / p.throughput_ges)
    print("  thread-TC vertex/edge (want <1):", round(med(vals), 2), f"n={len(vals)}")

    print("\n== Figs 3/4: topo/data (GPU<1, OMP<1 exc MIS, C++>1)")
    for dup in (Dup.DUP, Dup.NODUP):
        for label, models in [("CUDA", [Model.CUDA]), ("OMP", [Model.OPENMP]), ("CPP", [Model.CPP_THREADS])]:
            by = driver_ratios(res, dup, models=models)
            print(f"  {dup.value:5s} {label}:", {a.value: round(med(v), 2) for a, v in by.items()})

    print("\n== Fig 5: push/pull (>1 except PR ~slightly<1)")
    for label, models in [("CUDA", [Model.CUDA]), ("OMP", [Model.OPENMP]), ("CPP", [Model.CPP_THREADS])]:
        by = ratios_by_algorithm(res, "flow", Flow.PUSH, Flow.PULL, models=models)
        print(f"  {label}:", {a.value: round(med(v), 2) for a, v in by.items()})

    print("\n== Fig 6: rw/rmw (>=1; up to 1000x on CPU)")
    for label, models in [("CUDA", [Model.CUDA]), ("OMP", [Model.OPENMP]), ("CPP", [Model.CPP_THREADS])]:
        by = ratios_by_algorithm(res, "update", Update.READ_WRITE, Update.READ_MODIFY_WRITE, models=models)
        stats = {a.value: (round(med(v), 2), round(float(np.max(v)), 1)) for a, v in by.items()}
        print(f"  {label} (med,max):", stats)

    print("\n== Fig 7: det/nondet (<1 except PR)")
    for label, models in [("CUDA", [Model.CUDA]), ("OMP", [Model.OPENMP]), ("CPP", [Model.CPP_THREADS])]:
        by = ratios_by_algorithm(res, "determinism", Determinism.DETERMINISTIC, Determinism.NON_DETERMINISTIC, models=models)
        print(f"  {label}:", {a.value: round(med(v), 2) for a, v in by.items()})

    print("\n== Fig 8: persistent/non-persistent (~1)")
    by = ratios_by_algorithm(res, "persistence", Persistence.PERSISTENT, Persistence.NON_PERSISTENT, models=[Model.CUDA])
    print("  CUDA:", {a.value: round(med(v), 2) for a, v in by.items()})

    print("\n== Fig 9: granularity by graph (thread wins road, warp wins soc)")
    for gname in ("USA-road-d.NY", "soc-LiveJournal1"):
        th = throughputs_by_option(res, "granularity", models=[Model.CUDA], graphs=[gname], devices=["RTX 3090"])
        print(f"  {gname}:", {g.value: round(med(v), 4) for g, v in th.items()})

    print("\n== Fig 10: GPU reductions (reduction fastest, block slowest; TC > PR)")
    for alg in (Algorithm.PR, Algorithm.TC):
        th = throughputs_by_option(res, "gpu_reduction", models=[Model.CUDA], algorithms=[alg])
        print(f"  {alg.value}:", {g.value: round(med(v), 4) for g, v in th.items()})

    print("\n== Fig 11: CPU reductions (clause fastest, critical slowest; TC > PR)")
    for alg in (Algorithm.PR, Algorithm.TC):
        th = throughputs_by_option(res, "cpu_reduction", models=[Model.OPENMP, Model.CPP_THREADS], algorithms=[alg])
        print(f"  {alg.value}:", {g.value: round(med(v), 4) for g, v in th.items()})

    print("\n== Fig 12: OMP default/dynamic (>=1 mostly; MIS always >1)")
    by = ratios_by_algorithm(res, "omp_schedule", OmpSchedule.DEFAULT, OmpSchedule.DYNAMIC, models=[Model.OPENMP])
    print("  OMP:", {a.value: round(med(v), 2) for a, v in by.items()})

    print("\n== Fig 13: C++ blocked/cyclic (PR>1, TC<1, others ~1)")
    by = ratios_by_algorithm(res, "cpp_schedule", CppSchedule.BLOCKED, CppSchedule.CYCLIC, models=[Model.CPP_THREADS])
    print("  CPP:", {a.value: round(med(v), 2) for a, v in by.items()})


if __name__ == "__main__":
    main()
