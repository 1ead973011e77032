#!/usr/bin/env python
"""Close the loop: generated real code vs the simulator's prediction.

This example takes two OpenMP style variants of SSSP that the study says
should differ sharply — read-write (plain stores) vs read-modify-write
(min updates, which OpenMP must realize as critical sections) — then:

1. asks the *simulator* which one is faster on the modeled Threadripper;
2. *generates* both as real OpenMP source files (repro.codegen);
3. compiles them with g++ -O3 -fopenmp and runs them on THIS machine
   (each binary self-verifies against its serial reference);
4. compares the real wall-clock ordering with the simulated one.

Needs g++; skips politely if it's missing.

Run:  python examples/generated_code_demo.py
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.codegen import generate_source
from repro.graph import load_dataset, write_edge_list
from repro.machine import THREADRIPPER_2950X
from repro.runtime import Launcher
from repro.styles import (
    Algorithm,
    Driver,
    Flow,
    Model,
    Update,
    enumerate_specs,
)


def pick(update):
    return next(
        s for s in enumerate_specs(Algorithm.SSSP, Model.OPENMP)
        if s.update is update and s.driver is Driver.TOPOLOGY
        and s.flow is Flow.PUSH and s.omp_schedule.value == "default"
        and s.determinism.value == "nondet" and s.iteration.value == "vertex"
    )


def main() -> int:
    if shutil.which("g++") is None:
        print("g++ not found — skipping the compile half of this demo")
        return 0

    rw, rmw = pick(Update.READ_WRITE), pick(Update.READ_MODIFY_WRITE)
    # The default-scale input, not the tiny one: on 300 vertices both
    # binaries finish in about the time it takes to start a process, so
    # the wall-clock ordering would be noise.
    graph = load_dataset("soc-LiveJournal1", scale="default")
    print(f"input: {graph.name} ({graph.n_vertices:,} vertices)\n")

    # 1. The simulator's verdict.
    launcher = Launcher()
    sim = {
        spec: launcher.run(spec, graph, THREADRIPPER_2950X)
        for spec in (rw, rmw)
    }
    ratio_sim = sim[rw].throughput_ges / sim[rmw].throughput_ges
    print("simulated (Threadripper 2950X model):")
    for spec in (rw, rmw):
        print(f"  {spec.update.value:<4} {sim[spec].seconds * 1e3:9.3f} ms"
              f"   {spec.label()}")
    print(f"  -> read-write predicted {ratio_sim:.1f}x faster "
          f"(OpenMP min/max = critical sections)\n")

    # 2-3. Generate, compile, run for real.
    workdir = Path(tempfile.mkdtemp(prefix="repro_demo_"))
    graph_file = workdir / "graph.el"
    write_edge_list(graph, graph_file)
    real = {}
    for spec in (rw, rmw):
        src = workdir / f"{spec.label()}.cpp"
        binary = workdir / f"{spec.label()}.bin"
        src.write_text(generate_source(spec))
        subprocess.run(
            ["g++", "-O3", "-fopenmp", str(src), "-o", str(binary)],
            check=True,
        )
        t0 = time.perf_counter()
        out = subprocess.run(
            [str(binary), str(graph_file), "0"],
            capture_output=True, text=True, check=True,
        )
        real[spec] = time.perf_counter() - t0
        assert "verified OK" in out.stdout, out.stdout

    ratio_real = real[rmw] / real[rw]
    print("real g++ -O3 -fopenmp binaries on this machine:")
    for spec in (rw, rmw):
        print(f"  {spec.update.value:<4} {real[spec] * 1e3:9.1f} ms wall"
              f"   (verified OK)")
    print(f"  -> read-write measured {ratio_real:.1f}x faster")

    agree = (ratio_sim > 1) == (ratio_real > 1)
    print(
        "\nsimulator and real hardware "
        + ("AGREE on the ordering" if agree else "DISAGREE — file a bug!")
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
