#!/usr/bin/env python
"""Run the style study on your own graph file.

Loads a graph from disk (DIMACS `.gr`, SNAP edge list `.el`/`.txt`/`.wel`,
or Matrix Market `.mtx`; `.gz` accepted), runs every style variant of the
chosen algorithms on it across all four simulated devices, and prints the
winning style per (algorithm, device) — i.e. the paper's methodology
applied to one input.

Run:  python examples/custom_graph_study.py path/to/graph.mtx [algorithms...]
      python examples/custom_graph_study.py road.gr bfs sssp

With no arguments, a small synthetic RMAT graph is written to a temp file
first, so the example is self-contained.
"""

import sys
import tempfile
from pathlib import Path

from repro.bench import SweepConfig, run_sweep
from repro.graph import analyze, load_graph, rmat, write_matrix_market
from repro.styles import Algorithm


def demo_graph() -> Path:
    path = Path(tempfile.gettempdir()) / "repro_demo_rmat.mtx"
    write_matrix_market(rmat(9, 8, seed=5, name="demo-rmat"), path)
    print(f"(no input given: wrote a demo RMAT graph to {path})\n")
    return path


def main() -> None:
    if len(sys.argv) > 1:
        path = Path(sys.argv[1])
        algorithms = tuple(Algorithm(a) for a in sys.argv[2:]) or tuple(Algorithm)
    else:
        path = demo_graph()
        algorithms = (Algorithm.BFS, Algorithm.SSSP, Algorithm.TC)

    graph = load_graph(path)
    props = analyze(graph)
    print(
        f"input: {graph.name} | {props.n_vertices:,} vertices, "
        f"{props.n_edges:,} directed edges, d_avg={props.avg_degree:.1f}, "
        f"d_max={props.max_degree}, diameter~{props.diameter}\n"
    )

    results = run_sweep(
        SweepConfig(algorithms=algorithms), graphs={graph.name: graph}
    )
    print(f"{len(results)} verified runs of {results.n_programs} variants\n")

    print(f"{'algorithm':<10} {'device':<20} {'best GES':>10}  winning style")
    for alg in algorithms:
        for device in ("RTX 3090", "Titan V", "Threadripper 2950X",
                       "Xeon Gold 6226R x2"):
            runs = list(results.select(algorithms=[alg], devices=[device]))
            if not runs:
                continue
            best = max(runs, key=lambda r: r.throughput_ges)
            print(
                f"{alg.value:<10} {device:<20} {best.throughput_ges:>10.4f}  "
                f"{best.spec.label()}"
            )


if __name__ == "__main__":
    main()
