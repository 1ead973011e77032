"""Frozen serial sweep loop.

This is the original in-process exhaustive sweep of
:func:`repro.bench.harness.run_sweep` — one :class:`Launcher` for the
whole sweep, the (algorithm, graph) blocks in order, each block's runs
from :func:`sweep_block_runs` and its traces released after it — kept
verbatim as a test oracle.  The package runs every exhaustive sweep
through :func:`repro.bench.parallel.run_block_outcome`, serial or not;
the identity tests check that its runs, failures and kernel executions
equal this loop's at every worker count.  Do not edit the body: it pins
the sweep's results.

The only changes from the original are the imports and the removed
``config.predict`` delegation: the oracle is the exhaustive loop only.
"""

from typing import Dict, Optional

from repro.bench.harness import (
    StudyResults,
    SweepConfig,
    block_grid,
    sweep_block_runs,
)
from repro.graph.csr import CSRGraph
from repro.graph.datasets import load_all
from repro.runtime.launcher import Launcher
from repro.styles.combos import enumerate_specs


def run_sweep(
    config: SweepConfig = SweepConfig(),
    *,
    launcher: Optional[Launcher] = None,
    graphs: Optional[Dict[str, CSRGraph]] = None,
) -> StudyResults:
    if graphs is None:
        graphs = load_all(config.scale, names=config.graphs)
    launcher = launcher or Launcher(
        verify=config.verify,
        budget=config.budget(),
        trace_store=config.trace_store(),
    )
    results = StudyResults(graphs=dict(graphs))
    # Iterate (algorithm, graph) in the outer loops so the semantic traces
    # of one block are shared across all three programming models and all
    # devices, then released — large worklist traces would otherwise
    # accumulate over the whole sweep.
    for algorithm in config.algorithms:
        specs, devices = block_grid(
            config.models,
            lambda model: enumerate_specs(algorithm, model),
            config.devices_for,
        )
        for graph_key, graph in graphs.items():
            for run in sweep_block_runs(
                launcher, specs, graph, devices, failures=results.failures,
                graph_label=graph_key,
            ):
                results.add(run)
            launcher.release(graph, algorithm)
    results.kernel_executions = launcher.kernel_executions
    return results
