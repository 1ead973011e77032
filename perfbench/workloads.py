"""The benchmark's workloads: set-up, one timed operation, output checks.

Runs inside the child processes of :mod:`run` (``child.py``), with
``src/`` on ``sys.path``.  Every workload goes through the entry points a
user calls: ``run_sweep_parallel``, the ``report`` / ``guidelines`` /
``storage`` functions, a ``repro serve`` subprocess (see ``loadgen.py``)
and ``lint_suite``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from collections import Counter
from pathlib import Path

import repro.analysis
import repro.analysis.ir
import repro.bench.guidelines
import repro.bench.parallel
import repro.bench.report as report
import repro.bench.storage
import repro.codegen.suite
from repro.graph.datasets import load_dataset
from repro.graph.properties import analyze
from repro.graph.validate import GraphValidator
from repro.bench import StylePredictor, SweepConfig, mine_results, run_sweep
from repro.styles import Algorithm, Dup, Model

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

#: sweep-cold grid: a power-law and a high-diameter input, the three
#: algorithms whose cold default-scale blocks fit a 10-second run.
COLD_GRAPHS = ("soc-LiveJournal1", "USA-road-d.NY")
COLD_CONFIG = SweepConfig(
    algorithms=(Algorithm.MIS, Algorithm.PR, Algorithm.TC), graphs=COLD_GRAPHS
)
#: study-warm grid: the full tiny-scale study.
STUDY_CONFIG = SweepConfig(scale="tiny")
#: sweep-cold's supervisor, and the study-warm store fill.
SWEEP_WORKERS = 2


class CheckFailed(AssertionError):
    """An output of the program differs from the recorded seed output."""


def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def expect(label: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{label}: got {got!r}, expected {want!r}")


def results_digest(results) -> str:
    """SHA-256 over every run (floats by ``repr``) and failure."""
    h = hashlib.sha256()
    for run in results.runs:
        h.update(
            f"{run.spec.label()}|{run.graph}|{run.device}|{run.seconds!r}|"
            f"{run.throughput_ges!r}|{run.iterations}|{run.launches}|"
            f"{run.verified}|{run.predicted}\n".encode()
        )
    for failure in results.failures:
        h.update(f"F|{failure!r}\n".encode())
    return h.hexdigest()


def render_all(results) -> str:
    """Every table, every figure and the §5.16 guidelines, rendered as
    ``repro table N`` / ``repro figure N`` / ``repro guidelines`` do."""
    props = {name: analyze(g) for name, g in results.graphs.items()}
    out = [
        report.render_table1(),
        report.render_table2(),
        report.render_table3(),
        report.render_table4(props),
        report.render_table5(props),
        report.render_table6(results),
    ]
    for figure in report.FIGURE_AXES:
        out.append(report.render_ratio_figure(results, figure))
    for dup in (Dup.DUP, Dup.NODUP):
        for model in Model:
            out.append(report.render_driver_figure(results, dup, model))
    for gname in ("USA-road-d.NY", "soc-LiveJournal1"):
        out.append(report.render_throughput_figure(
            results, "granularity",
            title=f"Figure 9: granularity throughputs on {gname} (RTX 3090)",
            models=[Model.CUDA], graphs=[gname], devices=["RTX 3090"],
        ))
    for alg in (Algorithm.PR, Algorithm.TC):
        out.append(report.render_throughput_figure(
            results, "gpu_reduction",
            title=f"Figure 10: GPU reduction styles ({alg.value})",
            models=[Model.CUDA], algorithms=[alg],
        ))
        out.append(report.render_throughput_figure(
            results, "cpu_reduction",
            title=f"Figure 11: CPU reduction styles ({alg.value})",
            models=[Model.OPENMP, Model.CPP_THREADS], algorithms=[alg],
        ))
    out.append(report.render_figure14(results))
    out.append(report.render_figure15(results))
    out.append(report.render_correlations(results))
    out.append(report.render_figure16(results))
    for guideline in repro.bench.guidelines.derive_guidelines(results):
        out.append(guideline.render())
    return "\n".join(out)


class SweepTimer:
    """Progress callback of ``run_sweep_parallel``: block completion times,
    for the supervisor's tail idle share."""

    def __init__(self):
        self.start = time.perf_counter()
        self.done = []
        self.total = 0

    def __call__(self, done, total, block):
        self.done.append(time.perf_counter())
        self.total = total

    def tail_idle_frac(self, workers: int, end: float) -> float:
        """Worker time idle after the last block was handed out, as a
        share of workers x sweep wall time."""
        c = self.done
        if workers < 2 or len(c) < workers:
            return 0.0
        idle = sum(c[-1] - c[-1 - k] for k in range(1, workers))
        return idle / (workers * (end - self.start))


def _sweep(config, store: Path, workers: int = SWEEP_WORKERS):
    os.environ["REPRO_TRACE_CACHE"] = str(store)
    timer = SweepTimer()
    results = repro.bench.parallel.run_sweep_parallel(
        config, workers=workers, progress=timer
    )
    end = time.perf_counter()
    workers = repro.bench.parallel.resolve_workers(workers, timer.total)
    extra = {
        "parallel.workers": workers,
        "parallel.blocks": timer.total,
        "parallel.tail_idle_frac": timer.tail_idle_frac(workers, end),
    }
    return results, end - timer.start, extra


# ----------------------------------------------------------------------
# sweep-cold
# ----------------------------------------------------------------------
def sweep_cold_setup(work: Path, index: int) -> None:
    """Build, validate and fingerprint the inputs the sweep will use."""
    validator = GraphValidator()
    for name in COLD_GRAPHS:
        graph = load_dataset(name, "default")
        validator.check(graph)
        graph.fingerprint()


def sweep_cold_op(work: Path, index: int) -> dict:
    store = work / f"cold-traces-{index}"
    shutil.rmtree(store, ignore_errors=True)
    results, seconds, extra = _sweep(COLD_CONFIG, store)
    shutil.rmtree(store, ignore_errors=True)
    want = golden()["sweep-cold"]
    expect("sweep-cold results digest", results_digest(results), want["digest"])
    expect("sweep-cold kernel executions", results.kernel_executions,
           want["kernel_executions"])
    return {
        "latency_s": seconds, "work": len(results), "work_s": seconds,
        "attempted": len(results) + len(results.failures),
        "failed": len(results.failures), "extra": extra,
    }


# ----------------------------------------------------------------------
# study-warm
# ----------------------------------------------------------------------
def study_warm_setup(work: Path, index: int) -> None:
    """Fill a fresh trace store with the tiny grid's semantic traces."""
    store = work / "study-traces"
    shutil.rmtree(store, ignore_errors=True)
    results, _, _ = _sweep(STUDY_CONFIG, store)
    expect("study fill kernel executions", results.kernel_executions,
           golden()["study-warm"]["fill_kernel_executions"])


def study_warm_op(work: Path, index: int) -> dict:
    t0 = time.perf_counter()
    # In process: the supervisor is sweep-cold's subject, not this one's.
    results, sweep_s, extra = _sweep(
        STUDY_CONFIG, work / "study-traces", workers=1
    )
    text = render_all(results)
    study_s = time.perf_counter() - t0
    path = work / f"study-{index}.pkl"
    repro.bench.storage.save_results(results, path, scale="tiny")
    loaded = repro.bench.storage.load_results(path)
    extra["storage.bytes"] = path.stat().st_size
    path.unlink()
    want = golden()["study-warm"]
    digest = results_digest(results)
    expect("study-warm results digest", digest, want["digest"])
    expect("study-warm kernel executions", results.kernel_executions, 0)
    expect("study-warm report digest",
           hashlib.sha256(text.encode()).hexdigest(), want["report_digest"])
    expect("study-warm save/load round trip", results_digest(loaded), digest)
    return {
        "latency_s": study_s, "work": len(results), "work_s": sweep_s,
        "attempted": len(results) + len(results.failures),
        "failed": len(results.failures), "extra": extra,
    }


# ----------------------------------------------------------------------
# serve-open (the timed phase is in loadgen.py)
# ----------------------------------------------------------------------
def serve_setup(work: Path, index: int) -> None:
    """Train the predictor artifact the service will answer from."""
    os.environ["REPRO_TRACE_CACHE"] = str(work / f"train-traces-{index}")
    train = run_sweep(SweepConfig(scale="tiny", algorithms=(Algorithm.BFS,)))
    StylePredictor.train(mine_results(train), seed=0, rounds=100).save(
        work / "model.json"
    )


# ----------------------------------------------------------------------
# analyze-suite
# ----------------------------------------------------------------------
def analyze_prepare(work: Path, index: int) -> None:
    """Untimed: make sure a suite exists for the set-up to regenerate.

    The set-up rewrites an existing suite in place.  On the 2-core ext4
    virtual machine the benchmark was sized on, creating 3396 files soon
    after deleting as many costs 0.8-2.2 s of kernel time that climbs from
    run to run (``os.sync()`` does not settle it); rewriting them costs
    0.2-0.4 s.
    """
    suite = work / "suite"
    if not suite.exists():
        repro.codegen.suite.generate_suite(suite, data_bits=(32, 64))
    os.sync()


def analyze_setup(work: Path, index: int) -> None:
    """Regenerate the full suite, both bit widths, over the last one."""
    repro.codegen.suite.generate_suite(work / "suite", data_bits=(32, 64))


def analyze_op(work: Path, index: int) -> dict:
    suite = work / "suite"  # the last set-up's suite
    parse = repro.analysis.ir.parse_source
    while not hasattr(parse, "cache_clear"):  # unwrap the layer shim
        parse = parse.__wrapped__
    parse.cache_clear()
    t0 = time.perf_counter()
    result = repro.analysis.lint_suite(suite, ir=True, jobs=1)
    seconds = time.perf_counter() - t0
    want = golden()["analyze-suite"]
    findings = Counter(
        f"{f.rule}/{f.severity.name}" for f in result.findings
    )
    expect("analyze-suite files checked", result.checked, want["files"])
    expect("analyze-suite findings", dict(sorted(findings.items())),
           want["findings"])
    expect("analyze-suite ok", result.ok, True)
    return {
        "latency_s": seconds, "work": result.checked, "work_s": seconds,
        "attempted": result.checked, "failed": 0,
        "extra": {"analysis.files": result.checked},
    }
