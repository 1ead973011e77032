"""One fresh process of a benchmark run: a set-up or the timed phase.

    python3 perfbench/child.py {setup|measure} WORKLOAD WORKDIR SEED \
        SECONDS TRACE INDEX OUT

Run from the checkout root by ``run.py``.  Writes one JSON object to
OUT.  Imports are timed first and reported as ``import_s``; set-up time
is measured after them.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

T0 = time.perf_counter()
sys.path[:0] = [str(Path.cwd() / "src"), str(Path(__file__).resolve().parent)]

import hostref  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - T0

SETUPS = {
    "sweep-cold": workloads.sweep_cold_setup,
    "study-warm": workloads.study_warm_setup,
    "serve-open": workloads.serve_setup,
    "analyze-suite": workloads.analyze_setup,
}
#: Untimed steps before a set-up.
PREPARES = {"analyze-suite": workloads.analyze_prepare}
OPS = {
    "sweep-cold": workloads.sweep_cold_op,
    "study-warm": workloads.study_warm_op,
    "analyze-suite": workloads.analyze_op,
}
#: One study-warm operation outlasts a run; two give its median two
#: samples.
MIN_OPS = {"study-warm": 2}


def measure_ops(workload: str, work: Path, seconds: float, trace: bool) -> dict:
    """Repeat the workload's operation for ``seconds``; with ``trace``,
    alternate untraced and traced operations (at least one of each)."""
    op = OPS[workload]
    ops = []
    start = time.perf_counter()
    while True:
        traced = trace and len(ops) % 2 == 1
        layers.ENABLED = traced
        result = op(work, len(ops))
        layers.ENABLED = False
        result["traced"] = traced
        ops.append(result)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(ops) >= max(
            MIN_OPS.get(workload, 1), 2 if trace else 1
        ):
            break
    return {"ops": ops}


def measure_serve(work: Path, seed: int, seconds: float, trace: bool) -> dict:
    env = loadgen.server_env(work, work / "model.json")
    phases = []
    if trace:
        # The same schedule twice: an untraced server, then a traced one.
        arrivals = [loadgen.schedule(seed, seconds / 2) for _ in range(2)]
        for traced, arr in zip((False, True), arrivals):
            env_phase = dict(env)
            env_phase["REPRO_TRACE_CACHE"] = str(
                work / f"serve-traces-{int(traced)}"
            )
            phases.append((traced, arr, loadgen.load_phase(
                env_phase, traced, arr, work / f"hostref-serve-{int(traced)}"
            )))
    else:
        arr = loadgen.schedule(seed, seconds)
        phases.append((False, arr, loadgen.load_phase(
            env, False, arr, work / "hostref-serve-0"
        )))
    out = []
    for traced, arr, raw in phases:
        summary = loadgen.summarize(arr, raw["wall"])
        if raw["exit_code"] != 0:
            summary["errors"].append(f"server exited {raw['exit_code']}")
        summary.update(traced=traced, warm_s=raw["warm_s"],
                       statz_before=raw["statz_before"],
                       statz_after=raw["statz_after"])
        out.append(summary)
    return {"phases": out}


def main(argv) -> int:
    phase, workload, work, seed, seconds, trace, index, out = argv
    work, seed, seconds = Path(work), int(seed), float(seconds)
    trace, index = trace == "1", int(index)
    result = {"import_s": IMPORT_S}
    if trace:
        layers.install()
    try:
        if phase == "measure" and workload == "serve-open":
            # Sampled by a separate process, off the requests' path.
            result.update(measure_serve(work, seed, seconds, trace))
        else:
            with hostref.Sampler(work / f"hostref-{phase}-{index}"):
                if phase == "setup":
                    if workload in PREPARES:
                        PREPARES[workload](work, index)
                    layers.ENABLED = trace
                    t0 = time.perf_counter()
                    SETUPS[workload](work, index)
                    result["setup_s"] = time.perf_counter() - t0
                    layers.ENABLED = False
                else:
                    result.update(measure_ops(workload, work, seconds, trace))
    except workloads.CheckFailed as exc:
        result["check_failed"] = str(exc)
    except Exception:
        result["error"] = traceback.format_exc()
    if trace:
        layers.flush()
    usage = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result["peak_rss_mb"] = usage / 1024.0
    Path(out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
