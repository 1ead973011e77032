"""Layer-by-layer benchmark of the style study, the advisor service and
suite analysis.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout (``src/repro`` must be there).  Every
set-up and the timed phase run in fresh child processes
(``child.py``) with every cache pointed into a scratch directory under
``.perfbench_work/`` that is removed afterwards.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``.  A run whose outputs fail a check prints
``"correct": false`` with no metrics and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostref  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("sweep-cold", "study-warm", "serve-open", "analyze-suite")
#: Fresh set-up processes per run (setup_s is their median).  The costly
#: set-ups (a whole store fill, predictor training) run once, to keep all
#: runs of the benchmark inside its time budget.
SETUPS = {"sweep-cold": 3, "study-warm": 1, "serve-open": 1,
          "analyze-suite": 3}
#: Layer metrics that set-up moves (per set-up, added to the timed
#: phase's); every other layer metric describes the timed phase alone.
SETUP_LAYERS = {
    "graph.build_s", "graph.fingerprint_s", "graph.validate_s",
    "predictor.train_s", "codegen.generate_s",
}
#: Every process of a run must have ended by then (seconds).
RUN_LIMIT_S = 175
#: Environment knobs a user may have set that would change what runs.
CLEARED_ENV = (
    "REPRO_FAULTS", "REPRO_FAULTS_IN_WORKER", "REPRO_SWEEP_WORKERS",
    "REPRO_BLOCK_TIMEOUT", "REPRO_WORK_STEALING", "REPRO_SHM",
    "REPRO_SANITIZE", "REPRO_MAX_FOOTPRINT_MB", "REPRO_MAX_SIM_SECONDS",
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env(work: Path, trace: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    env["PYTHONPATH"] = "src"
    env["REPRO_SWEEP_CACHE"] = str(work / "sweeps")
    env["REPRO_TRACE_CACHE"] = str(work / "traces")
    env["REPRO_PREDICTOR"] = "0"
    env["TMPDIR"] = str(work)
    # One thread per process: the only parallelism measured is the
    # supervisor's (or the service's) own worker processes.
    for knob in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[knob] = "1"
    if trace:
        env["PERFBENCH_LAYER_DIR"] = str(work / "layers")
    return env


def run_child(phase, args, work: Path, env: dict, index: int,
              deadline: float) -> dict:
    """Run one child in its own process group; on overrun, kill the group
    (server and workers included) and wait for it."""
    out = work / f"{phase}-{index}.json"
    env = dict(env, PERFBENCH_PHASE=phase)
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), phase, args.workload,
         str(work), str(args.seed), str(args.seconds), str(args.trace),
         str(index), str(out)],
        env=env, stdout=sys.stderr, start_new_session=True,
    )
    try:
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:  # overrun, or this run was stopped
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"{phase} process overran the run's time limit")
        raise
    if proc.returncode != 0 or not out.is_file():
        raise RuntimeError(f"{phase} process exited {proc.returncode}")
    result = json.loads(out.read_text())
    if "error" in result:
        raise RuntimeError(f"{phase} failed:\n{result['error']}")
    return result


def percentile(values, q):
    """Nearest-rank percentile (failed requests enter as ``inf``)."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(round(q * len(ordered) + 0.5)) - 1))
    return ordered[rank]


def end_to_end(workload, setups, measure, work: Path) -> tuple:
    """End-to-end metrics; times are scaled to reference speed by the
    run's host-speed samples (``slow`` > 1: the host was slower)."""
    slow = hostref.speed(work.glob("hostref-*"))
    setup_s = statistics.median(s["setup_s"] for s in setups) / slow
    if workload == "serve-open":
        phase = measure["phases"][0]
        attempted, failed = phase["attempted"], phase["failed"]
        setup_s += phase["warm_s"] / slow  # server boot and cache warm-up
        # Open loop: goodput follows the offered rate, not host speed.
        rate = ops_per_s = phase["goodput_rps"]
        # Cold misses: the requests that run the service's real work.
        p50_s = percentile(phase["per_class"]["miss"], 0.5)
    else:
        ops = [o for o in measure["ops"] if not o["traced"]]
        attempted = sum(o["attempted"] for o in ops)
        failed = sum(o["failed"] for o in ops)
        rate = sum(o["work"] for o in ops) / sum(o["work_s"] for o in ops)
        ops_per_s = rate * slow
        p50_s = statistics.median(o["latency_s"] for o in ops)
    print(f"perfbench: host at {1 / slow:.3f}x reference speed; "
          f"wall-clock ops_per_s {rate:.6g}, op_p50_ms {p50_s * 1e3:.6g}",
          file=sys.stderr)
    op_p50_ms = p50_s * 1000.0 / slow
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s,
        "op_p50_ms": op_p50_ms,
        "ok_frac": 1.0 - failed / attempted,
    }
    return metrics, attempted, failed


def per_layer(workload, setups, measure, work: Path) -> tuple:
    setup_c = layers.merge(work / "layers", "setup")
    measure_c = layers.merge(work / "layers", "measure")
    values = {}
    extra = {}
    if workload == "serve-open":
        untraced, traced = measure["phases"]
        n_ops = 1
        attempted = sum(ph["attempted"] for ph in measure["phases"])
        failed = sum(ph["failed"] for ph in measure["phases"])
        before = traced["statz_before"]
        after = traced["statz_after"]
        for key in ("cache_hits", "predicted", "coalesced", "degraded"):
            extra[f"serve.{key}"] = after["stats"][key] - before["stats"][key]
        for key in ("jobs_run", "attempts_failed"):
            extra[f"serve.{key}"] = (
                after["executor"][key] - before["executor"][key]
            )
        extra["serve.server_p50_ms"] = percentile(traced["server_ms"], 0.5)
        extra["loadgen.late_p95_ms"] = percentile(traced["late"], 0.95) * 1000.0
        extra["loadgen.p95_ms"] = percentile(traced["latencies"], 0.95) * 1000.0
        for kind, lat in traced["per_class"].items():
            if lat:
                extra[f"loadgen.{kind}_p50_ms"] = percentile(lat, 0.5) * 1000.0
        extra["trace.overhead_frac"] = (
            percentile(traced["per_class"]["miss"], 0.5)
            / percentile(untraced["per_class"]["miss"], 0.5) - 1.0
        )
    else:
        ops = measure["ops"]
        traced = [o for o in ops if o["traced"]]
        untraced = [o for o in ops if not o["traced"]]
        n_ops = len(traced)
        attempted = sum(o["attempted"] for o in ops)
        failed = sum(o["failed"] for o in ops)
        for key in traced[0]["extra"]:
            extra[key] = statistics.mean(o["extra"][key] for o in traced)
        extra["trace.overhead_frac"] = (
            statistics.median(o["latency_s"] for o in traced)
            / statistics.median(o["latency_s"] for o in untraced) - 1.0
        )
    for key in set(setup_c) | set(measure_c):
        values[key] = measure_c.get(key, 0.0) / n_ops
        if key in SETUP_LAYERS:
            values[key] += setup_c.get(key, 0.0) / len(setups)
    values["harness.self_s"] = layers.harness_self_s(values)
    values.update(extra)
    imports = [s["import_s"] for s in setups] + [measure["import_s"]]
    values["runtime.import_s"] = statistics.median(imports)
    return values, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Stopped from outside: unwind, so every child group is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return fail("run from the repository root (src/repro not found)")
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found")
    spec = json.loads(spec_path.read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "layers").mkdir(parents=True)
    env = child_env(work, bool(args.trace))
    try:
        setups = [
            run_child("setup", args, work, env, k, deadline)
            for k in range(SETUPS[args.workload])
        ]
        measure = run_child("measure", args, work, env, 0, deadline)
        failed_check = [
            r["check_failed"] for r in setups + [measure] if "check_failed" in r
        ]
        if args.workload == "serve-open":
            for phase in measure.get("phases", []):
                failed_check.extend(phase["errors"])
        if failed_check:
            for message in failed_check:
                print(f"perfbench: check failed: {message}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                              "metrics": {}}))
            return 1
        if args.trace:
            values, attempted, failed = per_layer(
                args.workload, setups, measure, work
            )
        else:
            values, attempted, failed = end_to_end(
                args.workload, setups, measure, work
            )
            peak_kb = max(
                [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
                + [r["peak_rss_mb"] * 1024 for r in setups + [measure]]
            )
            values["peak_rss_mb"] = peak_kb / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".perfbench_work").rmdir()
        except OSError:
            pass
    metrics = {
        m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
