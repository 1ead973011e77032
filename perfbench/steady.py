"""Steadiness report: run workloads repeatedly and compare each
end-to-end metric's spread with its bound in ``BENCHMARK.json``.

    python3 perfbench/steady.py [--workloads W ...] [--json OUT]
    python3 perfbench/steady.py --compare A B

Run from the repository root.  Each workload runs ``RUNS`` times, each a
fresh ``perfbench/run.py --trace 0`` of ``run_seconds`` (from
``BENCHMARK.json``) with its own seed, ``1`` to ``RUNS``.  For every
metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``), the spread (Q3 - Q1) / median,
and the bound; ``steady`` means spread < bound / 3, ``ok`` means
spread <= bound.  To check that two sets agree, save each with
``--json`` and compare them with ``--compare A B``: every median of the
second set must be within the bound of the first's, in either direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
    for line in proc.stderr.splitlines():
        if line.startswith("perfbench: host"):
            print(f"{workload} seed {seed}: {line[11:]}", file=sys.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    spread = (q3 - q1) / median if median else float("inf")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread}


def report(table: dict, spec: dict) -> bool:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload, runs in table.items():
        print(f"{workload} ({len(runs)} runs)")
        for name, bound in bounds.items():
            s = summarize([r[name] for r in runs])
            verdict = (
                "steady" if s["spread"] < bound / 3
                else "ok" if s["spread"] <= bound
                else "NOISY"
            )
            steady &= verdict != "NOISY"
            print(f"  {name:<12} median {s['median']:<12.5g} "
                  f"q1 {s['q1']:<12.5g} q3 {s['q3']:<12.5g} "
                  f"spread {s['spread']:.4f}  bound {bound}  {verdict}")
    return steady


def compare(a: dict, b: dict, spec: dict) -> bool:
    """Every median of the second set within the bound of the first's."""
    agree = True
    for workload in a:
        for m in spec["end_to_end"]:
            first = statistics.median(r[m["name"]] for r in a[workload])
            second = statistics.median(r[m["name"]] for r in b[workload])
            moved = (second - first) / first
            ok = abs(moved) <= m["bound"]
            agree &= ok
            print(f"{workload:<14} {m['name']:<12} {first:<12.5g} "
                  f"{second:<12.5g} moved {moved:+.4f} (bound {m['bound']})"
                  f" {'ok' if ok else 'DISAGREE'}")
    return agree


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--json", type=Path, help="save the raw runs here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two saved --json files and exit")
    args = parser.parse_args(argv)

    if args.compare:
        a, b = (json.loads(p.read_text()) for p in args.compare)
        return 0 if compare(a, b, spec) else 1
    table = {}
    for workload in args.workloads:
        table[workload] = []
        for seed in range(1, RUNS + 1):
            table[workload].append(
                run_once(workload, seed, spec["run_seconds"])
            )
            print(f"{workload} run {seed}/{RUNS}: {table[workload][-1]}",
                  file=sys.stderr, flush=True)
    if args.json:
        args.json.write_text(json.dumps(table, indent=1))
    return 0 if report(table, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
