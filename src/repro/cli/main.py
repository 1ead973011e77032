"""Command-line interface: ``indigo2py`` / ``python -m repro``.

Subcommands:

* ``datasets``  — print the five inputs' Table 4/5 properties.
* ``specs``     — print the version counts (Table 3) or list variants.
* ``run``       — run one program variant on one input and device.
* ``sweep``     — run the full study sweep and dump throughputs as CSV.
* ``table``     — regenerate one of the paper's tables (1-6).
* ``figure``    — regenerate one of the paper's figures (1-16).
* ``analyze``   — style-conformance linter / trace sanitizer.
* ``serve``     — always-on style-advisor HTTP service.
* ``cache``     — inspect / garbage-collect the persistent trace store.
* ``predictor`` — train / inspect the learned style-performance model.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from ..graph.datasets import dataset_names, load_all, load_dataset
from ..graph.properties import analyze
from ..machine.devices import DEVICES, get_device
from ..styles.axes import Algorithm, Dup, Model
from ..styles.combos import enumerate_specs
from ..runtime.launcher import Launcher

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indigo2py",
        description=(
            "Reproduction of 'Choosing the Best Parallelization and "
            "Implementation Styles for Graph Analytics Codes' (SC '23)"
        ),
    )
    parser.add_argument(
        "--scale",
        default="default",
        choices=("tiny", "default", "full"),
        help="input-graph scale (default: default)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="show the five inputs (Tables 4 and 5)")

    specs = sub.add_parser("specs", help="show the suite's program variants")
    specs.add_argument("--algorithm", choices=[a.value for a in Algorithm])
    specs.add_argument("--model", choices=[m.value for m in Model])
    specs.add_argument("--list", action="store_true", help="list variant labels")

    run = sub.add_parser("run", help="run one program variant")
    run.add_argument("--algorithm", required=True, choices=[a.value for a in Algorithm])
    run.add_argument("--model", required=True, choices=[m.value for m in Model])
    run.add_argument("--graph", required=True, choices=dataset_names())
    run.add_argument("--device", required=True, choices=sorted(DEVICES))
    run.add_argument(
        "--index", type=int, default=0,
        help="variant index within the enumeration (see `specs --list`)",
    )

    sweep = sub.add_parser("sweep", help="run the full sweep, print CSV")
    sweep.add_argument("--algorithm", choices=[a.value for a in Algorithm])
    sweep.add_argument("--model", choices=[m.value for m in Model])
    sweep.add_argument(
        "--predict", action="store_true",
        help="predict-then-verify mode: rank variants with the trained "
             "style predictor, execute only the top-k plus an audit "
             "sample per cell, back-fill the rest as predictions "
             "(takes --workers/--block-timeout/--max-retries like any "
             "sweep; see docs/reproduce.md §3f)",
    )
    sweep.add_argument(
        "--top-k", type=int, default=8, metavar="K",
        help="with --predict: measured variants per (algorithm, model, "
             "graph, device) cell (default: 8)",
    )
    sweep.add_argument(
        "--audit-frac", type=float, default=0.02, metavar="F",
        help="with --predict: fraction of pruned variants re-measured as "
             "a seeded audit sample (default: 0.02)",
    )
    sweep.add_argument(
        "--audit-seed", type=int, default=0, metavar="N",
        help="with --predict: seed for the audit sample (default: 0)",
    )
    sweep.add_argument(
        "--max-groups", type=int, default=None, metavar="N",
        help="with --predict: hard cap on executed semantic groups per "
             "(algorithm, graph) block (default: no cap)",
    )
    sweep.add_argument(
        "--predictor", metavar="PATH", default=None,
        help="with --predict: model artifact to use (default: "
             "$REPRO_PREDICTOR, else the sweep cache's predictor/)",
    )
    _add_workers_flag(sweep)

    table = sub.add_parser("table", help="regenerate a paper table")
    table.add_argument("id", type=int, choices=range(1, 7))
    _add_results_flags(table)

    figure = sub.add_parser("figure", help="regenerate a paper figure")
    figure.add_argument(
        "id",
        help="figure id: 1-16 (e.g. 1, 9; sub-panels print together)",
    )
    _add_results_flags(figure)

    guidelines = sub.add_parser(
        "guidelines",
        help="re-derive the paper's Section 5.16 programming guidelines",
    )
    _add_results_flags(guidelines)

    adv = sub.add_parser(
        "advise",
        help="recommend styles for one input graph (Section 5.16 applied)",
    )
    adv.add_argument("--graph", choices=dataset_names())
    adv.add_argument("--file", help="path to a graph file instead of --graph")

    conv = sub.add_parser(
        "convergence",
        help="show iteration counts per semantic style (Section 2.6 effects)",
    )
    conv.add_argument("--algorithm", choices=[a.value for a in Algorithm])

    trace = sub.add_parser(
        "trace",
        help="show the execution-trace breakdown of one program variant",
    )
    trace.add_argument("--algorithm", required=True, choices=[a.value for a in Algorithm])
    trace.add_argument("--model", required=True, choices=[m.value for m in Model])
    trace.add_argument("--graph", required=True, choices=dataset_names())
    trace.add_argument("--index", type=int, default=0)
    trace.add_argument("--csv", action="store_true", help="dump per-launch CSV")

    gen = sub.add_parser(
        "generate",
        help="write the Indigo2-style generated source suite to a directory",
    )
    gen.add_argument("out_dir", help="output directory for the source files")
    gen.add_argument("--algorithm", choices=[a.value for a in Algorithm])
    gen.add_argument("--model", choices=[m.value for m in Model])
    gen.add_argument(
        "--limit", type=int, default=None,
        help="write at most N variants per (algorithm, model) pair",
    )
    gen.add_argument(
        "--bits", choices=("32", "64", "both"), default="32",
        help="data-type width(s): 32 (paper's evaluated set), 64, or both "
             "(the full Indigo2-style artifact)",
    )

    fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing of the data plane (repro.robustness)",
    )
    fuzz.add_argument(
        "--cases", type=int, default=None,
        help="number of fuzz cases (default 200, or 60 with --smoke)",
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument(
        "--smoke", action="store_true",
        help="CI gate: planted-bug self-test plus a short fuzz run",
    )
    fuzz.add_argument(
        "--self-test", action="store_true",
        help="run only the planted-bug self-test",
    )
    fuzz.add_argument(
        "--manifest", metavar="PATH",
        help="write the replayable failure manifest to PATH",
    )
    fuzz.add_argument(
        "--replay", metavar="PATH",
        help="replay the non-ok entries of a saved manifest",
    )

    ana = sub.add_parser(
        "analyze",
        help="style-conformance linter / trace sanitizer (repro.analysis)",
    )
    ana.add_argument(
        "--suite", metavar="DIR",
        help="lint a generated suite directory (MANIFEST.tsv + sources)",
    )
    ana.add_argument(
        "--strict", action="store_true",
        help="with --suite: require the full enumeration even for "
             "suites generated with --limit",
    )
    ana.add_argument(
        "--ir", action="store_true",
        help="with --suite: also report static races and each axis "
             "where the IR-inferred style disagrees with the manifest "
             "(INFER-*; the CONF-* pass reads the same IR)",
    )
    ana.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="with --suite: worker processes for per-file analysis "
             "(default: all cores; 1 = serial)",
    )
    ana.add_argument(
        "--trace", action="store_true",
        help="execute one variant and sanitize its execution trace",
    )
    ana.add_argument("--algorithm", choices=[a.value for a in Algorithm])
    ana.add_argument("--model", choices=[m.value for m in Model])
    ana.add_argument("--graph", choices=dataset_names())
    ana.add_argument(
        "--index", type=int, default=0,
        help="with --trace: variant index within the enumeration",
    )
    ana.add_argument(
        "--json", metavar="OUT",
        help="also write the findings report as JSON ('-' for stdout)",
    )
    ana.add_argument(
        "--rules", action="store_true",
        help="print the rule catalog and exit",
    )

    serve = sub.add_parser(
        "serve",
        help="run the always-on style-advisor HTTP service (docs/serving.md)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 = pick a free port, printed on boot)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=16, metavar="N",
        help="admission-queue bound; excess requests get HTTP 429",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent sweep worker processes",
    )
    serve.add_argument(
        "--deadline", type=float, default=60.0, metavar="SECONDS",
        help="per-request wall-clock deadline",
    )
    serve.add_argument(
        "--breaker-threshold", type=int, default=3, metavar="N",
        help="consecutive executor failures that trip the circuit breaker",
    )
    serve.add_argument(
        "--breaker-reset", type=float, default=30.0, metavar="SECONDS",
        help="cool-down before the open breaker admits a probe request",
    )
    serve.add_argument(
        "--no-verify", action="store_true",
        help="skip kernel-vs-reference verification in sweeps",
    )
    serve.add_argument(
        "--no-trace-cache", action="store_true",
        help="bypass the persistent semantic-trace store",
    )
    serve.add_argument(
        "--no-predict", action="store_true",
        help="never answer cold misses from the style predictor; every "
             "miss runs a real sweep",
    )

    cache = sub.add_parser(
        "cache",
        help="inspect or garbage-collect the persistent trace store",
    )
    cache.add_argument(
        "action", choices=("stats", "gc", "verify", "export"),
        help="stats: summarize the store; gc: drop stale entries "
             "(kernel code changed) and the quarantine; verify: fully "
             "decode every entry, quarantining the corrupt ones; "
             "export: mine the store into a predictor training set "
             "(CSV/JSONL)",
    )
    cache.add_argument(
        "--dir", metavar="PATH", default=None,
        help="trace-store directory (default: $REPRO_TRACE_CACHE, else "
             "~/.cache/repro/traces)",
    )
    cache.add_argument(
        "--all", action="store_true",
        help="with gc: clear the whole store, not just stale entries",
    )
    cache.add_argument(
        "--format", choices=("csv", "jsonl"), default="csv",
        help="with export: output format (default: csv)",
    )
    cache.add_argument(
        "--out", metavar="PATH", default=None,
        help="with export: write to PATH instead of stdout",
    )
    cache.add_argument(
        "--results", metavar="PATH", action="append", default=None,
        help="with export: also mine a saved StudyResults file "
             "(repeatable)",
    )
    cache.add_argument(
        "--no-features", action="store_true",
        help="with export: omit the feature columns (compact view: "
             "identity columns plus measured seconds only)",
    )

    pred = sub.add_parser(
        "predictor",
        help="train or inspect the learned style-performance model",
    )
    pred_sub = pred.add_subparsers(dest="pred_action", required=True)
    train = pred_sub.add_parser(
        "train",
        help="fit the boosted-stumps model and save the artifact",
    )
    train.add_argument(
        "--results", metavar="PATH", action="append", default=None,
        help="mine a saved StudyResults file (repeatable)",
    )
    train.add_argument(
        "--from-store", action="store_true",
        help="mine the persistent trace store "
             "(free rows: stored traces are re-timed, never re-executed)",
    )
    train.add_argument(
        "--algorithm", choices=[a.value for a in Algorithm],
        help="without --results/--from-store: restrict the training sweep",
    )
    train.add_argument(
        "--model", choices=[m.value for m in Model],
        help="without --results/--from-store: restrict the training sweep",
    )
    train.add_argument("--rounds", type=int, default=300, metavar="N",
                       help="boosting rounds (default: 300)")
    train.add_argument("--seed", type=int, default=0, metavar="N",
                       help="training seed (default: 0)")
    train.add_argument(
        "--out", metavar="PATH", default=None,
        help="artifact path (default: the sweep cache's "
             "predictor/model-v1.json)",
    )
    info = pred_sub.add_parser("info", help="print artifact metadata")
    info.add_argument(
        "--path", metavar="PATH", default=None,
        help="artifact to inspect (default: $REPRO_PREDICTOR, else the "
             "default artifact path)",
    )
    return parser


def _add_workers_flag(sub) -> None:
    sub.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker processes for the sweep "
             "(default: all cores, at most one per block; 1 = serial)",
    )
    sub.add_argument(
        "--block-timeout", type=float, default=None, metavar="SECONDS",
        help="kill and retry any (algorithm, graph) block that runs longer "
             "than this (default: no timeout)",
    )
    sub.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="worker retries per failed block before the in-process "
             "fallback and quarantine (default: 2)",
    )
    sub.add_argument(
        "--no-trace-cache", action="store_true",
        help="bypass the persistent semantic-trace store and re-execute "
             "every kernel (see `cache` for inspecting the store)",
    )


def _add_results_flags(sub) -> None:
    _add_workers_flag(sub)
    sub.add_argument(
        "--results", metavar="PATH", default=None,
        help="results file to use: loaded if present, otherwise the sweep "
             "runs once and is saved there",
    )
    sub.add_argument(
        "--no-cache", action="store_true",
        help="bypass the content-addressed sweep cache and re-run",
    )


def _cmd_datasets(args) -> int:
    from ..bench.report import render_table4, render_table5

    graphs = load_all(args.scale)
    props = {name: analyze(g) for name, g in graphs.items()}
    print(render_table4(props))
    print()
    print(render_table5(props))
    return 0


def _cmd_specs(args) -> int:
    algorithms = (
        [Algorithm(args.algorithm)] if args.algorithm else list(Algorithm)
    )
    models = [Model(args.model)] if args.model else list(Model)
    total = 0
    for model in models:
        for alg in algorithms:
            specs = enumerate_specs(alg, model)
            total += len(specs)
            print(f"{model.value:<8} {alg.value:<6} {len(specs):>5} variants")
            if args.list:
                for i, spec in enumerate(specs):
                    print(f"  [{i:>4}] {spec.label()}")
    print(f"total: {total}")
    return 0


def _cmd_run(args) -> int:
    alg = Algorithm(args.algorithm)
    model = Model(args.model)
    specs = enumerate_specs(alg, model)
    if not 0 <= args.index < len(specs):
        print(
            f"error: index {args.index} out of range (0..{len(specs) - 1})",
            file=sys.stderr,
        )
        return 2
    spec = specs[args.index]
    graph = load_dataset(args.graph, args.scale)
    device = get_device(args.device)
    if spec.model.is_gpu != (device.name in ("RTX 3090", "Titan V")):
        print("error: model/device mismatch (CUDA needs a GPU)", file=sys.stderr)
        return 2
    result = Launcher().run(spec, graph, device)
    print(f"program:    {spec.label()}")
    print(f"input:      {graph.name} ({graph.n_vertices:,} vertices, {graph.n_edges:,} edges)")
    print(f"device:     {result.device}")
    print(f"verified:   {result.verified}")
    print(f"iterations: {result.iterations}")
    print(f"time:       {result.seconds * 1e3:.3f} ms (simulated)")
    print(f"throughput: {result.throughput_ges:.4f} GES")
    return 0


def _supervision_kwargs(args) -> dict:
    """The supervision options every sweep-running command shares."""
    kwargs = dict(workers=args.workers, block_timeout=args.block_timeout)
    if args.max_retries is not None:
        kwargs["max_retries"] = args.max_retries
    return kwargs


def _report_failures(results) -> None:
    """Print the failure manifest summary to stderr (never stdout — the
    CSV/tables there must stay machine-readable)."""
    if results.failures:
        print(results.failure_summary(), file=sys.stderr)


def _cmd_sweep(args) -> int:
    from ..bench.harness import PredictSettings, SweepConfig
    from ..bench.parallel import run_sweep_parallel, stderr_progress

    predict = None
    if args.predict:
        predict = PredictSettings(
            top_k=args.top_k,
            audit_frac=args.audit_frac,
            audit_seed=args.audit_seed,
            max_groups=args.max_groups,
            model_path=args.predictor,
        )
    config = SweepConfig(
        scale=args.scale,
        models=(Model(args.model),) if args.model else tuple(Model),
        algorithms=(Algorithm(args.algorithm),) if args.algorithm else tuple(Algorithm),
        trace_cache=not args.no_trace_cache,
        predict=predict,
    )
    results = run_sweep_parallel(
        config, progress=stderr_progress, **_supervision_kwargs(args)
    )
    if results.prediction is not None:
        print(results.prediction.render(), file=sys.stderr)
    print(
        "model,algorithm,variant,graph,device,seconds,throughput_ges,"
        "iterations,predicted"
    )
    for run in results.runs:
        print(
            f"{run.spec.model.value},{run.spec.algorithm.value},"
            f"{run.spec.label()},{run.graph},{run.device},"
            f"{run.seconds:.6e},{run.throughput_ges:.6f},{run.iterations},"
            f"{int(run.predicted)}"
        )
    _report_failures(results)
    return 0


def _sweep_for_reports(args):
    """The full-grid sweep behind tables/figures, via the result cache.

    ``--results PATH`` pins an explicit file (loaded if present, created
    otherwise); ``--no-cache`` forces a fresh run; the default is the
    content-addressed cache, so the sweep runs at most once per
    (configuration, simulator source) pair no matter how many tables and
    figures are regenerated.
    """
    from pathlib import Path

    from ..bench.harness import SweepConfig
    from ..bench.parallel import run_sweep_parallel, stderr_progress
    from ..bench.storage import cached_sweep, load_results, save_results

    config = SweepConfig(
        scale=args.scale, trace_cache=not args.no_trace_cache
    )

    def run(cfg):
        return run_sweep_parallel(
            cfg, progress=stderr_progress, **_supervision_kwargs(args)
        )

    if args.results:
        path = Path(args.results)
        if path.exists():
            results = load_results(path)
        else:
            results = run(config)
            save_results(results, path, scale=args.scale)
    elif args.no_cache:
        results = run(config)
    else:
        results = cached_sweep(config, runner=run)
    _report_failures(results)
    return results


def _cmd_table(args) -> int:
    from ..bench import report

    if args.id == 1:
        print(report.render_table1())
    elif args.id == 2:
        print(report.render_table2())
    elif args.id == 3:
        print(report.render_table3())
    elif args.id in (4, 5):
        graphs = load_all(args.scale)
        props = {name: analyze(g) for name, g in graphs.items()}
        render = report.render_table4 if args.id == 4 else report.render_table5
        print(render(props))
    else:  # table 6
        results = _sweep_for_reports(args)
        print(report.render_table6(results))
    return 0


def _cmd_figure(args) -> int:
    from ..bench import report

    fid = str(args.id)
    results = _sweep_for_reports(args)
    if fid == "1":
        print(report.render_ratio_figure(results, "fig1-3090"))
        print()
        print(report.render_ratio_figure(results, "fig1-titanv"))
    elif fid == "2":
        print(report.render_ratio_figure(results, "fig2-cuda"))
        print()
        print(report.render_ratio_figure(results, "fig2-cpu"))
    elif fid in ("3", "4"):
        dup = Dup.DUP if fid == "3" else Dup.NODUP
        for model in Model:
            print(report.render_driver_figure(results, dup, model))
            print()
    elif fid in ("5", "6", "7"):
        for suffix in ("cuda", "omp", "cpp"):
            print(report.render_ratio_figure(results, f"fig{fid}-{suffix}"))
            print()
    elif fid == "8":
        print(report.render_ratio_figure(results, "fig8"))
    elif fid == "9":
        for gname in ("USA-road-d.NY", "soc-LiveJournal1"):
            print(
                report.render_throughput_figure(
                    results, "granularity",
                    title=f"Figure 9: granularity throughputs on {gname} (RTX 3090)",
                    models=[Model.CUDA], graphs=[gname], devices=["RTX 3090"],
                )
            )
            print()
    elif fid == "10":
        for alg in (Algorithm.PR, Algorithm.TC):
            print(
                report.render_throughput_figure(
                    results, "gpu_reduction",
                    title=f"Figure 10: GPU reduction styles ({alg.value})",
                    models=[Model.CUDA], algorithms=[alg],
                )
            )
            print()
    elif fid == "11":
        for alg in (Algorithm.PR, Algorithm.TC):
            print(
                report.render_throughput_figure(
                    results, "cpu_reduction",
                    title=f"Figure 11: CPU reduction styles ({alg.value})",
                    models=[Model.OPENMP, Model.CPP_THREADS], algorithms=[alg],
                )
            )
            print()
    elif fid == "12":
        print(report.render_ratio_figure(results, "fig12"))
    elif fid == "13":
        print(report.render_ratio_figure(results, "fig13"))
    elif fid == "14":
        print(report.render_figure14(results))
    elif fid == "15":
        print(report.render_figure15(results))
    elif fid == "16":
        print(report.render_figure16(results))
    else:
        print(f"error: unknown figure {fid!r}", file=sys.stderr)
        return 2
    return 0


def _cmd_advise(args) -> int:
    from ..bench.advisor import advise
    from ..graph.io import load_graph

    if args.file:
        graph = load_graph(args.file)
    elif args.graph:
        graph = load_dataset(args.graph, args.scale)
    else:
        print("error: pass --graph or --file", file=sys.stderr)
        return 2
    print(advise(graph).render())
    return 0


def _cmd_convergence(args) -> int:
    from ..bench.convergence import collect_convergence, render_convergence

    graphs = load_all(args.scale)
    algorithms = (
        (Algorithm(args.algorithm),) if args.algorithm else tuple(Algorithm)
    )
    records = collect_convergence(graphs, algorithms=algorithms)
    print(render_convergence(records))
    return 0


def _cmd_trace(args) -> int:
    from ..machine.inspect import render_trace, trace_to_csv

    alg = Algorithm(args.algorithm)
    model = Model(args.model)
    specs = enumerate_specs(alg, model)
    if not 0 <= args.index < len(specs):
        print(f"error: index out of range (0..{len(specs) - 1})", file=sys.stderr)
        return 2
    spec = specs[args.index]
    graph = load_dataset(args.graph, args.scale)
    launcher = Launcher()
    result = launcher.execute_semantic(spec, graph)
    print(f"program: {spec.label()}")
    if args.csv:
        print(trace_to_csv(result.trace), end="")
    else:
        print(render_trace(result.trace))
    return 0


def _cmd_generate(args) -> int:
    from ..codegen.suite import generate_suite

    bits = {"32": (32,), "64": (64,), "both": (32, 64)}[args.bits]
    manifest = generate_suite(
        args.out_dir,
        models=(Model(args.model),) if args.model else tuple(Model),
        algorithms=(Algorithm(args.algorithm),) if args.algorithm else tuple(Algorithm),
        data_bits=bits,
        limit_per_pair=args.limit,
    )
    print(f"wrote {manifest.count} source files under {manifest.root}")
    print(f"manifest: {manifest.root / 'MANIFEST.tsv'}")
    print("build the CPU variants with: make -C", manifest.root)
    return 0


def _cmd_analyze(args) -> int:
    from ..analysis import rule_catalog
    from ..analysis.findings import Report

    if args.rules:
        for rule, desc in rule_catalog().items():
            print(f"{rule:<18} {desc}")
        return 0
    if not args.suite and not args.trace:
        print("error: pass --suite DIR and/or --trace", file=sys.stderr)
        return 2
    if args.ir and not args.suite:
        print("error: --ir needs --suite DIR", file=sys.stderr)
        return 2

    report: Optional[Report] = None
    if args.suite:
        from ..analysis import lint_suite

        report = lint_suite(
            args.suite, strict=args.strict, ir=args.ir, jobs=args.jobs
        )
    if args.trace:
        if not (args.algorithm and args.model and args.graph):
            print(
                "error: --trace needs --algorithm, --model and --graph",
                file=sys.stderr,
            )
            return 2
        from ..analysis.sanitizer import sanitize_trace

        alg = Algorithm(args.algorithm)
        model = Model(args.model)
        specs = enumerate_specs(alg, model)
        if not 0 <= args.index < len(specs):
            print(
                f"error: index out of range (0..{len(specs) - 1})",
                file=sys.stderr,
            )
            return 2
        spec = specs[args.index]
        graph = load_dataset(args.graph, args.scale)
        result = Launcher().execute_semantic(spec, graph)
        trace_report = sanitize_trace(spec, result.trace)
        report = (
            trace_report
            if report is None
            else report.merged(trace_report, title="analysis")
        )

    assert report is not None
    if args.json:
        payload = report.to_json()
        if args.json == "-":
            sys.stdout.write(payload)
        else:
            with open(args.json, "w") as fh:
                fh.write(payload)
    if args.json != "-":
        print(report.render_text())
    return 0 if report.ok else 1


def _cmd_guidelines(args) -> int:
    from ..bench.guidelines import derive_guidelines

    results = _sweep_for_reports(args)
    for guideline in derive_guidelines(results):
        print(guideline.render())
    return 0


def _cmd_fuzz(args) -> int:
    from ..robustness.fuzz import (
        load_manifest,
        replay_entry,
        run_fuzz,
        run_self_test,
        write_manifest,
    )

    if args.replay:
        manifest = load_manifest(args.replay)
        entries = [e for e in manifest["entries"] if e["status"] != "ok"]
        if not entries:
            print("nothing to replay: manifest has no non-ok entries")
            return 0
        not_reproduced = 0
        for entry in entries:
            outcome = replay_entry(entry)
            label = entry.get("planted") or entry["case"]["shape"]
            verdict = (
                "reproduced"
                if outcome["reproduced"]
                else "DID NOT REPRODUCE"
            )
            print(
                f"[{entry['status']}] case {entry['case']['index']} "
                f"({label}): {verdict} — {outcome['message']}"
            )
            not_reproduced += 0 if outcome["reproduced"] else 1
        return 1 if not_reproduced else 0

    reports = []
    exit_code = 0
    if args.smoke or args.self_test:
        self_test = run_self_test(seed=args.seed)
        reports.append(self_test)
        print(self_test.render_text())
        if not self_test.planted_ok:
            exit_code = 1
    if not args.self_test:
        cases = args.cases if args.cases is not None else (60 if args.smoke else 200)
        report = run_fuzz(cases=cases, seed=args.seed)
        reports.append(report)
        print(report.render_text())
        if report.escapes:
            exit_code = 1
    if args.manifest:
        path = write_manifest(args.manifest, *reports)
        print(f"manifest written to {path}")
    return exit_code


def _cmd_serve(args) -> int:
    import asyncio

    from ..serve.app import ServeConfig, serve_main

    config = ServeConfig(
        host=args.host,
        port=args.port,
        scale=args.scale,
        max_inflight=args.max_inflight,
        max_workers=args.workers,
        deadline_seconds=args.deadline,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_seconds=args.breaker_reset,
        verify=not args.no_verify,
        trace_cache=not args.no_trace_cache,
        predict=not args.no_predict,
    )
    asyncio.run(serve_main(config))
    return 0


def _cmd_cache(args) -> int:
    import os

    from ..bench.tracestore import TRACE_CACHE_ENV, TraceStore, default_trace_dir

    directory = args.dir
    if directory is None:
        env = os.environ.get(TRACE_CACHE_ENV)
        directory = env if env and env.strip() not in ("", "0") else None
    store = TraceStore(directory if directory else default_trace_dir())
    if args.action == "stats":
        print(store.stats().render())
        return 0
    if args.action == "gc":
        removed, reclaimed = store.gc(everything=args.all)
        print(f"removed {removed} entries ({reclaimed / 1e6:.2f} MB)")
        return 0
    if args.action == "export":
        from ..bench.predictor import (
            export_training_set,
            mine_results,
            mine_trace_store,
        )
        from ..bench.storage import load_results

        ts = mine_trace_store(store)
        for path in args.results or ():
            ts.extend(mine_results(load_results(path)))
        include = not args.no_features
        if args.out:
            with open(args.out, "w", newline="") as fh:
                n = export_training_set(
                    ts, fh, fmt=args.format, include_features=include
                )
            print(f"wrote {n} rows to {args.out}", file=sys.stderr)
        else:
            n = export_training_set(
                ts, sys.stdout, fmt=args.format, include_features=include
            )
        for reason, count in sorted(ts.skipped.items()):
            print(f"skipped {count} rows: {reason}", file=sys.stderr)
        return 0
    ok, bad = store.verify_entries()
    print(f"verified {ok} entries, quarantined {len(bad)}")
    for path, reason in bad:
        print(f"  {path}: {reason}")
    return 1 if bad else 0


def _cmd_predictor(args) -> int:
    from ..bench.predictor import (
        PredictorArtifactError,
        StylePredictor,
        TrainingSet,
        default_predictor_path,
        mine_results,
        mine_trace_store,
    )

    if args.pred_action == "info":
        import os

        from ..bench.predictor import PREDICTOR_ENV

        path = args.path or os.environ.get(PREDICTOR_ENV) or None
        if path in (None, "", "0"):
            path = default_predictor_path()
        try:
            predictor = StylePredictor.load(path)
        except FileNotFoundError:
            print(f"error: no model artifact at {path}", file=sys.stderr)
            return 1
        except PredictorArtifactError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"artifact:  {path}")
        print(f"cells:     {len(predictor.cells)} (algorithm, device) pairs")
        for key in sorted(predictor.training):
            print(f"{key + ':':<11}{predictor.training[key]}")
        return 0

    # predictor train
    from ..bench.storage import load_results

    ts = TrainingSet.empty()
    if args.from_store:
        from ..bench.tracestore import resolve_trace_store

        store = resolve_trace_store(True)
        if store is None:
            print("error: trace store is disabled", file=sys.stderr)
            return 2
        ts.extend(mine_trace_store(store))
    for path in args.results or ():
        ts.extend(mine_results(load_results(path)))
    if not args.from_store and not args.results:
        # No sources named: run a (filtered) sweep and mine its runs.
        from ..bench.harness import SweepConfig, run_sweep

        config = SweepConfig(
            scale=args.scale,
            models=(Model(args.model),) if args.model else tuple(Model),
            algorithms=(
                (Algorithm(args.algorithm),)
                if args.algorithm
                else tuple(Algorithm)
            ),
        )
        print("mining a fresh sweep (no --results / --from-store given)",
              file=sys.stderr)
        ts.extend(mine_results(run_sweep(config)))
    if len(ts) == 0:
        print("error: training set is empty — nothing to fit", file=sys.stderr)
        return 1
    predictor = StylePredictor.train(ts, seed=args.seed, rounds=args.rounds)
    path = predictor.save(args.out)
    print(f"trained on {len(ts)} rows "
          f"(mae {predictor.training['mae_log_seconds']:.3f} log-seconds)")
    print(f"artifact: {path}")
    return 0


_COMMANDS = {
    "datasets": _cmd_datasets,
    "specs": _cmd_specs,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "table": _cmd_table,
    "figure": _cmd_figure,
    "guidelines": _cmd_guidelines,
    "generate": _cmd_generate,
    "trace": _cmd_trace,
    "convergence": _cmd_convergence,
    "advise": _cmd_advise,
    "analyze": _cmd_analyze,
    "fuzz": _cmd_fuzz,
    "serve": _cmd_serve,
    "cache": _cmd_cache,
    "predictor": _cmd_predictor,
}


def _interrupted_message(args) -> str:
    """The one line an interrupted command prints.  Sweep-running
    commands (those with ``--max-retries``) keep every finished block's
    traces in the trace store, so running them again continues."""
    from ..bench.tracestore import resolve_trace_store

    if hasattr(args, "max_retries") and resolve_trace_store(
        not args.no_trace_cache
    ) is not None:
        return (
            "interrupted: the finished blocks' traces are kept in the "
            "trace store; run the same command again to continue the sweep"
        )
    return "interrupted"


def main(argv: Optional[list] = None) -> int:
    from ..runtime.budget import BudgetExceeded

    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print(_interrupted_message(args), file=sys.stderr)
        return 130
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early: exit quietly.
        import os

        try:
            sys.stdout.close()
        except Exception:
            pass
        os.dup2(os.open(os.devnull, os.O_WRONLY), 2)
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
