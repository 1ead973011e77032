"""Deterministic tests of the fault-tolerant sweep runtime.

Every supervision path — per-variant failure capture, retry, serial
fallback, hang detection, re-run after a crash, cache quarantine — is
exercised through the $REPRO_FAULTS injection harness, so the behaviours
only failures can reveal are pinned down without any real flakiness.
"""

import json
import os
import pickle
import time

import pytest

from repro.bench import (
    SweepConfig,
    cached_sweep,
    load_results,
    run_sweep,
    run_sweep_parallel,
    save_results,
    sweep_cache_path,
    sweep_to_csv,
)
from repro.bench.export import failure_manifest_to_csv
from repro.bench.faults import FAULTS_ENV, active_rules
from repro.bench.parallel import resolve_block_timeout, resolve_workers
from repro.bench.tracestore import TRACE_CACHE_ENV
from repro.runtime.errors import (
    BlockTimeoutError,
    ErrorClass,
    FailedRun,
    classify_error,
    error_digest,
)
from repro.runtime.verify import VerificationError
from repro.styles import Algorithm

pytestmark = pytest.mark.faults

REDUCED = SweepConfig(
    scale="tiny",
    algorithms=(Algorithm.BFS, Algorithm.PR),
    graphs=("USA-road-d.NY", "soc-LiveJournal1"),
)


@pytest.fixture(scope="module")
def clean():
    """The fault-free serial sweep every fault run is compared against."""
    return run_sweep(REDUCED)


def arm(monkeypatch, *rules):
    monkeypatch.setenv(FAULTS_ENV, json.dumps(list(rules)))


def run_signature(results):
    return [
        (r.spec, r.device, r.graph, r.seconds, r.throughput_ges)
        for r in results.runs
    ]


class TestErrorTaxonomy:
    def test_classify(self):
        assert classify_error(VerificationError("x")) is ErrorClass.VERIFICATION
        assert classify_error(BlockTimeoutError("x")) is ErrorClass.TIMEOUT
        assert classify_error(RuntimeError("x")) is ErrorClass.KERNEL
        assert classify_error(KeyboardInterrupt()) is ErrorClass.INTERRUPTED

    def test_digest_stable_and_class_sensitive(self):
        a = error_digest(ErrorClass.KERNEL, "boom")
        assert a == error_digest(ErrorClass.KERNEL, "boom")
        assert a != error_digest(ErrorClass.VERIFICATION, "boom")
        assert len(a) == 12

    def test_failed_run_from_exception(self):
        failure = FailedRun.from_exception(
            VerificationError("bfs: 3 distances differ"),
            algorithm="bfs", graph="g", spec_label="lbl",
            model="cuda", device="RTX 3090",
        )
        assert failure.error_class is ErrorClass.VERIFICATION
        assert "distances differ" in failure.message
        assert failure.digest in failure.render()

    def test_plan_parsing_rejects_unknown_action(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, json.dumps([{"action": "explode"}]))
        with pytest.raises(ValueError, match="unknown action"):
            active_rules()


class TestVariantFailures:
    def test_verification_failure_is_captured_not_fatal(
        self, monkeypatch, clean
    ):
        arm(monkeypatch, {
            "action": "verify", "algorithm": "bfs",
            "graph": "USA-road-d.NY", "model": "cuda", "spec_index": 0,
        })
        results = run_sweep_parallel(REDUCED, workers=2)
        assert results.failures
        assert all(
            f.stage == "variant"
            and f.error_class is ErrorClass.VERIFICATION
            and f.spec_label and f.device
            for f in results.failures
        )
        # Every healthy cell is bit-identical to the clean sweep; exactly
        # the injected variant's cells are missing.
        missing = {(f.spec_label, f.device, f.graph) for f in results.failures}
        expected = [
            r for r in clean.runs
            if (r.spec.label(), r.device, r.graph) not in missing
        ]
        assert results.runs == expected

    def test_manifest_survives_save_load_and_exports(
        self, monkeypatch, tmp_path, clean
    ):
        arm(monkeypatch, {
            "action": "verify", "algorithm": "pr",
            "graph": "soc-LiveJournal1", "spec_index": 1,
        })
        results = run_sweep_parallel(REDUCED, workers=1)
        assert results.failures
        path = save_results(results, tmp_path / "r.pkl", scale="tiny")
        back = load_results(path, rebuild_graphs=False)
        assert back.failures == results.failures
        csv = failure_manifest_to_csv(back)
        assert csv.count("\n") == len(results.failures) + 1
        assert "verification" in csv
        assert "sweep failures:" in results.failure_summary()


class TestBlockSupervision:
    def test_raising_block_is_retried_then_quarantined(
        self, monkeypatch, clean
    ):
        arm(monkeypatch, {
            "action": "raise", "algorithm": "pr", "graph": "soc-LiveJournal1",
        })
        results = run_sweep_parallel(
            REDUCED, workers=2,
            max_retries=1, retry_backoff=0.0,
        )
        assert len(results.failures) == 1
        failure = results.failures[0]
        assert failure.stage == "block"
        assert failure.error_class is ErrorClass.KERNEL
        # two worker attempts + the serial fallback
        assert failure.attempts == 3
        expected = [
            r for r in clean.runs
            if not (r.spec.algorithm is Algorithm.PR
                    and r.graph == "soc-LiveJournal1")
        ]
        assert results.runs == expected

    def test_transient_failure_recovers_on_retry(self, monkeypatch, clean):
        arm(monkeypatch, {
            "action": "raise", "algorithm": "bfs",
            "graph": "USA-road-d.NY", "attempts": [0],
        })
        results = run_sweep_parallel(REDUCED, workers=2, retry_backoff=0.0)
        assert not results.failures
        assert run_signature(results) == run_signature(clean)

    def test_killed_worker_block_reruns_serially(
        self, monkeypatch, clean
    ):
        # "kill" fires in worker processes only, so the serial in-process
        # fallback succeeds: a worker-environment fault costs nothing.
        arm(monkeypatch, {
            "action": "kill", "algorithm": "pr", "graph": "USA-road-d.NY",
        })
        results = run_sweep_parallel(
            REDUCED, workers=2,
            max_retries=1, retry_backoff=0.0,
        )
        assert not results.failures
        assert run_signature(results) == run_signature(clean)

    def test_hung_block_hits_the_timeout(self, monkeypatch, clean):
        arm(monkeypatch, {
            "action": "hang", "algorithm": "bfs", "graph": "soc-LiveJournal1",
        })
        results = run_sweep_parallel(
            REDUCED, workers=2,
            block_timeout=2.0, max_retries=0,
        )
        assert len(results.failures) == 1
        failure = results.failures[0]
        assert failure.stage == "block"
        assert failure.error_class is ErrorClass.TIMEOUT
        expected = [
            r for r in clean.runs
            if not (r.spec.algorithm is Algorithm.BFS
                    and r.graph == "soc-LiveJournal1")
        ]
        assert results.runs == expected

    def test_serial_engine_quarantines_raising_block(self, monkeypatch, clean):
        arm(monkeypatch, {
            "action": "raise", "algorithm": "bfs", "graph": "soc-LiveJournal1",
        })
        results = run_sweep_parallel(REDUCED, workers=1)
        assert len(results.failures) == 1
        assert results.failures[0].stage == "block"
        expected = [
            r for r in clean.runs
            if not (r.spec.algorithm is Algorithm.BFS
                    and r.graph == "soc-LiveJournal1")
        ]
        assert results.runs == expected


#: Two cheap algorithms x the two REDUCED inputs: 4 whole blocks that
#: split into 10 semantic shards (PR has 3 semantic groups, TC has 2).
SMALL = SweepConfig(
    scale="tiny",
    algorithms=(Algorithm.PR, Algorithm.TC),
    graphs=REDUCED.graphs,
)


class TestWorkerLifecycle:
    """Which worker process runs which unit.  A worker kept across whole
    blocks holds the heap the biggest one left behind, so whole blocks
    must each get a fresh worker; shards are small and many, so they must
    share workers instead of forking one each."""

    @staticmethod
    def log_worker_pids(monkeypatch, tmp_path):
        from repro.bench import parallel

        body = parallel.run_block_outcome
        log = tmp_path / "pids"

        def logged(block, attempt=0):
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
            return body(block, attempt=attempt)

        monkeypatch.setattr(parallel, "run_block_outcome", logged)
        return log

    def test_every_whole_block_gets_a_fresh_worker(
        self, monkeypatch, tmp_path, clean
    ):
        log = self.log_worker_pids(monkeypatch, tmp_path)
        results = run_sweep_parallel(REDUCED, workers=2)
        assert run_signature(results) == run_signature(clean)
        pids = log.read_text().split()
        assert len(pids) == 4  # one per (algorithm, graph) block
        assert len(set(pids)) == 4
        assert str(os.getpid()) not in pids

    def test_shards_reuse_workers(self, monkeypatch, tmp_path):
        log = self.log_worker_pids(monkeypatch, tmp_path)
        run_sweep_parallel(SMALL, workers=6)
        pids = log.read_text().split()
        assert len(pids) == 10  # one per semantic shard
        assert len(set(pids)) <= 6
        assert str(os.getpid()) not in pids

    def test_killed_shard_worker_is_reaped_without_a_stall(self, monkeypatch):
        """A hung shard under surplus workers is killed at its deadline,
        and reaping the killed worker costs no extra join timeout: the
        sweep's own signal handlers must not survive into its workers."""
        arm(monkeypatch, {
            "action": "hang", "algorithm": "tc", "graph": "soc-LiveJournal1",
        })
        timeout = 1.0
        start = time.monotonic()
        results = run_sweep_parallel(
            SMALL, workers=6,
            block_timeout=timeout, max_retries=0,
        )
        elapsed = time.monotonic() - start
        assert results.failures
        assert all(
            f.error_class is ErrorClass.TIMEOUT
            and (f.algorithm, f.graph) == ("tc", "soc-LiveJournal1")
            for f in results.failures
        )
        # Each stalled reap would add the pool's 5 s join on top.
        assert elapsed < timeout + 4.0


class TestRerunAfterCrash:
    def test_rerun_after_failed_block_is_byte_identical(
        self, monkeypatch, tmp_path, clean
    ):
        """A sweep that lost a block is recovered by running it again:
        the trace store holds every finished block's traces, so the re-run
        executes exactly the lost block's kernels."""
        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "traces"))
        arm(monkeypatch, {
            "action": "raise", "algorithm": "pr", "graph": "soc-LiveJournal1",
        })
        first = run_sweep_parallel(
            REDUCED, workers=2, max_retries=0, retry_backoff=0.0
        )
        assert len(first.failures) == 1

        monkeypatch.delenv(FAULTS_ENV)
        second = run_sweep_parallel(REDUCED, workers=2)
        assert not second.failures
        assert sweep_to_csv(second) == sweep_to_csv(clean)

        monkeypatch.setenv(TRACE_CACHE_ENV, str(tmp_path / "cold"))
        block = SweepConfig(
            scale="tiny",
            algorithms=(Algorithm.PR,),
            graphs=("soc-LiveJournal1",),
        )
        alone = run_sweep_parallel(block, workers=1)
        assert alone.kernel_executions > 0
        assert second.kernel_executions == alone.kernel_executions


class TestStorageIntegrity:
    CONFIG = SweepConfig(
        scale="tiny", algorithms=(Algorithm.BFS,), graphs=("USA-road-d.NY",)
    )

    def test_truncated_results_file_raises_clear_error(self, tmp_path, clean):
        path = save_results(clean, tmp_path / "r.pkl", scale="tiny")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError, match="truncated or corrupt"):
            load_results(path)

    def test_garbage_file_raises_value_error_not_pickle_error(self, tmp_path):
        path = tmp_path / "junk.pkl"
        path.write_bytes(b"\x80\x04this is not a pickle")
        with pytest.raises(ValueError, match="not a saved repro study result"):
            load_results(path)

    def test_legacy_v1_pickle_still_loads(self, tmp_path, clean):
        path = tmp_path / "legacy.pkl"
        payload = {
            "magic": "repro-study-results-v1",
            "scale": "tiny",
            "graph_names": list(clean.graphs),
            "runs": clean.runs,
        }
        path.write_bytes(pickle.dumps(payload))
        back = load_results(path, rebuild_graphs=False)
        assert back.runs == clean.runs

    def test_quarantined_blocks_are_not_cached(self, tmp_path):
        calls = []

        def runner(config):
            calls.append(config)
            results = run_sweep(config)
            results.add_failure(FailedRun(
                algorithm="bfs", graph="USA-road-d.NY",
                error_class=ErrorClass.CRASH, message="worker died",
                digest=error_digest(ErrorClass.CRASH, "worker died"),
                stage="block",
            ))
            return results

        cached_sweep(self.CONFIG, cache_dir=tmp_path, runner=runner)
        cached_sweep(self.CONFIG, cache_dir=tmp_path, runner=runner)
        # an incomplete sweep (possibly transient fault) must never be
        # pinned by the content-addressed cache
        assert len(calls) == 2
        assert not sweep_cache_path(self.CONFIG, tmp_path).exists()

    def test_corrupt_cache_entry_is_quarantined_and_rebuilt(
        self, tmp_path, capsys
    ):
        path = sweep_cache_path(self.CONFIG, tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"repro-study-results-v2 deadbeef\ntruncated")
        results = cached_sweep(self.CONFIG, cache_dir=tmp_path, runner=run_sweep)
        assert len(results) > 0
        assert (path.parent / "quarantine" / path.name).exists()
        assert "quarantine" in capsys.readouterr().err
        # the rebuilt entry is valid again
        assert load_results(path).n_programs == results.n_programs


class TestSupervisionConfig:
    def test_default_workers_capped_by_block_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_SWEEP_WORKERS", raising=False)
        assert resolve_workers(None, 2) <= 2
        assert resolve_workers(None, 10_000) == (__import__("os").cpu_count() or 1)

    def test_explicit_env_wins_over_block_cap(self, monkeypatch):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "7")
        assert resolve_workers(None, 2) == 7

    def test_block_timeout_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BLOCK_TIMEOUT", raising=False)
        assert resolve_block_timeout(None) is None
        monkeypatch.setenv("REPRO_BLOCK_TIMEOUT", "2.5")
        assert resolve_block_timeout(None) == 2.5
        monkeypatch.setenv("REPRO_BLOCK_TIMEOUT", "nope")
        with pytest.raises(ValueError):
            resolve_block_timeout(None)
        with pytest.raises(ValueError):
            resolve_block_timeout(-1.0)


class TestCliFaultTolerance:
    def test_sweep_exits_zero_with_injected_failures(
        self, monkeypatch, tmp_path, capsys, clean
    ):
        """The acceptance scenario: a crash, a hang, and a verification
        failure in one sweep — exit 0, healthy runs bit-identical, and the
        manifest lists exactly the injected failures."""
        from repro.cli.main import main

        monkeypatch.setenv("REPRO_SWEEP_CACHE", str(tmp_path))
        arm(
            monkeypatch,
            {"action": "kill", "algorithm": "bfs", "graph": "2d-2e20.sym",
             "attempts": [0]},
            {"action": "hang", "algorithm": "bfs", "graph": "coPapersDBLP"},
            {"action": "verify", "algorithm": "bfs", "graph": "USA-road-d.NY",
             "model": "cuda", "spec_index": 0},
        )
        rc = main([
            "--scale", "tiny", "sweep", "--algorithm", "bfs",
            "--workers", "2", "--block-timeout", "2", "--max-retries", "0",
        ])
        captured = capsys.readouterr()
        assert rc == 0
        assert "sweep failures:" in captured.err
        assert "timeout" in captured.err
        assert "verification" in captured.err
        # the killed worker's block recovered via the serial fallback, so
        # it must NOT appear in the manifest
        assert "crash" not in captured.err
        # healthy rows are bit-identical to a fault-free serial sweep
        clean_bfs = run_sweep(SweepConfig(scale="tiny", algorithms=(Algorithm.BFS,)))
        clean_rows = {
            f"{r.spec.model.value},{r.spec.algorithm.value},{r.spec.label()},"
            f"{r.graph},{r.device},{r.seconds:.6e},{r.throughput_ges:.6f},"
            f"{r.iterations},{int(r.predicted)}"
            for r in clean_bfs.runs
        }
        got_rows = set(captured.out.strip().splitlines()[1:])
        assert got_rows < clean_rows
