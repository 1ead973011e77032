"""Supervised sweep jobs for the advisor service.

A cold request needs a real sweep: run the requested algorithms over the
client's graph on every requested model x device and time every style
variant.  Kernels execute arbitrary simulated programs, so the service
never runs them in its own process — each job attempt is a one-worker,
zero-retry :class:`~repro.runtime.workers.WorkerPool` (the same pool the
sweep runs on): a freshly forked worker that can crash, hang, or be
killed without taking the event loop with it.

The executor retries environment-class failures (crash / timeout) with
exponential backoff while the request's deadline allows, and reports the
final outcome as either a compact result payload or a typed
:class:`JobFailed` carrying the :class:`~repro.runtime.errors.ErrorClass`
— the service layer decides whether that means a degraded answer or an
error body.

Fault injection: workers honour the ``kill-executor`` and
``hang-request`` actions of ``$REPRO_FAULTS`` (see
:mod:`repro.bench.faults`), which is how the chaos suite and the CI smoke
test manufacture dying executors deterministically.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..graph.csr import CSRGraph
from ..runtime.errors import ErrorClass
from ..runtime.launcher import Launcher
from ..runtime.workers import WorkerPool
from ..styles.axes import Algorithm, Model
from ..styles.combos import enumerate_specs
from .errors import ENVIRONMENT_CLASSES

__all__ = ["SweepJob", "JobFailed", "ExecutorPool", "execute_job_inline"]

@dataclass(frozen=True)
class SweepJob:
    """One unit of executor work: sweep these styles over this graph."""

    graph: CSRGraph
    algorithms: Tuple[Algorithm, ...]
    models: Tuple[Model, ...]
    gpu_names: Tuple[str, ...]
    cpu_names: Tuple[str, ...]
    verify: bool = True
    trace_cache: bool = True


class JobFailed(RuntimeError):
    """One job attempt (or the whole job) failed, with its taxonomy class."""

    def __init__(self, error_class: ErrorClass, message: str, *, attempts: int = 1):
        super().__init__(message)
        self.error_class = error_class
        self.message = message
        self.attempts = attempts

    @property
    def environment(self) -> bool:
        """Was this the environment's fault (retryable, breaker-relevant)
        rather than the request's?"""
        return self.error_class in ENVIRONMENT_CLASSES


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def execute_job_inline(job: SweepJob, *, attempt: int = 1) -> dict:
    """Run one job in the current process and summarize the outcome.

    This is the worker's body, importable directly so unit tests (and any
    future in-process execution mode) can exercise the sweep logic
    without process supervision.
    """
    from ..bench import faults
    from ..bench.harness import block_grid, sweep_block_runs
    from ..machine.devices import CPUS, GPUS

    config_devices = {
        model: (
            [GPUS[name] for name in job.gpu_names]
            if model.is_gpu
            else [CPUS[name] for name in job.cpu_names]
        )
        for model in job.models
    }
    from ..bench.tracestore import resolve_trace_store

    launcher = Launcher(
        verify=job.verify,
        trace_store=resolve_trace_store(enabled=job.trace_cache) or False,
    )
    runs = []
    failures = []
    for algorithm in job.algorithms:
        faults.inject_executor_fault(algorithm.value, job.graph.name, attempt)
        specs, devices = block_grid(
            job.models,
            lambda model: enumerate_specs(algorithm, model),
            config_devices.get,
        )
        runs.extend(sweep_block_runs(
            launcher, specs, job.graph, devices, failures=failures,
        ))
        launcher.release(job.graph, algorithm)
    return summarize_runs(runs, failures, launcher.kernel_executions)


def summarize_runs(runs, failures, kernel_executions: int) -> dict:
    """Compact, JSON-ready summary of a sweep: the best style per
    (algorithm, model, device) cell plus the failure manifest."""
    best: Dict[Tuple[str, str, str], object] = {}
    for run in runs:
        key = (run.spec.algorithm.value, run.spec.model.value, run.device)
        current = best.get(key)
        if current is None or run.seconds < current.seconds:
            best[key] = run
    measured = [
        {
            "algorithm": alg,
            "model": model,
            "device": device,
            "style": run.spec.label(),
            "seconds": run.seconds,
            "throughput_ges": run.throughput_ges,
            "verified": run.verified,
            "predicted": bool(getattr(run, "predicted", False)),
        }
        for (alg, model, device), run in sorted(best.items())
    ]
    return {
        "measured": measured,
        "n_runs": len(runs),
        "n_failures": len(failures),
        "failures": [
            {
                "algorithm": f.algorithm,
                "error_class": f.error_class.value,
                "message": f.message,
                "digest": f.digest,
                "stage": f.stage,
            }
            for f in failures
        ],
        "kernel_executions": kernel_executions,
    }


def _job_body(unit, attempt: int = 0) -> dict:
    """Pool body of one job attempt.  Every attempt is its own zero-retry
    pool, so the pool's attempt counter is always 0 and the service's
    attempt number travels with the job."""
    job, number = unit
    return execute_job_inline(job, attempt=number)


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------
@dataclass
class ExecutorPool:
    """Bounded pool of supervised one-shot job workers.

    ``max_workers`` bounds concurrent worker processes (requests queue on
    the semaphore); each attempt runs under the caller's remaining
    deadline and a dead or overdue worker is killed and reaped — the pool
    never leaks children.
    """

    max_workers: int = 2
    max_attempts: int = 3
    backoff_base_seconds: float = 0.1
    _slots: asyncio.Semaphore = field(init=False, repr=False)
    #: Lifetime counters for /statz.
    jobs_run: int = 0
    attempts_failed: int = 0

    def __post_init__(self) -> None:
        self._slots = asyncio.Semaphore(self.max_workers)

    async def run_job(
        self,
        job: SweepJob,
        *,
        deadline: float,
        on_attempt: Optional[Callable[[int], None]] = None,
    ) -> dict:
        """Run one job to completion under ``deadline`` (absolute
        ``time.monotonic`` seconds).

        Environment-class attempt failures are retried with exponential
        backoff while attempts and deadline remain; the terminal failure
        is raised as :class:`JobFailed` with the *last* attempt's class.
        """
        async with self._slots:
            self.jobs_run += 1
            last: Optional[JobFailed] = None
            for attempt in range(1, self.max_attempts + 1):
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                if on_attempt is not None:
                    on_attempt(attempt)
                try:
                    return await asyncio.to_thread(
                        _run_attempt, job, attempt, remaining
                    )
                except JobFailed as exc:
                    self.attempts_failed += 1
                    last = exc
                    if not exc.environment:
                        raise JobFailed(
                            exc.error_class, exc.message, attempts=attempt
                        )
                backoff = self.backoff_base_seconds * (2 ** (attempt - 1))
                backoff = min(backoff, max(deadline - time.monotonic(), 0))
                if backoff > 0:
                    await asyncio.sleep(backoff)
            if last is not None:
                raise JobFailed(
                    last.error_class,
                    f"{last.message} (retries exhausted)",
                    attempts=self.max_attempts,
                )
            raise JobFailed(
                ErrorClass.TIMEOUT,
                "request deadline expired before the job could start",
            )


def _run_attempt(job: SweepJob, attempt: int, timeout: float) -> dict:
    """One job attempt in a one-worker, zero-retry pool, killed after
    ``timeout`` seconds.  Blocking: always called via
    :func:`asyncio.to_thread`."""
    payloads = []

    def failed(_key, error_class: ErrorClass, detail: str, _attempts) -> None:
        raise JobFailed(error_class, detail, attempts=attempt)

    WorkerPool(
        _job_body,
        on_done=lambda _key, payload: payloads.append(payload),
        on_failure=failed,
        timeout=timeout,
    ).run([(0, (job, attempt))])
    return payloads[0]
