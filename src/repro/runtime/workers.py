"""One supervised pool of forked worker processes.

Both process-parallel paths of the package run through
:class:`WorkerPool`: the sweep fans its (algorithm, graph) blocks and
semantic shards out over it (:mod:`repro.bench.parallel`), and the
advisor service runs every sweep-job attempt in a one-worker pool
(:mod:`repro.serve.jobs`).  The pool owns the process mechanics and
nothing else:

* workers are forked and talk to the parent over one duplex pipe each;
  a worker runs ``body(unit, attempt=attempt)`` and reports ``ok`` with
  the result or ``error`` with the classified exception;
* the parent holds SIGINT and SIGTERM back while it forks, so an
  interrupt is never swallowed by the fork or lost between the fork
  and the worker's registration;
* every worker starts in :func:`_worker_main`, which marks the process
  as a worker for fault injection and restores the default SIGTERM and
  SIGINT dispositions (and unblocks them).  Inherited handlers would
  turn the parent's kill into a ``KeyboardInterrupt`` the body reports
  and survives (a sweep runs under ``_sigterm_as_interrupt``), or into
  a write to the parent's asyncio wakeup fd (the service);
* a unit that outlives ``timeout`` is killed with its worker, and a pipe
  that closes without a report is a :attr:`ErrorClass.CRASH`;
* a failed unit is retried ``max_retries`` times with exponential
  backoff, then handed to ``on_failure``.  What a terminal failure means
  (serial fallback, quarantine, an error answer) is the caller's policy;
* every worker is reaped before :meth:`WorkerPool.run` returns or
  raises.

A unit for which ``reuse(unit)`` is false runs in a freshly forked
worker that exits after reporting it, so nothing a unit leaves in the
heap outlives it.  Reusable units go to idle workers over the pipe,
which saves a fork per unit when the units are many and small.  Units
are dispatched in the order given; a retried unit waits out its backoff
at the back of the queue.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Tuple

from .errors import ErrorClass, classify_error

__all__ = ["WorkerPool", "describe", "in_worker"]

#: Supervisor poll interval (seconds): bounds how late a deadline is
#: noticed, coarse enough to stay cheap.
_TICK = 0.05

#: The signals that interrupt a supervisor; held back while it forks.
_INTERRUPTS = {signal.SIGINT, signal.SIGTERM}

#: Set in :func:`_worker_main`: each forked worker has its own copy, so
#: the supervisor's stays false.
_in_worker = False


def in_worker() -> bool:
    """Whether this process is a pool worker (fault injection may kill
    it; see :mod:`repro.bench.faults`)."""
    return _in_worker


def describe(exc: BaseException) -> Tuple[ErrorClass, str]:
    """The taxonomy class and one-line detail of a failed unit."""
    return classify_error(exc), f"{type(exc).__name__}: {exc}"


def _worker_main(conn, body, unit, attempt: int, keep: bool) -> None:
    """Entry point of every pool worker: run the unit it was forked with,
    then (if ``keep``) each unit the parent sends, until told to stop."""
    global _in_worker
    _in_worker = True
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    # Forked with the interrupts held back (see ``WorkerPool._spawn``).
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _INTERRUPTS)
    while True:
        try:
            report = ("ok", body(unit, attempt=attempt))
        except BaseException as exc:  # noqa: BLE001 - reported, not raised
            report = ("error", *describe(exc))
        try:
            conn.send(report)
        except Exception:
            os._exit(1)  # unsendable result: the parent sees a crash
        if not keep:
            break
        try:
            request = conn.recv()
        except (EOFError, OSError):
            break
        if request is None:
            break
        unit, attempt = request
    conn.close()


@dataclass
class _Task:
    key: Any
    unit: Any
    attempt: int = 0
    ready_at: float = 0.0


@dataclass
class _Worker:
    process: multiprocessing.process.BaseProcess
    conn: multiprocessing.connection.Connection
    #: Whether the worker waits for more units after its current one.
    keep: bool
    task: Optional[_Task] = None  # None: idle
    deadline: Optional[float] = None


class WorkerPool:
    """Runs ``(key, unit)`` pairs in supervised forked workers.

    ``on_done(key, result)`` receives each unit's result and
    ``on_failure(key, error_class, detail, attempts)`` each unit that
    failed every attempt.  Both run in the parent as units resolve; an
    exception they raise ends :meth:`run` (after reaping).
    """

    def __init__(
        self,
        body: Callable[..., Any],
        *,
        on_done: Callable[[Any, Any], None],
        on_failure: Callable[[Any, ErrorClass, str, int], None],
        workers: int = 1,
        timeout: Optional[float] = None,
        max_retries: int = 0,
        retry_backoff: float = 0.0,
        reuse: Callable[[Any], bool] = lambda unit: False,
    ):
        self.body = body
        self.on_done = on_done
        self.on_failure = on_failure
        self.workers = workers
        self.timeout = timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.reuse = reuse
        self.ctx = multiprocessing.get_context(
            "fork"
            if "fork" in multiprocessing.get_all_start_methods()
            else "spawn"
        )

    def run(self, units: Iterable[Tuple[Any, Any]]) -> None:
        queue = [_Task(key, unit) for key, unit in units]
        unresolved = len(queue)
        live: List[_Worker] = []
        try:
            while unresolved:
                self._dispatch(live, queue)
                if not live:  # every unit waits out a retry backoff
                    time.sleep(_TICK)
                    continue
                ready = multiprocessing.connection.wait(
                    [w.conn for w in live], timeout=_TICK
                )
                now = time.monotonic()
                for worker in list(live):
                    if worker.conn in ready:
                        report = self._receive(worker, live)
                    elif worker.deadline is not None and now >= worker.deadline:
                        self._retire(worker, live, kill=True)
                        report = (
                            "error",
                            ErrorClass.TIMEOUT,
                            f"exceeded the {self.timeout:g}s timeout "
                            "and was killed",
                        )
                    else:
                        continue
                    task, worker.task, worker.deadline = worker.task, None, None
                    if task is not None:
                        unresolved -= self._settle(task, report, queue)
        finally:
            # Orderly or not (SIGINT, a raising callback), never leak workers.
            for worker in list(live):
                self._retire(worker, live, kill=worker.task is not None)

    # ------------------------------------------------------------------
    def _dispatch(self, live: List[_Worker], queue: List[_Task]) -> None:
        """Hand ready units, in queue order, to idle workers (reusable
        units) or to freshly forked ones while a slot is free."""
        now = time.monotonic()
        for task in [t for t in queue if t.ready_at <= now]:
            keep = self.reuse(task.unit)
            idle = [w for w in live if w.task is None]
            if keep and idle:
                worker = idle[0]
                try:
                    worker.conn.send((task.unit, task.attempt))
                except OSError:  # died idle: retry the unit next tick
                    self._retire(worker, live, kill=True)
                    return
            elif len(live) < self.workers or idle:
                if len(live) >= self.workers:
                    self._retire(idle[0], live)  # a fresh worker needs its slot
                worker = self._spawn(task, keep, live)
            else:
                return
            queue.remove(task)
            worker.task = task
            if self.timeout is not None:
                worker.deadline = time.monotonic() + self.timeout

    def _spawn(self, task: _Task, keep: bool, live: List[_Worker]) -> _Worker:
        """Fork a worker for ``task`` and add it to ``live``.

        SIGINT and SIGTERM wait until the worker is in ``live``: one that
        lands inside the fork is swallowed by the interpreter's at-fork
        hooks, and one that lands before the append leaks a worker the
        cleanup in :meth:`run` never sees.
        """
        parent_conn, child_conn = self.ctx.Pipe(duplex=True)
        process = self.ctx.Process(
            target=_worker_main,
            args=(child_conn, self.body, task.unit, task.attempt, keep),
            daemon=True,
        )
        held = signal.pthread_sigmask(signal.SIG_BLOCK, _INTERRUPTS)
        try:
            process.start()
            # Close the parent's copy of the child end so a dead worker
            # reads as EOF instead of a wait that never returns.
            child_conn.close()
            worker = _Worker(process=process, conn=parent_conn, keep=keep, task=task)
            live.append(worker)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, held)
        return worker

    def _receive(self, worker: _Worker, live: List[_Worker]) -> tuple:
        """The worker's report; a pipe closed without one is a crash."""
        try:
            report = worker.conn.recv()
        except (EOFError, OSError):
            self._retire(worker, live, kill=True)
            return (
                "error",
                ErrorClass.CRASH,
                f"worker process died (exit code {worker.process.exitcode})",
            )
        if not worker.keep:
            self._retire(worker, live)
        return report

    def _settle(self, task: _Task, report: tuple, queue: List[_Task]) -> int:
        """Resolve a reported unit or requeue it for a retry; returns the
        number of units resolved."""
        if report[0] == "ok":
            self.on_done(task.key, report[1])
            return 1
        _, error_class, detail = report
        if task.attempt < self.max_retries:
            task.attempt += 1
            task.ready_at = time.monotonic() + self.retry_backoff * (
                2 ** (task.attempt - 1)
            )
            queue.append(task)
            return 0
        self.on_failure(task.key, error_class, detail, task.attempt + 1)
        return 1

    def _retire(
        self, worker: _Worker, live: List[_Worker], *, kill: bool = False
    ) -> None:
        """Take a worker out of the pool and reap it: a busy or broken one
        is killed, any other told to stop."""
        live.remove(worker)
        process = worker.process
        if kill:
            if process.is_alive():
                process.terminate()
        else:
            try:
                worker.conn.send(None)
            except OSError:
                pass
        process.join(timeout=5)
        if process.is_alive():
            process.kill()
            process.join(timeout=5)
        worker.conn.close()
