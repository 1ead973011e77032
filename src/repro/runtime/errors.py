"""Structured failure taxonomy for the sweep runtime.

A full study sweep executes tens of thousands of kernel runs; a single
bad variant or crashed worker must be *recorded*, not allowed to abort
the sweep and discard every finished block.  This module defines the
vocabulary the supervisor and the failure manifest share:

* :class:`ErrorClass` — what kind of thing went wrong;
* the exception types the supervisor raises internally
  (:class:`BlockTimeoutError`, :class:`WorkerCrashError`);
* :func:`classify_error` — map any exception onto the taxonomy;
* :class:`FailedRun` — one manifest entry: which cell of the study grid
  is missing, why, and after how many attempts.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "ErrorClass",
    "SweepError",
    "BlockTimeoutError",
    "WorkerCrashError",
    "classify_error",
    "error_digest",
    "FailedRun",
]


class ErrorClass(enum.Enum):
    """What kind of failure a manifest entry records."""

    #: A styled kernel's result disagreed with the serial reference.
    VERIFICATION = "verification"
    #: Any other exception raised while executing or timing a kernel.
    KERNEL = "kernel"
    #: A block exceeded the per-block timeout and was terminated.
    TIMEOUT = "timeout"
    #: A worker process died without reporting a result.
    CRASH = "crash"
    #: A predicted sweep found no usable predictor model (disabled,
    #: missing, corrupt or mismatched artifact) and ran exhaustively.
    #: The value and its ``checkpoint-corrupt`` service code are frozen.
    CHECKPOINT = "checkpoint"
    #: The sweep was interrupted (SIGINT / KeyboardInterrupt).
    INTERRUPTED = "interrupted"
    #: A kernel's state was provably diverging (NaN/Inf residual,
    #: out-of-domain values, or a non-shrinking residual window).
    DIVERGENCE = "divergence"
    #: A run was skipped before launch because its estimated footprint
    #: exceeded the configured resource budget.
    BUDGET = "budget"
    #: The graph shape cannot run this kernel (e.g. zero vertices) —
    #: an expected, typed skip rather than a crash.
    DEGENERATE = "degenerate"


class SweepError(RuntimeError):
    """Base class of the sweep supervisor's own failures."""


class BlockTimeoutError(SweepError):
    """A block ran past ``--block-timeout`` and its worker was killed."""


class WorkerCrashError(SweepError):
    """A worker process exited without sending back its block's runs."""


def classify_error(exc: BaseException) -> ErrorClass:
    """Map an exception onto the :class:`ErrorClass` taxonomy."""
    from ..kernels.base import DegenerateGraphError, DivergenceError
    from .budget import BudgetExceeded
    from .verify import VerificationError

    if isinstance(exc, VerificationError):
        return ErrorClass.VERIFICATION
    if isinstance(exc, DivergenceError):
        return ErrorClass.DIVERGENCE
    if isinstance(exc, BudgetExceeded):
        return ErrorClass.BUDGET
    if isinstance(exc, DegenerateGraphError):
        return ErrorClass.DEGENERATE
    if isinstance(exc, BlockTimeoutError):
        return ErrorClass.TIMEOUT
    if isinstance(exc, WorkerCrashError):
        return ErrorClass.CRASH
    if isinstance(exc, KeyboardInterrupt):
        return ErrorClass.INTERRUPTED
    return ErrorClass.KERNEL


def error_digest(error_class: ErrorClass, message: str) -> str:
    """Short stable digest of one failure mode (class + message).

    Identical failures across variants/devices share a digest, so a
    manifest with 500 entries caused by one bug is visibly one bug.
    """
    payload = f"{error_class.value}\0{message}".encode()
    return hashlib.sha256(payload).hexdigest()[:12]


@dataclass(frozen=True)
class FailedRun:
    """One failure-manifest entry: a missing cell (or block) of the grid.

    ``stage`` is ``"variant"`` when a single program variant failed inside
    an otherwise healthy block (e.g. a verification failure), ``"block"``
    when a whole (algorithm, graph) block was quarantined after retries.
    Block-level entries leave ``spec_label``/``model``/``device`` unset.
    """

    algorithm: str
    graph: str
    error_class: ErrorClass
    message: str
    digest: str
    stage: str = "variant"
    spec_label: Optional[str] = None
    model: Optional[str] = None
    device: Optional[str] = None
    attempts: int = 1

    @classmethod
    def from_exception(
        cls,
        exc: BaseException,
        *,
        algorithm: str,
        graph: str,
        stage: str = "variant",
        spec_label: Optional[str] = None,
        model: Optional[str] = None,
        device: Optional[str] = None,
        attempts: int = 1,
    ) -> "FailedRun":
        error_class = classify_error(exc)
        message = f"{type(exc).__name__}: {exc}"
        return cls(
            algorithm=algorithm,
            graph=graph,
            error_class=error_class,
            message=message,
            digest=error_digest(error_class, message),
            stage=stage,
            spec_label=spec_label,
            model=model,
            device=device,
            attempts=attempts,
        )

    def render(self) -> str:
        where = f"{self.algorithm} x {self.graph}"
        if self.spec_label:
            where += f" [{self.spec_label}]"
        if self.device:
            where += f" on {self.device}"
        tries = f", {self.attempts} attempts" if self.attempts > 1 else ""
        return (
            f"[{self.error_class.value}] {where} "
            f"(digest {self.digest}{tries}): {self.message}"
        )
