"""Stable, machine-readable error vocabulary of the serving plane.

Every non-2xx response (and every degraded-mode annotation) the service
emits carries a JSON body of one frozen shape, so clients, load
balancers, and dashboards can key off *codes* instead of parsing prose:

.. code-block:: json

    {
      "error": {
        "code": "executor-crashed",
        "status": 502,
        "retryable": true,
        "message": "worker process died (exit code 97)",
        "error_class": "crash"
      },
      "request_id": "req-000042",
      "degraded": false
    }

``code`` comes from the closed :data:`ERROR_CODES` registry below —
service-level conditions (admission, quotas, deadlines, drain) plus one
code per :class:`~repro.runtime.errors.ErrorClass` of the sweep runtime's
failure taxonomy, mapped by :data:`ERROR_CLASS_CODES`.  ``error_class`` is
the raw taxonomy value when a sweep failure caused the error and ``null``
for purely service-level conditions.  ``retryable`` tells a client
whether the same request can reasonably be retried (after ``Retry-After``
where present).  The whole vocabulary is frozen by
``tests/serve/test_error_schema.py`` — extending it is fine, renaming or
dropping a code is a reviewed contract change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..runtime.errors import ErrorClass

__all__ = [
    "ErrorCode",
    "ERROR_CODES",
    "ERROR_CLASS_CODES",
    "ServiceError",
    "error_payload",
    "code_for_error_class",
]


@dataclass(frozen=True)
class ErrorCode:
    """One entry of the closed error-code registry."""

    code: str
    status: int  #: HTTP status the code maps onto
    retryable: bool
    description: str


def _registry(*entries: ErrorCode) -> Dict[str, ErrorCode]:
    return {entry.code: entry for entry in entries}


#: The closed registry of every error code the service can emit.
ERROR_CODES: Dict[str, ErrorCode] = _registry(
    # -- service-level conditions ------------------------------------
    ErrorCode("bad-request", 400, False,
              "malformed request line, headers, or JSON body"),
    ErrorCode("not-found", 404, False, "unknown endpoint"),
    ErrorCode("method-not-allowed", 405, False,
              "endpoint exists but not for this HTTP method"),
    ErrorCode("unknown-graph", 404, False,
              "named graph is not in the dataset registry"),
    ErrorCode("payload-too-large", 413, False,
              "request body exceeds the configured size limit"),
    ErrorCode("invalid-graph", 422, False,
              "uploaded graph failed structural validation"),
    ErrorCode("queue-full", 429, True,
              "job queue at capacity; backpressure, retry after a delay"),
    ErrorCode("quota-exceeded", 429, True,
              "per-tenant admission quota exhausted"),
    ErrorCode("deadline-exceeded", 504, True,
              "request deadline expired before a result was produced"),
    ErrorCode("shutting-down", 503, True,
              "server is draining; retry against another instance"),
    ErrorCode("breaker-open", 503, True,
              "sweep executor circuit breaker is open"),
    ErrorCode("internal", 500, True, "unexpected server-side failure"),
    # -- sweep-runtime failure taxonomy (one per ErrorClass) ---------
    ErrorCode("verification-failed", 500, False,
              "styled kernel disagreed with the serial reference"),
    ErrorCode("kernel-error", 500, False,
              "kernel raised while executing or timing"),
    ErrorCode("executor-timeout", 504, True,
              "sweep executor exceeded its deadline and was killed"),
    ErrorCode("executor-crashed", 502, True,
              "sweep executor worker died without reporting a result"),
    ErrorCode("checkpoint-corrupt", 500, True,
              "no usable predictor model artifact; the sweep ran "
              "exhaustively"),
    ErrorCode("interrupted", 503, True,
              "execution was interrupted by shutdown"),
    ErrorCode("numerical-divergence", 422, False,
              "kernel state provably diverged on this input"),
    ErrorCode("budget-exceeded", 413, False,
              "estimated resource footprint exceeds the admitted budget"),
    ErrorCode("degenerate-graph", 422, False,
              "graph shape cannot run the requested kernel"),
)

#: :class:`ErrorClass` value -> stable service error code.  Total: every
#: taxonomy member maps somewhere (frozen by the schema test).
ERROR_CLASS_CODES: Dict[ErrorClass, str] = {
    ErrorClass.VERIFICATION: "verification-failed",
    ErrorClass.KERNEL: "kernel-error",
    ErrorClass.TIMEOUT: "executor-timeout",
    ErrorClass.CRASH: "executor-crashed",
    ErrorClass.CHECKPOINT: "checkpoint-corrupt",
    ErrorClass.INTERRUPTED: "interrupted",
    ErrorClass.DIVERGENCE: "numerical-divergence",
    ErrorClass.BUDGET: "budget-exceeded",
    ErrorClass.DEGENERATE: "degenerate-graph",
}

#: Error classes that indicate a *worker-environment* fault (the process
#: or machine, not the request): these feed the circuit breaker and are
#: answered with the degraded static-guideline fallback instead of an
#: error, because the input itself is fine.
ENVIRONMENT_CLASSES = frozenset(
    {ErrorClass.CRASH, ErrorClass.TIMEOUT, ErrorClass.INTERRUPTED}
)


def code_for_error_class(error_class: ErrorClass) -> str:
    """The stable service code of one sweep-runtime failure class."""
    return ERROR_CLASS_CODES[error_class]


class ServiceError(Exception):
    """A request-terminating condition with a stable code.

    Raising one anywhere in the request path produces the frozen JSON
    error body (and HTTP status) for its code; ``error_class`` carries
    the underlying sweep-taxonomy value when one exists.
    """

    def __init__(
        self,
        code: str,
        message: str,
        *,
        error_class: Optional[ErrorClass] = None,
        retry_after: Optional[float] = None,
    ):
        if code not in ERROR_CODES:
            raise ValueError(f"unknown service error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message
        self.error_class = error_class
        self.retry_after = retry_after

    @property
    def status(self) -> int:
        return ERROR_CODES[self.code].status

    @property
    def retryable(self) -> bool:
        return ERROR_CODES[self.code].retryable

    @classmethod
    def from_error_class(
        cls, error_class: ErrorClass, message: str
    ) -> "ServiceError":
        return cls(
            code_for_error_class(error_class), message, error_class=error_class
        )


def error_payload(error: ServiceError, request_id: str) -> Dict[str, object]:
    """The frozen JSON error-body shape for one :class:`ServiceError`."""
    return {
        "error": {
            "code": error.code,
            "status": error.status,
            "retryable": error.retryable,
            "message": error.message,
            "error_class": (
                None if error.error_class is None else error.error_class.value
            ),
        },
        "request_id": request_id,
        "degraded": False,
    }
