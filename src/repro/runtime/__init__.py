"""Runtime: launching styled programs on simulated devices, with
verification against serial references."""

from .budget import BudgetExceeded, ResourceBudget, estimate_bytes
from .errors import (
    BlockTimeoutError,
    ErrorClass,
    FailedRun,
    SweepError,
    WorkerCrashError,
    classify_error,
    error_digest,
)
from .launcher import Launcher, RunResult
from .verify import (
    VerificationError,
    pr_tolerance,
    reference_solution,
    verify_result,
)

__all__ = [
    "Launcher",
    "RunResult",
    "VerificationError",
    "reference_solution",
    "verify_result",
    "pr_tolerance",
    "ResourceBudget",
    "BudgetExceeded",
    "estimate_bytes",
    "ErrorClass",
    "FailedRun",
    "SweepError",
    "BlockTimeoutError",
    "WorkerCrashError",
    "classify_error",
    "error_digest",
]
