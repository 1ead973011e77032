"""Deterministic fault injection for the sweep supervisor (test-only).

The supervision paths in :mod:`repro.bench.parallel` — retry, timeout,
crash recovery, serial fallback, block quarantine — only matter when
something goes wrong, so CI must be able to *make* things go wrong on a
precise schedule.  Setting ``$REPRO_FAULTS`` to a JSON list of rules arms
this module; it is inert (and costs one env lookup) otherwise.

Each rule is an object with:

``action``
    ``"raise"``  — raise :class:`FaultInjected` at the start of the block;
    ``"hang"``   — sleep far past any reasonable block timeout;
    ``"kill"``   — ``os._exit`` the worker process (no-op when the block
    runs in the supervisor's own process, which is exactly what lets the
    serial fallback distinguish worker-environment faults from kernel
    bugs);
    ``"verify"`` — make one variant's verification fail inside an
    otherwise healthy block;
    ``"kill-executor"`` — ``os._exit`` the *serving plane's* sweep
    executor worker mid-job (worker-only, like ``kill``); exercises the
    service's retry, circuit-breaker, and degraded-mode paths;
    ``"hang-request"`` — sleep inside the executor worker far past any
    request deadline, so the service's deadline enforcement has something
    real to kill;
    ``"reject-enqueue"`` — make the service's job-queue admission raise,
    exercising the explicit backpressure (429/503) path.

``algorithm`` / ``graph``
    Which (algorithm, graph) blocks the rule matches; either may be
    omitted to match all.

``attempts``
    Optional list of attempt numbers the rule fires on (default: every
    attempt).  Worker attempts count 0, 1, …; the in-process serial
    fallback runs as the next attempt number after the last worker retry.

``model`` / ``spec_index``
    For ``"verify"``: which model's enumeration (default: the block's
    first) and which variant index within it fails.

``kill`` and ``kill-executor`` read :func:`repro.runtime.workers.in_worker`
to know it is safe to exit the process.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..runtime.verify import VerificationError
from ..runtime.workers import in_worker

__all__ = [
    "FAULTS_ENV",
    "FaultInjected",
    "FaultRule",
    "active_rules",
    "inject_block_fault",
    "apply_verify_faults",
    "inject_executor_fault",
    "inject_enqueue_fault",
]

#: JSON fault plan; unset/empty means no injection.
FAULTS_ENV = "REPRO_FAULTS"

#: How long a "hang" fault sleeps — effectively forever next to any
#: realistic ``--block-timeout``.
HANG_SECONDS = 3600.0


class FaultInjected(RuntimeError):
    """The error a ``raise`` fault produces (classified as ``kernel``)."""


@dataclass(frozen=True)
class FaultRule:
    """One parsed entry of the ``$REPRO_FAULTS`` plan."""

    action: str
    algorithm: Optional[str] = None
    graph: Optional[str] = None
    attempts: Optional[Tuple[int, ...]] = None
    model: Optional[str] = None
    spec_index: int = 0

    def matches(self, algorithm: str, graph: str, attempt: int) -> bool:
        if self.algorithm is not None and self.algorithm != algorithm:
            return False
        if self.graph is not None and self.graph != graph:
            return False
        if self.attempts is not None and attempt not in self.attempts:
            return False
        return True


_ACTIONS = (
    "raise", "hang", "kill", "verify",
    "kill-executor", "hang-request", "reject-enqueue",
)


def active_rules() -> List[FaultRule]:
    """The fault plan from the environment (re-read on every call, so
    freshly-forked workers and monkeypatching tests both see it)."""
    raw = os.environ.get(FAULTS_ENV)
    if not raw:
        return []
    try:
        entries = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"${FAULTS_ENV} is not valid JSON: {exc}") from None
    rules = []
    for entry in entries:
        action = entry.get("action")
        if action not in _ACTIONS:
            raise ValueError(
                f"${FAULTS_ENV}: unknown action {action!r}; known: {_ACTIONS}"
            )
        attempts = entry.get("attempts")
        rules.append(
            FaultRule(
                action=action,
                algorithm=entry.get("algorithm"),
                graph=entry.get("graph"),
                attempts=None if attempts is None else tuple(attempts),
                model=entry.get("model"),
                spec_index=int(entry.get("spec_index", 0)),
            )
        )
    return rules


def inject_block_fault(algorithm: str, graph: str, attempt: int) -> None:
    """Fire any whole-block fault scheduled for this (block, attempt)."""
    for rule in active_rules():
        if rule.action not in ("raise", "hang", "kill"):
            continue
        if not rule.matches(algorithm, graph, attempt):
            continue
        if rule.action == "raise":
            raise FaultInjected(
                f"injected failure in {algorithm} x {graph} (attempt {attempt})"
            )
        if rule.action == "hang":
            time.sleep(HANG_SECONDS)
        elif rule.action == "kill" and in_worker():
            os._exit(99)


def inject_executor_fault(algorithm: str, graph: str, attempt: int) -> None:
    """Fire any service-executor fault scheduled for this (job, attempt).

    Called by the serving plane's sweep executor at the start of each
    algorithm's block.  ``hang-request`` sleeps past any realistic request
    deadline (the supervising service kills the worker and classifies the
    attempt as a timeout); ``kill-executor`` exits the worker process
    abruptly, and carries the same worker-only guard as ``kill`` so it can
    never take down the server itself.
    """
    for rule in active_rules():
        if rule.action not in ("kill-executor", "hang-request"):
            continue
        if not rule.matches(algorithm, graph, attempt):
            continue
        if rule.action == "hang-request":
            time.sleep(HANG_SECONDS)
        elif in_worker():
            os._exit(97)


def inject_enqueue_fault(algorithm: str, graph: str, attempt: int = 0) -> None:
    """Raise :class:`FaultInjected` if a ``reject-enqueue`` rule matches.

    Fired in the *server* process at job-queue admission time; the service
    maps the injected rejection onto its normal queue-full backpressure
    response, which is exactly the claim the chaos suite checks.
    """
    for rule in active_rules():
        if rule.action != "reject-enqueue":
            continue
        if rule.matches(algorithm, graph, attempt):
            raise FaultInjected(
                f"injected enqueue rejection for {algorithm} x {graph}"
            )


def apply_verify_faults(launcher, block, attempt: int) -> None:
    """Wrap ``launcher.execute_semantic`` so the scheduled variant of this
    block fails verification.  No-op without a matching rule."""
    targets = set()
    for rule in active_rules():
        if rule.action != "verify":
            continue
        if not rule.matches(block.algorithm.value, block.graph_name, attempt):
            continue
        from ..styles.axes import Model
        from ..styles.combos import enumerate_specs

        model = Model(rule.model) if rule.model else block.config.models[0]
        specs = enumerate_specs(block.algorithm, model)
        targets.add(specs[rule.spec_index % len(specs)].semantic_key())
    if not targets:
        return
    original = launcher.execute_semantic

    def injected(spec, graph):
        if spec.semantic_key() in targets:
            raise VerificationError(
                f"injected verification failure for {spec.label()}"
            )
        return original(spec, graph)

    launcher.execute_semantic = injected

