"""Unit tests of the service-level ``$REPRO_FAULTS`` actions.

The chaos suite exercises these through the full service; here the three
new actions — ``kill-executor``, ``hang-request``, ``reject-enqueue`` —
are pinned down at the injection-point level: plan parsing, matching,
and the worker-only guard on the kill.
"""

import json

import pytest

from repro.bench import faults
from repro.bench.faults import (
    FAULTS_ENV,
    FaultInjected,
    active_rules,
    inject_enqueue_fault,
    inject_executor_fault,
)

pytestmark = [pytest.mark.serve, pytest.mark.faults]


def arm(monkeypatch, *rules):
    monkeypatch.setenv(FAULTS_ENV, json.dumps(list(rules)))


def test_service_actions_parse(monkeypatch):
    arm(
        monkeypatch,
        {"action": "kill-executor"},
        {"action": "hang-request", "graph": "g"},
        {"action": "reject-enqueue", "algorithm": "bfs"},
    )
    actions = [rule.action for rule in active_rules()]
    assert actions == ["kill-executor", "hang-request", "reject-enqueue"]


def test_reject_enqueue_raises_only_on_match(monkeypatch):
    arm(monkeypatch, {"action": "reject-enqueue", "graph": "target"})
    inject_enqueue_fault("bfs", "other")  # no match: no-op
    with pytest.raises(FaultInjected):
        inject_enqueue_fault("bfs", "target")


def test_reject_enqueue_respects_attempt_window(monkeypatch):
    arm(monkeypatch, {"action": "reject-enqueue", "attempts": [1]})
    with pytest.raises(FaultInjected):
        inject_enqueue_fault("bfs", "g", attempt=1)
    inject_enqueue_fault("bfs", "g", attempt=2)  # outside the window


def test_kill_executor_is_inert_outside_workers(monkeypatch):
    """The kill action must only fire in a pool worker — in the service
    process it is a no-op, never a self-kill."""
    arm(monkeypatch, {"action": "kill-executor"})
    inject_executor_fault("bfs", "g", 1)  # still alive == pass


def test_hang_request_sleeps_in_any_process(monkeypatch):
    """hang-request simulates a wedged request, which does not need the
    worker guard; verify it routes into the (patched) sleep."""
    arm(monkeypatch, {"action": "hang-request", "graph": "g"})
    slept = []
    monkeypatch.setattr(faults.time, "sleep", lambda s: slept.append(s))
    inject_executor_fault("bfs", "g", 1)
    assert slept == [faults.HANG_SECONDS]
    slept.clear()
    inject_executor_fault("bfs", "other", 1)  # no match: no sleep
    assert slept == []


def test_executor_fault_ignores_unrelated_actions(monkeypatch):
    arm(monkeypatch, {"action": "raise"}, {"action": "kill"})
    inject_executor_fault("bfs", "g", 1)
    inject_enqueue_fault("bfs", "g")
