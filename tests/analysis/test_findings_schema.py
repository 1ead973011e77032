"""Schema stability for the findings model.

Downstream consumers (the CI gate, the ``--json`` report, external
dashboards) key off rule ids, severity names and the JSON report shape.
This test freezes all three so a rename or a dropped rule shows up as an
explicit, reviewed diff instead of a silent contract break.
"""

import json

import pytest

from repro.analysis.findings import RULES, Finding, Report, Severity, rule_catalog

pytestmark = pytest.mark.analysis

EXPECTED_RULES = frozenset(
    {
        # conformance linter
        "CONF-UPDATE",
        "CONF-CUDA-ATOMIC",
        "CONF-WORKLIST",
        "CONF-STAMP",
        "CONF-OMP-SCHEDULE",
        "CONF-CPP-SCHEDULE",
        "CONF-GPU-REDUCTION",
        "CONF-CPU-REDUCTION",
        "CONF-PERSISTENCE",
        "CONF-GRANULARITY",
        "CONF-DETERMINISM",
        # manifest cross-check
        "MAN-PARSE",
        "MAN-INVALID",
        "MAN-FILE",
        "MAN-DUP",
        "MAN-UNKNOWN",
        "MAN-MISSING",
        # graph input validation
        "VAL-PARSE",
        "VAL-ROWPTR",
        "VAL-COLIDX",
        "VAL-WEIGHT",
        "VAL-WEIGHT-RANGE",
        "VAL-SELF-LOOP",
        "VAL-DUP-EDGE",
        "VAL-ASYM",
        "VAL-EMPTY",
        "VAL-ISOLATED",
        "VAL-SKEW",
        "VAL-UNSORTED",
        # IR race detector
        "RACE-PLAIN",
        "RACE-WL-ALIAS",
        "RACE-REDUCTION",
        "RACE-BENIGN",
        # IR style inference (one per axis)
        "INFER-ITERATION",
        "INFER-DRIVER",
        "INFER-DUP",
        "INFER-FLOW",
        "INFER-UPDATE",
        "INFER-DETERMINISM",
        "INFER-PERSISTENCE",
        "INFER-GRANULARITY",
        "INFER-ATOMIC-FLAVOR",
        "INFER-GPU-REDUCTION",
        "INFER-CPU-REDUCTION",
        "INFER-OMP-SCHEDULE",
        "INFER-CPP-SCHEDULE",
        # trace sanitizer
        "SAN-NEG",
        "SAN-INNER-SHAPE",
        "SAN-RW-HIST",
        "SAN-RMW-HIST",
        "SAN-STORE-RACE",
        "SAN-RACE-BENIGN",
        "SAN-WL-BALANCE",
        "SAN-WL-FINAL",
        "SAN-DETERMINISM",
    }
)


class TestRuleCatalog:
    def test_rule_id_set_is_frozen(self):
        assert set(RULES) == EXPECTED_RULES
        assert set(rule_catalog()) == EXPECTED_RULES

    def test_severity_wire_names_are_frozen(self):
        assert {s.value for s in Severity} == {"error", "warning", "note"}

    def test_registered_default_severities(self):
        notes = {rule for rule, (sev, _d) in RULES.items() if sev is Severity.NOTE}
        assert notes == {"RACE-BENIGN"}
        for rule in EXPECTED_RULES:
            if rule.startswith(("RACE", "INFER")) and rule not in notes:
                assert RULES[rule][0] is Severity.ERROR, rule

    def test_unknown_rule_is_rejected(self):
        with pytest.raises(ValueError):
            Finding(rule="NOPE-1", spec="", locus="", message="")
        with pytest.raises((KeyError, ValueError)):
            Finding.of("NOPE-1", spec="", locus="", message="")


class TestReportJson:
    def test_report_shape_is_frozen(self):
        report = Report(title="t", checked=3)
        report.add(
            Finding.of(
                "RACE-PLAIN", spec="bfs-cuda", locus="a.cu", message="boom"
            )
        )
        payload = json.loads(report.to_json())
        assert set(payload) == {
            "title",
            "checked",
            "ok",
            "errors",
            "warnings",
            "notes",
            "findings",
        }
        assert payload["checked"] == 3
        assert payload["ok"] is False
        assert payload["errors"] == 1
        (finding,) = payload["findings"]
        assert set(finding) == {"rule", "severity", "spec", "locus", "message"}
        assert finding["severity"] == "error"

    def test_ok_tracks_errors_only(self):
        report = Report(title="t", checked=1)
        report.add(
            Finding.of("RACE-BENIGN", spec="s", locus="f", message="expected")
        )
        assert report.ok
        assert json.loads(report.to_json())["notes"] == 1
