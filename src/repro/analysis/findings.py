"""The findings model shared by both analysis passes.

A :class:`Finding` is one rule violation: which rule, how severe, which
program variant (by style label), where (a file path for the static
linter, a launch locus for the trace sanitizer), and a human-readable
message.  A :class:`Report` aggregates findings and renders them as text
(for terminals) or JSON (for CI artifacts and tooling).

Every rule has a stable id registered in :data:`RULES`; tests assert on
these ids, so treat them as public API.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["Severity", "Finding", "Report", "RULES", "rule_catalog"]


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings mean the artifact (source file, manifest or trace)
    contradicts its declared style and would corrupt downstream results;
    ``WARNING`` findings are suspicious but not methodology-breaking;
    ``NOTE`` findings are expected-by-design observations (e.g. the
    benign same-value races Section 2.5 permits) kept visible for audit.
    """

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"


#: rule id -> (default severity, one-line description).  The catalog is
#: documentation *and* validation: creating a Finding with an unknown rule
#: id raises, which keeps the docs in docs/analysis.md honest.
RULES: Dict[str, Tuple[Severity, str]] = {
    # ---- static style-conformance rules (conformance.py, from the IR) -
    "CONF-UPDATE": (
        Severity.ERROR,
        "atomic min/RMW update construct present iff the update axis is rmw "
        "(relaxation algorithms)",
    ),
    "CONF-CUDA-ATOMIC": (
        Severity.ERROR,
        "the <cuda/atomic> include present iff the atomic flavor is "
        "cudaatomic",
    ),
    "CONF-WORKLIST": (
        Severity.ERROR,
        "worklist machinery (wl indexing / push buffers) present iff the "
        "driver axis is data",
    ),
    "CONF-STAMP": (
        Severity.ERROR,
        "duplicate-suppression stamp (atomicMax / critical stamp / "
        "exchange) present iff the dup axis is nodup",
    ),
    "CONF-OMP-SCHEDULE": (
        Severity.ERROR,
        "#pragma omp ... schedule(dynamic) present iff the omp schedule "
        "axis is dynamic",
    ),
    "CONF-CPP-SCHEDULE": (
        Severity.ERROR,
        "blocked-range thread loop present iff the cpp schedule axis is "
        "blocked (cyclic otherwise)",
    ),
    "CONF-GPU-REDUCTION": (
        Severity.ERROR,
        "GPU reduction construct (global atomicAdd / atomicAdd_block / "
        "warp shuffle tree) matches the gpu reduction axis",
    ),
    "CONF-CPU-REDUCTION": (
        Severity.ERROR,
        "CPU reduction construct (clause or per-thread partial / atomic / "
        "critical or mutex) matches the cpu reduction axis",
    ),
    "CONF-PERSISTENCE": (
        Severity.ERROR,
        "grid-stride loop present iff the persistence axis is persistent",
    ),
    "CONF-GRANULARITY": (
        Severity.ERROR,
        "work-item index derivation matches the granularity axis "
        "(thread / warp / block)",
    ),
    "CONF-DETERMINISM": (
        Severity.ERROR,
        "two-array double buffering present iff the determinism axis is det",
    ),
    # ---- manifest cross-check rules (conformance.py) -----------------
    "MAN-PARSE": (
        Severity.ERROR,
        "MANIFEST.tsv row is malformed or its style label does not parse "
        "back to a StyleSpec",
    ),
    "MAN-INVALID": (
        Severity.ERROR,
        "manifest row is internally inconsistent (model/algorithm columns "
        "vs label, file name vs label, or an invalid style combination)",
    ),
    "MAN-FILE": (
        Severity.ERROR,
        "manifest lists a source file that does not exist on disk",
    ),
    "MAN-DUP": (
        Severity.ERROR,
        "the same (style, bits) variant appears more than once in the "
        "manifest",
    ),
    "MAN-UNKNOWN": (
        Severity.ERROR,
        "manifest contains a variant that enumerate_specs does not produce",
    ),
    "MAN-MISSING": (
        Severity.ERROR,
        "enumerate_specs produces a variant the manifest does not contain "
        "(checked when the suite is complete, or under --strict)",
    ),
    # ---- graph ingestion-validation rules (repro.graph.validate) -----
    "VAL-PARSE": (
        Severity.ERROR,
        "a graph file could not be parsed (message carries path and "
        "1-based line number)",
    ),
    "VAL-ROWPTR": (
        Severity.ERROR,
        "CSR row offsets are not a monotone [0 .. n_edges] index",
    ),
    "VAL-COLIDX": (
        Severity.ERROR,
        "CSR column indices contain out-of-range vertex ids",
    ),
    "VAL-WEIGHT": (
        Severity.ERROR,
        "edge weights contain negative, NaN or infinite values",
    ),
    "VAL-WEIGHT-RANGE": (
        Severity.WARNING,
        "edge weights contain zeros or values near the int32 overflow "
        "boundary (clamped under the repair policy)",
    ),
    "VAL-SELF-LOOP": (
        Severity.WARNING,
        "self loops present (the canonical form drops them)",
    ),
    "VAL-DUP-EDGE": (
        Severity.WARNING,
        "duplicate parallel edges present (the canonical form dedups them)",
    ),
    "VAL-ASYM": (
        Severity.WARNING,
        "graph is not symmetric (the study stores every undirected edge "
        "as two directed edges; pull kernels assume symmetry)",
    ),
    "VAL-EMPTY": (
        Severity.WARNING,
        "graph has no vertices or no edges (degenerate input)",
    ),
    "VAL-ISOLATED": (
        Severity.WARNING,
        "a large fraction of vertices is isolated",
    ),
    "VAL-SKEW": (
        Severity.WARNING,
        "extreme degree skew (d_max vastly above d_avg): expect severe "
        "load imbalance under thread granularity",
    ),
    "VAL-UNSORTED": (
        Severity.ERROR,
        "adjacency lists are not sorted (the merge-based triangle "
        "kernels require sorted neighbors)",
    ),
    # ---- IR-level static race rules (races.py) -----------------------
    "RACE-PLAIN": (
        Severity.ERROR,
        "a plain (non-atomic) write under a parallel loop can collide "
        "with another access to the same array through a non-injective "
        "index map, and the written values are not provably identical",
    ),
    "RACE-WL-ALIAS": (
        Severity.ERROR,
        "a worklist push buffer is written through an index that is not "
        "an atomically-claimed slot, so concurrent pushes alias",
    ),
    "RACE-REDUCTION": (
        Severity.ERROR,
        "a shared accumulator is updated with an unguarded read-modify-"
        "write (no atomic, critical, mutex or reduction clause)",
    ),
    "RACE-BENIGN": (
        Severity.NOTE,
        "a same-value write-write race the study's Section 2.5 "
        "resolution permits: a monotone conditional improvement store or "
        "a constant-store scatter (benign by construction)",
    ),
    # ---- IR style-inference rules (infer.py) -------------------------
    "INFER-ITERATION": (
        Severity.ERROR,
        "IR-inferred iteration axis (vertex/edge) disagrees with the "
        "declared style",
    ),
    "INFER-DRIVER": (
        Severity.ERROR,
        "IR-inferred driver axis (topology/data) disagrees with the "
        "declared style",
    ),
    "INFER-DUP": (
        Severity.ERROR,
        "IR-inferred duplicate-handling axis (dup/nodup) disagrees with "
        "the declared style",
    ),
    "INFER-FLOW": (
        Severity.ERROR,
        "IR-inferred flow axis (push/pull) disagrees with the declared "
        "style",
    ),
    "INFER-UPDATE": (
        Severity.ERROR,
        "IR-inferred update axis (rw/rmw) disagrees with the declared "
        "style",
    ),
    "INFER-DETERMINISM": (
        Severity.ERROR,
        "IR-inferred determinism axis (det/nondet) disagrees with the "
        "declared style",
    ),
    "INFER-PERSISTENCE": (
        Severity.ERROR,
        "IR-inferred persistence axis (persistent/nonpersistent) "
        "disagrees with the declared style",
    ),
    "INFER-GRANULARITY": (
        Severity.ERROR,
        "IR-inferred granularity axis (thread/warp/block) disagrees "
        "with the declared style",
    ),
    "INFER-ATOMIC-FLAVOR": (
        Severity.ERROR,
        "IR-inferred atomic-flavor axis (atomic/cudaatomic) disagrees "
        "with the declared style",
    ),
    "INFER-GPU-REDUCTION": (
        Severity.ERROR,
        "IR-inferred GPU reduction axis (global/block/warp-tree add) "
        "disagrees with the declared style",
    ),
    "INFER-CPU-REDUCTION": (
        Severity.ERROR,
        "IR-inferred CPU reduction axis (atomic/critical/clause) "
        "disagrees with the declared style",
    ),
    "INFER-OMP-SCHEDULE": (
        Severity.ERROR,
        "IR-inferred OpenMP schedule axis (default/dynamic) disagrees "
        "with the declared style",
    ),
    "INFER-CPP-SCHEDULE": (
        Severity.ERROR,
        "IR-inferred C++ thread schedule axis (blocked/cyclic) disagrees "
        "with the declared style",
    ),
    # ---- dynamic trace-sanitizer rules (sanitizer.py) ----------------
    "SAN-NEG": (
        Severity.ERROR,
        "an operation count, item count or inner trip count is negative",
    ),
    "SAN-INNER-SHAPE": (
        Severity.ERROR,
        "a profile's per-item inner vector length does not match its item "
        "count",
    ),
    "SAN-RW-HIST": (
        Severity.ERROR,
        "a read-write (plain store) style recorded an atomic-address "
        "conflict histogram",
    ),
    "SAN-RMW-HIST": (
        Severity.ERROR,
        "an rmw push step performed atomics but recorded no atomic-address "
        "conflict histogram",
    ),
    "SAN-STORE-RACE": (
        Severity.ERROR,
        "plain-store write-write conflict statistics recorded under an rmw "
        "style",
    ),
    "SAN-RACE-BENIGN": (
        Severity.ERROR,
        "plain-store write-write conflicts occurred on a run that did not "
        "converge to the verified fixed point (the Section 2.5 race was "
        "not benign)",
    ),
    "SAN-WL-BALANCE": (
        Severity.ERROR,
        "a worklist pass's push count does not match the next pass's item "
        "count",
    ),
    "SAN-WL-FINAL": (
        Severity.ERROR,
        "the trace converged but its final worklist pass still pushed items",
    ),
    "SAN-DETERMINISM": (
        Severity.ERROR,
        "double-buffer refresh launches present iff the determinism axis "
        "is det (iterative algorithms)",
    ),
}


def rule_catalog() -> Dict[str, str]:
    """rule id -> description (for docs and ``analyze --rules``)."""
    return {rule: desc for rule, (_sev, desc) in RULES.items()}


@dataclass(frozen=True)
class Finding:
    """One rule violation."""

    rule: str
    spec: str  #: style label of the affected variant ("" when n/a)
    locus: str  #: file path (linter) or launch locus (sanitizer)
    message: str
    severity: Severity = Severity.ERROR

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ValueError(f"unknown rule id {self.rule!r}")

    @classmethod
    def of(cls, rule: str, *, spec: str, locus: str, message: str) -> "Finding":
        """Create a finding with the rule's registered default severity."""
        return cls(
            rule=rule,
            spec=spec,
            locus=locus,
            message=message,
            severity=RULES[rule][0],
        )

    def render(self) -> str:
        where = f" [{self.locus}]" if self.locus else ""
        return f"{self.severity.value}: {self.rule}{where} {self.spec}: {self.message}"


@dataclass
class Report:
    """Aggregated findings of one analysis run."""

    findings: List[Finding] = field(default_factory=list)
    checked: int = 0  #: artifacts examined (files or launches)
    title: str = "analysis"

    def add(self, finding: Finding) -> None:
        self.findings.append(finding)

    def extend(self, findings: Iterable[Finding]) -> None:
        self.findings.extend(findings)

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.WARNING]

    @property
    def notes(self) -> List[Finding]:
        return [f for f in self.findings if f.severity is Severity.NOTE]

    @property
    def ok(self) -> bool:
        """True when no error-severity findings were raised."""
        return not self.errors

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for f in self.findings:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return counts

    # ------------------------------------------------------------------
    def render_text(self) -> str:
        lines = [f"{self.title}: {self.checked} checked"]
        for f in self.findings:
            lines.append("  " + f.render())
        if self.findings:
            per_rule = ", ".join(
                f"{rule} x{n}" for rule, n in sorted(self.by_rule().items())
            )
            summary = (
                f"{len(self.errors)} error(s), {len(self.warnings)} "
                f"warning(s)"
            )
            if self.notes:
                summary += f", {len(self.notes)} note(s)"
            lines.append(f"{summary} ({per_rule})")
        else:
            lines.append("no findings")
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "title": self.title,
            "checked": self.checked,
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "notes": len(self.notes),
            "findings": [
                {
                    "rule": f.rule,
                    "severity": f.severity.value,
                    "spec": f.spec,
                    "locus": f.locus,
                    "message": f.message,
                }
                for f in self.findings
            ],
        }
        return json.dumps(payload, indent=2) + "\n"

    def merged(self, other: "Report", title: Optional[str] = None) -> "Report":
        """A new report combining this one with ``other``."""
        out = Report(title=title or self.title)
        out.findings = list(self.findings) + list(other.findings)
        out.checked = self.checked + other.checked
        return out
