"""Correctness tooling for the generated suite and the simulator.

The paper's methodology rests on two properties that nothing else in the
pipeline checks end to end:

1. every generated program actually *exhibits* the style combination its
   :class:`~repro.styles.spec.StyleSpec` declares (Tables 2/3), and
2. every simulated execution respects the invariants the styles imply —
   in particular that the read-write (racy) styles stay benign in the
   Section 2.5 sense.

This subpackage provides three audits on one shared findings model:

* :mod:`repro.analysis.ir` + :mod:`repro.analysis.infer` +
  :mod:`repro.analysis.races` — one structural parse of every emitted
  source into a loop-structured :class:`~repro.analysis.ir.SourceIR`,
  a style-inference engine that re-derives all 13 axes from it, and a
  static race detector;
* :mod:`repro.analysis.conformance` — the style-conformance lint: each
  axis where the IR-inferred style contradicts the manifest's is a
  ``CONF-*`` finding (and, under ``repro analyze --ir``, an ``INFER-*``
  one beside the race findings), plus a manifest cross-check against
  the style enumeration;
* :mod:`repro.analysis.sanitizer` — a dynamic trace sanitizer that
  validates :class:`~repro.machine.trace.ExecutionTrace` /
  :class:`~repro.machine.trace.IterationProfile` invariants after a run
  (optionally on every launch via ``$REPRO_SANITIZE``).

All are wired into the CLI as ``python -m repro analyze``.
"""

from .findings import Finding, Report, Severity, rule_catalog
from .conformance import lint_source, lint_suite, spec_from_label
from .infer import analyze_source_ir, infer_axes
from .ir import SourceIR, parse_source
from .races import detect_races
from .sanitizer import SanitizerError, assert_sane, sanitize_result, sanitize_trace

__all__ = [
    "Finding",
    "Report",
    "Severity",
    "rule_catalog",
    "lint_source",
    "lint_suite",
    "spec_from_label",
    "SourceIR",
    "parse_source",
    "detect_races",
    "infer_axes",
    "analyze_source_ir",
    "SanitizerError",
    "assert_sane",
    "sanitize_result",
    "sanitize_trace",
]
