"""Style conformance for the generated source suite.

For every :class:`~repro.styles.spec.StyleSpec`, the generators emit a
closed set of constructs (the paper's Listings 1-13).  :func:`lint_source`
checks one emitted source against its spec by parsing it into the
:class:`~repro.analysis.ir.SourceIR` and re-deriving its axes with
:func:`~repro.analysis.infer.infer_axes`: every carried axis whose IR
evidence contradicts the declared value — a construct missing where the
style demands it, or present where the style forbids it — is one
``CONF-*`` finding (``_CONF_RULES``).  The same verdicts, under their
``INFER-*`` ids, are what ``lint_suite(ir=True)`` adds.

:func:`lint_suite` additionally cross-checks a generated suite's
``MANIFEST.tsv`` against :func:`repro.styles.combos.enumerate_specs`:
every row must parse back to a valid spec, point at an existing file with
the canonical name, and the per-(model, algorithm) variant sets must
match the enumeration (exactly when the suite is complete or ``strict``,
as a subset when it was sampled with ``--limit``).

Rule ids live in :data:`repro.analysis.findings.RULES`.
"""

from __future__ import annotations

import multiprocessing
import os
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from ..codegen.common import file_name
from ..styles.axes import AXIS_FIELDS, Algorithm, Model
from ..styles.combos import enumerate_specs
from ..styles.spec import StyleSpec
from .findings import Finding, Report
from .infer import AXIS_RULES, axis_mismatches, mismatch_findings
from .ir import parse_source
from .races import detect_races

__all__ = ["spec_from_label", "lint_source", "lint_suite"]

#: axis field -> its CONF-* rule id.  iteration and flow have no CONF
#: rule: their only static check is the IR pass (INFER-ITERATION/-FLOW).
_CONF_RULES: Dict[str, str] = {
    "driver": "CONF-WORKLIST",
    "dup": "CONF-STAMP",
    "update": "CONF-UPDATE",
    "determinism": "CONF-DETERMINISM",
    "persistence": "CONF-PERSISTENCE",
    "granularity": "CONF-GRANULARITY",
    "atomic_flavor": "CONF-CUDA-ATOMIC",
    "gpu_reduction": "CONF-GPU-REDUCTION",
    "cpu_reduction": "CONF-CPU-REDUCTION",
    "omp_schedule": "CONF-OMP-SCHEDULE",
    "cpp_schedule": "CONF-CPP-SCHEDULE",
}

#: axis value string -> (StyleSpec field name, enum member).  Axis values
#: are globally unique and hyphen-free, which is what makes label
#: round-tripping well defined.
_VALUE_TO_AXIS: Dict[str, Tuple[str, object]] = {}
for _field, _enum in AXIS_FIELDS.items():
    for _member in _enum:
        if _member.value in _VALUE_TO_AXIS:  # pragma: no cover - invariant
            raise AssertionError(f"axis value {_member.value!r} is not unique")
        _VALUE_TO_AXIS[_member.value] = (_field, _member)


def spec_from_label(label: str) -> StyleSpec:
    """Parse a ``StyleSpec.label()`` string back into a validated spec.

    Raises ``ValueError`` for unknown algorithms/models/axis values,
    duplicated axes, or combinations outside the suite.
    """
    parts = label.split("-")
    if len(parts) < 3:
        raise ValueError(f"label {label!r} is too short to be a style label")
    try:
        algorithm = Algorithm(parts[0])
        model = Model(parts[1])
    except ValueError:
        raise ValueError(
            f"label {label!r} does not start with <algorithm>-<model>"
        ) from None
    kwargs: Dict[str, object] = {}
    for part in parts[2:]:
        entry = _VALUE_TO_AXIS.get(part)
        if entry is None:
            raise ValueError(f"unknown axis value {part!r} in label {label!r}")
        field, member = entry
        if field in kwargs:
            raise ValueError(f"axis {field!r} appears twice in label {label!r}")
        kwargs[field] = member
    spec = StyleSpec(algorithm=algorithm, model=model, **kwargs)
    spec.validate()
    return spec


# ----------------------------------------------------------------------
# Per-source linting
# ----------------------------------------------------------------------
def lint_source(spec: StyleSpec, text: str, *, locus: str = "") -> List[Finding]:
    """Lint one emitted source against its spec; returns the findings.

    One ``CONF-*`` finding per axis whose IR evidence contradicts the
    spec, so a single dropped construct maps to a single,
    precisely-identified finding.
    """
    mismatches = axis_mismatches(spec, parse_source(text))
    return mismatch_findings(spec, mismatches, _CONF_RULES, locus=locus)


# ----------------------------------------------------------------------
# Suite / manifest linting
# ----------------------------------------------------------------------
def _expected_file_name(spec: StyleSpec, bits: int) -> str:
    name = file_name(spec)
    if bits != 32:
        stem, dot, ext = name.rpartition(".")
        name = f"{stem}-i64{dot}{ext}"
    return name


def _analyze_entry(payload: Tuple[str, str, str, bool]) -> List[Finding]:
    """Worker body: lint (and optionally race-check) one suite source.

    Top-level so it pickles into a worker pool; findings are frozen
    dataclasses and travel back whole.  The file is read, parsed and
    inferred exactly once; the one set of axis mismatches is reported as
    ``CONF-*`` always and, under ``ir``, as ``INFER-*`` too.
    """
    label, path_str, rel, ir = payload
    spec = spec_from_label(label)
    source = parse_source(Path(path_str).read_text())
    mismatches = axis_mismatches(spec, source)
    findings = mismatch_findings(spec, mismatches, _CONF_RULES, locus=rel)
    if ir:
        findings += detect_races(source, spec, locus=rel)
        findings += mismatch_findings(spec, mismatches, AXIS_RULES, locus=rel)
    return findings


def lint_suite(
    root: Union[str, Path],
    *,
    strict: bool = False,
    ir: bool = False,
    jobs: Optional[int] = None,
) -> Report:
    """Lint a generated suite directory (manifest + every listed source).

    The manifest cross-check treats a per-(model, algorithm, bits) group
    as *sampled* when it holds fewer variants than the enumeration —
    ``generate_suite(--limit)`` output lints clean.  A group at (or past)
    full size, or any group under ``strict=True``, must match the
    enumeration exactly.

    ``ir=True`` additionally reports the race detector's RACE-* findings
    and each axis mismatch under its ``INFER-*`` id.
    ``jobs`` fans the per-file work over a process pool (default: the
    machine's core count; 1 = in-process serial).
    """
    root = Path(root)
    report = Report(title=f"conformance {root}")
    manifest = root / "MANIFEST.tsv"
    if not manifest.is_file():
        report.add(
            Finding.of(
                "MAN-PARSE",
                spec="",
                locus=str(manifest),
                message="MANIFEST.tsv not found (not a generated suite?)",
            )
        )
        return report

    lines = manifest.read_text().splitlines()
    if not lines or lines[0] != "model\talgorithm\tbits\tfile\tstyle":
        report.add(
            Finding.of(
                "MAN-PARSE",
                spec="",
                locus="MANIFEST.tsv:1",
                message="missing or malformed header row",
            )
        )
        return report

    entries: List[Tuple[StyleSpec, int, Path, str]] = []
    seen: Dict[Tuple[str, int], str] = {}
    groups: Dict[Tuple[Model, Algorithm, int], Set[str]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        locus = f"MANIFEST.tsv:{lineno}"
        cols = line.split("\t")
        if len(cols) != 5:
            report.add(
                Finding.of(
                    "MAN-PARSE", spec="", locus=locus,
                    message=f"expected 5 tab-separated columns, got {len(cols)}",
                )
            )
            continue
        model_s, alg_s, bits_s, rel, label = cols
        try:
            spec = spec_from_label(label)
        except ValueError as exc:
            report.add(Finding.of("MAN-PARSE", spec=label, locus=locus, message=str(exc)))
            continue
        if bits_s not in ("32", "64"):
            report.add(
                Finding.of(
                    "MAN-PARSE", spec=label, locus=locus,
                    message=f"bits column must be 32 or 64, got {bits_s!r}",
                )
            )
            continue
        bits = int(bits_s)
        if spec.model.value != model_s or spec.algorithm.value != alg_s:
            report.add(
                Finding.of(
                    "MAN-INVALID", spec=label, locus=locus,
                    message=(
                        f"model/algorithm columns ({model_s}/{alg_s}) disagree "
                        "with the style label"
                    ),
                )
            )
            continue
        expected_name = _expected_file_name(spec, bits)
        if Path(rel).name != expected_name:
            report.add(
                Finding.of(
                    "MAN-INVALID", spec=label, locus=locus,
                    message=f"file name {Path(rel).name!r} is not the canonical "
                            f"{expected_name!r}",
                )
            )
            continue
        if (label, bits) in seen:
            report.add(
                Finding.of(
                    "MAN-DUP", spec=label, locus=locus,
                    message=f"variant already listed at {seen[(label, bits)]}",
                )
            )
            continue
        seen[(label, bits)] = locus
        path = root / rel
        if not path.is_file():
            report.add(
                Finding.of("MAN-FILE", spec=label, locus=locus,
                           message=f"listed source {rel!r} does not exist")
            )
            continue
        entries.append((spec, bits, path, rel))
        groups.setdefault((spec.model, spec.algorithm, bits), set()).add(label)

    # Cross-check each group against the enumeration.
    for (model, alg, bits), got in sorted(
        groups.items(), key=lambda kv: (kv[0][0].value, kv[0][1].value, kv[0][2])
    ):
        expected = {s.label() for s in enumerate_specs(alg, model)}
        for label in sorted(got - expected):
            report.add(
                Finding.of(
                    "MAN-UNKNOWN", spec=label, locus="MANIFEST.tsv",
                    message=f"{alg.value}/{model.value} enumeration does not "
                            "contain this variant",
                )
            )
        missing = expected - got
        if missing and (strict or len(got) >= len(expected)):
            sample = ", ".join(sorted(missing)[:3])
            more = f" (+{len(missing) - 3} more)" if len(missing) > 3 else ""
            report.add(
                Finding.of(
                    "MAN-MISSING", spec=f"{alg.value}-{model.value}",
                    locus="MANIFEST.tsv",
                    message=f"{len(missing)} enumerated {bits}-bit variant(s) "
                            f"absent from the manifest: {sample}{more}",
                )
            )

    # Lint every listed source file (optionally with the IR pipeline),
    # fanned over a worker pool when the suite is large enough to pay.
    payloads = [
        (spec.label(), str(path), rel, ir) for spec, _bits, path, rel in entries
    ]
    if jobs is None:
        jobs = os.cpu_count() or 1
    jobs = max(1, min(jobs, len(payloads) or 1))
    if jobs > 1 and len(payloads) >= 32:
        with multiprocessing.get_context("spawn").Pool(jobs) as pool:
            chunk = max(1, len(payloads) // (jobs * 4))
            for findings in pool.imap(_analyze_entry, payloads, chunksize=chunk):
                report.extend(findings)
                report.checked += 1
    else:
        for payload in payloads:
            report.extend(_analyze_entry(payload))
            report.checked += 1
    return report
