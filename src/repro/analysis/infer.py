"""IR-based style inference: the one reader of an emitted source's style.

:func:`infer_axes` re-derives a source's 13-axis style from its
:class:`~repro.analysis.ir.SourceIR` alone — no manifest, no text
probes.  Each axis is read off structural evidence: where writes land
(flow), through which index maps (iteration/driver), under which guards
(update), against which buffers (determinism), and how the parallel
loop is shaped (persistence/granularity/schedules).  Host-side facts
vote too: the ``DATA_DRIVEN`` / ``DETERMINISTIC`` macros, the buffers a
kernel launch binds to its ``*_in`` / ``*_out`` parameters, and the
shuffle intrinsic inside a ``__device__`` reduction helper.  When the
pieces of evidence for one axis name different values, the axis reads
as a :class:`Conflict`, which no declared value equals — so a construct
that contradicts the style is flagged whether it is missing or extra.
Axes the (algorithm, model) enumeration pins to a single option are
taken as pinned; axes it does not carry at all stay ``None``.

:func:`axis_mismatches` compares the inferred axes against a declared
spec, and :func:`mismatch_findings` reports that one verdict under a
rule family: ``INFER-<AXIS>`` here (:data:`AXIS_RULES`), ``CONF-*`` in
:mod:`repro.analysis.conformance`.  :func:`analyze_source_ir` adds the
RACE-* findings of :mod:`repro.analysis.races` to the ``INFER-*`` ones,
making it the per-file entry point behind ``repro analyze --ir``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Set, Tuple

from ..styles.axes import (
    AXIS_FIELDS,
    Algorithm,
    AtomicFlavor,
    CppSchedule,
    CpuReduction,
    Determinism,
    Driver,
    Dup,
    Flow,
    GpuReduction,
    Granularity,
    Iteration,
    Model,
    OmpSchedule,
    Persistence,
    Update,
)
from ..styles.combos import enumerate_specs
from ..styles.spec import StyleSpec
from .findings import Finding
from .ir import AccessKind, Guard, IndexClass, SourceIR, parse_source
from .races import detect_races

__all__ = [
    "Conflict",
    "infer_axes",
    "axis_mismatches",
    "mismatch_findings",
    "analyze_source_ir",
    "AXIS_RULES",
]

#: axis field -> its INFER-* rule id.
AXIS_RULES: Dict[str, str] = {
    "iteration": "INFER-ITERATION",
    "driver": "INFER-DRIVER",
    "dup": "INFER-DUP",
    "flow": "INFER-FLOW",
    "update": "INFER-UPDATE",
    "determinism": "INFER-DETERMINISM",
    "persistence": "INFER-PERSISTENCE",
    "granularity": "INFER-GRANULARITY",
    "atomic_flavor": "INFER-ATOMIC-FLAVOR",
    "gpu_reduction": "INFER-GPU-REDUCTION",
    "cpu_reduction": "INFER-CPU-REDUCTION",
    "omp_schedule": "INFER-OMP-SCHEDULE",
    "cpp_schedule": "INFER-CPP-SCHEDULE",
}

#: arrays that are bookkeeping, not the algorithm's value plane.
_NON_VALUE = frozenset(
    {
        "wl", "wl_next", "wl_next_size", "stat", "changed", "d_changed",
        "blocked", "again", "nbr_idx", "nbr_list", "e_weight", "src_list",
        "dst_list", "deg",
    }
)


@lru_cache(maxsize=None)
def _axis_options(
    algorithm: Algorithm, model: Model
) -> Dict[str, Tuple[object, ...]]:
    """axis field -> the distinct values the enumeration produces."""
    options: Dict[str, set] = {field: set() for field in AXIS_FIELDS}
    for spec in enumerate_specs(algorithm, model):
        for field in AXIS_FIELDS:
            options[field].add(getattr(spec, field))
    return {field: tuple(values) for field, values in options.items()}


@dataclass(frozen=True)
class Conflict:
    """An axis whose pieces of evidence name more than one value, or none.

    Equal to no axis value, so it always disagrees with the declared one.
    """

    values: Tuple[object, ...]  #: empty when no evidence names a value

    @property
    def value(self) -> str:
        return " and ".join(repr(v.value) for v in self.values) or "none"


def _agree(*votes):
    """The one value all evidence votes name (None abstains), else a
    :class:`Conflict`."""
    values = tuple(dict.fromkeys(v for v in votes if v is not None))
    return values[0] if len(values) == 1 else Conflict(values)


def _macro_vote(ir: SourceIR, macro: str, on, off):
    """What a ``#define MACRO 1`` / ``0`` switch says (None if absent)."""
    return {"1": on, "0": off}.get(ir.defines.get(macro, ""))


def _resolve_expr(env: Dict[str, str], expr: str, depth: int = 0) -> str:
    e = expr.strip()
    if depth > 6:
        return e
    if e in env and env[e] != e:
        return _resolve_expr(env, env[e], depth + 1)
    return e


# ----------------------------------------------------------------------
# Per-axis evidence readers
# ----------------------------------------------------------------------
def _kernel_params(ir: SourceIR) -> Dict[str, Tuple[str, ...]]:
    return {f.name: f.params for f in ir.functions if f.is_kernel}


def _infer_driver(ir: SourceIR):
    params = _kernel_params(ir)
    votes = [_macro_vote(ir, "DATA_DRIVEN", Driver.DATA, Driver.TOPOLOGY)]
    reads_worklist = False
    for region in ir.regions:
        pushes = False
        for a in region.accesses:
            if a.array == "wl" and a.kind is AccessKind.READ:
                reads_worklist = True
            elif a.array == "wl_next" and a.kind is not AccessKind.READ:
                pushes = True
        if pushes:
            votes.append(Driver.DATA)
        elif "wl_next" in params.get(region.name, ()):
            votes.append(Driver.TOPOLOGY)  # a push buffer it never pushes to
    votes.append(Driver.DATA if reads_worklist else Driver.TOPOLOGY)
    return _agree(*votes)


def _infer_iteration(ir: SourceIR) -> Iteration:
    for region in ir.regions:
        for a in region.accesses:
            if a.array in ("src_list", "dst_list"):
                return Iteration.EDGE
    return Iteration.VERTEX


def _value_writes(ir: SourceIR):
    # CAPTUREs on value arrays count: "if (atomic_min(val[u], new_val))"
    # consumes the old value but is still an RMW of the value plane.
    for region in ir.regions:
        for a in region.accesses:
            if a.kind is AccessKind.READ:
                continue
            if a.array in _NON_VALUE:
                continue
            yield region, a


def _infer_flow(ir: SourceIR) -> Flow:
    for region, a in _value_writes(ir):
        if a.index_class is IndexClass.NEIGHBOR:
            return Flow.PUSH
        if a.index_class is IndexClass.ENDPOINT:
            base = _resolve_expr(region.env, a.index)
            if "dst_list" in base:
                return Flow.PUSH
    return Flow.PULL


def _infer_update(ir: SourceIR) -> Update:
    for _region, a in _value_writes(ir):
        if a.index_class is IndexClass.SCALAR:
            continue  # reduction accumulators are not the update axis
        if a.kind in (AccessKind.ATOMIC_RMW, AccessKind.CAPTURE):
            return Update.READ_MODIFY_WRITE
    return Update.READ_WRITE


def _infer_dup(ir: SourceIR):
    # A stamp suppresses duplicates only when it is atomic: a plain store
    # (say, a critical section lost its pragma) is no nodup stamp.
    stamps = [
        Dup.DUP if a.kind is AccessKind.WRITE else Dup.NODUP
        for region in ir.regions
        for a in region.accesses
        if a.array == "stat" and a.kind is not AccessKind.READ
    ]
    return _agree(*stamps) if stamps else Dup.DUP


def _infer_determinism(ir: SourceIR):
    writes_out = any(
        a.array.endswith("_out") for region in ir.regions for a in region.accesses
    )
    return _agree(
        Determinism.DETERMINISTIC if writes_out else Determinism.NON_DETERMINISTIC,
        _macro_vote(
            ir, "DETERMINISTIC",
            Determinism.DETERMINISTIC, Determinism.NON_DETERMINISTIC,
        ),
        *_launch_buffer_votes(ir),
    )


def _launch_buffer_votes(ir: SourceIR):
    """One vote per launch-bound ``X_in`` / ``X_out`` kernel parameter
    pair: double buffered iff the host passes two distinct buffers."""
    params = _kernel_params(ir)
    for launch in ir.launches:
        bound = dict(zip(params.get(launch.kernel, ()), launch.args))
        for name, buffer in bound.items():
            if not name.endswith("_out"):
                continue
            twin = bound.get(name[: -len("_out")] + "_in")
            if twin is not None:
                yield (
                    Determinism.NON_DETERMINISTIC
                    if buffer == twin
                    else Determinism.DETERMINISTIC
                )


_GRID_STRIDE_RE = re.compile(r"for\s*\(\s*;\s*item\s*<")
_ITEM_GUARD_RE = re.compile(r"\bif\s*\(\s*item\s*<")


def _infer_persistence(ir: SourceIR):
    # A kernel either strides its items over the grid or guards its one
    # item; a kernel with neither has no persistence evidence at all.
    strides = any(
        _GRID_STRIDE_RE.match(lp.header) for r in ir.regions for lp in r.loops
    )
    guards = any(_ITEM_GUARD_RE.search(r.body) for r in ir.regions)
    return _agree(
        Persistence.PERSISTENT if strides else None,
        Persistence.NON_PERSISTENT if guards else None,
    )


_ITEM_GRANULARITY = {
    "gidx": Granularity.THREAD,
    "gidx / WS": Granularity.WARP,
    "blockIdx.x": Granularity.BLOCK,
}


def _infer_granularity(ir: SourceIR):
    # The item id's definition in each kernel (Listings 1/8).
    return _agree(
        *(_ITEM_GRANULARITY.get(r.env.get("item", "").strip()) for r in ir.regions)
    )


def _infer_atomic_flavor(ir: SourceIR):
    def flavor(cuda_atomic: bool) -> AtomicFlavor:
        return AtomicFlavor.CUDA_ATOMIC if cuda_atomic else AtomicFlavor.ATOMIC

    # The relaxation templates also name their value type VAL_T.
    value_type = ir.typedefs.get("VAL_T")
    return _agree(
        flavor(ir.has_include("cuda/atomic")),
        None if value_type is None else flavor("cuda::atomic<" in value_type),
    )


def _shuffle_helpers(ir: SourceIR) -> Set[str]:
    """``__device__`` functions that reach ``__shfl_down_sync``."""
    device = {f.name: f.calls for f in ir.functions if f.is_device}
    found = {name for name, calls in device.items() if "__shfl_down_sync" in calls}
    while True:
        more = {n for n, calls in device.items() if calls & found} - found
        if not more:
            return found
        found |= more


def _infer_gpu_reduction(ir: SourceIR):
    body = ir.region_bodies()
    votes = []
    if any(f"{name}(" in body for name in _shuffle_helpers(ir)):
        votes.append(GpuReduction.REDUCTION_ADD)
    if any("atomicAdd_block" in r.atomic_calls for r in ir.regions):
        votes.append(GpuReduction.BLOCK_ADD)
    return _agree(*votes) if votes else GpuReduction.GLOBAL_ADD


def _infer_cpu_reduction(ir: SourceIR, model: Model) -> CpuReduction:
    if model is Model.OPENMP:
        if any(r.reduction and r.reduction[0] == "+" for r in ir.regions):
            return CpuReduction.CLAUSE
        for region in ir.regions:
            for a in region.accesses:
                if (
                    a.guard.value == "critical"
                    and "contribution" in a.rhs
                ):
                    return CpuReduction.CRITICAL
        return CpuReduction.ATOMIC
    body = ir.region_bodies()
    if "local_acc" in body:
        return CpuReduction.CLAUSE
    if any(a.guard is Guard.MUTEX for r in ir.regions for a in r.accesses):
        return CpuReduction.CRITICAL
    return CpuReduction.ATOMIC


def _infer_omp_schedule(ir: SourceIR) -> OmpSchedule:
    if any("schedule(dynamic)" in r.pragma for r in ir.regions):
        return OmpSchedule.DYNAMIC
    return OmpSchedule.DEFAULT


#: the step clause of a ``for`` header: ``for (init; test; step)``
_FOR_STEP_RE = re.compile(r"for\s*\([^;]*;[^;]*;([^)]*)\)")


def _infer_cpp_schedule(ir: SourceIR) -> CppSchedule:
    # A thread walks a blocked range one item at a time and a cyclic one
    # with a ``+= NTHREADS`` stride.  One blocked item loop decides: some
    # regions, such as PR's atomic push, stride cyclically under either
    # schedule.
    for region in ir.regions:
        for loop in region.loops:
            if loop.depth or not loop.var:
                continue
            m = _FOR_STEP_RE.match(loop.header)
            step = "".join(m.group(1).split()) if m else ""
            var = loop.var
            if step in (f"{var}++", f"++{var}", f"{var}+=1"):
                return CppSchedule.BLOCKED
    return CppSchedule.CYCLIC


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
def infer_axes(
    algorithm: Algorithm, model: Model, ir: SourceIR
) -> Dict[str, Optional[object]]:
    """Re-derive all 13 axes from the IR (None = axis not carried, a
    :class:`Conflict` = its evidence names more than one value).

    Only the algorithm and model are taken as given (they name the file's
    template family); every carried axis with more than one legal option
    is decided purely from structural evidence.
    """
    options = _axis_options(algorithm, model)
    readers = {
        "iteration": lambda: _infer_iteration(ir),
        "driver": lambda: _infer_driver(ir),
        "dup": lambda: _infer_dup(ir),
        "flow": lambda: _infer_flow(ir),
        "update": lambda: _infer_update(ir),
        "determinism": lambda: _infer_determinism(ir),
        "persistence": lambda: _infer_persistence(ir),
        "granularity": lambda: _infer_granularity(ir),
        "atomic_flavor": lambda: _infer_atomic_flavor(ir),
        "gpu_reduction": lambda: _infer_gpu_reduction(ir),
        "cpu_reduction": lambda: _infer_cpu_reduction(ir, model),
        "omp_schedule": lambda: _infer_omp_schedule(ir),
        "cpp_schedule": lambda: _infer_cpp_schedule(ir),
    }
    inferred: Dict[str, Optional[object]] = {}
    for field in AXIS_FIELDS:
        opts = [o for o in options.get(field, ()) if o is not None]
        if not opts:
            inferred[field] = None  # the enumeration never carries it
        elif len(opts) == 1:
            inferred[field] = opts[0]  # pinned: a single legal option
        else:
            inferred[field] = readers[field]()
    return inferred


def axis_mismatches(spec: StyleSpec, ir: SourceIR) -> Dict[str, object]:
    """axis field -> the IR verdict, for every carried axis where it
    contradicts the declared ``spec`` (a value or a :class:`Conflict`)."""
    inferred = infer_axes(spec.algorithm, spec.model, ir)
    mismatches: Dict[str, object] = {}
    for field in AXIS_FIELDS:
        declared = getattr(spec, field)
        got = inferred[field]
        if declared is not None and got is not None and got != declared:
            mismatches[field] = got
    return mismatches


def mismatch_findings(
    spec: StyleSpec,
    mismatches: Dict[str, object],
    rules: Dict[str, str],
    *,
    locus: str = "",
) -> List[Finding]:
    """Report ``mismatches`` under ``rules`` (axis field -> rule id);
    axes without a rule in the family are skipped."""
    if not mismatches:
        return []
    label = spec.label()
    findings = []
    for field, got in mismatches.items():
        rule = rules.get(field)
        if rule is None:
            continue
        declared = getattr(spec, field).value
        if isinstance(got, Conflict):
            message = (
                f"IR evidence for {field} names {got.value}; the "
                f"manifest declares {declared!r}"
            )
        else:
            message = (
                f"IR infers {field}={got.value!r} but the manifest "
                f"declares {declared!r}"
            )
        findings.append(Finding.of(rule, spec=label, locus=locus, message=message))
    return findings


def analyze_source_ir(spec: StyleSpec, text: str, *, locus: str = "") -> List[Finding]:
    """All IR-level findings (RACE-* + INFER-*) for one emitted source."""
    ir = parse_source(text)
    return detect_races(ir, spec, locus=locus) + mismatch_findings(
        spec, axis_mismatches(spec, ir), AXIS_RULES, locus=locus
    )
