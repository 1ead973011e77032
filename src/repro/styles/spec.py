"""StyleSpec: one fully-specified program variant.

A ``StyleSpec`` is the Python-native equivalent of one Indigo2 source file:
an algorithm, a programming model, and a value for every style axis that
applies to that (algorithm, model) pair.  Validation enforces the paper's
Table 2 applicability matrix plus the combination constraints of
Section 5 (see :mod:`repro.styles.applicability`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, Optional

from .axes import (
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

__all__ = ["StyleSpec", "SemanticKey"]


@dataclass(frozen=True)
class StyleSpec:
    """A single program variant (algorithm x model x style combination).

    Axis fields that do not apply to the given algorithm/model are ``None``.
    Use :meth:`validate` (or construct through
    :func:`repro.styles.combos.enumerate_specs`) to get a checked spec.
    """

    algorithm: Algorithm
    model: Model
    # Semantic axes -----------------------------------------------------
    iteration: Iteration = Iteration.VERTEX
    driver: Driver = Driver.TOPOLOGY
    dup: Optional[Dup] = None
    flow: Optional[Flow] = None
    update: Optional[Update] = None
    determinism: Determinism = Determinism.NON_DETERMINISTIC
    # Mapping axes ------------------------------------------------------
    persistence: Optional[Persistence] = None
    granularity: Optional[Granularity] = None
    atomic_flavor: Optional[AtomicFlavor] = None
    gpu_reduction: Optional[GpuReduction] = None
    cpu_reduction: Optional[CpuReduction] = None
    omp_schedule: Optional[OmpSchedule] = None
    cpp_schedule: Optional[CppSchedule] = None

    # ------------------------------------------------------------------
    def __hash__(self) -> int:
        # Specs key the result indices and the timing models' style
        # groups, and each enum field hashes through the Python-level
        # ``Enum.__hash__``: compute the field-tuple hash (the one the
        # dataclass would generate) once and cache it on the instance.
        try:
            return self._hash
        except AttributeError:
            value = hash(tuple(getattr(self, f.name) for f in fields(self)))
            object.__setattr__(self, "_hash", value)
            return value

    def __getstate__(self) -> Dict[str, object]:
        # Enum hashes follow the per-process string-hash seed, so the
        # cached hash must never travel in a pickle.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def validate(self) -> "StyleSpec":
        """Raise ``ValueError`` if this combination is not in the suite."""
        from .applicability import check_spec  # late import avoids a cycle

        check_spec(self)
        return self

    def semantic_key(self) -> "SemanticKey":
        """The part of the spec that determines the executed computation."""
        return SemanticKey(
            algorithm=self.algorithm,
            iteration=self.iteration,
            driver=self.driver,
            dup=self.dup,
            flow=self.flow,
            update=self.update,
            determinism=self.determinism,
        )

    def with_axis(self, **changes) -> "StyleSpec":
        """Return a copy with the given axis fields replaced."""
        return replace(self, **changes)

    def axis_value(self, field_name: str):
        """Read an axis value by field name (used by the ratio harness)."""
        return getattr(self, field_name)

    def describe(self) -> Dict[str, str]:
        """Human-readable axis map with unset axes omitted."""
        out: Dict[str, str] = {
            "algorithm": self.algorithm.value,
            "model": self.model.value,
        }
        for f in fields(self):
            if f.name in ("algorithm", "model"):
                continue
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = value.value
        return out

    def label(self) -> str:
        """Compact identifier, Indigo2-file-name style."""
        parts = [self.algorithm.value, self.model.value]
        for f in fields(self):
            if f.name in ("algorithm", "model"):
                continue
            value = getattr(self, f.name)
            if value is not None:
                parts.append(value.value)
        return "-".join(parts)


@dataclass(frozen=True)
class SemanticKey:
    """Hashable identity of the executed computation.

    Two specs with equal semantic keys produce identical execution traces on
    the same graph; the runtime uses this to cache traces across mapping
    variants (granularity, persistence, atomic flavor, reductions and
    scheduling do not change what is computed).
    """

    algorithm: Algorithm
    iteration: Iteration
    driver: Driver
    dup: Optional[Dup]
    flow: Optional[Flow]
    update: Optional[Update]
    determinism: Determinism
