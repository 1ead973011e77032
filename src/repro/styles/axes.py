"""The 13 parallelization/implementation style axes (paper Section 2).

Axes split into two groups that the runtime treats differently:

* **semantic axes** change what the program computes per step (which items
  are processed, in which direction data flows, how racy updates resolve,
  how many iterations convergence takes): iteration, driver, worklist
  duplication, flow, update, determinism.
* **mapping axes** change only how the same execution is laid onto the
  machine (granularity, persistence, atomic flavor, reduction style,
  scheduling).  The runtime executes each semantic combination once per
  graph and re-times the resulting trace for every mapping combination —
  exactly the "hold everything else fixed" methodology of Section 5.
"""

from __future__ import annotations

import enum

__all__ = [
    "Algorithm",
    "Model",
    "Iteration",
    "Driver",
    "Dup",
    "Flow",
    "Update",
    "Determinism",
    "Persistence",
    "Granularity",
    "AtomicFlavor",
    "GpuReduction",
    "CpuReduction",
    "OmpSchedule",
    "CppSchedule",
    "SEMANTIC_AXES",
    "MAPPING_AXES",
    "AXIS_FIELDS",
]


class _Axis(enum.Enum):
    """Memberless base of the axis enums.

    ``Enum.__hash__`` hashes the member's name in Python code on every
    call, and axis values key the result indices and the timing models'
    style groups.  Enum equality is identity, so the identity hash is a
    valid hash and costs no Python frame.
    """

    __hash__ = object.__hash__


class Algorithm(_Axis):
    """The 6 graph problems of Table 1."""

    CC = "cc"  # Connected Components (connectivity)
    MIS = "mis"  # Maximal Independent Set (covering)
    PR = "pr"  # PageRank (eigenvector)
    TC = "tc"  # Triangle Counting (substructure)
    BFS = "bfs"  # Breadth-First Search (shortest path)
    SSSP = "sssp"  # Single-Source Shortest Path (shortest path)


class Model(_Axis):
    """The 3 programming models (Section 2)."""

    CUDA = "cuda"
    OPENMP = "openmp"
    CPP_THREADS = "cpp"

    @property
    def is_gpu(self) -> bool:
        return self is Model.CUDA


class Iteration(_Axis):
    """Section 2.1: iterate over vertices (CSR) or edges (COO)."""

    VERTEX = "vertex"
    EDGE = "edge"


class Driver(_Axis):
    """Section 2.2: process all elements or only a worklist."""

    TOPOLOGY = "topology"
    DATA = "data"


class Dup(_Axis):
    """Section 2.3: allow duplicate items on the worklist or not."""

    DUP = "dup"
    NODUP = "nodup"


class Flow(_Axis):
    """Section 2.4: push updates to neighbors or pull from them."""

    PUSH = "push"
    PULL = "pull"


class Update(_Axis):
    """Section 2.5: plain read+conditional-write vs atomic RMW."""

    READ_WRITE = "rw"
    READ_MODIFY_WRITE = "rmw"


class Determinism(_Axis):
    """Section 2.6: two-array (internally deterministic) vs in-place."""

    DETERMINISTIC = "det"
    NON_DETERMINISTIC = "nondet"


class Persistence(_Axis):
    """Section 2.7 (GPU only): resident grid vs one thread per item."""

    PERSISTENT = "persistent"
    NON_PERSISTENT = "nonpersistent"


class Granularity(_Axis):
    """Section 2.8 (GPU only): unit that owns one work item's inner loop."""

    THREAD = "thread"
    WARP = "warp"
    BLOCK = "block"


class AtomicFlavor(_Axis):
    """Section 2.9 (CUDA only): classic atomics vs default cuda::atomic."""

    ATOMIC = "atomic"
    CUDA_ATOMIC = "cudaatomic"


class GpuReduction(_Axis):
    """Section 2.10.1 (GPU, PR/TC only)."""

    GLOBAL_ADD = "global_add"
    BLOCK_ADD = "block_add"
    REDUCTION_ADD = "reduction_add"


class CpuReduction(_Axis):
    """Section 2.10.2 (CPU, PR/TC only).

    ``CLAUSE`` is OpenMP's reduction clause; the C++-threads equivalent is
    a per-thread private partial combined at join, which has the same cost
    structure (private accumulation + one combine per thread).
    """

    ATOMIC = "atomic_red"
    CRITICAL = "critical_red"
    CLAUSE = "clause_red"


class OmpSchedule(_Axis):
    """Section 2.11 (OpenMP only)."""

    DEFAULT = "default"
    DYNAMIC = "dynamic"


class CppSchedule(_Axis):
    """Section 2.12 (C++ threads only)."""

    BLOCKED = "blocked"
    CYCLIC = "cyclic"


#: StyleSpec field name -> axis enum, for the axes that alter the executed
#: computation.
SEMANTIC_AXES = {
    "iteration": Iteration,
    "driver": Driver,
    "dup": Dup,
    "flow": Flow,
    "update": Update,
    "determinism": Determinism,
}

#: StyleSpec field name -> axis enum, for the machine-mapping axes.
MAPPING_AXES = {
    "persistence": Persistence,
    "granularity": Granularity,
    "atomic_flavor": AtomicFlavor,
    "gpu_reduction": GpuReduction,
    "cpu_reduction": CpuReduction,
    "omp_schedule": OmpSchedule,
    "cpp_schedule": CppSchedule,
}

#: All axis fields in declaration order.
AXIS_FIELDS = {**SEMANTIC_AXES, **MAPPING_AXES}
