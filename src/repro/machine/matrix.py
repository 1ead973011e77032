"""Cross-device variant-matrix timing.

The paper's central artifact is the full (style variants × devices) timing
matrix of one semantic execution.  :func:`time_matrix` produces it for a
block of traces — at sweep time, the semantic traces of one (algorithm,
graph) pair — in one pass: the traces share one
:class:`~repro.machine.trace.ProfileMatrix` over their concatenated steps,
and each device's model is called once, evaluating each of its cycle
vectors once over all of the block's steps before every trace sums its
own cells.  The whole block costs a handful of broadcast evaluations per
device instead of ``traces × styles × devices`` per-launch walks.  It is
the one way the package times a trace: a single trace is a one-trace
block (its matrix cached on the trace), and single runs are 1×1 matrices
(:meth:`repro.runtime.launcher.Launcher.run`).  Every finite cell is
bit-identical to the frozen per-launch scalar walk kept as the test
oracle in ``tests/machine/scalar_oracle.py``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Union

import numpy as np

from .cpu import CPUModel
from .gpu import GPUModel
from .specs import CPUSpec, GPUSpec
from .trace import ExecutionTrace, ProfileMatrix, as_block

__all__ = ["time_matrix", "model_for_device"]

DeviceSpec = Union[GPUSpec, CPUSpec]

#: Module-level model memo: specs are frozen (hashable) and models are
#: stateless beyond their bandwidth cache, so every caller shares them —
#: which also shares the per-trace-fingerprint bandwidth memo.
_MODELS: Dict[DeviceSpec, Union[GPUModel, CPUModel]] = {}


def model_for_device(device: DeviceSpec) -> Union[GPUModel, CPUModel]:
    """The (memoized) timing model of a device spec."""
    model = _MODELS.get(device)
    if model is None:
        model = (
            GPUModel(device) if isinstance(device, GPUSpec) else CPUModel(device)
        )
        _MODELS[device] = model
    return model


def time_matrix(
    block: Union[ExecutionTrace, ProfileMatrix],
    cells: Sequence,
    devices: Sequence[DeviceSpec],
    *,
    active: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Simulated seconds of every (cell, device) pair in one pass.

    ``time_matrix(trace, styles, devices)`` times one trace; with a block
    :class:`~repro.machine.trace.ProfileMatrix`, ``cells`` are its
    ``(trace index, style)`` pairs.  Each device's model is called once,
    over every cell whose programming model runs there (and, with the
    boolean ``(cells × devices)`` mask ``active``, that is marked in it).

    Returns a ``(len(cells), len(devices))`` float64 matrix; cell
    ``[i, j]`` is NaN when cell ``i`` was not timed on device ``j`` (a
    CUDA style on a CPU and vice versa, or masked out), otherwise it is
    the cell's simulated seconds on that device.
    """
    pm, cells = as_block(block, cells)
    devices = list(devices)
    out = np.full((len(cells), len(devices)), np.nan)
    on_gpu = [style.model.is_gpu for _, style in cells]
    for j, device in enumerate(devices):
        gpu_device = isinstance(device, GPUSpec)
        indices = [
            i for i, gpu in enumerate(on_gpu)
            if gpu == gpu_device and (active is None or active[i, j])
        ]
        if not indices:
            continue
        model = model_for_device(device)
        out[indices, j] = model.time_trace_batch(
            pm, [cells[i] for i in indices]
        )
    return out
