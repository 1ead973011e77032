"""Cross-device variant-matrix timing.

The paper's central artifact is the full (style variants × devices) timing
matrix of one semantic execution.  :func:`time_matrix` produces exactly
that in one pass: it builds the trace's
:class:`~repro.machine.trace.ProfileMatrix` once (cached on the trace) and
runs each device's vectorized batch over the styles that can execute
there, so the whole matrix costs a handful of broadcast evaluations
instead of ``styles × devices`` per-launch walks.  It is the one way the
package times a trace: single runs are 1×1 matrices
(:meth:`repro.runtime.launcher.Launcher.run`).  Every finite cell is
bit-identical to the frozen per-launch scalar walk kept as the test
oracle in ``tests/machine/scalar_oracle.py``.
"""

from __future__ import annotations

from typing import Dict, Sequence, Union

import numpy as np

from ..styles.spec import StyleSpec
from .cpu import CPUModel
from .gpu import GPUModel
from .specs import CPUSpec, GPUSpec
from .trace import ExecutionTrace

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
    trace: ExecutionTrace,
    styles: Sequence[StyleSpec],
    devices: Sequence[DeviceSpec],
) -> np.ndarray:
    """Simulated seconds of every (style, device) pair in one pass.

    Returns a ``(len(styles), len(devices))`` float64 matrix; cell
    ``[i, j]`` is NaN when style ``i``'s programming model cannot run on
    device ``j`` (a CUDA style on a CPU and vice versa), otherwise it is
    the style's simulated seconds on that device.
    """
    styles = list(styles)
    devices = list(devices)
    out = np.full((len(styles), len(devices)), np.nan)
    for j, device in enumerate(devices):
        gpu_device = isinstance(device, GPUSpec)
        indices = [
            i for i, style in enumerate(styles)
            if style.model.is_gpu == gpu_device
        ]
        if not indices:
            continue
        model = model_for_device(device)
        seconds = model.time_trace_batch(
            trace, [styles[i] for i in indices]
        )
        out[indices, j] = seconds
    return out
