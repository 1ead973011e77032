"""Machine models: device specs and analytic GPU/CPU timing."""

from .cpu import CPUModel
from .devices import (
    CPUS,
    DEVICES,
    GPUS,
    RTX_3090,
    THREADRIPPER_2950X,
    TITAN_V,
    XEON_GOLD_6226R,
    get_device,
)
from .gpu import GPUModel
from .inspect import ProfileSummary, render_trace, summarize_trace, trace_to_csv
from .matrix import model_for_device, time_matrix
from .scheduling import WARP_WIDTH
from .specs import CPUSpec, GPUSpec
from .trace import (
    ExecutionTrace,
    IterationProfile,
    ProfileMatrix,
    conflict_stats,
)

__all__ = [
    "GPUSpec",
    "CPUSpec",
    "GPUModel",
    "CPUModel",
    "TITAN_V",
    "RTX_3090",
    "THREADRIPPER_2950X",
    "XEON_GOLD_6226R",
    "GPUS",
    "CPUS",
    "DEVICES",
    "get_device",
    "ExecutionTrace",
    "IterationProfile",
    "ProfileMatrix",
    "conflict_stats",
    "time_matrix",
    "model_for_device",
    "ProfileSummary",
    "summarize_trace",
    "trace_to_csv",
    "render_trace",
    "WARP_WIDTH",
]
