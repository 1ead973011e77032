"""Pairwise style-ratio computation (the Section 5 methodology).

"Each of the following subsections compares the performance of two or three
alternative styles while keeping the other styles fixed" — for every run
using option A of an axis, the partner run is the one whose spec differs
*only* in that axis (same algorithm, model, device, input, and every other
style); the ratio is ``throughput_A / throughput_B``.  A ratio above 1.0
means the first-named style is faster.

Everything here reads the results' column view
(:class:`repro.bench.harness.StudyColumns`): a filter mask over the
style codes, one vectorized partner lookup of the cell keys, and the
throughput columns divided.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from ..styles.axes import Algorithm, Driver, Dup, Flow, Model
from .harness import SPEC_FIELDS, StudyColumns, StudyResults

__all__ = [
    "axis_ratios",
    "driver_ratios",
    "ratios_by_algorithm",
    "throughputs_by_option",
]

#: The axes a ratio may vary: every StyleSpec field but the algorithm
#: and the model.
PAIR_AXES = tuple(name for name in SPEC_FIELDS if name not in ("algorithm", "model"))


def axis_ratios(
    results: StudyResults,
    axis: str,
    option_a,
    option_b,
    *,
    algorithms: Optional[Iterable[Algorithm]] = None,
    models: Optional[Iterable[Model]] = None,
    devices: Optional[Iterable[str]] = None,
    graphs: Optional[Iterable[str]] = None,
) -> np.ndarray:
    """All pairwise throughput ratios option_a / option_b for one axis."""
    grouped = ratios_by_algorithm(
        results, axis, option_a, option_b,
        algorithms=algorithms, models=models, devices=devices, graphs=graphs,
    )
    return np.concatenate([np.empty(0), *grouped.values()])


def ratios_by_algorithm(
    results: StudyResults,
    axis: str,
    option_a,
    option_b,
    *,
    algorithms: Optional[Iterable[Algorithm]] = None,
    models: Optional[Iterable[Model]] = None,
    devices: Optional[Iterable[str]] = None,
    graphs: Optional[Iterable[str]] = None,
) -> Dict[Algorithm, np.ndarray]:
    """Pairwise ratios grouped per algorithm (the paper's figure layout).

    Algorithms appear in first-run order and each one's ratios in run
    order; a run whose partner cell holds no run is skipped.
    """
    if axis not in PAIR_AXES:
        raise KeyError(f"unknown style axis {axis!r}; known: {sorted(PAIR_AXES)}")
    view = results.columns()
    rows = view.rows(
        algorithms=algorithms, models=models, devices=devices, graphs=graphs
    )
    code_a = view.code(axis, option_a)
    if code_a is None:
        return {}
    rows = rows[view.codes[axis][rows] == code_a]
    return _partner_ratios(view, rows, {axis: option_b})


def driver_ratios(
    results: StudyResults,
    dup: Dup,
    *,
    models: Optional[Iterable[Model]] = None,
) -> Dict[Algorithm, np.ndarray]:
    """Topology-driven over data-driven ratios (Figures 3/4, guideline 7).

    Every topology-driven run that is not pull-based is paired with the
    data-driven variant with ``dup`` duplicates and every other style
    fixed; grouped as :func:`ratios_by_algorithm` groups.
    """
    view = results.columns()
    rows = view.rows(models=models)
    topology = view.codes["driver"][rows] == view.code("driver", Driver.TOPOLOGY)
    not_pull = view.codes["flow"][rows] != view.code("flow", Flow.PULL)
    return _partner_ratios(
        view, rows[topology & not_pull], {"driver": Driver.DATA, "dup": dup}
    )


def _partner_ratios(
    view: StudyColumns, rows: np.ndarray, changes: Dict[str, object]
) -> Dict[Algorithm, np.ndarray]:
    """Each row's throughput over its partner's under ``changes``."""
    partners = view.partners(rows, changes)
    found = partners >= 0
    rows = rows[found]
    ratios = view.throughput[rows] / view.throughput[partners[found]]
    return view.group("algorithm", rows, ratios)


def throughputs_by_option(
    results: StudyResults,
    axis: str,
    *,
    algorithms: Optional[Iterable[Algorithm]] = None,
    models: Optional[Iterable[Model]] = None,
    devices: Optional[Iterable[str]] = None,
    graphs: Optional[Iterable[str]] = None,
) -> Dict[object, np.ndarray]:
    """Raw throughputs grouped by an axis's option (for the three-way
    comparisons of Figures 9-11, where ratios would be unwieldy).

    Options appear in first-run order, each one's throughputs in run
    order; runs the axis does not apply to are left out."""
    view = results.columns()
    rows = view.rows(
        algorithms=algorithms, models=models, devices=devices, graphs=graphs
    )
    rows = rows[view.codes[axis][rows] != 0]
    return view.group(axis, rows, view.throughput[rows])
