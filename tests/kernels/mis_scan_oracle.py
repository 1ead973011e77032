"""Frozen full-scan reference of :meth:`repro.kernels.mis.MISKernel._scan`.

This is the original scan, kept verbatim as a test oracle: it gathers and
tests every neighbor slot of every active vertex and finds each vertex's
first event with two ``np.minimum.at`` calls.  The package's windowed
scan stops reading at the first event; the differential tests in
``test_mis_scan.py`` check that it returns the same ``(trips, became_in,
became_out)`` as this function.  Do not edit the body: it pins the trip
counts every MIS trace records.

The only changes from the original are the imports, the ``_NO_EVENT``
sentinel copied from the module, ``self`` renamed to ``kernel`` and the
method lifted into a module function.
"""

from typing import Tuple

import numpy as np

from repro.kernels.base import flat_neighbors
from repro.kernels.mis import IN_SET, UNDECIDED

_NO_EVENT = np.int64(1) << np.int64(40)


def full_scan(
    kernel, read: np.ndarray, active: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Early-exit neighbor scan for the active (undecided) vertices.

    Returns per-item trip counts and the items that became IN / OUT.
    """
    deg = kernel._degrees[active]
    edge_pos, owner = flat_neighbors(kernel.graph, active)
    if edge_pos.size == 0:
        # Isolated vertices join the set immediately.
        return (
            np.zeros(active.size, dtype=np.int64),
            active,
            np.empty(0, dtype=np.int64),
        )
    nbrs = kernel._dst[edge_pos]
    s_nbr = read[nbrs]
    pri_self = kernel.pri[active][owner]
    in_event = s_nbr == IN_SET
    blocked_event = (s_nbr == UNDECIDED) & (kernel.pri[nbrs] > pri_self)
    event = in_event | blocked_event

    seg_starts = np.concatenate([[0], np.cumsum(deg)[:-1]])
    within = np.arange(edge_pos.size, dtype=np.int64) - seg_starts[owner]
    event_pos = np.where(event, within, _NO_EVENT)
    first_event = np.full(active.size, _NO_EVENT, dtype=np.int64)
    np.minimum.at(first_event, owner, event_pos)
    # The OUT event must also be *first*: find the first IN-neighbor
    # position and compare it with the first blocker position.
    in_pos = np.where(in_event, within, _NO_EVENT)
    first_in = np.full(active.size, _NO_EVENT, dtype=np.int64)
    np.minimum.at(first_in, owner, in_pos)

    no_event = first_event >= _NO_EVENT
    trips = np.where(no_event, deg, np.minimum(first_event + 1, deg))
    became_in = active[no_event]
    became_out = active[(~no_event) & (first_in <= first_event)]
    return trips, became_in, became_out
