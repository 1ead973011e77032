"""Letter-value ("boxen plot") statistics.

Section 4.5: the paper visualizes throughput-ratio distributions with boxen
plots, which recursively halve the data into letter values (median,
fourths, eighths, ...).  This module computes the same structure
numerically so the benchmark harness can print and assert on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["LetterValues", "letter_values"]


@dataclass(frozen=True)
class LetterValues:
    """Letter-value summary of one distribution."""

    n: int
    median: float
    #: (lower, upper) bounds per depth: fourths, eighths, sixteenths, ...
    boxes: Tuple[Tuple[float, float], ...]
    outliers: Tuple[float, ...]
    minimum: float
    maximum: float

    @property
    def fourths(self) -> Tuple[float, float]:
        """The innermost box (the interquartile range)."""
        if not self.boxes:
            return (self.median, self.median)
        return self.boxes[0]

    def describe(self) -> str:
        lo, hi = self.fourths
        return (
            f"n={self.n} median={self.median:.4g} "
            f"IQR=[{lo:.4g}, {hi:.4g}] range=[{self.minimum:.4g}, {self.maximum:.4g}]"
        )


def _trustworthy_depth(n: int) -> int:
    """Number of letter-value levels with enough data to be reliable.

    Follows the Hofmann/Wickham/Kafadar rule used by seaborn's boxenplot:
    keep halving while the tail contains at least ~5 observations.
    """
    depth = 0
    tail = n
    while tail // 2 >= 5:
        tail //= 2
        depth += 1
    return max(depth, 1)


def letter_values(data: Sequence[float]) -> LetterValues:
    """Compute the letter-value summary of ``data``.

    Raises ``ValueError`` on empty input.
    """
    arr = np.asarray(list(data), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("letter_values requires at least one observation")
    arr = np.sort(arr)
    n = arr.size
    median = float(np.median(arr))
    depth = _trustworthy_depth(n)
    # Tail probabilities 1/4, 1/8, ... (exact halvings) and their upper
    # partners, in one quantile call.
    p = 0.25 / 2.0 ** np.arange(depth)
    q = np.quantile(arr, np.concatenate([p, 1.0 - p])).tolist()
    boxes: List[Tuple[float, float]] = list(zip(q[:depth], q[depth:]))
    # The outlier fences are the deepest box.
    inner_lo, inner_hi = boxes[-1]
    outliers = tuple(
        float(x) for x in arr[(arr < inner_lo) | (arr > inner_hi)]
    )
    return LetterValues(
        n=n,
        median=median,
        boxes=tuple(boxes),
        outliers=outliers,
        minimum=float(arr[0]),
        maximum=float(arr[-1]),
    )
