"""Unit tests for letter-value (boxen) statistics."""

import numpy as np
import pytest

from repro.bench import letter_values


class TestLetterValues:
    def test_median(self):
        lv = letter_values([1, 2, 3, 4, 5])
        assert lv.median == 3.0
        assert lv.n == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            letter_values([])

    def test_single_value(self):
        lv = letter_values([7.0])
        assert lv.median == 7.0
        assert lv.minimum == lv.maximum == 7.0

    def test_fourths_match_quartiles(self):
        data = np.arange(101, dtype=float)
        lv = letter_values(data)
        lo, hi = lv.fourths
        assert lo == pytest.approx(np.quantile(data, 0.25))
        assert hi == pytest.approx(np.quantile(data, 0.75))

    def test_boxes_nested(self):
        rng = np.random.default_rng(0)
        lv = letter_values(rng.normal(size=500))
        for (lo_out, hi_out), (lo_in, hi_in) in zip(lv.boxes, lv.boxes[1:]):
            assert lo_in <= lo_out
            assert hi_in >= hi_out

    def test_depth_grows_with_n(self):
        shallow = letter_values(np.arange(12))
        deep = letter_values(np.arange(4000))
        assert len(deep.boxes) > len(shallow.boxes)

    def test_outliers_beyond_deepest_box(self):
        data = np.concatenate([np.zeros(100), [1000.0]])
        lv = letter_values(data)
        assert 1000.0 in lv.outliers

    def test_extremes(self):
        lv = letter_values([5, 1, 9, 3])
        assert lv.minimum == 1 and lv.maximum == 9

    def test_describe_is_readable(self):
        text = letter_values([1.0, 2.0, 3.0]).describe()
        assert "median" in text and "n=3" in text

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 10, 11, 37, 500, 4001])
    def test_matches_one_quantile_call_per_probability(self, n):
        # The vectorised quantile call must reproduce the per-depth loop
        # bit for bit, down to the depth-1 case of n < 10.
        arr = np.sort(np.random.default_rng(n).lognormal(size=n))
        lv = letter_values(arr)
        boxes, p = [], 0.25
        for _ in range(len(lv.boxes)):
            boxes.append(
                (float(np.quantile(arr, p)), float(np.quantile(arr, 1.0 - p)))
            )
            p /= 2.0
        assert lv.boxes == tuple(boxes)
        lo = float(np.quantile(arr, p * 2.0))
        hi = float(np.quantile(arr, 1.0 - p * 2.0))
        assert lv.outliers == tuple(float(x) for x in arr[(arr < lo) | (arr > hi)])
        assert lv.median == float(np.median(arr))
