"""SurvivalSeries: the one place a survival probability is checked and clipped."""

import math

import numpy as np
import pytest

from qsurvival.series import SurvivalSeries


class TestSurvivalSeries:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_is_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SurvivalSeries([0.0, 1.0, 2.0], [1.0, bad, 0.5])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_time_is_refused(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SurvivalSeries([0.0, bad], [1.0, 0.5])

    def test_shape_mismatch_is_refused(self):
        with pytest.raises(ValueError, match="equal length"):
            SurvivalSeries([0.0, 1.0], [1.0])

    def test_values_are_clipped_and_the_excess_reported(self):
        series = SurvivalSeries([0.0, 1.0, 2.0, 3.0], [1.5, -0.25, 0.5, 1.0])
        np.testing.assert_array_equal(series.values, [1.0, 0.0, 0.5, 1.0])
        assert series.clip_excess == 0.5

    def test_excess_below_zero_counts(self):
        assert SurvivalSeries([0.0, 1.0], [0.2, -3.0]).clip_excess == 3.0

    def test_values_in_range_are_kept_bit_for_bit(self):
        raw = np.array([1.0, 0.3, 1e-300, 0.0, 0.9999999999999999])
        series = SurvivalSeries(np.arange(5.0), raw)
        assert series.values.tobytes() == raw.tobytes()
        assert series.clip_excess == 0.0 and math.copysign(1.0, series.clip_excess) == 1.0

    def test_empty_series(self):
        series = SurvivalSeries([], [])
        assert len(series) == 0 and series.clip_excess == 0.0

    def test_clip_excess_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            SurvivalSeries([0.0], [1.0], clip_excess=0.0)

    def test_diagnostics_default_to_none(self):
        series = SurvivalSeries([0.0], [1.0], "spectral")
        assert series.method == "spectral" and series.terms is None and series.tail_bound is None
