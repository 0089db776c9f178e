"""Tests for repro.power.converter."""

import itertools
import math

import numpy as np
import pytest

from repro.errors import ModelParameterError
from repro.power.converter import BuckBoostConverter


@pytest.fixture
def converter() -> BuckBoostConverter:
    return BuckBoostConverter()


class TestEfficiencyCurve:
    def test_peak_at_optimal_input(self, converter):
        assert converter.efficiency(converter.optimal_input_v) == pytest.approx(
            converter.peak_efficiency
        )

    def test_decreases_away_from_optimum(self, converter):
        v_opt = converter.optimal_input_v
        assert converter.efficiency(v_opt / 2) < converter.efficiency(v_opt)
        assert converter.efficiency(v_opt * 2) < converter.efficiency(v_opt)

    def test_low_side_steeper_than_high_side(self, converter):
        """Buck-boost stages suffer more at low input voltage."""
        v_opt = converter.optimal_input_v
        assert converter.efficiency(v_opt / 1.5) < converter.efficiency(v_opt * 1.5)

    def test_floor_clamp(self, converter):
        assert converter.efficiency(0.05) == converter.floor_efficiency

    def test_nonpositive_voltage_gives_floor(self, converter):
        assert converter.efficiency(0.0) == converter.floor_efficiency
        assert converter.efficiency(-5.0) == converter.floor_efficiency

    def test_monotone_below_optimum(self, converter):
        voltages = [2.0, 5.0, 9.0, converter.optimal_input_v]
        efficiencies = [converter.efficiency(v) for v in voltages]
        assert efficiencies == sorted(efficiencies)

    def test_efficiency_near_13_8_v_bus(self, converter):
        """The design point of the paper's system: ~96% near the bus."""
        assert converter.efficiency(13.8) > 0.95


class TestOutputPower:
    def test_scales_input(self, converter):
        out = converter.output_power(50.0, converter.optimal_input_v)
        expected = 50.0 * converter.peak_efficiency - converter.quiescent_power_w
        assert out == pytest.approx(expected)

    def test_zero_input_zero_output(self, converter):
        assert converter.output_power(0.0, 14.0) == 0.0

    def test_negative_input_zero_output(self, converter):
        assert converter.output_power(-10.0, 14.0) == 0.0

    def test_quiescent_floor(self, converter):
        # Tiny input is eaten by the quiescent draw.
        assert converter.output_power(0.1, 14.0) == 0.0

    def test_output_never_exceeds_input(self, converter):
        for v in (3.0, 10.0, 14.0, 30.0):
            for p in (0.5, 5.0, 50.0):
                assert converter.output_power(p, v) <= p


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestScalarMatchesBatch:
    """The scalar forms agree with the ``*_batch`` forms element for
    element, on inputs outside the curve's domain too (NaN, +-inf,
    signed zeros, negatives)."""

    EDGE = (
        math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e-300, 5e-324,
        0.3, 14.5, 80.0,
    )
    CONVERTERS = (
        BuckBoostConverter(),
        # Flat high side: +inf input turns the curve term into 0 * inf.
        BuckBoostConverter(high_side_coeff=0.0, quiescent_power_w=0.0),
    )

    @staticmethod
    def assert_same(scalar, batch):
        scalar = np.asarray(scalar, dtype=float)
        np.testing.assert_array_equal(scalar, batch)
        finite = ~np.isnan(scalar)
        assert np.array_equal(
            np.signbit(scalar[finite]), np.signbit(batch[finite])
        )

    @pytest.mark.parametrize("converter", CONVERTERS)
    def test_efficiency(self, converter):
        scalar = [converter.efficiency(v) for v in self.EDGE]
        self.assert_same(
            scalar, converter.efficiency_batch(np.array(self.EDGE))
        )

    @pytest.mark.parametrize("converter", CONVERTERS)
    def test_output_power(self, converter):
        pairs = list(itertools.product(self.EDGE, self.EDGE))
        p, v = (np.array(column) for column in zip(*pairs))
        scalar = [converter.output_power(a, b) for a, b in pairs]
        self.assert_same(scalar, converter.output_power_batch(p, v))

    def test_nan_input_power_delivers_nothing(self, converter):
        assert converter.output_power(math.nan, 14.5) == 0.0
        assert converter.efficiency(math.nan) == converter.floor_efficiency


class TestPreferredWindow:
    def test_window_brackets_optimum(self, converter):
        lo, hi = converter.preferred_voltage_window(0.03)
        assert lo < converter.optimal_input_v < hi

    def test_window_widens_with_tolerance(self, converter):
        lo1, hi1 = converter.preferred_voltage_window(0.01)
        lo3, hi3 = converter.preferred_voltage_window(0.05)
        assert lo3 < lo1 and hi3 > hi1

    def test_window_edges_hit_tolerance(self, converter):
        drop = 0.03
        lo, hi = converter.preferred_voltage_window(drop)
        assert converter.efficiency(lo) == pytest.approx(
            converter.peak_efficiency - drop, abs=1e-9
        )
        assert converter.efficiency(hi) == pytest.approx(
            converter.peak_efficiency - drop, abs=1e-9
        )

    def test_asymmetric_window(self, converter):
        """The steeper low side yields a tighter margin below optimum."""
        lo, hi = converter.preferred_voltage_window(0.03)
        v_opt = converter.optimal_input_v
        assert (v_opt / lo) < (hi / v_opt)


class TestValidation:
    def test_rejects_floor_above_peak(self):
        with pytest.raises(ModelParameterError):
            BuckBoostConverter(peak_efficiency=0.9, floor_efficiency=0.95)

    def test_rejects_negative_quiescent(self):
        with pytest.raises(ModelParameterError):
            BuckBoostConverter(quiescent_power_w=-1.0)
