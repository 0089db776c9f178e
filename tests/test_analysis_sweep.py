"""Tests for repro.analysis.sweep."""

import pytest

from repro.analysis.sweep import sweep_scenario
from repro.errors import SimulationError
from repro.sim.scenario import default_scenario


def factory(tp_seconds: float):
    return default_scenario(
        duration_s=20.0, seed=4, n_modules=25, tp_seconds=tp_seconds
    )


class TestSweepScenario:
    def test_point_per_value(self):
        points = sweep_scenario(factory, values=(1.0, 2.0), schemes=("Baseline",))
        assert [p.value for p in points] == [1.0, 2.0]

    def test_schemes_present(self):
        points = sweep_scenario(
            factory, values=(1.0,), schemes=("DNOR", "Baseline")
        )
        assert set(points[0].results) == {"DNOR", "Baseline"}

    def test_row_exposes_summary(self):
        points = sweep_scenario(factory, values=(1.0,), schemes=("Baseline",))
        row = points[0].row("Baseline")
        assert row["scheme"] == "Baseline"
        assert "energy_output_j" in row

    def test_label_recorded(self):
        points = sweep_scenario(
            factory, values=(1.0,), schemes=("Baseline",), label="tp"
        )
        assert points[0].label == "tp"

    def test_empty_values_rejected(self):
        with pytest.raises(SimulationError):
            sweep_scenario(factory, values=())

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SimulationError, match="MAGIC"):
            sweep_scenario(factory, values=(1.0,), schemes=("MAGIC",))

    def test_array_size_sweep_needs_no_square_baseline(self):
        """Only the requested schemes are built, so a non-square array
        size sweeps INOR without tripping the square Baseline."""
        points = sweep_scenario(
            lambda n: default_scenario(duration_s=6.0, seed=4, n_modules=int(n)),
            values=(10.0,),
            schemes=("INOR",),
        )
        assert points[0].results["INOR"].scheme == "INOR"
