"""Tests for repro.sim.export."""

import csv
import json

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.export import (
    RESULT_FORMAT_VERSION,
    SERIES_COLUMNS,
    result_from_npz,
    results_from_npz,
    result_series_to_csv,
    result_to_npz,
    results_to_npz,
    summary_rows_to_csv,
)
from repro.sim.scenario import default_scenario


@pytest.fixture(scope="module")
def result():
    scenario = default_scenario(duration_s=20.0, seed=6, n_modules=25)
    simulator = scenario.make_simulator()
    return simulator.run(scenario.make_inor_policy(), scenario.make_charger())


class TestSeriesExport:
    def test_header_and_row_count(self, result, tmp_path):
        path = result_series_to_csv(result, tmp_path / "series.csv")
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert tuple(rows[0]) == SERIES_COLUMNS
        assert len(rows) - 1 == result.time_s.size

    def test_values_roundtrip(self, result, tmp_path):
        path = result_series_to_csv(result, tmp_path / "series.csv")
        with path.open() as handle:
            reader = csv.DictReader(handle)
            first = next(reader)
        assert float(first["time_s"]) == pytest.approx(result.time_s[0])
        assert float(first["delivered_power_w"]) == pytest.approx(
            result.delivered_power_w[0]
        )
        assert int(first["n_groups"]) == result.n_groups_series[0]

    def test_net_power_column_integrates(self, result, tmp_path):
        path = result_series_to_csv(result, tmp_path / "series.csv")
        with path.open() as handle:
            net = [float(row["net_power_w"]) for row in csv.DictReader(handle)]
        assert sum(net) * result.dt_s == pytest.approx(
            result.energy_output_j, rel=1e-9
        )


class TestSummaryExport:
    def test_one_row_per_scheme(self, result, tmp_path):
        path = summary_rows_to_csv([result, result], tmp_path / "summary.csv")
        with path.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert rows[0]["scheme"] == "INOR"
        assert float(rows[0]["energy_output_j"]) == pytest.approx(
            result.energy_output_j
        )

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            summary_rows_to_csv([], tmp_path / "summary.csv")


class TestNpzRoundTrip:
    """The shard artifact format: loss-free, versioned, atomic."""

    ARRAY_FIELDS = (
        "time_s",
        "gross_power_w",
        "delivered_power_w",
        "ideal_power_w",
        "array_voltage_v",
        "runtime_s",
        "n_groups_series",
    )

    def test_bit_identical(self, result, tmp_path):
        # The INOR fixture switches every period, so the event records
        # (the trickiest part of the layout) are genuinely exercised.
        assert result.overhead_events
        loaded = result_from_npz(result_to_npz(result, tmp_path / "r.npz"))
        for field in self.ARRAY_FIELDS:
            assert np.array_equal(
                getattr(loaded, field), getattr(result, field)
            ), field
        assert loaded.scheme == result.scheme
        assert loaded.switch_times_s == result.switch_times_s
        assert loaded.overhead_events == result.overhead_events
        assert loaded.energy_output_j == result.energy_output_j

    def test_no_temp_files_left(self, result, tmp_path):
        result_to_npz(result, tmp_path / "r.npz")
        assert [p.name for p in tmp_path.iterdir()] == ["r.npz"]

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(SimulationError, match="cannot read"):
            result_from_npz(tmp_path / "nope.npz")

    def test_truncated_file_raises(self, result, tmp_path):
        path = result_to_npz(result, tmp_path / "r.npz")
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(SimulationError):
            result_from_npz(path)

    def test_one_member_reader_refuses_group_artifact(self, result, tmp_path):
        path = results_to_npz([result, result], tmp_path / "g.npz")
        assert len(results_from_npz(path)) == 2
        with pytest.raises(SimulationError, match="holds 2 results"):
            result_from_npz(path)

    def test_empty_artifact_refused(self, tmp_path):
        with pytest.raises(SimulationError, match="at least one"):
            results_to_npz([], tmp_path / "g.npz")

    def test_version_skew_refused(self, result, tmp_path):
        path = result_to_npz(result, tmp_path / "r.npz")
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files}
        meta = json.loads(str(arrays["meta_json"]))
        assert meta["version"] == RESULT_FORMAT_VERSION
        meta["version"] = RESULT_FORMAT_VERSION + 1
        arrays["meta_json"] = np.array(json.dumps(meta))
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        with pytest.raises(SimulationError, match="version"):
            result_from_npz(path)
