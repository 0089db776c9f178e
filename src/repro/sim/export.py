"""Flat-file export of simulation results (CSV and lossless npz).

Downstream analysis (plotting, regression dashboards) wants flat
files, not Python objects.  Three exports cover the needs:

* :func:`result_series_to_csv` — the per-period time series of one
  scheme (power, voltage, ideal, group count), one row per control
  period.
* :func:`summary_rows_to_csv` — Table-I style one-row-per-scheme
  summaries for a set of results.
* :func:`results_to_npz` / :func:`results_from_npz` — a *loss-free*
  binary round trip of K :class:`SimulationResult` objects in one file
  (raw series columns plus the overhead-event records, each member's
  rows cut by offset columns), the per-work-item artifact format of
  the :mod:`repro.sim.shard` distributed grid runner: a fused group's
  K members share one artifact.  :func:`result_to_npz` /
  :func:`result_from_npz` are its one-member calls.  Written
  atomically (temp file + ``os.replace``) so a crashed or concurrent
  worker can never leave a truncated artifact behind.
"""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

import csv
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from repro.core.overhead import OverheadEvent
from repro.errors import SimulationError
from repro.sim._atomic import atomic_write
from repro.sim.results import SimulationResult, summary_row

#: Columns of the per-period series export.
SERIES_COLUMNS = (
    "time_s",
    "gross_power_w",
    "delivered_power_w",
    "net_power_w",
    "ideal_power_w",
    "ratio_to_ideal",
    "array_voltage_v",
    "n_groups",
    "runtime_s",
)


def result_series_to_csv(
    result: SimulationResult, path: Union[str, Path]
) -> Path:
    """Write one scheme's per-period series; returns the path written."""
    path = Path(path)
    net = result.net_power_w()
    ratio = result.ratio_to_ideal()
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SERIES_COLUMNS)
        for i in range(result.time_s.size):
            writer.writerow(
                (
                    f"{result.time_s[i]:.10g}",
                    f"{result.gross_power_w[i]:.10g}",
                    f"{result.delivered_power_w[i]:.10g}",
                    f"{net[i]:.10g}",
                    f"{result.ideal_power_w[i]:.10g}",
                    f"{ratio[i]:.10g}",
                    f"{result.array_voltage_v[i]:.10g}",
                    f"{int(result.n_groups_series[i])}",
                    f"{result.runtime_s[i]:.10g}",
                )
            )
    return path


#: Bumped whenever the npz artifact layout changes; readers refuse
#: artifacts carrying a different version instead of misreading them.
#: v2 holds any number of results in one file.
RESULT_FORMAT_VERSION = 2

#: Per-period series stored as raw columns, every member's rows
#: concatenated and cut by ``series_offsets``.
_RESULT_SERIES = (
    "time_s",
    "gross_power_w",
    "delivered_power_w",
    "ideal_power_w",
    "array_voltage_v",
    "runtime_s",
    "n_groups_series",
)

#: Per-event columns of the overhead records, in field order.
_EVENT_FIELDS = tuple(field.name for field in fields(OverheadEvent))


def _offsets(counts: Iterable[int]) -> np.ndarray:
    """``[0, c0, c0 + c1, ...]``: where each member's rows start."""
    return np.concatenate(([0], np.cumsum(list(counts)))).astype(np.int64)


def results_to_npz(
    results: Sequence[SimulationResult], path: Union[str, Path]
) -> Path:
    """Write K results as one loss-free npz artifact; returns the path.

    Each per-period series is one column of every member's rows in
    order, cut by ``series_offsets``; switch times and overhead events
    are ragged the same way (``switch_offsets``, ``event_offsets``),
    and the schemes ride in the metadata.  The write is atomic: the
    artifact is assembled in a sibling temp file and renamed into
    place, so readers (and shard collation) only ever see complete
    files — a re-run of the same deterministic work overwrites the
    artifact with identical bytes-for-meaning content.
    """
    if not results:
        raise SimulationError("a result artifact needs at least one result")
    path = Path(path)
    arrays = {
        name: np.concatenate([getattr(r, name) for r in results])
        for name in _RESULT_SERIES
    }
    arrays["n_groups_series"] = arrays["n_groups_series"].astype(
        np.int64, copy=False
    )
    arrays["series_offsets"] = _offsets(r.time_s.size for r in results)
    arrays["switch_times_s"] = np.array(
        [t for r in results for t in r.switch_times_s], dtype=float
    )
    arrays["switch_offsets"] = _offsets(len(r.switch_times_s) for r in results)
    events = [e for r in results for e in r.overhead_events]
    for name in _EVENT_FIELDS:
        arrays[f"ev_{name}"] = np.array(
            [getattr(e, name) for e in events],
            dtype=np.int64 if name == "toggles" else float,
        )
    arrays["event_offsets"] = _offsets(len(r.overhead_events) for r in results)
    meta = {
        "version": RESULT_FORMAT_VERSION,
        "schemes": [r.scheme for r in results],
    }
    path.parent.mkdir(parents=True, exist_ok=True)

    def write(tmp: Path) -> None:
        with open(tmp, "wb") as handle:
            np.savez(handle, meta_json=np.array(json.dumps(meta)), **arrays)

    atomic_write(path, write)
    return path


def results_from_npz(path: Union[str, Path]) -> Tuple[SimulationResult, ...]:
    """Rebuild every member of a :func:`results_to_npz` artifact.

    Bit-identical to the results written, in the order written.

    Raises
    ------
    SimulationError
        If the file is missing, unreadable, or carries a different
        format version.
    """
    path = Path(path)
    try:
        with np.load(path) as data:
            meta = json.loads(str(data["meta_json"]))
            if meta.get("version") != RESULT_FORMAT_VERSION:
                raise ValueError(
                    f"unsupported result artifact version "
                    f"{meta.get('version')!r}"
                )
            # Each column read once: NpzFile.__getitem__ re-reads the
            # zip member on every access.
            series = {name: data[name] for name in _RESULT_SERIES}
            rows = data["series_offsets"].tolist()
            switches = data["switch_times_s"].tolist()
            switch_cut = data["switch_offsets"].tolist()
            columns = [data[f"ev_{name}"].tolist() for name in _EVENT_FIELDS]
            events = [OverheadEvent(*row) for row in zip(*columns)]
            event_cut = data["event_offsets"].tolist()
        return tuple(
            SimulationResult(
                scheme=str(scheme),
                overhead_events=tuple(events[event_cut[k]:event_cut[k + 1]]),
                switch_times_s=tuple(
                    switches[switch_cut[k]:switch_cut[k + 1]]
                ),
                **{
                    name: column[rows[k]:rows[k + 1]]
                    for name, column in series.items()
                },
            )
            for k, scheme in enumerate(meta["schemes"])
        )
    except Exception as exc:
        raise SimulationError(
            f"cannot read result artifact {path}: {exc}"
        ) from exc


def result_to_npz(
    result: SimulationResult, path: Union[str, Path]
) -> Path:
    """Write one result as a one-member :func:`results_to_npz` artifact."""
    return results_to_npz([result], path)


def result_from_npz(path: Union[str, Path]) -> SimulationResult:
    """Rebuild a one-member artifact (see :func:`results_from_npz`)."""
    results = results_from_npz(path)
    if len(results) != 1:
        raise SimulationError(
            f"result artifact {path} holds {len(results)} results, not one"
        )
    return results[0]


def summary_rows_to_csv(
    results: Iterable[SimulationResult], path: Union[str, Path]
) -> Path:
    """Write Table-I style rows for several schemes; returns the path."""
    path = Path(path)
    rows = [summary_row(result) for result in results]
    if not rows:
        raise ValueError("summary_rows_to_csv needs at least one result")
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    return path
