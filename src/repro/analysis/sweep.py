"""Declarative parameter sweeps over the closed-loop scenario.

The ablation benches all follow one pattern — vary a scenario knob,
re-run one or more policies, tabulate Table-I style rows.  This module
centralises that loop so benches and examples stay declarative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.errors import SimulationError
from repro.sim.results import SimulationResult, summary_row
from repro.sim.scenario import POLICY_NAMES, Scenario


@dataclass(frozen=True)
class SweepResult:
    """One sweep point: the knob value and the per-scheme results."""

    label: str
    value: float
    results: Dict[str, SimulationResult]

    def row(self, scheme: str) -> Dict[str, float]:
        """Table-I style summary row of one scheme at this point."""
        return summary_row(self.results[scheme])


def sweep_scenario(
    base_factory: Callable[[float], Scenario],
    values: Sequence[float],
    schemes: Sequence[str] = ("DNOR", "INOR", "Baseline"),
    label: str = "sweep",
) -> List[SweepResult]:
    """Run the closed loop across a knob sweep.

    Parameters
    ----------
    base_factory:
        Maps a knob value to a fully-built :class:`Scenario`.  The
        factory owns the semantics of the knob (horizon, overhead
        scale, array size, ...).
    values:
        Knob values to sweep.
    schemes:
        Which of the scenario's policies to run at each point; EHTR is
        excluded by default because its cost dominates sweeps.
    label:
        Name recorded on every sweep point.

    Raises
    ------
    SimulationError
        If ``values`` is empty or a requested scheme is unknown.
    """
    if len(values) == 0:
        raise SimulationError("sweep needs at least one value")
    unknown = set(schemes) - set(POLICY_NAMES)
    if unknown:
        raise SimulationError(f"unknown schemes requested: {sorted(unknown)}")
    points: List[SweepResult] = []
    for value in values:
        scenario = base_factory(float(value))
        simulator = scenario.make_simulator()
        results = {
            name: simulator.run(
                scenario.make_policy(name), scenario.make_charger()
            )
            for name in schemes
        }
        points.append(SweepResult(label=label, value=float(value), results=results))
    return points
