"""The batch experiment layer — many scenarios, one call.

Layer three of the simulation stack (physics precompute → step loop →
batch engine): :class:`ExperimentRunner` fans a list of
:class:`ExperimentCase` objects — typically a grid of
``trace × policy × chain length × scanner noise`` built by
:func:`grid_cases` — across ``concurrent.futures`` workers and collates
the per-case :class:`~repro.sim.results.SimulationResult` objects into
comparison tables.

Determinism: every case carries its own fully-seeded
:class:`~repro.sim.scenario.Scenario`; workers construct the policy,
scanner and charger *inside* the worker from those seeds, so results
are bit-identical to running the same case sequentially in the parent
process, regardless of worker count or scheduling order — **provided
the scenario sets** ``nominal_compute_s`` (all registry-built
scenarios do).  With it unset, overhead bills — and through them DNOR
decisions — use the measured ``decide`` wall-clock, which varies
between runs by design.
"""

from __future__ import annotations

import dataclasses
import json
import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.cache import PhysicsCache
from repro.sim.results import SimulationResult, comparison_table, summary_row
from repro.sim.scenario import Scenario

#: Valid values of the ``executor`` argument.
EXECUTORS = ("serial", "process", "shard", "gridstack")


@dataclass(frozen=True)
class ExperimentCase:
    """One (scenario, policy) cell of an experiment grid.

    Attributes
    ----------
    name:
        Unique label of the case in the collation (e.g.
        ``"porter-ii-800s-seed2018/DNOR"``).
    scenario:
        The fully-seeded scenario to simulate.  Everything stochastic
        (trace sensors, module scanner) is derived from its seeds, so a
        case is reproducible wherever it runs — bit-exactly when the
        scenario also pins ``nominal_compute_s`` (registry scenarios
        do), within measured-runtime jitter otherwise.
    policy:
        Scheme name, one of :data:`~repro.sim.scenario.POLICY_NAMES`
        (``"DNOR"``, ``"INOR"``, ``"EHTR"``, ``"Baseline"``).
    with_battery:
        Whether the charger carries a battery sink.
    """

    name: str
    scenario: Scenario
    policy: str
    with_battery: bool = True

    # ------------------------------------------------------------------
    # Loss-free JSON round trip (the shard manifest format)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict[str, object]:
        """JSON-safe dictionary reproducing this case exactly.

        Together with :meth:`Scenario.to_json_dict` this is what makes
        an experiment grid *portable*: a sharded run writes the cases
        into a manifest and independent hosts rebuild them bit-exactly
        (pinned in ``tests/test_sim_shard.py``).
        """
        return {
            "name": self.name,
            "policy": self.policy,
            "with_battery": bool(self.with_battery),
            "scenario": self.scenario.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "ExperimentCase":
        """Rebuild a case from :meth:`to_json_dict` output."""
        return cls(
            name=str(data["name"]),
            scenario=Scenario.from_json_dict(data["scenario"]),
            policy=str(data["policy"]),
            with_battery=bool(data["with_battery"]),
        )


#: Per-process :class:`PhysicsCache` instances, keyed by directory.
#: Pool workers are reused across cases, so a worker's first case pays
#: one artifact load and later cases over the same scenario hit the
#: worker-local LRU.
_WORKER_CACHES: Dict[str, PhysicsCache] = {}


def _worker_cache(cache_dir: str) -> PhysicsCache:
    cache = _WORKER_CACHES.get(cache_dir)
    if cache is None:
        cache = PhysicsCache(cache_dir=cache_dir)
        _WORKER_CACHES[cache_dir] = cache
    return cache


def run_case(
    case: ExperimentCase, physics=None, cache_dir: Optional[str] = None
) -> SimulationResult:
    """Execute one case: build the simulator and policy, run, return.

    Module-level so process pools can pickle it; also the single code
    path for every executor, which is what makes parallel results
    bit-identical to sequential ones.  ``physics`` optionally injects
    a shared :class:`~repro.sim.physics.TracePhysics` so in-process
    cases over the same scenario split one precompute; ``cache_dir``
    instead points a (typically pool-worker) process at a shared
    on-disk :class:`~repro.sim.cache.PhysicsCache` tier, which the
    parent runner warms before fanning out.  Neither can change
    results — the precompute is a pure function of the scenario and
    cached entries are bit-identical to fresh ones.
    """
    cache = (
        _worker_cache(cache_dir)
        if physics is None and cache_dir is not None
        else None
    )
    try:
        # The policy first: an unknown name fails before any physics.
        policy = case.scenario.make_policy(case.policy)
        simulator = case.scenario.make_simulator(physics=physics, cache=cache)
        charger = case.scenario.make_charger(with_battery=case.with_battery)
        return simulator.run(policy, charger)
    except Exception as exc:
        # Name the failing cell: a pooled or sharded grid surfaces the
        # worker's traceback far from the submission site, and without
        # the case name one bad cell in a 100-case grid is anonymous.
        raise SimulationError(f"case {case.name!r} failed: {exc}") from exc


def grid_cases(
    scenarios: Sequence[Scenario],
    policies: Sequence[str],
    n_modules: Optional[Sequence[int]] = None,
    scanner_noise_std_k: Optional[Sequence[float]] = None,
) -> List[ExperimentCase]:
    """Build the full ``trace × policy × N × noise`` case grid.

    ``n_modules`` / ``scanner_noise_std_k`` axes default to "keep the
    scenario's own value".  Case names encode only the axes that vary,
    so a plain scenario × policy grid keeps short names.
    """
    module_axis: Sequence[Optional[int]] = (
        [None] if n_modules is None else list(n_modules)
    )
    noise_axis: Sequence[Optional[float]] = (
        [None] if scanner_noise_std_k is None else list(scanner_noise_std_k)
    )
    cases: List[ExperimentCase] = []
    for scenario in scenarios:
        for m in module_axis:
            for noise in noise_axis:
                variant = scenario
                suffix = ""
                if m is not None:
                    variant = dataclasses.replace(variant, n_modules=int(m))
                    suffix += f"/N={int(m)}"
                if noise is not None:
                    variant = dataclasses.replace(
                        variant, scanner_noise_std_k=float(noise)
                    )
                    suffix += f"/noise={noise:g}K"
                for policy in policies:
                    cases.append(
                        ExperimentCase(
                            name=f"{scenario.trace.name}{suffix}/{policy}",
                            scenario=variant,
                            policy=policy,
                        )
                    )
    return cases


@dataclass(frozen=True)
class ExperimentCollation:
    """Collated results of one :class:`ExperimentRunner` invocation."""

    cases: Tuple[ExperimentCase, ...]
    results: Tuple[SimulationResult, ...]

    def __len__(self) -> int:
        return len(self.cases)

    def __iter__(self):
        """Iterate ``(case, result)`` pairs in collation order."""
        return iter(zip(self.cases, self.results))

    def __getitem__(self, name: str) -> SimulationResult:
        for case, result in zip(self.cases, self.results):
            if case.name == name:
                return result
        raise KeyError(name)

    def by_scenario(self) -> Dict[str, List[Tuple[ExperimentCase, SimulationResult]]]:
        """Group (case, result) pairs by their scenario grouping key.

        The key is the case name minus the trailing ``/<policy>``
        component, so every variant of a scenario collates its schemes
        into one Table-I style block.
        """
        groups: Dict[str, List[Tuple[ExperimentCase, SimulationResult]]] = {}
        for case, result in zip(self.cases, self.results):
            key = case.name.rsplit("/", 1)[0] if "/" in case.name else case.name
            groups.setdefault(key, []).append((case, result))
        return groups

    def tables(self) -> str:
        """Render one comparison table per scenario grouping."""
        blocks = []
        for key, pairs in self.by_scenario().items():
            blocks.append(f"== {key} ==")
            blocks.append(comparison_table(result for _, result in pairs))
        return "\n\n".join(blocks)

    def summary_rows(
        self, deterministic_only: bool = False
    ) -> List[Dict[str, object]]:
        """Flat per-case summary dictionaries (JSON-friendly).

        ``deterministic_only`` drops ``average_runtime_ms`` — the one
        summary quantity derived from measured ``decide`` wall-clock,
        which varies between hosts and runs by design — leaving
        exactly the fields the engine's determinism contract pins.
        Sharded and serial collations of the same grid then serialise
        to identical bytes, which is what ``repro shard collate``
        artifacts and the CI shard-vs-serial diff compare.
        """
        rows: List[Dict[str, object]] = []
        for case, result in zip(self.cases, self.results):
            row: Dict[str, object] = {"case": case.name, "policy": case.policy}
            row.update(summary_row(result))
            if deterministic_only:
                row.pop("average_runtime_ms", None)
            rows.append(row)
        return rows

    def to_json(
        self, indent: int = 2, deterministic_only: bool = False
    ) -> str:
        """Serialised :meth:`summary_rows`, always valid JSON.

        Degenerate cases (zero-power periods, faulted sensing) can put
        NaN/Inf into summary values; ``json.dumps`` would happily emit
        the non-standard ``NaN``/``Infinity`` tokens that strict
        parsers — including shard collation diffing — reject.  Such
        values are sanitised to ``null`` and ``allow_nan=False`` keeps
        any future leak from producing unparseable artifacts.
        """
        rows = [
            {key: _json_safe(value) for key, value in row.items()}
            for row in self.summary_rows(deterministic_only=deterministic_only)
        ]
        return json.dumps(rows, indent=indent, allow_nan=False)


def _json_safe(value: object) -> object:
    """Map non-finite floats to ``None`` (JSON ``null``)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class ExperimentRunner:
    """Fan an experiment grid across workers, deterministically.

    Parameters
    ----------
    cases:
        The grid (see :func:`grid_cases`); names must be unique.
    executor:
        ``"process"`` (default) uses a :class:`ProcessPoolExecutor` —
        right for CPU-bound policy loops; ``"serial"`` runs inline
        (debugging, exact-equivalence tests); ``"shard"`` drives the
        grid through a durable :mod:`repro.sim.shard` directory — the
        same substrate independent hosts use — and collates its
        result artifacts (bit-identical to serial);
        ``"gridstack"`` fuses homogeneous INOR/DNOR cases into stacked
        decision passes (:mod:`repro.sim.gridstack`), bit-identical to
        serial for everything but the wall-clock ``runtime_s`` series.
    max_workers:
        Worker count for the pooled executors; ``None`` lets
        ``concurrent.futures`` pick.
    cache:
        Optional :class:`~repro.sim.cache.PhysicsCache` shared with the
        caller (and, across runs, with other runners).  By default each
        runner owns a private in-memory cache, which is already enough
        to solve each *unique* scenario once per run: cases are keyed
        by content fingerprint, so grid variants built via
        ``dataclasses.replace`` over one trace — an ``n_modules`` axis
        aside — share a single solve.
    cache_dir:
        Directory for the on-disk cache tier.  Enables physics sharing
        with process-pool workers (which cannot see the parent's
        memory): the runner warms the artifact store before fanning
        out and workers load instead of solving.  A warm directory
        also persists across runs, machines sharing a filesystem, and
        the ``repro cache`` CLI.
    shard_dir:
        Directory of the durable shard (``executor="shard"`` only).
        ``None`` runs the shard in a temporary directory that is
        removed after collation; pass a path to keep the manifest,
        queue and result artifacts around — e.g. so more hosts can
        join via ``repro shard work`` or an interrupted run can be
        resumed.
    """

    def __init__(
        self,
        cases: Iterable[ExperimentCase],
        executor: str = "process",
        max_workers: Optional[int] = None,
        cache: Optional[PhysicsCache] = None,
        cache_dir=None,
        shard_dir=None,
    ) -> None:
        self._cases: Tuple[ExperimentCase, ...] = tuple(cases)
        if not self._cases:
            raise SimulationError("an experiment needs at least one case")
        counts = Counter(case.name for case in self._cases)
        dupes = sorted(name for name, count in counts.items() if count > 1)
        if dupes:
            raise SimulationError(f"duplicate case names: {', '.join(dupes)}")
        if executor not in EXECUTORS:
            raise SimulationError(
                f"executor must be one of {EXECUTORS}, got {executor!r}"
            )
        if shard_dir is not None and executor != "shard":
            raise SimulationError(
                f"shard_dir is only meaningful with executor='shard', "
                f"got executor={executor!r}"
            )
        self._executor = executor
        self._max_workers = max_workers
        self._shard_dir = Path(shard_dir) if shard_dir is not None else None
        if cache is not None and cache_dir is not None and (
            cache.cache_dir is None or Path(cache_dir) != cache.cache_dir
        ):
            # A memory-only (or differently-located) cache cannot warm
            # the directory the workers will read; failing beats
            # silently re-solving in every pool worker.
            raise SimulationError(
                f"cache_dir {cache_dir!r} does not match the supplied "
                f"cache's directory ({cache.cache_dir}); pass one or the "
                f"other, or a cache built with this cache_dir"
            )
        if cache is None:
            cache = PhysicsCache(cache_dir=cache_dir)
        self._cache = cache
        self._cache_dir = cache.cache_dir

    @property
    def cases(self) -> Tuple[ExperimentCase, ...]:
        """The grid, in submission (= collation) order."""
        return self._cases

    @property
    def cache(self) -> PhysicsCache:
        """The physics cache serving this runner's grid."""
        return self._cache

    def _shared_physics(self) -> List[object]:
        """One TracePhysics slot per case, deduplicated by fingerprint.

        Content-keyed through the :class:`PhysicsCache`, so every grid
        cell sharing a trace/boundary/chain — including scanner-noise
        variants and scenarios rebuilt from the registry — reuses one
        solve (and one on-disk artifact when the cache has a
        directory).
        """
        return [
            self._cache.get_or_compute(
                case.scenario.trace,
                case.scenario.boundary,
                case.scenario.module,
                case.scenario.n_modules,
            )
            for case in self._cases
        ]

    def run(self) -> ExperimentCollation:
        """Execute every case and collate results in case order."""
        if self._executor == "serial":
            physics = self._shared_physics()
            results = [
                run_case(case, p) for case, p in zip(self._cases, physics)
            ]
        elif self._executor == "gridstack":
            # Imported here: gridstack builds on this module (run_case),
            # so a top-level import would be circular.
            from repro.sim.gridstack import run_grid_stacked

            physics = self._shared_physics()
            results = run_grid_stacked(self._cases, physics)
        elif self._executor == "shard":
            # Imported here: shard builds on this module (run_case,
            # ExperimentCase), so a top-level import would be circular.
            from repro.sim.shard import run_sharded

            results = run_sharded(
                self._cases,
                shard_dir=self._shard_dir,
                n_workers=self._max_workers,
                cache_dir=self._cache_dir,
            )
        elif self._cache_dir is not None:
            # Warm the shared artifact store in-process (one solve or
            # disk load per unique scenario), then let the workers read
            # it back instead of re-solving per case.
            self._shared_physics()
            with ProcessPoolExecutor(max_workers=self._max_workers) as pool:
                results = list(
                    pool.map(
                        run_case,
                        self._cases,
                        repeat(None),
                        repeat(str(self._cache_dir)),
                    )
                )
        else:
            with ProcessPoolExecutor(max_workers=self._max_workers) as pool:
                results = list(pool.map(run_case, self._cases))
        return ExperimentCollation(cases=self._cases, results=tuple(results))
