"""Content-addressed caching of :class:`~repro.sim.physics.TracePhysics`.

The physics precompute is a pure function of ``(trace, boundary,
module, n_modules)``: nothing the controller or charger does can change
it.  Experiment grids exploit exactly that purity — a scanner-noise or
policy axis fans tens of cases over the *same* trace — but before this
layer every grid cell paid the boundary solves again (the batch engine
shared per ``id(scenario)`` only, so ``dataclasses.replace`` variants
and process-pool workers each re-solved from scratch).

:class:`PhysicsCache` closes that gap with two tiers keyed by one
content fingerprint (:func:`physics_fingerprint`):

* an in-process LRU, shared by the serial/thread executors and by
  consecutive :class:`~repro.sim.simulator.HarvestSimulator` builds;
* an optional on-disk artifact store (one ``<fingerprint>.npz`` per
  entry) that process-pool workers — and machines sharing a filesystem
  in a sharded grid — warm once and then load instead of solving.

Both tiers reproduce the compute path bit-for-bit: the artifact stores
the solved arrays losslessly (raw float64, via the solution's own
``to_arrays``/``solution_from_arrays`` round trip, so boundary types
with richer solutions keep every column), and a loaded entry is rebound
to the caller's live trace/boundary/module objects, so cached and
uncached experiments are indistinguishable.  Artifacts are written
atomically (temp file + ``os.replace``) and a corrupt or truncated file
is treated as a miss: the entry is recomputed and the artifact
rewritten.

The fingerprint leads with the boundary's registered type tag: two
boundary models with identical parameter floats can never collide in
the store (pinned by the cross-type cache-miss test).
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Tuple

import hashlib

import numpy as np

from repro.sim._atomic import atomic_write
from repro.sim.physics import TracePhysics
from repro.teg.model import ModuleModel
from repro.thermal.boundary import ThermalBoundary
from repro.vehicle.trace import RadiatorTrace

#: Bumped whenever the artifact layout or fingerprint recipe changes;
#: artifacts carrying a different version are treated as misses and
#: rewritten.  v2: boundary type tag + canonical parameter tokens
#: replace the hard-wired radiator parameter walk.  v3: module-model
#: type tag + full parameter tokens replace the hard-wired
#: single-material field walk, so two module models of different
#: registered types can never share an artifact.
CACHE_FORMAT_VERSION = 3

#: Trace columns entering the fingerprint (everything the solves read).
_TRACE_COLUMNS = (
    "time_s",
    "coolant_inlet_c",
    "coolant_flow_kg_s",
    "air_flow_kg_s",
    "ambient_c",
    "coolant_inlet_sensed_c",
    "coolant_flow_sensed_kg_s",
)


def _scalar_token(name: str, value: float) -> bytes:
    """A lossless text token for one scalar parameter."""
    return f"{name}={float(value).hex()};".encode()


def physics_fingerprint(
    trace: RadiatorTrace,
    boundary: ThermalBoundary,
    module: ModuleModel,
    n_modules: int,
) -> str:
    """Content fingerprint of one :meth:`TracePhysics.compute` input set.

    Hashes the raw bytes of every trace column the solves read, the
    boundary's registered type tag plus its full parameter dict (via
    :meth:`~repro.thermal.boundary.ThermalBoundary.fingerprint_tokens`
    — lossless ``float.hex`` tokens, nested params included), the
    module model's registered type tag plus its full parameter dict
    (:meth:`~repro.teg.model.ModuleModel.fingerprint_tokens`), and the
    chain length.  Two inputs with equal fingerprints produce
    bit-identical :class:`TracePhysics` objects; object identity, trace
    names and scanner settings are deliberately excluded so grid
    variants built via ``dataclasses.replace`` (and re-built scenarios
    in other processes) share one entry.  Module models of different
    registered types never collide even with identical parameter
    floats — the type tag leads the module tokens.
    """
    h = hashlib.sha256()
    h.update(f"tegkit-physics-v{CACHE_FORMAT_VERSION};".encode())
    h.update(f"n_modules={int(n_modules)};".encode())

    for column in _TRACE_COLUMNS:
        arr = np.ascontiguousarray(getattr(trace, column), dtype=float)
        h.update(f"{column}[{arr.size}];".encode())
        h.update(arr.tobytes())

    h.update(module.fingerprint_tokens())
    h.update(boundary.fingerprint_tokens())
    return h.hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss accounting of one :class:`PhysicsCache`.

    Attributes
    ----------
    memory_hits:
        Lookups answered by the in-process LRU.
    disk_hits:
        Lookups answered by loading an on-disk artifact.
    misses:
        Lookups that had to run :meth:`TracePhysics.compute` (equals
        the number of boundary solves paid: one per compute, over the
        true and sensed rows stacked).
    corrupt_artifacts:
        On-disk artifacts that failed to load and were recomputed.
    """

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    corrupt_artifacts: int = 0

    @property
    def hits(self) -> int:
        """Total lookups that avoided a recompute."""
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        """Total lookups served."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that avoided a recompute (0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


class PhysicsCache:
    """Two-tier memoisation of :meth:`TracePhysics.compute`.

    Parameters
    ----------
    max_entries:
        Capacity of the in-process LRU tier.  The working set of an
        experiment grid is its number of *unique* scenarios, so the
        default comfortably covers the registry-driven grids; least
        recently used entries are evicted beyond it.
    cache_dir:
        Optional directory for the on-disk artifact tier.  Created on
        first store.  Process-pool executors need this tier — workers
        cannot share the parent's memory — and a warm directory
        survives across runs and processes.
    """

    def __init__(
        self,
        max_entries: int = 32,
        cache_dir: Optional[os.PathLike] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._max_entries = int(max_entries)
        self._dir: Optional[Path] = Path(cache_dir) if cache_dir is not None else None
        self._lru: "OrderedDict[str, TracePhysics]" = OrderedDict()
        self._lock = threading.Lock()
        self._memory_hits = 0
        self._disk_hits = 0
        self._misses = 0
        self._corrupt = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def cache_dir(self) -> Optional[Path]:
        """The on-disk tier's directory (``None`` when memory-only)."""
        return self._dir

    @property
    def stats(self) -> CacheStats:
        """Current hit/miss accounting."""
        return CacheStats(
            memory_hits=self._memory_hits,
            disk_hits=self._disk_hits,
            misses=self._misses,
            corrupt_artifacts=self._corrupt,
        )

    def __len__(self) -> int:
        return len(self._lru)

    def artifacts(self) -> Tuple[Path, ...]:
        """Artifact files currently present in the on-disk tier."""
        if self._dir is None or not self._dir.is_dir():
            return ()
        return tuple(sorted(self._dir.glob("*.npz")))

    def clear(self, disk: bool = False) -> None:
        """Drop the LRU tier; with ``disk=True`` also delete artifacts."""
        with self._lock:
            self._lru.clear()
            if disk:
                for path in self.artifacts():
                    path.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # The cache operation
    # ------------------------------------------------------------------
    def get_or_compute(
        self,
        trace: RadiatorTrace,
        boundary: ThermalBoundary,
        module: ModuleModel,
        n_modules: int,
    ) -> TracePhysics:
        """Return the memoised physics for the inputs, computing on miss.

        The returned object is always bound to *these* trace/boundary/
        module objects (a hit under a content-equal but distinct trace
        is rebound via ``dataclasses.replace``; the solved arrays are
        shared), so it passes the simulator's identity validation and
        downstream results are bit-identical to an uncached compute.
        """
        key = physics_fingerprint(trace, boundary, module, n_modules)
        with self._lock:
            physics = self._lru.get(key)
            if physics is not None:
                self._lru.move_to_end(key)
                self._memory_hits += 1
                return self._rebind(physics, trace, boundary, module)

            physics = self._load(key, trace, boundary, module, n_modules)
            if physics is not None:
                self._disk_hits += 1
                self._insert(key, physics)
                return physics

            physics = TracePhysics.compute(trace, boundary, module, n_modules)
            self._misses += 1
            self._insert(key, physics)
            if self._dir is not None:
                self._save(key, physics)
            return physics

    def warm(self, scenarios) -> int:
        """Precompute (or load) the physics of each scenario's inputs.

        Returns the number of entries that had to be computed.  Used by
        the batch engine before a process-pool fan-out and by the
        ``repro cache --warm`` CLI.
        """
        before = self._misses
        for scenario in scenarios:
            self.get_or_compute(
                scenario.trace, scenario.boundary, scenario.module,
                scenario.n_modules,
            )
        return self._misses - before

    # ------------------------------------------------------------------
    # LRU tier
    # ------------------------------------------------------------------
    def _insert(self, key: str, physics: TracePhysics) -> None:
        self._lru[key] = physics
        self._lru.move_to_end(key)
        while len(self._lru) > self._max_entries:
            self._lru.popitem(last=False)

    @staticmethod
    def _rebind(
        physics: TracePhysics,
        trace: RadiatorTrace,
        boundary: ThermalBoundary,
        module: ModuleModel,
    ) -> TracePhysics:
        """Point a cached entry at the caller's live model objects."""
        if (
            physics.trace is trace
            and physics.boundary is boundary
            and physics.module is module
        ):
            return physics
        return replace(physics, trace=trace, boundary=boundary, module=module)

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------
    def _artifact_path(self, key: str) -> Path:
        assert self._dir is not None
        return self._dir / f"{key}.npz"

    def _save(self, key: str, physics: TracePhysics) -> None:
        """Write one artifact atomically (temp file + rename)."""
        assert self._dir is not None
        self._dir.mkdir(parents=True, exist_ok=True)
        arrays = {}
        solution_keys = self._pack_solution(
            arrays, "true", physics.true_solution
        )
        if not physics.noiseless:
            self._pack_solution(arrays, "sensed", physics.sensed_solution)
        arrays["sensed_temps_c"] = physics.sensed_temps_c
        arrays["emf_true"] = physics.emf_true
        arrays["ideal_power_w"] = physics.ideal_power_w
        meta = {
            "version": CACHE_FORMAT_VERSION,
            "fingerprint": key,
            "boundary_type": physics.boundary.boundary_type,
            "module_type": physics.module.model_type,
            "solution_keys": solution_keys,
            "noiseless": bool(physics.noiseless),
            "n_modules": int(physics.n_modules),
            "module_resistance_ohm": physics.module_resistance_ohm.hex(),
        }
        path = self._artifact_path(key)

        def write(tmp: Path) -> None:
            with open(tmp, "wb") as handle:
                np.savez(handle, meta_json=np.array(json.dumps(meta)), **arrays)

        atomic_write(path, write)

    def _load(
        self,
        key: str,
        trace: RadiatorTrace,
        boundary: ThermalBoundary,
        module: ModuleModel,
        n_modules: int,
    ) -> Optional[TracePhysics]:
        """Load one artifact; a broken file counts as a miss."""
        if self._dir is None:
            return None
        path = self._artifact_path(key)
        if not path.is_file():
            return None
        try:
            with np.load(path) as data:
                meta = json.loads(str(data["meta_json"]))
                if (
                    meta.get("version") != CACHE_FORMAT_VERSION
                    or meta.get("fingerprint") != key
                    or meta.get("boundary_type") != boundary.boundary_type
                    or meta.get("module_type") != module.model_type
                    or meta.get("n_modules") != int(n_modules)
                ):
                    raise ValueError("artifact metadata mismatch")
                noiseless = bool(meta["noiseless"])
                solution_keys = list(meta["solution_keys"])
                true_solution = self._unpack_solution(
                    data, "true", boundary, solution_keys
                )
                sensed_solution = (
                    true_solution
                    if noiseless
                    else self._unpack_solution(
                        data, "sensed", boundary, solution_keys
                    )
                )
                return TracePhysics(
                    trace=trace,
                    boundary=boundary,
                    module=module,
                    n_modules=int(n_modules),
                    true_solution=true_solution,
                    sensed_solution=sensed_solution,
                    sensed_temps_c=data["sensed_temps_c"],
                    emf_true=data["emf_true"],
                    module_resistance_ohm=float.fromhex(
                        meta["module_resistance_ohm"]
                    ),
                    ideal_power_w=data["ideal_power_w"],
                    noiseless=noiseless,
                )
        except Exception:
            # Truncated download, version skew, concurrent writer crash:
            # recompute and let the fresh _save overwrite the artifact.
            self._corrupt += 1
            return None

    @staticmethod
    def _pack_solution(arrays: dict, prefix: str, solution) -> list:
        """Flatten one solution into ``{prefix}_{key}`` npz entries.

        Returns the solution's own key list — recorded in the artifact
        metadata so :meth:`_unpack_solution` never guesses which npz
        entries belong to the solution (``sensed_temps_c`` is a
        top-level field, not a ``sensed``-prefixed solution column).
        """
        flat = solution.to_arrays()
        for name, arr in flat.items():
            arrays[f"{prefix}_{name}"] = arr
        return sorted(flat)

    @staticmethod
    def _unpack_solution(data, prefix: str, boundary: ThermalBoundary, keys):
        """Rebuild the boundary's solution type from ``{prefix}_*`` entries."""
        return type(boundary).solution_from_arrays(
            {name: data[f"{prefix}_{name}"] for name in keys}
        )
