"""The pluggable thermal-boundary protocol.

The paper's pipeline — predict boundary conditions, precompute the
thermal/EMF state, reconfigure with INOR/DNOR — never actually needs a
*radiator*; it needs hot/cold film temperatures at every module
position for every trace sample.  :class:`ThermalBoundary` is that
contract:

* :meth:`ThermalBoundary.solve_trace` maps four boundary-condition
  columns (hot-stream inlet temperature, hot-stream mass flow, ambient
  temperature, cold-stream mass flow — the four columns every
  :class:`~repro.vehicle.trace.RadiatorTrace` carries, whatever
  physical stream they describe) to a
  :class:`BoundaryTraceSolution`: per-sample, per-module hot-face and
  cold-face temperatures.  The solve must be *row-wise elementwise* —
  sample ``i`` of the output depends only on sample ``i`` of the
  inputs — which is what lets the streaming service evaluate chunks
  bit-identically to the one-shot precompute.
* :meth:`ThermalBoundary.params_dict` /
  :meth:`ThermalBoundary.from_params_dict` give a loss-free JSON form,
  and the module-level registry (:func:`register_boundary`,
  :func:`boundary_to_json_dict`, :func:`boundary_from_json_dict`)
  dispatches on a ``boundary_type`` tag so shard manifests and cache
  fingerprints name the model, not just its parameter floats.

:class:`~repro.thermal.radiator.Radiator` is simply the first
registered boundary (``"radiator"``); the exhaust-gas waste-heat model
(:mod:`repro.thermal.exhaust`) and the finite thermal-coupling wrapper
(:mod:`repro.thermal.coupling`) are the next two.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Dict, Mapping, Sequence, Type

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BoundaryOperatingPoint:
    """Solved thermal state of a boundary at one time instant.

    The protocol-level scalar view: hot-face / cold-face temperatures
    at every module position, their difference, and the ambient
    reference.  Concrete boundaries may return a richer subclass (the
    radiator adds its effectiveness-NTU solution) — consumers of the
    protocol read only these fields.
    """

    surface_temps_c: np.ndarray
    sink_temps_c: np.ndarray
    delta_t_k: np.ndarray
    ambient_c: float


@dataclass(frozen=True)
class BoundaryTraceSolution:
    """Vectorised boundary state over a whole boundary-condition trace.

    Row ``i`` of every array is exactly the operating point a scalar
    :meth:`ThermalBoundary.operating_point` call at sample ``i`` would
    produce (the solve is row-wise elementwise, so a length-1 solve is
    bit-identical to the corresponding row of a batched one).

    Attributes
    ----------
    surface_temps_c, sink_temps_c, delta_t_k:
        ``(T, N)`` module-position temperature fields.
    ambient_c:
        Ambient temperature per sample.
    active:
        Boolean mask of samples with a live thermal gradient (hot
        stream above ambient); inactive samples hold the degenerate
        zero-duty state.
    """

    surface_temps_c: np.ndarray
    sink_temps_c: np.ndarray
    delta_t_k: np.ndarray
    ambient_c: np.ndarray
    active: np.ndarray

    @property
    def n_samples(self) -> int:
        """Number of trace samples."""
        return int(self.ambient_c.size)

    @property
    def n_modules(self) -> int:
        """Number of module positions."""
        return int(self.delta_t_k.shape[1])

    def operating_point(self, i: int) -> BoundaryOperatingPoint:
        """Scalar :class:`BoundaryOperatingPoint` view of sample ``i``."""
        return BoundaryOperatingPoint(
            surface_temps_c=self.surface_temps_c[i].copy(),
            sink_temps_c=self.sink_temps_c[i].copy(),
            delta_t_k=self.delta_t_k[i].copy(),
            ambient_c=float(self.ambient_c[i]),
        )

    # ------------------------------------------------------------------
    # Loss-free array round trip (the physics-cache artifact format)
    # ------------------------------------------------------------------
    def to_arrays(self) -> Dict[str, np.ndarray]:
        """Flat name-to-array mapping reproducing this solution exactly.

        Subclasses with nested fields (the radiator's exchanger
        solution) override this pair to flatten them; keys must be
        valid npz entry names.
        """
        return {f.name: getattr(self, f.name) for f in fields(type(self))}

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]):
        """Inverse of :meth:`to_arrays`."""
        return cls(**{f.name: arrays[f.name] for f in fields(cls)})

    def rows(self, lo: int, hi: int):
        """The solution of samples ``[lo, hi)``, same concrete type.

        Written through the flat :meth:`to_arrays` / :meth:`from_arrays`
        pair, so subclasses with nested columns (the radiator's
        exchanger solution) slice correctly without an override.  The
        arrays are views of this solution's rows.
        """
        return type(self).from_arrays(
            {name: arr[lo:hi] for name, arr in self.to_arrays().items()}
        )

    @classmethod
    def concat(cls, parts: Sequence["BoundaryTraceSolution"]):
        """Row-concatenate per-chunk solutions into one.

        Every column is per-sample (row) data, so concatenation along
        axis 0 reassembles exactly the arrays a whole-trace
        :meth:`ThermalBoundary.solve_trace` call produces (pinned in
        the stream parity suite).  Written through the flat
        :meth:`to_arrays` / :meth:`from_arrays` pair, like
        :meth:`rows`, so subclasses need no override.
        """
        flat = [p.to_arrays() for p in parts]
        return cls.from_arrays(
            {name: np.concatenate([f[name] for f in flat]) for name in flat[0]}
        )


class ThermalBoundary(ABC):
    """A thermal domain the TEG chain can be mounted on.

    Subclasses set a unique :attr:`boundary_type` tag, implement the
    batched :meth:`solve_trace` and the loss-free
    :meth:`params_dict` / :meth:`from_params_dict` pair, and call
    :func:`register_boundary` so manifests and cache fingerprints can
    dispatch on the tag.
    """

    #: Registered type tag; unique per concrete boundary model.
    boundary_type: str = ""

    # ------------------------------------------------------------------
    # The thermal contract
    # ------------------------------------------------------------------
    @abstractmethod
    def solve_trace(
        self,
        hot_inlet_c: np.ndarray,
        hot_flow_kg_s: np.ndarray,
        ambient_c: np.ndarray,
        cold_flow_kg_s: np.ndarray,
        n_modules: int,
    ) -> BoundaryTraceSolution:
        """Solve every sample of a boundary-condition trace in one pass.

        The four columns are the generic hot-stream inlet temperature,
        hot-stream mass flow, ambient (cold-stream inlet) temperature
        and cold-stream mass flow; what physical streams they describe
        is the boundary's business (coolant/air for the radiator,
        exhaust gas/cold loop for the waste-heat model).  The solve
        must be row-wise elementwise: chunked evaluation has to be
        bit-identical to one-shot evaluation.
        """

    def operating_point(
        self,
        hot_inlet_c: float,
        hot_flow_kg_s: float,
        ambient_c: float,
        cold_flow_kg_s: float,
        n_modules: int,
    ) -> BoundaryOperatingPoint:
        """Scalar solve at one time instant (the reference-engine path).

        The default runs a length-1 :meth:`solve_trace` — bit-identical
        to the corresponding row of a batched solve because the solve
        is row-wise elementwise.  Boundaries with a dedicated scalar
        path (the radiator) may override.
        """
        solution = self.solve_trace(
            np.array([float(hot_inlet_c)]),
            np.array([float(hot_flow_kg_s)]),
            np.array([float(ambient_c)]),
            np.array([float(cold_flow_kg_s)]),
            n_modules,
        )
        return solution.operating_point(0)

    # ------------------------------------------------------------------
    # Loss-free JSON round trip behind the type tag
    # ------------------------------------------------------------------
    @abstractmethod
    def params_dict(self) -> Dict[str, object]:
        """JSON-safe parameter dictionary reproducing this boundary.

        Scalars travel as plain JSON numbers (which round-trip float64
        exactly); nested boundaries (wrappers) embed the full
        ``{"type": ..., "params": ...}`` envelope of their inner model.
        """

    @classmethod
    @abstractmethod
    def from_params_dict(cls, params: Dict[str, object]) -> "ThermalBoundary":
        """Rebuild a boundary from :meth:`params_dict` output."""

    @classmethod
    def solution_from_arrays(
        cls, arrays: Mapping[str, np.ndarray]
    ) -> BoundaryTraceSolution:
        """Rebuild this boundary's trace-solution type from flat arrays.

        The physics cache stores solutions via
        :meth:`BoundaryTraceSolution.to_arrays` and rebuilds them here,
        so boundaries whose :meth:`solve_trace` returns a richer
        subclass override this to restore it.
        """
        return BoundaryTraceSolution.from_arrays(arrays)

    def to_json_dict(self) -> Dict[str, object]:
        """The tagged envelope: ``{"type": <tag>, "params": {...}}``."""
        return boundary_to_json_dict(self)

    def fingerprint_tokens(self) -> bytes:
        """Lossless byte tokens of the type tag plus every parameter.

        Feeds :func:`repro.sim.cache.physics_fingerprint`; two
        boundaries of different registered types never share tokens
        even with identical parameter floats.
        """
        return f"boundary={self.boundary_type};".encode() + _param_tokens(
            self.params_dict()
        )


def _param_tokens(value: object, prefix: str = "") -> bytes:
    """Canonical byte tokens of one (possibly nested) parameter value.

    Dict keys are visited in sorted order so the token stream does not
    depend on dict construction order; floats render as ``float.hex``
    (lossless), other JSON scalars by type-tagged repr.
    """
    if isinstance(value, dict):
        chunks = [f"{prefix}{{;".encode()]
        for key in sorted(value):
            chunks.append(_param_tokens(value[key], prefix=f"{prefix}{key}."))
        chunks.append(f"{prefix}}};".encode())
        return b"".join(chunks)
    if isinstance(value, bool):
        return f"{prefix}=b{int(value)};".encode()
    if isinstance(value, float):
        return f"{prefix}={value.hex()};".encode()
    if isinstance(value, int):
        return f"{prefix}=i{value};".encode()
    if value is None:
        return f"{prefix}=null;".encode()
    return f"{prefix}=s{value};".encode()


# ----------------------------------------------------------------------
# The type-tag registry
# ----------------------------------------------------------------------
_BOUNDARY_TYPES: Dict[str, Type[ThermalBoundary]] = {}
_BUILTINS_LOADED = False


def register_boundary(cls: Type[ThermalBoundary]) -> Type[ThermalBoundary]:
    """Register a boundary class under its ``boundary_type`` tag.

    Usable as a class decorator.  Re-registering the same class is a
    no-op; a *different* class under an already-taken tag is refused —
    silently shadowing a tag would make manifests ambiguous.
    """
    tag = cls.boundary_type
    if not tag:
        raise ConfigurationError(
            f"{cls.__name__} must set a non-empty boundary_type tag"
        )
    existing = _BOUNDARY_TYPES.get(tag)
    if existing is not None and existing is not cls:
        raise ConfigurationError(
            f"boundary type tag {tag!r} is already registered by "
            f"{existing.__name__}"
        )
    _BOUNDARY_TYPES[tag] = cls
    return cls


def _ensure_builtins() -> None:
    """Import the built-in boundaries so their tags are registered.

    Lazy because the radiator module imports *this* module; the
    registry only needs the concrete classes at lookup time.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    import repro.thermal.coupling  # noqa: F401  (registers on import)
    import repro.thermal.exhaust  # noqa: F401
    import repro.thermal.radiator  # noqa: F401

    _BUILTINS_LOADED = True


def boundary_class(tag: str) -> Type[ThermalBoundary]:
    """The registered boundary class for one type tag."""
    _ensure_builtins()
    cls = _BOUNDARY_TYPES.get(tag)
    if cls is None:
        raise ConfigurationError(
            f"unknown boundary type {tag!r} "
            f"(registered: {', '.join(sorted(_BOUNDARY_TYPES)) or 'none'})"
        )
    return cls


def registered_boundary_types() -> Dict[str, Type[ThermalBoundary]]:
    """Snapshot of the tag-to-class registry (built-ins included)."""
    _ensure_builtins()
    return dict(_BOUNDARY_TYPES)


def boundary_to_json_dict(boundary: ThermalBoundary) -> Dict[str, object]:
    """Serialise any boundary as its tagged envelope."""
    _ensure_builtins()
    tag = boundary.boundary_type
    if _BOUNDARY_TYPES.get(tag) is not type(boundary):
        raise ConfigurationError(
            f"{type(boundary).__name__} (tag {tag!r}) is not the "
            f"registered class for its tag; call register_boundary first"
        )
    return {"type": tag, "params": boundary.params_dict()}


def boundary_from_json_dict(data: Mapping[str, object]) -> ThermalBoundary:
    """Rebuild a boundary from its tagged envelope."""
    if not isinstance(data, Mapping) or "type" not in data:
        raise ConfigurationError(
            "boundary JSON must be a {'type': ..., 'params': ...} envelope"
        )
    cls = boundary_class(str(data["type"]))
    return cls.from_params_dict(dict(data.get("params") or {}))
