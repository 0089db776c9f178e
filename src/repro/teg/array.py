"""The reconfigurable TEG array facade.

:class:`TEGArray` binds a module type, a hot-side temperature
distribution and the Thevenin network algebra into the object the
reconfiguration algorithms and the simulator operate on.  It is
deliberately *stateful in temperature only*; the applied electrical
configuration lives in :class:`repro.teg.switches.SwitchFabric` so the
same array can be evaluated under many candidate configurations without
touching hardware state.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError, ModelParameterError
from repro.teg.model import ModuleModel
from repro.teg.module import MPPPoint
from repro.teg import network


def _normalize_starts(config: object) -> Sequence[int]:
    """Accept either a raw starts sequence or an object with ``.starts``."""
    starts = getattr(config, "starts", config)
    return starts  # validated downstream by network.validate_starts


class TEGArray:
    """A chain of ``N`` identical TEG modules on a radiator surface.

    Parameters
    ----------
    module:
        Electrical model shared by all modules (paper: TGM-199-1.4-0.8).
    n_modules:
        Chain length ``N`` (paper: 100).
    use_temperature_drift:
        When True, per-module EMF/resistance use the material's
        temperature-drift model evaluated at each module's mean junction
        temperature; the paper's constant-parameter model corresponds to
        False (the default).

    Notes
    -----
    Temperatures are set through :meth:`set_temperatures` (hot-side
    Celsius profile plus ambient) or :meth:`set_delta_t` (direct
    temperature differences).  All electrical queries raise until one of
    them has been called.
    """

    def __init__(
        self,
        module: ModuleModel,
        n_modules: int,
        use_temperature_drift: bool = False,
    ) -> None:
        if int(n_modules) != n_modules or n_modules < 1:
            raise ModelParameterError(
                f"n_modules must be a positive integer, got {n_modules!r}"
            )
        self._module = module
        self._n_modules = int(n_modules)
        self._use_drift = bool(use_temperature_drift)
        self._delta_t: Optional[np.ndarray] = None
        self._mean_temp: Optional[np.ndarray] = None
        self._boundary_state = False

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @property
    def module(self) -> ModuleModel:
        """The shared module model."""
        return self._module

    @property
    def n_modules(self) -> int:
        """Chain length ``N``."""
        return self._n_modules

    def __len__(self) -> int:
        return self._n_modules

    # ------------------------------------------------------------------
    # Thermal state
    # ------------------------------------------------------------------
    def set_temperatures(
        self, hot_side_c: Sequence[float], ambient_c: float
    ) -> None:
        """Set per-module hot-side temperatures and the shared ambient.

        The paper assumes heatsink temperature equals ambient, so the
        module temperature difference is ``dT_i = T_i - T_amb``.
        """
        hot = np.asarray(hot_side_c, dtype=float)
        if hot.shape != (self._n_modules,):
            raise ConfigurationError(
                f"hot_side_c must have shape ({self._n_modules},), got {hot.shape}"
            )
        if not np.all(np.isfinite(hot)) or not np.isfinite(ambient_c):
            raise ModelParameterError("temperatures must be finite")
        self._delta_t = hot - float(ambient_c)
        self._mean_temp = (hot + float(ambient_c)) / 2.0
        self._boundary_state = False

    def set_delta_t(self, delta_t_k: Sequence[float]) -> None:
        """Set per-module temperature differences directly."""
        delta = np.asarray(delta_t_k, dtype=float)
        if delta.shape != (self._n_modules,):
            raise ConfigurationError(
                f"delta_t_k must have shape ({self._n_modules},), got {delta.shape}"
            )
        if not np.all(np.isfinite(delta)):
            raise ModelParameterError("temperature differences must be finite")
        self._delta_t = delta.copy()
        # Without absolute temperatures, drift evaluation falls back to
        # the material reference point.
        self._mean_temp = None
        self._boundary_state = False

    def set_thermal_state(
        self, delta_t_k: Sequence[float], mean_temp_c: Sequence[float]
    ) -> None:
        """Set boundary-solved differences plus mean junction temperatures.

        The simulator's reference engine uses this to hand the array the
        thermal-boundary solution: per-module temperature differences
        *and* the mean junction temperature each module actually sits
        at, so temperature-interpolated module models (segmented chains)
        evaluate their materials at the right point.  EMFs are evaluated
        at the given means regardless of ``use_temperature_drift``;
        internal resistance stays on the nominal chain value, matching
        the trace-physics plane.
        """
        delta = np.asarray(delta_t_k, dtype=float)
        mean = np.asarray(mean_temp_c, dtype=float)
        if delta.shape != (self._n_modules,) or mean.shape != (self._n_modules,):
            raise ConfigurationError(
                f"delta_t_k and mean_temp_c must both have shape "
                f"({self._n_modules},), got {delta.shape} and {mean.shape}"
            )
        if not np.all(np.isfinite(delta)) or not np.all(np.isfinite(mean)):
            raise ModelParameterError("temperatures must be finite")
        self._delta_t = delta.copy()
        self._mean_temp = mean.copy()
        self._boundary_state = True

    @property
    def delta_t(self) -> np.ndarray:
        """Per-module temperature differences (kelvin)."""
        self._require_thermal_state()
        assert self._delta_t is not None
        return self._delta_t.copy()

    def _require_thermal_state(self) -> None:
        if self._delta_t is None:
            raise ConfigurationError(
                "array temperatures not set; call set_temperatures() or "
                "set_delta_t() first"
            )

    # ------------------------------------------------------------------
    # Per-module electrical vectors
    # ------------------------------------------------------------------
    def emf_vector(self) -> np.ndarray:
        """Per-module open-circuit voltages ``E_i``.

        Routed through the :class:`~repro.teg.model.ModuleModel`
        protocol: mean junction temperatures are passed whenever the
        drift model is enabled or the thermal state came from
        :meth:`set_thermal_state` (the boundary-solved physics plane).
        """
        self._require_thermal_state()
        assert self._delta_t is not None
        if self._mean_temp is not None and (self._use_drift or self._boundary_state):
            return np.asarray(
                self._module.emf(self._delta_t, self._mean_temp), dtype=float
            )
        return np.asarray(self._module.emf(self._delta_t), dtype=float)

    def resistance_vector(self) -> np.ndarray:
        """Per-module internal resistances ``R_i``.

        Nominal chain resistance unless the legacy drift model is
        enabled with absolute temperatures; boundary-solved thermal
        state keeps the nominal value, matching the trace-physics
        plane's single shared module resistance.
        """
        self._require_thermal_state()
        assert self._delta_t is not None
        if self._use_drift and self._mean_temp is not None:
            return np.asarray(
                self._module.internal_resistance(self._mean_temp), dtype=float
            )
        return np.full(
            self._n_modules, float(self._module.internal_resistance())
        )

    def mpp_currents(self) -> np.ndarray:
        """Per-module MPP currents ``I_MPP_i = E_i / 2 R_i`` (Alg. 1 input)."""
        return self.emf_vector() / (2.0 * self.resistance_vector())

    def ideal_power(self) -> float:
        """``P_ideal``: every module at its own MPP (paper Fig. 7 reference).

        Modules with negative temperature difference contribute zero: a
        back-biased module would be disconnected, not milked.
        """
        emf = self.emf_vector()
        res = self.resistance_vector()
        per_module = np.where(emf > 0.0, emf * emf / (4.0 * res), 0.0)
        return float(per_module.sum())

    # ------------------------------------------------------------------
    # Configured-array queries
    # ------------------------------------------------------------------
    def thevenin(self, config: object) -> Tuple[float, float]:
        """Whole-array Thevenin ``(E, R)`` under a configuration."""
        return network.array_thevenin(
            self.emf_vector(), self.resistance_vector(), _normalize_starts(config)
        )

    def configured_mpp(self, config: object) -> MPPPoint:
        """Exact MPP of the array under a configuration."""
        return network.array_mpp(
            self.emf_vector(), self.resistance_vector(), _normalize_starts(config)
        )

    def mpp_batch(
        self, configs: Sequence[object]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact MPPs of many candidate configurations in one pass.

        The row-vector sibling of :meth:`configured_mpp`: returns
        ``(power_w, voltage_v, current_a)`` arrays with one entry per
        configuration, bit-identical to calling :meth:`configured_mpp`
        per candidate (see :func:`repro.teg.network.array_mpp_multi`).
        This is the kernel behind INOR's vectorised ``[n_min, n_max]``
        candidate sweep.  A :class:`~repro.teg.network.PartitionSet`
        (e.g. from :meth:`balanced_partitions`) is consumed through its
        flat layout directly.
        """
        if not isinstance(configs, network.PartitionSet):
            configs = [_normalize_starts(config) for config in configs]
        return network.array_mpp_multi(
            self.emf_vector(), self.resistance_vector(), configs
        )

    def balanced_partitions(
        self, n_min: int, n_max: int
    ) -> network.PartitionSet:
        """Greedy balanced partitions for every group count in a window.

        The Algorithm-1 candidate set at the current temperatures, built
        by the vectorised :func:`repro.teg.network.partition_multi`
        kernel (cut indices bit-identical to the scalar walk).  Feed the
        result straight into :meth:`mpp_batch` to score the window.
        """
        return network.partition_multi(self.mpp_currents(), n_min, n_max)

    def power_at_current(self, config: object, current_a: float) -> float:
        """Array output power at a charger-imposed current."""
        return network.power_at_current(
            self.emf_vector(),
            self.resistance_vector(),
            _normalize_starts(config),
            current_a,
        )

    def operating_points(
        self, config: object, current_a: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-module ``(voltage, current, power)`` at an array current."""
        return network.module_operating_points(
            self.emf_vector(),
            self.resistance_vector(),
            _normalize_starts(config),
            current_a,
        )

    def segment_tables(self) -> network.SegmentThevenin:
        """Prefix tables for the DP algorithms, at the current temperatures."""
        return network.SegmentThevenin.from_modules(
            self.emf_vector(), self.resistance_vector()
        )
