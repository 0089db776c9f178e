"""Thermoelectric generator device and reconfigurable-array substrate.

This subpackage implements the device level of the paper:

* :mod:`repro.teg.materials` — thermoelectric couple/material models.
* :mod:`repro.teg.model` — the pluggable :class:`ModuleModel` protocol
  and its ``model_type`` tagged-JSON registry; every other layer talks
  to modules through it.
* :mod:`repro.teg.module` — the single-module electrical model of the
  paper's Eq. (2): ``E = alpha * dT * N_cpl`` behind an internal
  resistance, with I-V / P-V curves and the maximum power point; the
  registered ``"single-material"`` model.
* :mod:`repro.teg.segmented` — segmented/hybrid chains with per-segment
  materials along the hot-to-cold gradient; the registered
  ``"segmented"`` model.
* :mod:`repro.teg.datasheet` — named parameter sets, including the
  TGM-199-1.4-0.8 module used throughout the paper.
* :mod:`repro.teg.network` — exact Thevenin algebra for the
  series-of-parallel-groups topology produced by the switch fabric.
* :mod:`repro.teg.switches` — the three-switch-per-junction fabric of
  the paper's Fig. 4, with toggle accounting for overhead estimation.
* :mod:`repro.teg.array` — :class:`~repro.teg.array.TEGArray`, gluing
  modules, temperatures, and configurations together.
"""

from repro.teg.array import TEGArray
from repro.teg.bank import (
    ChainState,
    bank_mpp,
    bank_power_at_voltage,
    chain_state,
    reconfigure_bank,
)
from repro.teg.faults import FaultMask
from repro.teg.datasheet import (
    MODULE_CATALOG,
    TGM_127_1_0_0_8,
    TGM_199_1_4_0_8,
    TGM_199_1_4_0_8_REALISTIC,
    TGM_287_1_0_1_5,
    get_module,
)
from repro.teg.materials import (
    BISMUTH_TELLURIDE,
    BISMUTH_TELLURIDE_REALISTIC,
    LEAD_TELLURIDE,
    SKUTTERUDITE,
    CoupleMaterial,
)
from repro.teg.model import (
    ModuleModel,
    module_model_from_json_dict,
    module_model_to_json_dict,
    register_module_model,
    registered_module_model_types,
)
from repro.teg.module import MPPPoint, SingleMaterialModule, TEGModule
from repro.teg.segmented import (
    ModuleSegment,
    SegmentedModule,
    hybrid_module,
    segmented_emf_reference,
)
from repro.teg.network import (
    PartitionSet,
    SegmentThevenin,
    array_mpp,
    array_mpp_multi,
    array_mpp_rows,
    array_thevenin,
    greedy_balanced_partition,
    module_operating_points,
    parallel_reduce,
    partition_multi,
    power_at_current,
    reduce_configuration,
    validate_starts,
)
from repro.teg.switches import (
    SWITCHES_PER_JUNCTION_FLIP,
    JunctionState,
    SwitchFabric,
    count_junction_flips,
    count_switch_toggles,
    junction_states_to_starts,
    starts_to_junction_states,
)

__all__ = [
    "BISMUTH_TELLURIDE",
    "BISMUTH_TELLURIDE_REALISTIC",
    "ChainState",
    "CoupleMaterial",
    "FaultMask",
    "JunctionState",
    "LEAD_TELLURIDE",
    "MODULE_CATALOG",
    "MPPPoint",
    "ModuleModel",
    "ModuleSegment",
    "PartitionSet",
    "SKUTTERUDITE",
    "SegmentedModule",
    "SingleMaterialModule",
    "SWITCHES_PER_JUNCTION_FLIP",
    "SegmentThevenin",
    "SwitchFabric",
    "TEGArray",
    "TEGModule",
    "TGM_127_1_0_0_8",
    "TGM_199_1_4_0_8",
    "TGM_199_1_4_0_8_REALISTIC",
    "TGM_287_1_0_1_5",
    "array_mpp",
    "array_mpp_multi",
    "array_mpp_rows",
    "array_thevenin",
    "bank_mpp",
    "bank_power_at_voltage",
    "chain_state",
    "count_junction_flips",
    "count_switch_toggles",
    "get_module",
    "greedy_balanced_partition",
    "hybrid_module",
    "junction_states_to_starts",
    "module_model_from_json_dict",
    "module_model_to_json_dict",
    "module_operating_points",
    "parallel_reduce",
    "partition_multi",
    "power_at_current",
    "reconfigure_bank",
    "reduce_configuration",
    "register_module_model",
    "registered_module_model_types",
    "segmented_emf_reference",
    "starts_to_junction_states",
    "validate_starts",
]
