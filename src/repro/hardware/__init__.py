"""Hardware cost models: energy, SRAM, area/power breakdown, technology scaling.

This subpackage provides the analytic substitutes for the paper's physical
design flow (Synopsys DC/ICC synthesis, Cacti, Prime-Time PX).  The models are
anchored to the numbers published in the paper (Tables I and II) and provide
the scaling laws needed for the design-space-exploration figures (Figures 9
and 10) and the cross-platform comparison (Table V).
"""

from repro.hardware.area import LNZD_UNIT, PEAreaModel, chip_area_mm2, num_lnzd_units
from repro.hardware.energy import (
    ENERGY_TABLE_45NM,
    EnergyTable,
    OperationEnergy,
    multiply_energy_pj,
)
from repro.hardware.sram import (
    SramConfig,
    ecc_read_energy_factor,
    ecc_storage_factor,
    protected_storage_bits,
    sram_read_energy_pj,
)
from repro.hardware.technology import TechnologyNode, scale_area, scale_frequency, scale_power

__all__ = [
    "ENERGY_TABLE_45NM",
    "EnergyTable",
    "LNZD_UNIT",
    "OperationEnergy",
    "PEAreaModel",
    "SramConfig",
    "TechnologyNode",
    "chip_area_mm2",
    "ecc_read_energy_factor",
    "ecc_storage_factor",
    "multiply_energy_pj",
    "protected_storage_bits",
    "num_lnzd_units",
    "scale_area",
    "scale_frequency",
    "scale_power",
    "sram_read_energy_pj",
]
