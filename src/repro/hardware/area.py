"""Area and power models for the EIE processing element and chip.

The numbers reproduce Table II of the paper (implementation results of one PE
at TSMC 45 nm, broken down by component type and by module) plus the LNZD
unit cost quoted in Section VI, and compose them into whole-chip area and
power for an arbitrary number of PEs (used by Table V and the 28 nm
projection).  :func:`chip_energy_j` is the one EIE energy rule: the chip power
times the simulated time, as Figure 7 charges it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.utils.validation import require_positive

__all__ = [
    "ModuleCost",
    "PEAreaModel",
    "LNZD_UNIT",
    "num_lnzd_units",
    "chip_area_mm2",
    "chip_power_w",
    "chip_energy_j",
]


@dataclass(frozen=True)
class ModuleCost:
    """Power and area of one module or component class inside a PE."""

    name: str
    power_mw: float
    area_um2: float


#: Table II, lines 8-13: breakdown of one PE by module.
PE_MODULE_BREAKDOWN: tuple[ModuleCost, ...] = (
    ModuleCost("act_queue", power_mw=0.112, area_um2=758.0),
    ModuleCost("ptr_read", power_mw=1.807, area_um2=121_849.0),
    ModuleCost("spmat_read", power_mw=4.955, area_um2=469_412.0),
    ModuleCost("arithmetic", power_mw=1.162, area_um2=3_110.0),
    ModuleCost("act_rw", power_mw=1.122, area_um2=18_934.0),
    ModuleCost("filler", power_mw=0.0, area_um2=23_961.0),
)

#: Table II, lines 3-7: breakdown of one PE by component type.
PE_COMPONENT_BREAKDOWN: tuple[ModuleCost, ...] = (
    ModuleCost("memory", power_mw=5.416, area_um2=594_786.0),
    ModuleCost("clock_network", power_mw=1.874, area_um2=866.0),
    ModuleCost("register", power_mw=1.026, area_um2=9_465.0),
    ModuleCost("combinational", power_mw=0.841, area_um2=8_946.0),
    ModuleCost("filler", power_mw=0.0, area_um2=23_961.0),
)

#: Section VI: one leading-non-zero-detection node costs 0.023 mW and 189 um2.
LNZD_UNIT = ModuleCost("lnzd_node", power_mw=0.023, area_um2=189.0)

#: Paper headline numbers for one PE (Table II, line 2).
PE_TOTAL_POWER_MW = 9.157
PE_TOTAL_AREA_UM2 = 638_024.0
#: Critical path reported by the paper (Section VI / Table II caption).
PE_CRITICAL_PATH_NS = 1.15


def num_lnzd_units(num_pes: int) -> int:
    """Number of LNZD nodes needed for ``num_pes`` PEs.

    Each node covers four children, arranged as a quadtree, and the root node
    doubles as the central control unit.  For 64 PEs this gives
    16 + 4 + 1 = 21 units, matching the paper.
    """
    if num_pes < 1:
        raise ConfigurationError(f"num_pes must be >= 1, got {num_pes}")
    count = 0
    nodes = int(num_pes)
    while nodes > 1:
        nodes = -(-nodes // 4)  # ceil division
        count += nodes
    return max(count, 1)


@dataclass
class PEAreaModel:
    """Area/power model of one EIE PE with Table II's breakdown.

    The breakdown can be rescaled (e.g. for a different Spmat SRAM capacity)
    but by default reproduces the published numbers exactly.

    Attributes:
        modules: per-module costs (act queue, pointer read, Spmat read,
            arithmetic, activation R/W, filler cells).
        components: per-component-type costs (memory, clock, registers,
            combinational, filler).
        clock_mhz: PE clock frequency.
    """

    modules: tuple[ModuleCost, ...] = field(default_factory=lambda: PE_MODULE_BREAKDOWN)
    components: tuple[ModuleCost, ...] = field(default_factory=lambda: PE_COMPONENT_BREAKDOWN)
    clock_mhz: float = 800.0

    def __post_init__(self) -> None:
        require_positive("clock_mhz", self.clock_mhz)

    @property
    def total_power_mw(self) -> float:
        """Total PE power in milliwatts (sum of the module breakdown)."""
        return sum(module.power_mw for module in self.modules)

    @property
    def total_area_um2(self) -> float:
        """Total PE area in square micrometres (sum of the module breakdown)."""
        return sum(module.area_um2 for module in self.modules)

    @property
    def total_area_mm2(self) -> float:
        """Total PE area in square millimetres."""
        return self.total_area_um2 / 1e6

    def module_fraction(self, name: str, quantity: str = "area") -> float:
        """Fraction of total area or power attributed to module ``name``."""
        for module in self.modules:
            if module.name == name:
                if quantity == "area":
                    return module.area_um2 / self.total_area_um2
                if quantity == "power":
                    return module.power_mw / max(self.total_power_mw, 1e-12)
                raise ConfigurationError(f"unknown quantity {quantity!r}")
        raise ConfigurationError(f"unknown module {name!r}")

    def component_fraction(self, name: str, quantity: str = "area") -> float:
        """Fraction of total area or power attributed to component ``name``."""
        total_area = sum(component.area_um2 for component in self.components)
        total_power = sum(component.power_mw for component in self.components)
        for component in self.components:
            if component.name == name:
                if quantity == "area":
                    return component.area_um2 / total_area
                if quantity == "power":
                    return component.power_mw / max(total_power, 1e-12)
                raise ConfigurationError(f"unknown quantity {quantity!r}")
        raise ConfigurationError(f"unknown component {name!r}")

    def breakdown_rows(self) -> list[dict[str, object]]:
        """Table-II-style rows (name, power mW, power %, area um2, area %)."""
        rows: list[dict[str, object]] = []
        total_power = self.total_power_mw
        total_area = self.total_area_um2
        rows.append(
            {
                "name": "Total",
                "group": "total",
                "power_mw": total_power,
                "power_pct": 100.0,
                "area_um2": total_area,
                "area_pct": 100.0,
            }
        )
        for group_name, group in (("component", self.components), ("module", self.modules)):
            for cost in group:
                rows.append(
                    {
                        "name": cost.name,
                        "group": group_name,
                        "power_mw": cost.power_mw,
                        "power_pct": 100.0 * cost.power_mw / total_power,
                        "area_um2": cost.area_um2,
                        "area_pct": 100.0 * cost.area_um2 / total_area,
                    }
                )
        return rows


def chip_area_mm2(num_pes: int, pe_model: PEAreaModel | None = None) -> float:
    """Total chip area in mm^2 for ``num_pes`` PEs plus their LNZD tree.

    For 64 PEs this reproduces the paper's ~40.8 mm^2.
    """
    pe_model = pe_model or PEAreaModel()
    lnzd_area_um2 = num_lnzd_units(num_pes) * LNZD_UNIT.area_um2
    return (num_pes * pe_model.total_area_um2 + lnzd_area_um2) / 1e6


def chip_power_w(num_pes: int, pe_model: PEAreaModel | None = None) -> float:
    """Total chip power in watts for ``num_pes`` PEs plus their LNZD tree.

    For 64 PEs this reproduces the paper's ~0.59 W.
    """
    pe_model = pe_model or PEAreaModel()
    lnzd_power_mw = num_lnzd_units(num_pes) * LNZD_UNIT.power_mw
    return (num_pes * pe_model.total_power_mw + lnzd_power_mw) / 1e3


def chip_energy_j(num_pes: int, seconds: float | np.ndarray) -> float | np.ndarray:
    """EIE energy in joules: ``seconds`` of simulated time at the chip power.

    ``seconds`` is one time or an array of per-item times.  Figure 7,
    whole-model runs and served responses all charge EIE through this rule.
    """
    return seconds * chip_power_w(num_pes)
