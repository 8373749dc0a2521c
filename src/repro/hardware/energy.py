"""Per-operation energies for a 45 nm CMOS process.

``ENERGY_TABLE_45NM`` reproduces Table I of the paper (energy per basic
arithmetic and memory operation, from Horowitz's 45 nm energy table).
:func:`multiply_energy_pj` and :func:`add_energy_pj` scale it across
arithmetic precisions for Figure 10 and the ``dse_pareto`` experiment's MAC
energy.  EIE's own energy in Figure 7 is the Table II chip power times the
simulated time (:func:`repro.hardware.area.chip_energy_j`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.utils.validation import require_in, require_non_negative

__all__ = [
    "OperationEnergy",
    "EnergyTable",
    "ENERGY_TABLE_45NM",
    "multiply_energy_pj",
    "MULTIPLY_ENERGY_PJ",
]


@dataclass(frozen=True)
class OperationEnergy:
    """Energy of one basic operation.

    Attributes:
        name: human readable operation name as it appears in Table I.
        energy_pj: energy per operation in picojoules.
        relative_cost: cost relative to a 32-bit integer add (Table I column 3).
    """

    name: str
    energy_pj: float
    relative_cost: float

    def total_pj(self, count: int) -> float:
        """Energy in pJ for ``count`` repetitions of this operation."""
        require_non_negative("count", count)
        return self.energy_pj * count


@dataclass(frozen=True)
class EnergyTable:
    """A table of per-operation energies for one technology node.

    The default instance, :data:`ENERGY_TABLE_45NM`, carries the exact values
    of Table I in the paper.
    """

    technology_nm: int
    int32_add_pj: float
    float32_add_pj: float
    int32_mult_pj: float
    float32_mult_pj: float
    sram32_read_pj: float
    dram32_read_pj: float

    def as_operations(self) -> tuple[OperationEnergy, ...]:
        """Return the table as Table-I-style rows (relative to int32 add)."""
        base = self.int32_add_pj
        rows = (
            ("32 bit int ADD", self.int32_add_pj),
            ("32 bit float ADD", self.float32_add_pj),
            ("32 bit int MULT", self.int32_mult_pj),
            ("32 bit float MULT", self.float32_mult_pj),
            ("32 bit 32KB SRAM", self.sram32_read_pj),
            ("32 bit DRAM", self.dram32_read_pj),
        )
        return tuple(
            OperationEnergy(name=name, energy_pj=pj, relative_cost=pj / base)
            for name, pj in rows
        )

    @property
    def dram_over_sram(self) -> float:
        """DRAM-to-SRAM energy ratio (the paper quotes 128x)."""
        return self.dram32_read_pj / self.sram32_read_pj


#: Table I of the paper: energy for a 45 nm CMOS process.
ENERGY_TABLE_45NM = EnergyTable(
    technology_nm=45,
    int32_add_pj=0.1,
    float32_add_pj=0.9,
    int32_mult_pj=3.1,
    float32_mult_pj=3.7,
    sram32_read_pj=5.0,
    dram32_read_pj=640.0,
)

#: Multiplier energy versus arithmetic precision (Figure 10, left axis).
#: The paper states that 16-bit fixed-point multiplication consumes 5x less
#: energy than 32-bit fixed-point and 6.2x less than 32-bit floating point.
MULTIPLY_ENERGY_PJ: dict[str, float] = {
    "float32": ENERGY_TABLE_45NM.float32_mult_pj,           # 3.7 pJ
    "int32": ENERGY_TABLE_45NM.int32_mult_pj,               # 3.1 pJ
    "int16": ENERGY_TABLE_45NM.int32_mult_pj / 5.0,         # ~0.62 pJ
    "int8": ENERGY_TABLE_45NM.int32_mult_pj / 5.0 / 3.1,    # ~0.2 pJ
}


def multiply_energy_pj(precision: str) -> float:
    """Energy of one multiplication at ``precision``.

    ``precision`` is one of ``float32``, ``int32``, ``int16``, ``int8``.
    """
    require_in("precision", precision, MULTIPLY_ENERGY_PJ)
    return MULTIPLY_ENERGY_PJ[precision]


def add_energy_pj(precision: str) -> float:
    """Energy of one addition at ``precision`` (scaled from Table I)."""
    require_in("precision", precision, MULTIPLY_ENERGY_PJ)
    if precision == "float32":
        return ENERGY_TABLE_45NM.float32_add_pj
    scale = {"int32": 1.0, "int16": 0.5, "int8": 0.25}[precision]
    return ENERGY_TABLE_45NM.int32_add_pj * scale
