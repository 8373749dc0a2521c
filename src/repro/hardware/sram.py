"""SRAM read-energy and access-count models.

The paper sweeps the Spmat SRAM interface width from 32 to 512 bits
(Figure 9): a wider interface needs fewer reads per column but costs more
energy per read, and the product of the two curves has its minimum at 64
bits.  The authors used Cacti for the energy-per-read curve; here we use a
Cacti-like analytic scaling law anchored so that a 64-bit read of the 128 KB
Spmat SRAM costs roughly what Table I quotes for a 32-bit read of a 32 KB
SRAM, scaled for width and capacity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.utils.validation import require_positive, require_power_of_two

__all__ = [
    "sram_read_energy_pj",
    "SramConfig",
    "SPMAT_SRAM_KB",
    "PTR_SRAM_KB",
    "ACT_SRAM_KB",
    "ecc_storage_factor",
    "ecc_read_energy_factor",
    "protected_storage_bits",
]

#: Default EIE per-PE SRAM capacities (Section VI): 128 KB Spmat, 32 KB Ptr,
#: 2 KB activation SRAM, 162 KB total.
SPMAT_SRAM_KB = 128
PTR_SRAM_KB = 32
ACT_SRAM_KB = 2

#: Calibration constants for the Cacti-like model.  The reference point is
#: Table I: a 32-bit read from a 32 KB SRAM costs 5 pJ at 45 nm.
_REFERENCE_ENERGY_PJ = 5.0
_REFERENCE_WIDTH_BITS = 32
_REFERENCE_CAPACITY_KB = 32
#: Exponent of the width term.  Energy per read grows sub-linearly with the
#: interface width because the decoder and wordline energy are amortised; the
#: value is fitted to Figure 9 (left), where energy per read grows roughly 5x
#: from a 32-bit to a 512-bit interface.
_WIDTH_EXPONENT = 0.6
#: Exponent of the capacity term (bitline/decoder growth ~ sqrt of capacity).
_CAPACITY_EXPONENT = 0.5


def sram_read_energy_pj(width_bits: int, capacity_kb: float = SPMAT_SRAM_KB) -> float:
    """Energy in pJ of one read of ``width_bits`` from a ``capacity_kb`` SRAM.

    The model is ``E = E_ref * (width / 32)^0.6 * (capacity / 32KB)^0.5``,
    anchored at Table I's 5 pJ for a 32-bit read of a 32 KB array.  It
    reproduces the qualitative Figure 9 (left) curve: energy per read grows
    with width, roughly 5x from 32-bit to 512-bit.
    """
    require_power_of_two("width_bits", width_bits)
    require_positive("capacity_kb", capacity_kb)
    width_factor = (width_bits / _REFERENCE_WIDTH_BITS) ** _WIDTH_EXPONENT
    capacity_factor = (capacity_kb / _REFERENCE_CAPACITY_KB) ** _CAPACITY_EXPONENT
    return _REFERENCE_ENERGY_PJ * width_factor * capacity_factor


def ecc_storage_factor(scheme: str) -> float:
    """Stored-bits multiplier of an ECC scheme over raw data bits.

    ``none`` stores raw bits; ``parity`` adds 1 check bit per 64-bit word
    (~1.6% overhead); ``secded`` adds 8 for the (72,64) Hamming+parity code
    (12.5% overhead).  This is the area/capacity cost the reliability
    Pareto charges protected configurations.
    """
    from repro.reliability.ecc import ECC_DATA_BITS, ecc_check_bits

    return (ECC_DATA_BITS + ecc_check_bits(scheme)) / ECC_DATA_BITS


def ecc_read_energy_factor(scheme: str) -> float:
    """Per-read energy multiplier of an ECC scheme.

    A protected word read fetches ``64 + check`` bits instead of 64, so the
    read energy scales with the same sub-linear width exponent the Cacti
    model uses for interface width (decoder/wordline energy is shared):
    ``((64 + check) / 64) ** 0.6`` — ~1.0093 for parity, ~1.073 for SECDED.
    The syndrome XOR tree itself is noise next to the array access.
    """
    return ecc_storage_factor(scheme) ** _WIDTH_EXPONENT


def protected_storage_bits(data_bits: int, scheme: str) -> int:
    """Bits held in SRAM to store ``data_bits`` under ``scheme``.

    Check bits are per 64-bit word, so protection is word-granular: a
    partial last word still pays full check bits.  ``none`` stores the raw
    bits unchanged.
    """
    from repro.reliability.ecc import ECC_DATA_BITS, ecc_check_bits

    if data_bits < 0:
        raise ConfigurationError(f"data_bits must be >= 0, got {data_bits}")
    check = ecc_check_bits(scheme)
    if check == 0:
        return int(data_bits)
    words = -(-int(data_bits) // ECC_DATA_BITS)
    return words * (ECC_DATA_BITS + check)


@dataclass(frozen=True)
class SramConfig:
    """Geometry of one SRAM bank.

    Attributes:
        capacity_kb: capacity in kilobytes.
        width_bits: read/write interface width in bits.
        name: label used in reports (e.g. ``"Spmat"``).
    """

    capacity_kb: float
    width_bits: int
    name: str = "sram"

    def __post_init__(self) -> None:
        require_positive("capacity_kb", self.capacity_kb)
        require_power_of_two("width_bits", self.width_bits)

    @property
    def capacity_bits(self) -> int:
        """Total capacity in bits."""
        return int(self.capacity_kb * 1024 * 8)

    @property
    def num_rows(self) -> int:
        """Number of addressable rows at the configured width."""
        return self.capacity_bits // self.width_bits

    @property
    def read_energy_pj(self) -> float:
        """Energy of one read at the configured width."""
        return sram_read_energy_pj(self.width_bits, self.capacity_kb)

    def reads_for_entries(self, num_entries: int, entry_bits: int) -> int:
        """Number of reads needed to stream ``num_entries`` packed entries.

        Entries are packed ``width_bits // entry_bits`` per row; a partial row
        still costs one full read (this is exactly the wasted-read effect that
        makes very wide interfaces lose in Figure 9).
        """
        if entry_bits <= 0 or entry_bits > self.width_bits:
            raise ConfigurationError(
                f"entry_bits must be in [1, {self.width_bits}], got {entry_bits}"
            )
        if num_entries < 0:
            raise ConfigurationError(f"num_entries must be >= 0, got {num_entries}")
        entries_per_row = self.width_bits // entry_bits
        return math.ceil(num_entries / entries_per_row) if num_entries else 0
