"""Functional model of one EIE processing element.

A PE owns every matrix row ``i`` with ``i mod N == pe_id`` and stores its
slice of each column in relative-indexed CSC form (values are 4-bit codebook
indices).  When the central control unit broadcasts a non-zero input
activation ``a_j`` with its column index ``j``, the PE:

1. reads the start and end pointers ``p_j`` and ``p_{j+1}`` from the pointer
   SRAM (two banks so both can be read in one cycle);
2. streams its slice of column ``j`` from the sparse-matrix SRAM, eight
   (weight, index) entries per 64-bit read;
3. expands each 4-bit virtual weight through the codebook to a 16-bit value
   and accumulates ``b_x += S[I] * a_j`` into the destination activation
   register selected by the running sum of the relative indices;
4. applies ReLU and swaps source/destination register files at the end of the
   layer.

This class is the *functional* model: it performs the exact arithmetic and
counts the memory accesses, but does not model timing (see
:mod:`repro.core.cycle_model` for that).  The array-level
:class:`~repro.core.functional.FunctionalEIE` computes the same values and
counters for all PEs at once; the test suite replays this per-PE walk as
its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compression.csc import CSCMatrix
from repro.compression.quantization import WeightCodebook
from repro.core.config import EIEConfig
from repro.errors import SimulationError
from repro.nn.fixed_point import FixedPointFormat

__all__ = ["ProcessingElement", "PEAccessCounters"]


@dataclass
class PEAccessCounters:
    """Memory-access and arithmetic counters accumulated by one PE."""

    ptr_sram_reads: int = 0
    spmat_sram_reads: int = 0
    act_reg_reads: int = 0
    act_reg_writes: int = 0
    codebook_lookups: int = 0
    macs: int = 0
    entries_processed: int = 0
    padding_entries_processed: int = 0
    columns_skipped: int = 0

    def merge(self, other: "PEAccessCounters") -> "PEAccessCounters":
        """Return the element-wise sum of two counter sets."""
        return PEAccessCounters(
            ptr_sram_reads=self.ptr_sram_reads + other.ptr_sram_reads,
            spmat_sram_reads=self.spmat_sram_reads + other.spmat_sram_reads,
            act_reg_reads=self.act_reg_reads + other.act_reg_reads,
            act_reg_writes=self.act_reg_writes + other.act_reg_writes,
            codebook_lookups=self.codebook_lookups + other.codebook_lookups,
            macs=self.macs + other.macs,
            entries_processed=self.entries_processed + other.entries_processed,
            padding_entries_processed=(
                self.padding_entries_processed + other.padding_entries_processed
            ),
            columns_skipped=self.columns_skipped + other.columns_skipped,
        )


class ProcessingElement:
    """One EIE PE: local CSC slice, codebook, accumulators and counters.

    Args:
        pe_id: index of this PE in ``[0, num_pes)``.
        slice_matrix: this PE's CSC slice; values are codebook indices.
        codebook: the shared-weight table used by the weight decoder.
        num_pes: total number of PEs in the array.
        config: accelerator configuration (SRAM widths, precisions).
        fixed_point: optional fixed-point format applied to weights and
            products; ``None`` computes in float64.
    """

    def __init__(
        self,
        pe_id: int,
        slice_matrix: CSCMatrix,
        codebook: WeightCodebook,
        num_pes: int,
        config: EIEConfig | None = None,
        fixed_point: FixedPointFormat | None = None,
    ) -> None:
        if not 0 <= pe_id < num_pes:
            raise SimulationError(f"pe_id {pe_id} out of range for {num_pes} PEs")
        self.pe_id = int(pe_id)
        self.num_pes = int(num_pes)
        self.slice_matrix = slice_matrix
        self.codebook = codebook
        self.config = config or EIEConfig(num_pes=num_pes)
        self.fixed_point = fixed_point
        self._weights = codebook.centroids.copy()
        if fixed_point is not None:
            self._weights = fixed_point.quantize(self._weights)
        self.accumulators = np.zeros(slice_matrix.num_rows, dtype=np.float64)
        self.counters = PEAccessCounters()

    # -- layer lifecycle ---------------------------------------------------------

    @property
    def local_rows(self) -> int:
        """Number of output rows this PE owns."""
        return self.slice_matrix.num_rows

    def reset(self) -> None:
        """Clear accumulators (done before each layer) and counters."""
        self.accumulators[:] = 0.0
        self.counters = PEAccessCounters()

    def stored_entries(self) -> int:
        """Total encoded entries stored in this PE's Spmat SRAM."""
        return self.slice_matrix.num_entries

    def check_capacity(self) -> None:
        """Raise if the slice does not fit in the configured Spmat SRAM."""
        if self.stored_entries() > self.config.weights_per_pe_capacity:
            raise SimulationError(
                f"PE {self.pe_id} stores {self.stored_entries()} entries but the "
                f"Spmat SRAM holds only {self.config.weights_per_pe_capacity}"
            )

    # -- computation ----------------------------------------------------------------

    def process_activation(self, column: int, value: float) -> int:
        """Consume one broadcast activation; returns the entries processed.

        Models the pointer read, the sparse-matrix reads, the codebook
        expansion and the multiply-accumulate for this PE's slice of
        ``column``, scaled by the activation ``value``.
        """
        if not 0 <= column < self.slice_matrix.num_cols:
            raise SimulationError(
                f"column {column} out of range [0, {self.slice_matrix.num_cols})"
            )
        if value == 0.0:
            raise SimulationError("zero activations must never be broadcast")
        # Pointer read: p_j and p_{j+1} from the two pointer banks (one access each).
        self.counters.ptr_sram_reads += 2
        indices, runs = self.slice_matrix.column_entries(column)
        if indices.shape[0] == 0:
            self.counters.columns_skipped += 1
            return 0
        # Sparse-matrix reads: entries are packed entries_per_spmat_read per row.
        per_read = self.config.entries_per_spmat_read
        self.counters.spmat_sram_reads += int(np.ceil(indices.shape[0] / per_read))
        # Walk the entries, maintaining the running row position.
        positions = np.cumsum(runs + 1) - 1
        weights = self._weights[indices.astype(np.int64)]
        contribution = weights * value
        if self.fixed_point is not None:
            contribution = self.fixed_point.quantize(contribution)
        np.add.at(self.accumulators, positions, contribution)
        if self.fixed_point is not None:
            self.accumulators[positions] = self.fixed_point.quantize(self.accumulators[positions])
        entry_count = int(indices.shape[0])
        padding = int(np.count_nonzero(indices == self.codebook.zero_index))
        self.counters.codebook_lookups += entry_count
        self.counters.macs += entry_count
        self.counters.entries_processed += entry_count
        self.counters.padding_entries_processed += padding
        self.counters.act_reg_reads += entry_count
        self.counters.act_reg_writes += entry_count
        return entry_count

    def read_outputs(self) -> np.ndarray:
        """Return this PE's accumulator (destination register file) contents."""
        return self.accumulators.copy()

    def global_output_indices(self) -> np.ndarray:
        """Dense row index of each local accumulator entry."""
        return np.arange(self.local_rows, dtype=np.int64) * self.num_pes + self.pe_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessingElement(pe_id={self.pe_id}, rows={self.local_rows}, "
            f"entries={self.stored_entries()})"
        )
