"""Test oracle for the functional engine: the per-PE broadcast walk.

Replays Equation (3) the way the hardware sequences it: the non-zero
activations are broadcast in index order, and every broadcast ``(j, a_j)``
is handed to each :class:`ProcessingElement`, which reads its pointers,
walks its slice of column ``j`` and accumulates ``S[I] * a_j``.
The interleaved accumulators are then gathered into the dense output and
the per-PE counters merged.  :class:`~repro.core.functional.FunctionalEIE`
must reproduce this result bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.compression.csc import CSCMatrix
from repro.compression.pipeline import CompressedLayer
from repro.compression.quantization import WeightCodebook
from repro.core.config import EIEConfig
from repro.core.functional import FunctionalResult, PEAccessCounters
from repro.errors import SimulationError
from repro.nn.fixed_point import FixedPointFormat
from repro.nn.layers import ACTIVATIONS


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


def oracle_run(
    layer: CompressedLayer,
    config: EIEConfig,
    activations: np.ndarray,
    fixed_point: FixedPointFormat | None = None,
    apply_nonlinearity: bool = True,
) -> FunctionalResult:
    """One layer on one activation vector, broadcast by broadcast, PE by PE."""
    pes = [
        ProcessingElement(
            pe_id=pe,
            slice_matrix=layer.storage.per_pe[pe],
            codebook=layer.codebook,
            num_pes=config.num_pes,
            config=config,
            fixed_point=fixed_point,
        )
        for pe in range(config.num_pes)
    ]
    activations = np.asarray(activations, dtype=np.float64)
    if fixed_point is not None:
        activations = fixed_point.quantize(activations)
    for pe in pes:
        pe.reset()
    schedule = [(int(j), float(activations[j])) for j in np.flatnonzero(activations)]
    for column, value in schedule:
        for pe in pes:
            pe.process_activation(column, value)
    pre_activation = np.zeros(layer.rows, dtype=np.float64)
    for pe in pes:
        pre_activation[pe.global_output_indices()] = pe.read_outputs()
    if apply_nonlinearity:
        output = ACTIVATIONS[layer.activation_name](pre_activation)
    else:
        output = pre_activation.copy()
    counters = PEAccessCounters()
    for pe in pes:
        counters = counters.merge(pe.counters)
    return FunctionalResult(
        output=output,
        pre_activation=pre_activation,
        broadcasts=len(schedule),
        columns_total=activations.shape[0],
        counters=counters,
        per_pe_entries=np.asarray(
            [pe.counters.entries_processed for pe in pes], dtype=np.int64
        ),
    )


def assert_results_identical(ours: FunctionalResult, oracle: FunctionalResult) -> None:
    """Every field equal, floats compared by their raw bits."""
    assert np.array_equal(ours.pre_activation.view(np.int64), oracle.pre_activation.view(np.int64))
    assert np.array_equal(ours.output.view(np.int64), oracle.output.view(np.int64))
    assert ours.broadcasts == oracle.broadcasts
    assert ours.columns_total == oracle.columns_total
    assert ours.counters == oracle.counters
    assert ours.per_pe_entries.dtype == oracle.per_pe_entries.dtype
    assert np.array_equal(ours.per_pe_entries, oracle.per_pe_entries)
