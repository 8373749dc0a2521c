"""Whole-accelerator functional simulation.

:class:`FunctionalEIE` runs the exact computation of Equation (3) of the
paper on every PE of the array at once:

``b_i = ReLU( sum_{j in X_i ∩ Y} S[I_ij] * a_j )``

where ``X_i`` is the static sparsity of the weights, ``Y`` the dynamic
sparsity of the activations, ``I`` the 4-bit weight indices and ``S`` the
shared-weight codebook.  The result is bit-identical (in float mode) to the
dense reference ``ReLU(W_decoded @ a)``, which is how the simulator is
validated in the test suite — mirroring the paper's use of Caffe as the
golden model.

A run gathers the listed entries (padding zeros included) of every
broadcast column and accumulates ``S[I] * a_j`` with one ordered
scatter-add.  Each output row belongs to one PE and its entries appear
column by column, so every row sums its products in broadcast order, as
a per-PE walk does one broadcast at a time.  The access counters
(:class:`PEAccessCounters`) follow from the broadcast columns' per-(PE,
column) entry and padding counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.pipeline import CompressedLayer
from repro.core.config import EIEConfig
from repro.errors import SimulationError
from repro.nn.fixed_point import FixedPointFormat
from repro.nn.layers import ACTIVATIONS
from repro.utils.validation import require_matrix, require_vector

__all__ = ["FunctionalResult", "FunctionalEIE", "PEAccessCounters"]


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


@dataclass
class FunctionalResult:
    """Output and statistics of one functional-simulation run.

    Attributes:
        output: the output activation vector ``b`` (after the non-linearity).
        pre_activation: the accumulated values before the non-linearity.
        broadcasts: number of non-zero activations broadcast.
        columns_total: length of the input vector.
        counters: merged access counters across all PEs.
        per_pe_entries: entries processed by each PE (load distribution).
    """

    output: np.ndarray
    pre_activation: np.ndarray
    broadcasts: int
    columns_total: int
    counters: PEAccessCounters
    per_pe_entries: np.ndarray

    @property
    def activation_density(self) -> float:
        """Density of the input activation vector that was processed."""
        if self.columns_total == 0:
            return 0.0
        return self.broadcasts / self.columns_total

    @property
    def total_entries_processed(self) -> int:
        """Entries (weights plus padding zeros) processed across all PEs."""
        return int(self.counters.entries_processed)

    @property
    def output_density(self) -> float:
        """Density of the output vector (after ReLU, feeds the next layer)."""
        if self.output.size == 0:
            return 0.0
        return float(np.count_nonzero(self.output)) / self.output.size


class FunctionalEIE:
    """Functional (bit-exact) simulator of the EIE array for one layer.

    Args:
        layer: a compressed layer whose interleaving matches ``config.num_pes``.
        config: accelerator configuration.
        fixed_point: optional fixed-point format for weights/products; by
            default the 16-bit format implied by ``config.activation_bits`` is
            *not* applied so results match the float64 reference exactly.
    """

    def __init__(
        self,
        layer: CompressedLayer,
        config: EIEConfig | None = None,
        fixed_point: FixedPointFormat | None = None,
    ) -> None:
        self.config = config or EIEConfig(num_pes=layer.num_pes)
        if layer.num_pes != self.config.num_pes:
            raise SimulationError(
                f"layer is interleaved over {layer.num_pes} PEs but the configuration "
                f"has {self.config.num_pes}"
            )
        self.layer = layer
        self.fixed_point = fixed_point
        stored = layer.storage.entries_per_pe()
        overfull = np.flatnonzero(stored > self.config.weights_per_pe_capacity)
        if overfull.size:
            raise SimulationError(
                f"PE {overfull[0]} stores {stored[overfull[0]]} entries but the "
                f"Spmat SRAM holds only {self.config.weights_per_pe_capacity}"
            )
        weights = layer.codebook.centroids
        if fixed_point is not None:
            weights = fixed_point.quantize(weights)
        self._entry_rows, _, values = layer.storage.entry_listing
        self._entry_weights = weights[values.astype(np.intp)]
        counts = layer.storage.entries_per_pe_column()
        self._col_ptr = np.concatenate([[0], np.cumsum(counts.sum(axis=0))])
        # Per-column counter sources, one row each: the entries of every PE,
        # then the column's Spmat reads, empty (skipped) PE slices and padding.
        self._column_counters = np.vstack(
            [
                counts,
                (-(-counts // self.config.entries_per_spmat_read)).sum(axis=0),
                (counts == 0).sum(axis=0),
                layer.storage.padding_per_pe_column().sum(axis=0),
            ]
        )

    # -- execution --------------------------------------------------------------

    def run(self, activations: np.ndarray, apply_nonlinearity: bool = True) -> FunctionalResult:
        """Run one M x V on the array and return the output vector.

        Args:
            activations: dense input activation vector of length
                ``layer.cols``; zeros are never broadcast.
            apply_nonlinearity: whether to apply the layer's non-linearity
                (ReLU for the CNN benchmarks) to the accumulated outputs.
        """
        activations = require_vector("activations", activations)
        return self.run_batch(activations[np.newaxis, :], apply_nonlinearity)[0]

    def run_batch(
        self, activations: np.ndarray, apply_nonlinearity: bool = True
    ) -> tuple[FunctionalResult, ...]:
        """Run every row of a ``(batch, layer.cols)`` matrix; one result each.

        Each result equals :meth:`run` on that row, bit for bit.
        """
        matrix = np.asarray(require_matrix("activations", activations), dtype=np.float64)
        if matrix.shape[1] != self.layer.cols:
            raise SimulationError(
                f"activation length {matrix.shape[1]} does not match layer "
                f"input size {self.layer.cols}"
            )
        if self.fixed_point is not None:
            matrix = self.fixed_point.quantize(matrix)
        # Broadcasts item by item, non-zero columns ascending.
        items, columns = np.nonzero(matrix)
        if self.fixed_point is None:
            pre_activation = self._accumulate(matrix, items, columns)
        else:
            pre_activation = self._accumulate_fixed_point(matrix, columns)
        # Per-item sums of the broadcast columns' counters: one gather, one
        # cumulative sum, differenced at the item boundaries.
        bounds = np.searchsorted(items, np.arange(matrix.shape[0] + 1))
        running = np.zeros((self._column_counters.shape[0], columns.shape[0] + 1), np.int64)
        np.cumsum(self._column_counters[:, columns], axis=1, out=running[:, 1:])
        totals = (running[:, bounds[1:]] - running[:, bounds[:-1]]).T
        num_pes = self.config.num_pes
        nonlinearity = ACTIVATIONS[self.layer.activation_name]
        results = []
        for row, broadcasts, item_totals in zip(pre_activation, np.diff(bounds).tolist(), totals):
            entries = int(item_totals[:num_pes].sum())
            spmat_reads, skipped, padding = item_totals[num_pes:].tolist()
            counters = PEAccessCounters(
                ptr_sram_reads=2 * broadcasts * num_pes,
                spmat_sram_reads=spmat_reads,
                act_reg_reads=entries,
                act_reg_writes=entries,
                codebook_lookups=entries,
                macs=entries,
                entries_processed=entries,
                padding_entries_processed=padding,
                columns_skipped=skipped,
            )
            results.append(
                FunctionalResult(
                    output=nonlinearity(row) if apply_nonlinearity else row.copy(),
                    pre_activation=row,
                    broadcasts=broadcasts,
                    columns_total=matrix.shape[1],
                    counters=counters,
                    per_pe_entries=item_totals[:num_pes].copy(),
                )
            )
        return tuple(results)

    def _accumulate(
        self, matrix: np.ndarray, items: np.ndarray, columns: np.ndarray
    ) -> np.ndarray:
        """Float path: one ordered scatter-add over the whole batch."""
        batch, rows = matrix.shape[0], self.layer.rows
        # Listing positions of every entry of the broadcast columns.
        starts = self._col_ptr[columns]
        lengths = self._col_ptr[columns + 1] - starts
        entries = np.arange(int(lengths.sum())) + np.repeat(
            starts - (np.cumsum(lengths) - lengths), lengths
        )
        values = np.repeat(matrix[items, columns], lengths)
        targets = np.repeat(items * rows, lengths) + self._entry_rows[entries]
        output = np.zeros(batch * rows, dtype=np.float64)
        np.add.at(output, targets, self._entry_weights[entries] * values)
        return output.reshape(batch, rows)

    def _accumulate_fixed_point(self, matrix: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """Fixed-point path: one broadcast column at a time.

        The accumulators are re-quantised after every column, so columns run
        in order; each step is vectorised over the PEs and the batch items
        that broadcast the column.
        """
        fmt = self.fixed_point
        accumulators = np.zeros((matrix.shape[0], self.layer.rows), dtype=np.float64)
        for column in np.unique(columns).tolist():
            span = slice(self._col_ptr[column], self._col_ptr[column + 1])
            items = np.flatnonzero(matrix[:, column])
            cells = np.ix_(items, self._entry_rows[span])
            weights = self._entry_weights[span]
            products = fmt.quantize(weights * matrix[items, column, np.newaxis])
            accumulators[cells] = fmt.quantize(accumulators[cells] + products)
        return accumulators
