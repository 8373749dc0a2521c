"""Workload-partitioning strategies for sparse M x V (Section VII-A).

The paper discusses three ways to distribute a sparse matrix-vector product
over processing elements and argues for the second:

1. **Column partitioning** — each PE owns whole columns of ``W`` and the
   matching elements of ``a``.  Vector ``a`` never moves (full input
   locality) but every PE produces a full-length partial output vector, so a
   cross-PE reduction is needed, and a PE whose activations are zero sits
   completely idle — bad under dynamic activation sparsity.
2. **Row interleaving (EIE's choice)** — each PE owns rows ``i`` with
   ``i mod N == k``; non-zero activations are broadcast and each output
   element lives on exactly one PE (full output locality).
3. **2-D blocking** — a grid of PEs owns blocks of ``W``; both the broadcast
   and the reduction happen at a smaller scale, which helps very large
   distributed systems but adds complexity and still idles PEs that share a
   zero-activation column.

This module provides an analytic model of all three so the design choice can
be studied as an ablation (the ``ablation_partitioning`` experiment):
each strategy reports its per-PE work distribution, the broadcast/reduction
communication it needs, and an estimated cycle count on the same hardware
assumptions as the cycle-level model (one entry retired per PE per cycle, one
word communicated per cycle per link).  Note that the row-interleaved model
includes the padding-zero overhead of EIE's actual CSC storage format, while
the column and 2-D models are idealised lower bounds (no storage-format
overhead) — the comparison is therefore conservative in favour of the
alternatives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.compression.csc import interleaved_entry_counts
from repro.core.cycle_model import simulate_layer_cycles
from repro.errors import SimulationError
from repro.utils.validation import require_vector
from repro.workloads.synthetic import SparsePattern

__all__ = [
    "PartitioningResult",
    "simulate_row_interleaved",
    "simulate_column_partitioned",
    "simulate_block_2d",
    "compare_strategies",
    "STRATEGY_NAMES",
]

#: The three strategies of Section VII-A, in the order the paper lists them.
STRATEGY_NAMES: tuple[str, ...] = ("column", "row-interleaved", "block-2d")


@dataclass(frozen=True)
class PartitioningResult:
    """Outcome of distributing one sparse M x V under one strategy.

    Attributes:
        strategy: strategy name (one of :data:`STRATEGY_NAMES`).
        num_pes: number of PEs used.
        per_pe_work: multiply-accumulate entries each PE performs.
        compute_cycles: cycles spent on the multiply-accumulate phase
            (bounded below by the busiest PE).
        communication_cycles: cycles spent broadcasting activations and/or
            reducing partial outputs.
        broadcast_words: activation words broadcast to more than one PE.
        reduction_words: partial-sum words combined across PEs.
        idle_pes: PEs that perform no work at all for this input.
    """

    strategy: str
    num_pes: int
    per_pe_work: np.ndarray
    compute_cycles: int
    communication_cycles: int
    broadcast_words: int
    reduction_words: int
    idle_pes: int

    @property
    def total_cycles(self) -> int:
        """Compute plus communication cycles."""
        return self.compute_cycles + self.communication_cycles

    @property
    def total_work(self) -> int:
        """Total multiply-accumulate entries across all PEs."""
        return int(np.sum(self.per_pe_work))

    @property
    def load_balance_efficiency(self) -> float:
        """Mean PE work divided by the busiest PE's work."""
        busiest = int(np.max(self.per_pe_work)) if self.per_pe_work.size else 0
        if busiest == 0:
            return 1.0
        return float(np.mean(self.per_pe_work)) / busiest

    @property
    def communication_fraction(self) -> float:
        """Fraction of the total cycles spent communicating."""
        total = self.total_cycles
        return self.communication_cycles / total if total else 0.0


def _validate(pattern: SparsePattern, activations: np.ndarray, num_pes: int) -> np.ndarray:
    activations = np.asarray(require_vector("activations", activations), dtype=np.float64)
    if activations.shape[0] != pattern.cols:
        raise SimulationError(
            f"activation length {activations.shape[0]} does not match pattern columns {pattern.cols}"
        )
    if num_pes < 1:
        raise SimulationError(f"num_pes must be >= 1, got {num_pes}")
    return activations


def _column_nnz_per_row_group(
    pattern: SparsePattern, num_groups: int
) -> np.ndarray:
    """Non-zeros per (row group, column) under ``row mod num_groups`` grouping."""
    counts, _ = interleaved_entry_counts(
        pattern.row_indices, pattern.col_ptr, pattern.rows, num_groups, max_run=10**9
    )
    return counts


def simulate_row_interleaved(
    pattern: SparsePattern,
    activations: np.ndarray,
    num_pes: int,
    fifo_depth: int = 8,
    max_run: int = 15,
) -> PartitioningResult:
    """EIE's scheme: rows interleaved over PEs, non-zero activations broadcast."""
    activations = _validate(pattern, activations, num_pes)
    counts, _ = interleaved_entry_counts(
        pattern.row_indices, pattern.col_ptr, pattern.rows, num_pes, max_run=max_run
    )
    nonzero_columns = np.nonzero(activations)[0]
    work = counts[:, nonzero_columns]
    stats = simulate_layer_cycles(work, fifo_depth=fifo_depth)
    per_pe_work = work.sum(axis=1)
    return PartitioningResult(
        strategy="row-interleaved",
        num_pes=num_pes,
        per_pe_work=per_pe_work,
        compute_cycles=stats.total_cycles,
        # The broadcast overlaps with compute in EIE (it is pipelined through
        # the LNZD tree and the FIFOs), so it does not add serial cycles.
        communication_cycles=0,
        broadcast_words=int(nonzero_columns.shape[0]) * max(num_pes - 1, 0),
        reduction_words=0,
        idle_pes=int(np.count_nonzero(per_pe_work == 0)),
    )


def simulate_column_partitioned(
    pattern: SparsePattern,
    activations: np.ndarray,
    num_pes: int,
) -> PartitioningResult:
    """First scheme: each PE owns columns ``j`` with ``j mod N == k``.

    A PE only works when one of *its* activations is non-zero, so dynamic
    activation sparsity directly translates into idle PEs.  Every PE produces
    a full-length partial output vector, which must then be reduced across
    PEs (modelled as a binary tree: ``rows`` words move ``ceil(log2(N))``
    times, ``num_pes`` words in parallel per cycle).
    """
    activations = _validate(pattern, activations, num_pes)
    column_nnz = pattern.column_nnz()
    nonzero_mask = activations != 0.0
    per_pe_work = np.zeros(num_pes, dtype=np.int64)
    for pe in range(num_pes):
        owned = np.arange(pe, pattern.cols, num_pes)
        per_pe_work[pe] = int(column_nnz[owned][nonzero_mask[owned]].sum())
    compute_cycles = int(per_pe_work.max()) if num_pes else 0
    reduction_stages = math.ceil(math.log2(num_pes)) if num_pes > 1 else 0
    reduction_words = pattern.rows * max(num_pes - 1, 0)
    # Each stage moves a full-length partial vector between PE pairs; the
    # pairs operate in parallel, so a stage costs ``rows`` cycles.
    communication_cycles = reduction_stages * pattern.rows
    return PartitioningResult(
        strategy="column",
        num_pes=num_pes,
        per_pe_work=per_pe_work,
        compute_cycles=compute_cycles,
        communication_cycles=communication_cycles,
        broadcast_words=0,
        reduction_words=reduction_words,
        idle_pes=int(np.count_nonzero(per_pe_work == 0)),
    )


def simulate_block_2d(
    pattern: SparsePattern,
    activations: np.ndarray,
    num_pes: int,
    grid: tuple[int, int] | None = None,
) -> PartitioningResult:
    """Third scheme: a ``R x C`` grid of PEs owns 2-D blocks of ``W``.

    Rows are interleaved over the ``R`` row groups and columns over the ``C``
    column groups.  Activations are broadcast only within a column of the
    grid (``R`` PEs) and partial outputs are reduced only within a row of the
    grid (``C`` PEs), so both collectives shrink, at the cost of both being
    needed.
    """
    activations = _validate(pattern, activations, num_pes)
    if grid is None:
        rows_of_grid = int(math.sqrt(num_pes))
        while num_pes % rows_of_grid:
            rows_of_grid -= 1
        grid = (rows_of_grid, num_pes // rows_of_grid)
    grid_rows, grid_cols = grid
    if grid_rows * grid_cols != num_pes:
        raise SimulationError(f"grid {grid} does not have {num_pes} PEs")
    counts = _column_nnz_per_row_group(pattern, grid_rows)  # (grid_rows, cols)
    nonzero_mask = activations != 0.0
    per_pe_work = np.zeros((grid_rows, grid_cols), dtype=np.int64)
    for column_group in range(grid_cols):
        owned = np.arange(column_group, pattern.cols, grid_cols)
        active = owned[nonzero_mask[owned]]
        per_pe_work[:, column_group] = counts[:, active].sum(axis=1)
    compute_cycles = int(per_pe_work.max()) if per_pe_work.size else 0
    nonzero_activations = int(np.count_nonzero(nonzero_mask))
    broadcast_words = nonzero_activations * max(grid_rows - 1, 0)
    local_rows = math.ceil(pattern.rows / grid_rows)
    reduction_stages = math.ceil(math.log2(grid_cols)) if grid_cols > 1 else 0
    reduction_words = local_rows * grid_rows * max(grid_cols - 1, 0)
    communication_cycles = reduction_stages * local_rows
    flat_work = per_pe_work.reshape(-1)
    return PartitioningResult(
        strategy="block-2d",
        num_pes=num_pes,
        per_pe_work=flat_work,
        compute_cycles=compute_cycles,
        communication_cycles=communication_cycles,
        broadcast_words=broadcast_words,
        reduction_words=reduction_words,
        idle_pes=int(np.count_nonzero(flat_work == 0)),
    )


def compare_strategies(
    pattern: SparsePattern,
    activations: np.ndarray,
    num_pes: int,
    fifo_depth: int = 8,
) -> dict[str, PartitioningResult]:
    """Run all three strategies on the same input and return their results."""
    return {
        "column": simulate_column_partitioned(pattern, activations, num_pes),
        "row-interleaved": simulate_row_interleaved(
            pattern, activations, num_pes, fifo_depth=fifo_depth
        ),
        "block-2d": simulate_block_2d(pattern, activations, num_pes),
    }
