"""Test oracle for interleaved-CSC entry counts: the radix-grouping body.

:func:`~repro.compression.csc.interleaved_entry_counts` groups the non-zeros by
(PE, column) with one sort of packed ``(PE, column, local row)`` keys.  This is
the earlier body it replaced, which stably radix-sorted the non-zeros by owning
PE, found the group starts from a ``P x C`` bincount and summed the padding with
a float-weighted bincount.  The rewrite must return the same two arrays, dtype
and shape included.
"""

from __future__ import annotations

import numpy as np

from repro.compression.csc import DEFAULT_MAX_RUN
from repro.errors import EncodingError


def _stable_order(keys: np.ndarray, num_keys: int) -> np.ndarray:
    """Stable counting (radix) sort order of entries by a small integer key."""
    if num_keys <= 2**16:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    return np.argsort(keys, kind="stable")


def _shifted(values: np.ndarray) -> np.ndarray:
    """``values`` shifted right by one slot (slot 0 is arbitrary/masked)."""
    out = np.empty_like(values)
    if out.shape[0]:
        out[0] = 0
        out[1:] = values[:-1]
    return out


def oracle_entry_counts(
    row_indices: np.ndarray,
    col_ptr: np.ndarray,
    num_rows: int,
    num_pes: int,
    max_run: int = DEFAULT_MAX_RUN,
) -> tuple[np.ndarray, np.ndarray]:
    """``(total_counts, padding_counts)`` computed the way the radix body did."""
    if max_run < 1:
        raise EncodingError(f"max_run must be >= 1, got {max_run}")
    # No zero run is longer than the column, so a wider limit changes no
    # count; clamping keeps the divisor inside the 32-bit index arithmetic.
    max_run = min(int(max_run), int(num_rows))
    row_indices = np.asarray(row_indices, dtype=np.int64)
    col_ptr = np.asarray(col_ptr, dtype=np.int64)
    num_cols = col_ptr.shape[0] - 1
    if num_cols < 0:
        raise EncodingError("col_ptr must have at least one entry")
    if row_indices.size and (row_indices.min() < 0 or row_indices.max() >= num_rows):
        raise EncodingError("row indices out of range")
    nnz_counts = np.zeros((num_pes, num_cols), dtype=np.int64)
    padding_counts = np.zeros((num_pes, num_cols), dtype=np.int64)
    if row_indices.size == 0:
        return nnz_counts, padding_counts

    # 32-bit index arithmetic (safe: rows/cols/groups all < 2**31 whenever
    # the dense matrix has fewer than 2**31 cells) roughly halves the cost of
    # the divmods and gathers on the paper-scale 13M-non-zero layers, and a
    # power-of-two PE count turns the divmod into shift/mask.
    if num_rows * num_cols < 2**31 and num_pes * num_cols < 2**31:
        row_indices = row_indices.astype(np.int32, copy=False)
        columns = np.repeat(np.arange(num_cols, dtype=np.int32), np.diff(col_ptr))
        if num_pes & (num_pes - 1) == 0:
            locals_ = row_indices >> np.int32(num_pes.bit_length() - 1)
            pes = row_indices & np.int32(num_pes - 1)
        else:
            locals_, pes = np.divmod(row_indices, np.int32(num_pes))
        flat_groups = pes * np.int32(num_cols) + columns
    else:
        columns = np.repeat(np.arange(num_cols, dtype=np.int64), np.diff(col_ptr))
        locals_, pes = np.divmod(row_indices, num_pes)
        flat_groups = pes * num_cols + columns

    # Non-zero counts per (pe, column).
    nnz_flat = np.bincount(flat_groups, minlength=num_pes * num_cols)
    nnz_counts = nnz_flat.reshape(num_pes, num_cols)

    # Padding zeros: gaps between consecutive local positions of each
    # (PE, column) group.  The input is column-major with rows ascending, so
    # one stable counting (radix) sort on the PE id leaves the entries
    # grouped by (PE, column) with local rows still ascending — much cheaper
    # than a two-key lexsort of the full index set.
    order = _stable_order(pes, num_pes)
    sorted_locals = locals_[order]
    # Group starts in the sorted entry order come straight from the group
    # sizes (the sorted group ids are exactly 0..P*C-1 in ascending order),
    # so the sorted group-id array itself is never materialised.
    first = np.zeros(sorted_locals.shape[0], dtype=bool)
    group_starts = np.cumsum(nnz_flat[:-1])
    first[0] = True
    first[group_starts[group_starts < first.shape[0]]] = True
    gaps = np.where(first, sorted_locals, np.subtract(sorted_locals, _shifted(sorted_locals)) - 1)
    padding_per_entry = gaps // (max_run + 1)
    padded_positions = np.flatnonzero(padding_per_entry > 0)
    if padded_positions.size:
        flat_padding = np.bincount(
            flat_groups[order[padded_positions]],
            weights=padding_per_entry[padded_positions].astype(np.float64),
            minlength=num_pes * num_cols,
        )
        padding_counts = flat_padding.reshape(num_pes, num_cols).astype(np.int64)
    return nnz_counts + padding_counts, padding_counts
