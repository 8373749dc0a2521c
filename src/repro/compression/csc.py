"""Relative-indexed, interleaved compressed sparse column (CSC) storage.

This module implements the storage format of Section III-B of the paper:

* for every column of the (pruned) weight matrix the non-zero values ``v`` and
  their zero-run lengths ``z`` are stored as two equal-length 4-bit streams;
* if more than ``max_run`` (15) zeros precede a non-zero, a *padding zero* is
  inserted into ``v`` with a run of ``max_run`` so the 4-bit field never
  overflows (the paper's example: column ``[0,0,1,2,0×18,3]`` encodes as
  ``v=[1,2,0,3]``, ``z=[2,0,15,2]``);
* a pointer vector ``p`` (one entry per column plus a terminator) locates each
  column's slice in the shared ``v``/``z`` arrays;
* when the matrix is distributed over ``N`` processing elements, PE ``k``
  owns all rows ``i`` with ``i mod N == k`` and stores its slice of every
  column in its own CSC arrays with zero-runs counted in its local row space
  (:class:`InterleavedCSC`).

Every encode/decode path is vectorised: a whole matrix is encoded with one
``np.nonzero`` pass, run-length splitting for gaps longer than ``max_run`` is
done arithmetically on the gap counts (no per-element Python loop), and all
per-PE slices of :class:`InterleavedCSC` are built from a single stable
counting sort of the non-zeros by owning PE instead of ``N`` independent
re-encodes.  The test suite pins these encoders bit-for-bit against retained
per-element reference implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import EncodingError
from repro.utils.validation import require_matrix

__all__ = [
    "encode_column",
    "decode_column",
    "CSCMatrix",
    "InterleavedCSC",
    "interleaved_entry_counts",
    "pe_for_row",
    "local_row_index",
]

#: Largest zero-run representable in a 4-bit relative index.
DEFAULT_MAX_RUN = 15


def pe_for_row(row: int | np.ndarray, num_pes: int) -> int | np.ndarray:
    """The PE that owns ``row`` under the paper's interleaving (``row mod N``)."""
    return row % num_pes


def local_row_index(row: int | np.ndarray, num_pes: int) -> int | np.ndarray:
    """Position of ``row`` within its owning PE's local row space."""
    return row // num_pes


def _expand_streams(
    nonzero_values: np.ndarray, gaps: np.ndarray, max_run: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Turn (non-zero values, preceding-zero gaps) into padded (v, z) streams.

    ``gaps[i]`` is the number of zeros between non-zero ``i`` and the previous
    stored position of its group (column, or (PE, column) slice); the inputs
    must already be in storage order.  A gap of ``g`` zeros needs
    ``g // (max_run + 1)`` padding-zero entries, each consuming ``max_run + 1``
    positions, followed by the real value with the residual run — the same
    arithmetic the per-element encoder performs one `while` iteration at a
    time.  Returns ``(values, runs, ends)`` where ``ends[i]`` is the position
    of non-zero ``i`` in the expanded streams (so ``ends[i] + 1`` is the
    cumulative expanded entry count through non-zero ``i``, from which the
    callers derive their column/group pointers without re-counting).
    """
    # No gap reaches its dtype's maximum, so a wider run limit pads nothing;
    # clamping keeps the divisor representable in that dtype.
    span = min(max_run, np.iinfo(gaps.dtype).max - 1) + 1
    padding_counts = gaps // span
    residual_runs = gaps - padding_counts * span
    ends = (np.cumsum(padding_counts + 1) - 1).astype(np.intp, copy=False)
    total = int(ends[-1]) + 1 if ends.size else 0
    values = np.zeros(total, dtype=np.float64)
    runs = np.full(total, max_run, dtype=np.int64)
    values[ends] = nonzero_values
    runs[ends] = residual_runs
    return values, runs, ends


def _stable_order(keys: np.ndarray, num_keys: int) -> np.ndarray:
    """Stable counting (radix) sort order of entries by a small integer key.

    A *stable* sort on one key (the column, or the owning PE) keeps the
    entries' prior order within each key, which is how every encode and
    decode path keeps rows ascending within a group.  Keys are downcast to
    uint16 when possible because NumPy only uses the O(n) radix sort for
    small integer dtypes.
    """
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


def _column_gaps(group_ids: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Zeros preceding each stored non-zero within its group.

    ``group_ids`` must be non-decreasing and ``positions`` ascending within
    each group; the gap of a group's first entry is its position (zeros before
    it), later entries count the zeros since the previous entry.
    """
    gaps = np.empty_like(positions)
    if positions.size == 0:
        return gaps
    gaps[0] = positions[0]
    same_group = group_ids[1:] == group_ids[:-1]
    gaps[1:] = np.where(
        same_group, positions[1:] - positions[:-1] - 1, positions[1:]
    )
    return gaps


def encode_column(
    column: np.ndarray, max_run: int = DEFAULT_MAX_RUN
) -> tuple[np.ndarray, np.ndarray]:
    """Encode one column into (values, runs) with padding zeros.

    Returns ``(v, z)``: ``v`` holds the non-zero values (plus padding zeros)
    and ``z`` holds the number of zeros preceding each entry.  Trailing zeros
    after the last non-zero are not stored.
    """
    if max_run < 1:
        raise EncodingError(f"max_run must be >= 1, got {max_run}")
    column = np.asarray(column, dtype=np.float64)
    if column.ndim != 1:
        raise EncodingError(f"column must be 1-D, got shape {column.shape}")
    nonzero_rows = np.flatnonzero(column)
    if nonzero_rows.size == 0:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
    gaps = np.empty_like(nonzero_rows)
    gaps[0] = nonzero_rows[0]
    gaps[1:] = np.diff(nonzero_rows) - 1
    values, runs, _ = _expand_streams(column[nonzero_rows], gaps, max_run)
    return values, runs


def decode_column(
    values: np.ndarray, runs: np.ndarray, length: int
) -> np.ndarray:
    """Inverse of :func:`encode_column`: rebuild the dense column of ``length``."""
    values = np.asarray(values, dtype=np.float64)
    runs = np.asarray(runs, dtype=np.int64)
    if values.shape != runs.shape:
        raise EncodingError(
            f"values and runs must have equal length, got {values.shape} and {runs.shape}"
        )
    column = np.zeros(length, dtype=np.float64)
    if values.size == 0:
        return column
    positions = _encoded_positions(runs)
    _check_no_overrun(positions, length)
    column[positions] = values
    return column


def _encoded_positions(runs: np.ndarray) -> np.ndarray:
    """Dense row positions implied by a run-length stream."""
    runs = np.asarray(runs, dtype=np.int64)
    return np.cumsum(runs + 1) - 1


def _group_positions(runs: np.ndarray, group_ptr: np.ndarray) -> np.ndarray:
    """Row position of every entry within its group (column or PE slice column).

    ``group_ptr`` holds the offsets of consecutive groups in the run stream;
    one cumulative sum over the whole stream, rebased at every group start,
    replaces a per-group decode.
    """
    running = np.cumsum(runs + 1)
    # Offset of the stream before each group's first entry, so the global
    # cumulative sum restarts at every group boundary.
    group_base = np.concatenate([[0], running])[group_ptr[:-1]]
    return running - 1 - np.repeat(group_base, np.diff(group_ptr))


def _sparse_from_dense(dense: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(columns, rows, values) of the non-zeros, column-major with rows ascending.

    The hot path of every encode: one ``flatnonzero`` scan over the matrix in
    its native C order lists the non-zero positions, and a single stable
    counting (radix) sort on the column id reorders them column-major — the
    row order within each column is already ascending, so stability preserves
    it.  This skips the dense transposed-mask copy an explicit column-major
    scan would need.  Index arithmetic runs in int32 when the matrix is small
    enough, which roughly halves the divmod cost on the paper-scale layers.
    """
    _, num_cols = dense.shape
    dense_flat = dense.reshape(-1)
    flat = np.flatnonzero(dense_flat)
    if dense.size < 2**31:
        flat = flat.astype(np.int32, copy=False)
        rows, columns = np.divmod(flat, np.int32(num_cols))
    else:
        rows, columns = np.divmod(flat, num_cols)
    order = _stable_order(columns, num_cols)
    columns = columns[order]
    rows = rows[order]
    values = dense_flat[flat[order].astype(np.intp)]
    return columns, rows, values


@dataclass
class CSCMatrix:
    """A relative-indexed CSC matrix (single storage domain, e.g. one PE).

    Attributes:
        values: concatenated per-column value stream (padding zeros included).
        runs: concatenated per-column zero-run stream, same length as
            ``values``; every entry is in ``[0, max_run]``.
        col_ptr: length ``num_cols + 1`` offsets into ``values``/``runs``.
        num_rows: dense row count.
        num_cols: dense column count.
        max_run: largest representable zero run (15 for 4-bit indices).
    """

    values: np.ndarray
    runs: np.ndarray
    col_ptr: np.ndarray
    num_rows: int
    num_cols: int
    max_run: int = DEFAULT_MAX_RUN

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=np.float64)
        self.runs = np.asarray(self.runs, dtype=np.int64)
        self.col_ptr = np.asarray(self.col_ptr, dtype=np.int64)
        if self.values.shape != self.runs.shape:
            raise EncodingError("values and runs must have the same length")
        if self.col_ptr.shape[0] != self.num_cols + 1:
            raise EncodingError(
                f"col_ptr must have num_cols + 1 = {self.num_cols + 1} entries, "
                f"got {self.col_ptr.shape[0]}"
            )
        if self.col_ptr[0] != 0 or self.col_ptr[-1] != self.values.shape[0]:
            raise EncodingError("col_ptr must start at 0 and end at the entry count")
        if np.any(np.diff(self.col_ptr) < 0):
            raise EncodingError("col_ptr must be non-decreasing")
        if self.runs.size and (self.runs.min() < 0 or self.runs.max() > self.max_run):
            raise EncodingError(f"runs must be within [0, {self.max_run}]")

    # -- construction ---------------------------------------------------------

    @classmethod
    def _from_trusted_streams(
        cls,
        values: np.ndarray,
        runs: np.ndarray,
        col_ptr: np.ndarray,
        num_rows: int,
        num_cols: int,
        max_run: int,
        num_padding_zeros: int | None = None,
    ) -> "CSCMatrix":
        """Assemble a matrix from streams that are valid by construction.

        Skips ``__post_init__`` revalidation (the vectorised encoders produce
        the invariants directly, and the parity tests pin them); optionally
        pre-seeds the ``num_padding_zeros`` cache, which the encoders know
        for free as ``expanded entries - true non-zeros``.
        """
        matrix = object.__new__(cls)
        matrix.values = values
        matrix.runs = runs
        matrix.col_ptr = col_ptr
        matrix.num_rows = int(num_rows)
        matrix.num_cols = int(num_cols)
        matrix.max_run = int(max_run)
        if num_padding_zeros is not None:
            matrix.__dict__["num_padding_zeros"] = int(num_padding_zeros)
        return matrix

    @classmethod
    def from_dense(cls, dense: np.ndarray, max_run: int = DEFAULT_MAX_RUN) -> "CSCMatrix":
        """Encode a dense matrix with one vectorised pass over its non-zeros."""
        dense = np.asarray(require_matrix("dense", dense), dtype=np.float64)
        if max_run < 1:
            raise EncodingError(f"max_run must be >= 1, got {max_run}")
        num_rows, num_cols = dense.shape
        columns, rows, nonzero_values = _sparse_from_dense(dense)
        if columns.size == 0:
            return cls(
                values=np.empty(0, dtype=np.float64),
                runs=np.empty(0, dtype=np.int64),
                col_ptr=np.zeros(num_cols + 1, dtype=np.int64),
                num_rows=num_rows,
                num_cols=num_cols,
                max_run=max_run,
            )
        gaps = _column_gaps(columns, rows)
        values, runs, ends = _expand_streams(nonzero_values, gaps, max_run)
        # The expanded entry count through each column is the stream position
        # of the column's last non-zero; empty columns repeat the running sum.
        nnz_cum = np.cumsum(np.bincount(columns, minlength=num_cols))
        col_ptr = np.zeros(num_cols + 1, dtype=np.int64)
        col_ptr[1:] = np.where(nnz_cum > 0, ends[np.maximum(nnz_cum - 1, 0)] + 1, 0)
        return cls._from_trusted_streams(
            values,
            runs,
            col_ptr,
            num_rows,
            num_cols,
            max_run,
            num_padding_zeros=values.shape[0] - columns.shape[0],
        )

    # -- queries --------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        """Number of stored entries, padding zeros included."""
        return int(self.values.shape[0])

    @cached_property
    def num_padding_zeros(self) -> int:
        """Number of stored entries that are padding zeros (computed once)."""
        return int(np.count_nonzero(self.values == 0.0))

    @property
    def num_true_nonzeros(self) -> int:
        """Number of stored entries carrying an actual non-zero weight."""
        return self.num_entries - self.num_padding_zeros

    @cached_property
    def padding_fraction(self) -> float:
        """Fraction of stored entries that are padding (wasted work)."""
        if self.num_entries == 0:
            return 0.0
        return self.num_padding_zeros / self.num_entries

    def column_entries(self, column: int) -> tuple[np.ndarray, np.ndarray]:
        """The (values, runs) slice for ``column``."""
        if not 0 <= column < self.num_cols:
            raise EncodingError(f"column {column} out of range [0, {self.num_cols})")
        start, end = self.col_ptr[column], self.col_ptr[column + 1]
        return self.values[start:end], self.runs[start:end]

    def column_entry_counts(self) -> np.ndarray:
        """Entries stored per column (padding included)."""
        return np.diff(self.col_ptr)

    def column_row_indices(self, column: int) -> np.ndarray:
        """Dense row index of every stored entry in ``column``."""
        _, runs = self.column_entries(column)
        return _encoded_positions(runs)

    def to_dense(self) -> np.ndarray:
        """Decode back to a dense matrix with one vectorised scatter."""
        dense = np.zeros((self.num_rows, self.num_cols), dtype=np.float64)
        if self.values.size == 0:
            return dense
        positions = _group_positions(self.runs, self.col_ptr)
        _check_no_overrun(positions, self.num_rows)
        entry_columns = np.repeat(
            np.arange(self.num_cols, dtype=np.int64), np.diff(self.col_ptr)
        )
        dense[positions, entry_columns] = self.values
        return dense

    def storage_bits(self, value_bits: int = 4, index_bits: int = 4, pointer_bits: int = 16) -> int:
        """Total storage in bits: entry streams plus the column pointer array."""
        return self.num_entries * (value_bits + index_bits) + self.col_ptr.shape[0] * pointer_bits


class InterleavedCSC:
    """A weight matrix distributed over ``N`` PEs in interleaved CSC form.

    PE ``k`` owns rows ``k, k + N, k + 2N, ...`` and stores its slice of every
    column as a :class:`CSCMatrix` whose zero runs are counted in the PE's
    local row space, exactly as Figure 3 of the paper illustrates.
    """

    def __init__(self, per_pe: list[CSCMatrix], num_rows: int, num_cols: int, num_pes: int) -> None:
        if len(per_pe) != num_pes:
            raise EncodingError(f"expected {num_pes} per-PE matrices, got {len(per_pe)}")
        for pe, matrix in enumerate(per_pe):
            expected_rows = _rows_owned_by(pe, num_rows, num_pes)
            if matrix.num_rows != expected_rows:
                raise EncodingError(
                    f"PE {pe} slice has {matrix.num_rows} rows, expected {expected_rows}"
                )
            if matrix.num_cols != num_cols:
                raise EncodingError(
                    f"PE {pe} slice has {matrix.num_cols} columns, expected {num_cols}"
                )
        self.per_pe = list(per_pe)
        self.num_rows = int(num_rows)
        self.num_cols = int(num_cols)
        self.num_pes = int(num_pes)

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_dense(
        cls, dense: np.ndarray, num_pes: int, max_run: int = DEFAULT_MAX_RUN
    ) -> "InterleavedCSC":
        """Distribute a dense matrix over ``num_pes`` PEs and encode each slice.

        All per-PE streams are built from one pass over the dense matrix: the
        non-zeros are stably sorted by owning PE (a counting sort on
        ``row % N``), which leaves them grouped by (PE, column) with local
        rows ascending — exactly the storage order of every PE slice — and the
        padded streams are expanded for all PEs at once, then split at the
        per-PE boundaries.
        """
        dense = np.asarray(require_matrix("dense", dense), dtype=np.float64)
        if num_pes < 1:
            raise EncodingError(f"num_pes must be >= 1, got {num_pes}")
        if max_run < 1:
            raise EncodingError(f"max_run must be >= 1, got {max_run}")
        num_rows, num_cols = dense.shape
        columns, rows, nonzero_values = _sparse_from_dense(dense)

        if columns.size:
            local_rows, pes = np.divmod(rows, rows.dtype.type(num_pes))
            order = _stable_order(pes, num_pes)
            sorted_pes = pes[order]
            sorted_columns = columns[order]
            sorted_locals = local_rows[order]
            group_ids = sorted_pes.astype(np.int64) * num_cols + sorted_columns
            gaps = _column_gaps(group_ids, sorted_locals)
            values, runs, ends = _expand_streams(nonzero_values[order], gaps, max_run)
            nnz_per_group = np.bincount(group_ids, minlength=num_pes * num_cols)
            group_cum = np.cumsum(nnz_per_group)
            expanded_cum = np.where(
                group_cum > 0, ends[np.maximum(group_cum - 1, 0)] + 1, 0
            )
            entries_per_group = np.diff(expanded_cum, prepend=0)
            per_group = entries_per_group.reshape(num_pes, num_cols)
            nnz_per_pe = nnz_per_group.reshape(num_pes, num_cols).sum(axis=1)
        else:
            values = np.empty(0, dtype=np.float64)
            runs = np.empty(0, dtype=np.int64)
            per_group = np.zeros((num_pes, num_cols), dtype=np.int64)
            nnz_per_pe = np.zeros(num_pes, dtype=np.int64)

        pe_boundaries = np.zeros(num_pes + 1, dtype=np.int64)
        np.cumsum(per_group.sum(axis=1), out=pe_boundaries[1:])
        slices = []
        for pe in range(num_pes):
            col_ptr = np.zeros(num_cols + 1, dtype=np.int64)
            np.cumsum(per_group[pe], out=col_ptr[1:])
            start, end = pe_boundaries[pe], pe_boundaries[pe + 1]
            slices.append(
                CSCMatrix._from_trusted_streams(
                    values[start:end],
                    runs[start:end],
                    col_ptr,
                    _rows_owned_by(pe, num_rows, num_pes),
                    num_cols,
                    max_run,
                    num_padding_zeros=int(end - start - nnz_per_pe[pe]),
                )
            )
        return cls(per_pe=slices, num_rows=num_rows, num_cols=num_cols, num_pes=num_pes)

    # -- queries --------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        """Total stored entries across all PEs (padding included)."""
        return sum(matrix.num_entries for matrix in self.per_pe)

    @cached_property
    def num_padding_zeros(self) -> int:
        """Total padding-zero entries across all PEs (computed once)."""
        return sum(matrix.num_padding_zeros for matrix in self.per_pe)

    @property
    def num_true_nonzeros(self) -> int:
        """Total genuine non-zero weights stored."""
        return self.num_entries - self.num_padding_zeros

    @cached_property
    def padding_fraction(self) -> float:
        """Fraction of stored entries that are padding zeros."""
        entries = self.num_entries
        return self.num_padding_zeros / entries if entries else 0.0

    @property
    def real_work_fraction(self) -> float:
        """Real work / total work, the quantity plotted in Figure 12."""
        return 1.0 - self.padding_fraction

    def entries_per_pe(self) -> np.ndarray:
        """Entries stored by each PE (load distribution of the whole matrix)."""
        return np.asarray([matrix.num_entries for matrix in self.per_pe], dtype=np.int64)

    @cached_property
    def _entries_per_pe_column(self) -> np.ndarray:
        counts = np.zeros((self.num_pes, self.num_cols), dtype=np.int64)
        for pe, matrix in enumerate(self.per_pe):
            counts[pe, :] = matrix.column_entry_counts()
        counts.flags.writeable = False
        return counts

    def entries_per_pe_column(self) -> np.ndarray:
        """Entries per (PE, column): the work each broadcast creates per PE.

        Shape ``(num_pes, num_cols)``.  This is the key input to the
        cycle-level simulator: when activation ``a_j`` is broadcast, PE ``k``
        must process ``result[k, j]`` entries.  The matrix is computed once
        and cached (returned read-only) — layer preparation and repeated
        sweeps over the same storage reuse it for free.
        """
        return self._entries_per_pe_column

    @cached_property
    def _padding_per_pe_column(self) -> np.ndarray:
        counts = self._entries_per_pe_column
        padding = np.zeros_like(counts)
        is_padding = self.streams()[0] == 0.0
        if is_padding.any():
            group_ids = np.repeat(np.arange(counts.size), counts.reshape(-1))
            padding = np.bincount(group_ids[is_padding], minlength=counts.size)
            padding = padding.reshape(counts.shape)
        padding.flags.writeable = False
        return padding

    def streams(self) -> tuple[np.ndarray, np.ndarray]:
        """The ``(values, runs)`` streams of all PEs, concatenated PE-major."""
        return (
            np.concatenate([matrix.values for matrix in self.per_pe]),
            np.concatenate([matrix.runs for matrix in self.per_pe]),
        )

    def padding_per_pe_column(self) -> np.ndarray:
        """Padding-zero entries per (PE, column), computed once and cached.

        Same shape and caching behaviour as :meth:`entries_per_pe_column`;
        one bincount over flat (PE, column) ids covering every stored entry.
        """
        return self._padding_per_pe_column

    @cached_property
    def entry_listing(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(global rows, columns, values)`` of every stored entry, built once.

        Padding zeros are included (value 0; codebook index 0 in a compressed
        layer).  Entries are sorted by column, each column keeping the
        PE-major, local-row-ascending storage order.  The per-PE streams are
        decoded together: their concatenation is one run stream split into
        (PE, column) groups, so one rebased cumulative sum gives every
        entry's local row.  The arrays are read-only.
        """
        counts = self._entries_per_pe_column
        group_ptr = np.zeros(counts.size + 1, dtype=np.int64)
        np.cumsum(counts.reshape(-1), out=group_ptr[1:])
        values, runs = self.streams()
        local_rows = _group_positions(runs, group_ptr)
        pes, columns = np.divmod(
            np.repeat(np.arange(counts.size, dtype=np.int64), counts.reshape(-1)),
            self.num_cols,
        )
        rows = local_rows * self.num_pes + pes
        # A PE's local row overruns its slice exactly when the global row
        # overruns the matrix.
        _check_no_overrun(rows, self.num_rows)
        order = _stable_order(columns, self.num_cols)
        listing = rows[order], columns[order], values[order]
        for array in listing:
            array.flags.writeable = False
        return listing

    def invalidate_caches(self) -> None:
        """Drop every cached derived quantity (forces recomputation).

        Only needed after mutating ``per_pe`` in place (which library code
        never does) or to time the true extraction cost in benchmarks.
        """
        for name in (
            "num_padding_zeros",
            "padding_fraction",
            "_entries_per_pe_column",
            "_padding_per_pe_column",
            "entry_listing",
        ):
            self.__dict__.pop(name, None)

    def global_row_index(self, pe: int, local_row: int) -> int:
        """Map a PE-local row position back to the dense row index."""
        return local_row * self.num_pes + pe

    def to_dense(self) -> np.ndarray:
        """Decode the distributed representation back into one dense matrix."""
        dense = np.zeros((self.num_rows, self.num_cols), dtype=np.float64)
        rows, columns, values = self.entry_listing
        dense[rows, columns] = values
        return dense

    def storage_bits(self, value_bits: int = 4, index_bits: int = 4, pointer_bits: int = 16) -> int:
        """Total storage across all PEs."""
        return sum(
            matrix.storage_bits(value_bits, index_bits, pointer_bits) for matrix in self.per_pe
        )


def _check_no_overrun(positions: np.ndarray, length: int) -> None:
    """Raise if a decoded row position falls outside the dense length."""
    if positions.size and positions.max() >= length:
        overrun = positions[np.argmax(positions >= length)]
        raise EncodingError(
            f"encoded column overruns its dense length {length} (position {overrun})"
        )


def _rows_owned_by(pe: int, num_rows: int, num_pes: int) -> int:
    """Number of dense rows assigned to ``pe`` under interleaving."""
    return (num_rows - pe + num_pes - 1) // num_pes


def interleaved_entry_counts(
    row_indices: np.ndarray,
    col_ptr: np.ndarray,
    num_rows: int,
    num_pes: int,
    max_run: int = DEFAULT_MAX_RUN,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised per-(PE, column) entry counts for a sparsity pattern.

    This computes, without materialising the encoded streams, how many CSC
    entries (true non-zeros plus padding zeros) each PE stores for each
    column.  It is what the cycle-level simulator uses for the full-size
    Table III layers, where building explicit per-PE CSC arrays in Python
    would be needlessly slow.

    Args:
        row_indices: row index of every non-zero, grouped by column (CSC
            order; rows within a column must be sorted ascending).
        col_ptr: length ``num_cols + 1`` offsets into ``row_indices``.
        num_rows: dense row count.
        num_pes: number of processing elements.
        max_run: largest zero run representable without padding.

    Returns:
        ``(total_counts, padding_counts)``, both of shape
        ``(num_pes, num_cols)``.

    Raises:
        EncodingError: for ``max_run < 1``, like the encoders.
    """
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
