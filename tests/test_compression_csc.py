"""Tests for the relative-indexed interleaved CSC encoding."""

from __future__ import annotations

import numpy as np
import pytest
from entry_counts_oracle import oracle_entry_counts
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compression.csc import (
    CSCMatrix,
    InterleavedCSC,
    decode_column,
    encode_column,
    interleaved_entry_counts,
)
from repro.compression.pipeline import CompressedLayer
from repro.compression.quantization import WeightCodebook
from repro.errors import EncodingError


class TestEncodeColumn:
    def test_paper_example(self):
        # Section III-B example: [0,0,1,2, 0*19, 3] -> v=[1,2,0,3], z=[2,0,15,2].
        column = np.zeros(23)
        column[2] = 1.0
        column[3] = 2.0
        column[22] = 3.0
        values, runs = encode_column(column)
        assert values.tolist() == [1.0, 2.0, 0.0, 3.0]
        assert runs.tolist() == [2, 0, 15, 2]

    def test_empty_column(self):
        values, runs = encode_column(np.zeros(10))
        assert values.size == 0 and runs.size == 0

    def test_dense_column_has_zero_runs(self):
        values, runs = encode_column(np.arange(1, 6, dtype=float))
        assert values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert runs.tolist() == [0, 0, 0, 0, 0]

    def test_long_run_inserts_multiple_padding_zeros(self):
        column = np.zeros(40)
        column[39] = 7.0
        values, runs = encode_column(column)
        # 39 leading zeros need two padding zeros (16 + 16 positions) + run 7.
        assert values.tolist() == [0.0, 0.0, 7.0]
        assert runs.tolist() == [15, 15, 7]

    def test_runs_never_exceed_max(self, rng):
        column = (rng.random(200) < 0.03) * rng.normal(size=200)
        _, runs = encode_column(column)
        assert runs.size == 0 or runs.max() <= 15

    def test_trailing_zeros_not_stored(self):
        column = np.array([1.0] + [0.0] * 50)
        values, runs = encode_column(column)
        assert values.tolist() == [1.0]

    def test_decode_roundtrip(self, rng):
        column = (rng.random(97) < 0.08) * rng.normal(size=97)
        values, runs = encode_column(column)
        assert np.allclose(decode_column(values, runs, 97), column)

    def test_decode_overrun_rejected(self):
        with pytest.raises(EncodingError):
            decode_column(np.array([1.0]), np.array([5]), 3)

    def test_mismatched_streams_rejected(self):
        with pytest.raises(EncodingError):
            decode_column(np.array([1.0, 2.0]), np.array([0]), 10)

    def test_custom_max_run(self):
        column = np.zeros(10)
        column[9] = 1.0
        values, runs = encode_column(column, max_run=3)
        assert runs.max() <= 3
        assert np.allclose(decode_column(values, runs, 10), column)


class TestCSCMatrix:
    def test_roundtrip(self, sparse_weights):
        matrix = CSCMatrix.from_dense(sparse_weights)
        assert np.allclose(matrix.to_dense(), sparse_weights)

    def test_entry_accounting(self, sparse_weights):
        matrix = CSCMatrix.from_dense(sparse_weights)
        assert matrix.num_entries == matrix.num_true_nonzeros + matrix.num_padding_zeros
        assert matrix.num_true_nonzeros == np.count_nonzero(sparse_weights)

    def test_column_entry_counts_sum(self, sparse_weights):
        matrix = CSCMatrix.from_dense(sparse_weights)
        assert matrix.column_entry_counts().sum() == matrix.num_entries

    def test_column_row_indices_match_dense(self, sparse_weights):
        matrix = CSCMatrix.from_dense(sparse_weights)
        for column in range(0, sparse_weights.shape[1], 7):
            rows = matrix.column_row_indices(column)
            values, _ = matrix.column_entries(column)
            true_rows = rows[values != 0.0]
            assert np.array_equal(true_rows, np.nonzero(sparse_weights[:, column])[0])

    def test_sparse_column_padding(self):
        dense = np.zeros((64, 1))
        dense[63, 0] = 5.0
        matrix = CSCMatrix.from_dense(dense)
        assert matrix.num_padding_zeros == 3
        assert matrix.padding_fraction == pytest.approx(0.75)

    def test_storage_bits(self, sparse_weights):
        matrix = CSCMatrix.from_dense(sparse_weights)
        expected = matrix.num_entries * 8 + (sparse_weights.shape[1] + 1) * 16
        assert matrix.storage_bits() == expected

    def test_invalid_column_rejected(self, sparse_weights):
        matrix = CSCMatrix.from_dense(sparse_weights)
        with pytest.raises(EncodingError):
            matrix.column_entries(sparse_weights.shape[1])

    def test_inconsistent_construction_rejected(self):
        with pytest.raises(EncodingError):
            CSCMatrix(
                values=np.array([1.0]),
                runs=np.array([0, 1]),
                col_ptr=np.array([0, 1]),
                num_rows=4,
                num_cols=1,
            )
        with pytest.raises(EncodingError):
            CSCMatrix(
                values=np.array([1.0]),
                runs=np.array([20]),
                col_ptr=np.array([0, 1]),
                num_rows=30,
                num_cols=1,
            )


class TestInterleavedCSC:
    def test_roundtrip(self, sparse_weights, small_config):
        interleaved = InterleavedCSC.from_dense(sparse_weights, num_pes=small_config.num_pes)
        assert np.allclose(interleaved.to_dense(), sparse_weights)

    def test_row_distribution(self, sparse_weights):
        interleaved = InterleavedCSC.from_dense(sparse_weights, num_pes=4)
        rows = sparse_weights.shape[0]
        for pe, matrix in enumerate(interleaved.per_pe):
            assert matrix.num_rows == len(range(pe, rows, 4))

    def test_nonzero_conservation(self, sparse_weights):
        interleaved = InterleavedCSC.from_dense(sparse_weights, num_pes=4)
        assert interleaved.num_true_nonzeros == np.count_nonzero(sparse_weights)

    def test_entries_per_pe_column_shape_and_totals(self, sparse_weights):
        interleaved = InterleavedCSC.from_dense(sparse_weights, num_pes=4)
        counts = interleaved.entries_per_pe_column()
        assert counts.shape == (4, sparse_weights.shape[1])
        assert counts.sum() == interleaved.num_entries
        assert np.array_equal(counts.sum(axis=1), interleaved.entries_per_pe())

    def test_more_pes_reduce_padding(self, rng):
        # Figure 12's effect: interleaving shortens each PE's column slice.
        dense = (rng.random((256, 32)) < 0.03) * rng.normal(size=(256, 32))
        padding_by_pes = [
            InterleavedCSC.from_dense(dense, num_pes=n).num_padding_zeros for n in (1, 4, 16)
        ]
        assert padding_by_pes[0] >= padding_by_pes[1] >= padding_by_pes[2]

    def test_global_row_index(self, sparse_weights):
        interleaved = InterleavedCSC.from_dense(sparse_weights, num_pes=4)
        assert interleaved.global_row_index(pe=1, local_row=3) == 13

    def test_single_pe_equals_plain_csc(self, sparse_weights):
        interleaved = InterleavedCSC.from_dense(sparse_weights, num_pes=1)
        plain = CSCMatrix.from_dense(sparse_weights)
        assert interleaved.num_entries == plain.num_entries
        assert interleaved.num_padding_zeros == plain.num_padding_zeros

    def test_invalid_num_pes_rejected(self, sparse_weights):
        with pytest.raises(EncodingError):
            InterleavedCSC.from_dense(sparse_weights, num_pes=0)


class TestEntryListing:
    """The cached entry listing behind ``to_dense`` and ``dense_weights``."""

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(0, 120),
        cols=st.integers(0, 12),
        num_pes=st.sampled_from((1, 2, 3, 4, 8, 32)),
        density=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(rows=0, cols=5, num_pes=4, density=0.5, seed=0)  # empty: no rows
    @example(rows=7, cols=3, num_pes=4, density=0.0, seed=0)  # empty: all zeros
    @example(rows=5, cols=4, num_pes=32, density=0.6, seed=1)  # idle PEs
    @example(rows=120, cols=6, num_pes=1, density=0.02, seed=2)  # padding-heavy
    def test_listing_matches_per_pe_decode(self, rows, cols, num_pes, density, seed):
        rng = np.random.default_rng(seed)
        indices = rng.integers(1, 16, size=(rows, cols)).astype(np.float64)
        indices[rng.random((rows, cols)) >= density] = 0.0
        storage = InterleavedCSC.from_dense(indices, num_pes=num_pes)

        per_pe = np.zeros((rows, cols))
        for pe, matrix in enumerate(storage.per_pe):
            per_pe[pe::num_pes] = matrix.to_dense()
        assert np.array_equal(storage.to_dense(), per_pe)

        listing_rows, listing_columns, _ = storage.entry_listing
        assert listing_rows.shape[0] == storage.num_entries
        assert np.array_equal(
            np.bincount(listing_columns, minlength=cols),
            storage.entries_per_pe_column().sum(axis=0),
        )
        assert np.all(np.diff(listing_columns) >= 0)

        codebook = WeightCodebook(centroids=np.concatenate([[0.0], rng.normal(size=15)]))
        layer = CompressedLayer(
            name="listing", shape=(rows, cols), codebook=codebook, storage=storage,
            num_pes=num_pes,
        )
        expected = codebook.dequantize(storage.to_dense().astype(np.int64))
        assert np.array_equal(layer.dense_weights().view(np.int64), expected.view(np.int64))

        assert "entry_listing" in storage.__dict__
        storage.invalidate_caches()
        assert "entry_listing" not in storage.__dict__

    def test_overrun_is_an_encoding_error(self):
        storage = InterleavedCSC.from_dense(np.eye(4), num_pes=2)
        storage.per_pe[1].runs[-1] += 1
        with pytest.raises(EncodingError, match="overruns"):
            storage.to_dense()


class TestInterleavedEntryCounts:
    def _pattern_from_dense(self, dense):
        rows_list = []
        col_ptr = [0]
        for column in range(dense.shape[1]):
            nonzero_rows = np.nonzero(dense[:, column])[0]
            rows_list.extend(nonzero_rows.tolist())
            col_ptr.append(len(rows_list))
        return np.asarray(rows_list), np.asarray(col_ptr)

    @pytest.mark.parametrize("num_pes", [1, 2, 4, 8])
    def test_matches_explicit_encoding(self, rng, num_pes):
        dense = (rng.random((120, 17)) < 0.06) * rng.normal(size=(120, 17))
        row_indices, col_ptr = self._pattern_from_dense(dense)
        counts, padding = interleaved_entry_counts(
            row_indices, col_ptr, num_rows=120, num_pes=num_pes
        )
        explicit = InterleavedCSC.from_dense(dense, num_pes=num_pes)
        assert np.array_equal(counts, explicit.entries_per_pe_column())
        assert padding.sum() == explicit.num_padding_zeros

    @pytest.mark.parametrize("max_run", [1, 15, 120, 2**40 - 1])
    def test_matches_explicit_encoding_at_any_max_run(self, rng, max_run):
        dense = (rng.random((120, 17)) < 0.06) * rng.normal(size=(120, 17))
        row_indices, col_ptr = self._pattern_from_dense(dense)
        counts, padding = interleaved_entry_counts(
            row_indices, col_ptr, num_rows=120, num_pes=2, max_run=max_run
        )
        explicit = InterleavedCSC.from_dense(dense, num_pes=2, max_run=max_run)
        assert np.array_equal(counts, explicit.entries_per_pe_column())
        assert np.array_equal(padding, explicit.padding_per_pe_column())

    @pytest.mark.parametrize("max_run", [0, -1])
    def test_non_positive_max_run_rejected(self, max_run):
        with pytest.raises(EncodingError, match="max_run"):
            interleaved_entry_counts(
                np.array([3]), np.array([0, 1]), num_rows=10, num_pes=2, max_run=max_run
            )

    @pytest.mark.parametrize("num_pes", [0, -2])
    def test_non_positive_num_pes_rejected(self, num_pes):
        with pytest.raises(EncodingError, match="num_pes"):
            interleaved_entry_counts(
                np.array([3]), np.array([0, 1]), num_rows=10, num_pes=num_pes
            )

    def test_widest_int64_keys_count_exactly(self):
        # One column of 2**62 + 1 rows fills the 63-bit key range; the
        # padding count is above 2**53, where a float sum would round it.
        counts, padding = interleaved_entry_counts(
            np.array([5, 2**62]), np.array([0, 2]), num_rows=2**62 + 1, num_pes=1
        )
        assert padding.tolist() == [[(2**62 - 6) // 16]]
        assert counts.tolist() == [[(2**62 - 6) // 16 + 2]]

    def test_keys_wider_than_63_bits_rejected(self):
        # Two columns of 2**62 + 1 rows on one PE need (2 << 63) keys.
        with pytest.raises(EncodingError, match="63 bits"):
            interleaved_entry_counts(
                np.array([5, 2**62]), np.array([0, 1, 2]), num_rows=2**62 + 1, num_pes=1
            )

    def test_empty_pattern(self):
        counts, padding = interleaved_entry_counts(
            np.array([], dtype=np.int64), np.array([0, 0, 0]), num_rows=10, num_pes=2
        )
        assert counts.shape == (2, 2)
        assert counts.sum() == 0 and padding.sum() == 0

    def test_out_of_range_rows_rejected(self):
        with pytest.raises(EncodingError):
            interleaved_entry_counts(np.array([11]), np.array([0, 1]), num_rows=10, num_pes=2)

    def test_non_integer_rows_rejected(self):
        with pytest.raises(EncodingError, match="integers"):
            interleaved_entry_counts(
                np.array([0.0, 4.0, 1.0]), np.array([0, 2, 3]), num_rows=10, num_pes=2
            )

    @pytest.mark.parametrize(
        "col_ptr",
        [
            [1, 2, 3],  # does not start at 0
            [0, 3, 2, 3],  # decreases
            [0, 1, 2],  # ends before the last row index
            [0, 2, 4],  # ends past it
        ],
    )
    def test_malformed_col_ptr_rejected(self, col_ptr):
        with pytest.raises(EncodingError, match="col_ptr"):
            interleaved_entry_counts(
                np.array([0, 4, 1]), np.array(col_ptr), num_rows=10, num_pes=2
            )


@st.composite
def sparsity_patterns(draw):
    """``(row_indices, col_ptr, num_rows)`` of a random pattern in CSC order."""
    num_rows = draw(st.integers(1, 300))
    num_cols = draw(st.integers(0, 12))
    density = draw(st.sampled_from([0.0, 0.01, 0.05, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((num_cols, num_rows)) < density
    # Row-major over (column, row): grouped by column, rows ascending.
    _, rows = np.nonzero(mask)
    col_ptr = np.zeros(num_cols + 1, dtype=np.int64)
    np.cumsum(mask.sum(axis=1), out=col_ptr[1:])
    return rows.astype(np.int64), col_ptr, num_rows


def _one_column(rows, num_rows, num_cols=1):
    """A pattern whose non-zeros all sit in the first of ``num_cols`` columns."""
    col_ptr = np.full(num_cols + 1, len(rows), dtype=np.int64)
    col_ptr[0] = 0
    return np.asarray(rows, dtype=np.int64), col_ptr, num_rows


class TestEntryCountsOracle:
    """The packed-key sort returns exactly what the radix-grouping body did."""

    @settings(max_examples=150, deadline=None)
    @given(
        pattern=sparsity_patterns(),
        # 512 PEs is more than any drawn matrix has rows.
        num_pes=st.sampled_from([1, 2, 3, 5, 7, 8, 16, 64, 512]),
        max_run=st.sampled_from([1, 3, 15, 2**40 - 1]),
    )
    # Empty pattern.
    @example(pattern=_one_column([], 10, num_cols=2), num_pes=3, max_run=15)
    # A fully dense column.
    @example(pattern=_one_column(range(90), 90, num_cols=3), num_pes=7, max_run=1)
    # Every non-zero owned by PE 2 of 5.
    @example(pattern=_one_column(range(2, 300, 25), 300), num_pes=5, max_run=3)
    # More PEs than rows.
    @example(pattern=_one_column([0, 1, 2], 3), num_pes=64, max_run=1)
    # Keys too wide for int32: (5 PEs x 1024 columns) << 20 bits.
    @example(
        pattern=_one_column([0, 7, 2**21 + 3, 2**22 - 1], 2**22, num_cols=1024),
        num_pes=5,
        max_run=15,
    )
    def test_matches_radix_oracle(self, pattern, num_pes, max_run):
        row_indices, col_ptr, num_rows = pattern
        actual = interleaved_entry_counts(row_indices, col_ptr, num_rows, num_pes, max_run)
        expected = oracle_entry_counts(row_indices, col_ptr, num_rows, num_pes, max_run)
        for got, want in zip(actual, expected, strict=True):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert np.array_equal(got, want)
