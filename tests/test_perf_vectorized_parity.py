"""Parity tests pinning the vectorised hot paths to slow reference code.

The compression encoders, the k-means quantiser and the cycle-model
recurrence were all rewritten as whole-matrix/whole-batch NumPy kernels; the
pre-vectorisation per-element implementations are retained *here* as the
ground truth, and randomized (hypothesis) property tests assert the
vectorised paths are bit-identical — including the awkward shapes: all-zero
columns, zero-runs longer than ``max_run``, single-row matrices, empty (all
zero / zero-width) matrices and zero-length broadcast schedules.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compression.csc import (
    CSCMatrix,
    InterleavedCSC,
    decode_column,
    encode_column,
    interleaved_entry_counts,
)
from repro.compression.pruning import prune_by_threshold, prune_to_density
from repro.compression.quantization import (
    WeightCodebook,
    _nearest_centroid_indices,
    kmeans_codebook,
)
from repro.core.cycle_model import (
    layer_work_matrices,
    simulate_layer_cycles,
    simulate_layer_cycles_batch,
)
from repro.compression.pipeline import DeepCompressor
from repro.utils.rng import make_rng

SETTINGS = settings(max_examples=25, deadline=None)

# -- retained slow reference implementations (the seed's per-element code) --


def reference_encode_column(column, max_run=15):
    column = np.asarray(column, dtype=np.float64)
    values: list[float] = []
    runs: list[int] = []
    zeros_pending = 0
    for element in column:
        if element == 0.0:
            zeros_pending += 1
            continue
        while zeros_pending > max_run:
            values.append(0.0)
            runs.append(max_run)
            zeros_pending -= max_run + 1
        values.append(float(element))
        runs.append(zeros_pending)
        zeros_pending = 0
    return np.asarray(values, dtype=np.float64), np.asarray(runs, dtype=np.int64)


def reference_decode_column(values, runs, length):
    column = np.zeros(length, dtype=np.float64)
    position = -1
    for value, run in zip(values, runs):
        position += int(run) + 1
        column[position] = value
    return column


def reference_from_dense(dense, max_run=15):
    """The seed's column-by-column CSCMatrix.from_dense."""
    num_rows, num_cols = dense.shape
    value_chunks, run_chunks = [], []
    col_ptr = np.zeros(num_cols + 1, dtype=np.int64)
    total = 0
    for j in range(num_cols):
        values, runs = reference_encode_column(dense[:, j], max_run=max_run)
        value_chunks.append(values)
        run_chunks.append(runs)
        total += values.shape[0]
        col_ptr[j + 1] = total
    values = np.concatenate(value_chunks) if value_chunks else np.empty(0)
    runs = (
        np.concatenate(run_chunks)
        if run_chunks
        else np.empty(0, dtype=np.int64)
    )
    return values, runs, col_ptr


def reference_kmeans(values, num_clusters, rng=None, max_iterations=30, init="linear"):
    """The seed's O(n*k)-per-iteration Lloyd iteration."""
    values = np.asarray(values, dtype=np.float64).ravel()
    rng = make_rng(rng)
    unique_values = np.unique(values)
    if unique_values.size <= num_clusters:
        centroids = np.full(num_clusters, unique_values[-1], dtype=np.float64)
        centroids[: unique_values.size] = unique_values
        return np.sort(centroids)
    if init == "linear":
        centroids = np.linspace(values.min(), values.max(), num_clusters)
    else:
        centroids = rng.choice(unique_values, size=num_clusters, replace=False)
    centroids = np.sort(np.asarray(centroids, dtype=np.float64))
    for _ in range(max_iterations):
        assignments = np.argmin(np.abs(values[:, None] - centroids[None, :]), axis=1)
        new_centroids = centroids.copy()
        for cluster in range(num_clusters):
            members = values[assignments == cluster]
            if members.size:
                new_centroids[cluster] = members.mean()
        new_centroids = np.sort(new_centroids)
        if np.allclose(new_centroids, centroids, rtol=0.0, atol=1e-12):
            return new_centroids
        centroids = new_centroids
    return centroids


def reference_simulate_total_cycles(work, fifo_depth):
    """The seed's per-broadcast recurrence (rolling completion history)."""
    work = np.asarray(work, dtype=np.int64)
    num_pes, num_broadcasts = work.shape
    done = np.zeros(num_pes, dtype=np.int64)
    history = np.zeros((fifo_depth, num_pes), dtype=np.int64)
    broadcast_time = 0
    for b in range(num_broadcasts):
        broadcast_time = 1 if b == 0 else broadcast_time + 1
        if b >= fifo_depth:
            broadcast_time = max(
                broadcast_time, int(history[(b - fifo_depth) % fifo_depth].max())
            )
        done = np.maximum(done, broadcast_time) + work[:, b]
        history[b % fifo_depth] = done
    return int(done.max()) if num_broadcasts else 0


def reference_layer_work_matrices(layer):
    """The seed's per-PE loop over column entry counts."""
    counts = np.zeros(
        (layer.storage.num_pes, layer.storage.num_cols), dtype=np.int64
    )
    padding = np.zeros_like(counts)
    for pe, matrix in enumerate(layer.storage.per_pe):
        col_counts = matrix.column_entry_counts()
        counts[pe, :] = col_counts
        padding_values = matrix.values == 0.0
        if padding_values.any():
            col_ids = np.repeat(np.arange(matrix.num_cols), col_counts)
            padding[pe, :] = np.bincount(
                col_ids[padding_values], minlength=matrix.num_cols
            )
    return counts, padding


# -- strategies -------------------------------------------------------------


@st.composite
def dense_matrices(draw, max_rows=80, max_cols=24):
    """Random sparse matrices with awkward shapes well represented."""
    shape_kind = draw(st.sampled_from(["general", "single_row", "single_col", "tall"]))
    if shape_kind == "single_row":
        rows, cols = 1, draw(st.integers(1, max_cols))
    elif shape_kind == "single_col":
        rows, cols = draw(st.integers(1, max_rows)), 1
    elif shape_kind == "tall":
        # Tall + very sparse: zero-runs far beyond max_run are guaranteed.
        rows, cols = draw(st.integers(40, 200)), draw(st.integers(1, 6))
    else:
        rows, cols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    density = draw(st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.6, 1.0]))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    matrix = rng.normal(size=(rows, cols))
    matrix[rng.random((rows, cols)) >= density] = 0.0
    return matrix


# -- CSC encode/decode parity ----------------------------------------------


class TestVectorizedCSCParity:
    @SETTINGS
    @given(matrix=dense_matrices(), max_run=st.sampled_from([1, 2, 3, 15]))
    def test_from_dense_bit_identical(self, matrix, max_run):
        ref_values, ref_runs, ref_col_ptr = reference_from_dense(matrix, max_run)
        encoded = CSCMatrix.from_dense(matrix, max_run=max_run)
        assert np.array_equal(encoded.values, ref_values)
        assert np.array_equal(encoded.runs, ref_runs)
        assert np.array_equal(encoded.col_ptr, ref_col_ptr)

    @SETTINGS
    @given(
        matrix=dense_matrices(),
        max_run=st.sampled_from([1, 3, 15]),
        num_pes=st.sampled_from([1, 2, 4, 7, 8]),
    )
    def test_interleaved_slices_bit_identical(self, matrix, max_run, num_pes):
        interleaved = InterleavedCSC.from_dense(
            matrix, num_pes=num_pes, max_run=max_run
        )
        for pe in range(num_pes):
            ref_values, ref_runs, ref_col_ptr = reference_from_dense(
                matrix[pe::num_pes, :], max_run
            )
            pe_slice = interleaved.per_pe[pe]
            assert np.array_equal(pe_slice.values, ref_values)
            assert np.array_equal(pe_slice.runs, ref_runs)
            assert np.array_equal(pe_slice.col_ptr, ref_col_ptr)
        assert np.array_equal(interleaved.to_dense(), matrix)

    @SETTINGS
    @given(matrix=dense_matrices(), max_run=st.sampled_from([1, 3, 15]))
    def test_to_dense_matches_reference_decode(self, matrix, max_run):
        encoded = CSCMatrix.from_dense(matrix, max_run=max_run)
        decoded = encoded.to_dense()
        assert np.array_equal(decoded, matrix)
        for j in range(matrix.shape[1]):
            values, runs = encoded.column_entries(j)
            assert np.array_equal(
                decode_column(values, runs, matrix.shape[0]),
                reference_decode_column(values, runs, matrix.shape[0]),
            )

    def test_empty_and_all_zero_matrices(self):
        for shape in [(5, 3), (1, 1), (200, 2), (4, 0)]:
            matrix = np.zeros(shape)
            encoded = CSCMatrix.from_dense(matrix)
            assert encoded.num_entries == 0
            assert np.array_equal(encoded.to_dense(), matrix)
            interleaved = InterleavedCSC.from_dense(matrix, num_pes=2)
            assert interleaved.num_entries == 0
            assert np.array_equal(interleaved.to_dense(), matrix)

    def test_run_longer_than_max_run_paper_example(self):
        column = np.zeros(23)
        column[2], column[3], column[22] = 1.0, 2.0, 3.0
        values, runs = encode_column(column)
        ref_values, ref_runs = reference_encode_column(column)
        assert np.array_equal(values, ref_values) and np.array_equal(runs, ref_runs)
        assert values.tolist() == [1.0, 2.0, 0.0, 3.0]
        assert runs.tolist() == [2, 0, 15, 2]

    @SETTINGS
    @given(
        matrix=dense_matrices(),
        num_pes=st.sampled_from([1, 2, 3, 4, 5, 7, 8, 16]),
        max_run=st.sampled_from([1, 3, 15]),
    )
    def test_interleaved_entry_counts_match_explicit_encoding(
        self, matrix, num_pes, max_run
    ):
        rows_list: list[int] = []
        col_ptr = [0]
        for column in range(matrix.shape[1]):
            nonzero_rows = np.nonzero(matrix[:, column])[0]
            rows_list.extend(nonzero_rows.tolist())
            col_ptr.append(len(rows_list))
        counts, padding = interleaved_entry_counts(
            np.asarray(rows_list, dtype=np.int64),
            np.asarray(col_ptr, dtype=np.int64),
            num_rows=matrix.shape[0],
            num_pes=num_pes,
            max_run=max_run,
        )
        explicit = InterleavedCSC.from_dense(
            matrix, num_pes=num_pes, max_run=max_run
        )
        assert np.array_equal(counts, explicit.entries_per_pe_column())
        assert np.array_equal(padding, explicit.padding_per_pe_column())

    @SETTINGS
    @given(matrix=dense_matrices(), num_pes=st.sampled_from([1, 3, 4]))
    def test_padding_caches_match_recount(self, matrix, num_pes):
        interleaved = InterleavedCSC.from_dense(matrix, num_pes=num_pes)
        for pe_slice in interleaved.per_pe:
            assert pe_slice.num_padding_zeros == int(
                np.count_nonzero(pe_slice.values == 0.0)
            )
        fresh = np.zeros((num_pes, matrix.shape[1]), dtype=np.int64)
        for pe, pe_slice in enumerate(interleaved.per_pe):
            fresh[pe, :] = pe_slice.column_entry_counts()
        cached = interleaved.entries_per_pe_column()
        assert np.array_equal(cached, fresh)
        assert cached is interleaved.entries_per_pe_column()  # cached object
        assert not cached.flags.writeable  # cache cannot be poisoned


# -- quantization parity ----------------------------------------------------


class TestVectorizedQuantizationParity:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        k=st.sampled_from([1, 2, 4, 8, 15, 16]),
        with_duplicates=st.booleans(),
    )
    def test_nearest_centroid_matches_argmin(self, seed, k, with_duplicates):
        rng = np.random.default_rng(seed)
        if with_duplicates:
            pool = np.array([-2.0, -1.0, -0.5, 0.0, 0.0, 0.5, 0.75, 1.0, 2.0])
            centroids = rng.choice(pool, size=k)
            values = rng.choice(pool, size=64) / rng.choice([1.0, 2.0, 4.0])
        else:
            centroids = rng.normal(size=k)
            values = rng.normal(size=200)
        expected = np.argmin(np.abs(values[:, None] - centroids[None, :]), axis=1)
        actual = _nearest_centroid_indices(values, centroids)
        assert np.array_equal(actual, expected)

    @SETTINGS
    @given(seed=st.integers(0, 2**31 - 1))
    def test_quantize_bit_identical_to_argmin(self, seed):
        rng = np.random.default_rng(seed)
        codebook = WeightCodebook.fit(rng.normal(size=300), rng=seed)
        values = np.concatenate([rng.normal(size=100), [0.0], codebook.centroids])
        expected = np.argmin(
            np.abs(values[:, None] - codebook.centroids[None, :]), axis=1
        ).astype(np.int64)
        expected[values == 0.0] = 0
        actual = codebook.quantize(values)
        assert np.array_equal(actual, expected)

    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        k=st.sampled_from([2, 4, 8, 15]),
        init=st.sampled_from(["linear", "random"]),
    )
    def test_kmeans_codebook_matches_reference(self, seed, k, init):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=int(rng.integers(k + 1, 600))) * 0.3
        expected = reference_kmeans(values, k, rng=seed, init=init)
        actual = kmeans_codebook(values, k, rng=seed, init=init)
        # Centroid means are count-weighted sums instead of per-member
        # pairwise means, so agreement is to float summation order.
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-8)

    def test_kmeans_discrete_values_exact(self):
        values = np.repeat([-1.0, -0.5, 0.25, 1.0, 3.0], [7, 3, 11, 2, 5])
        expected = reference_kmeans(values, 3, rng=0)
        actual = kmeans_codebook(values, 3, rng=0)
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-12)


# -- pruning parity ---------------------------------------------------------


class TestVectorizedPruningParity:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        density=st.sampled_from([0.05, 0.1, 0.3, 0.9]),
    )
    def test_excess_trim_matches_reference_loop(self, seed, density):
        rng = np.random.default_rng(seed)
        # Quantised values produce heavy magnitude ties at the threshold, so
        # the excess-trim path actually executes.
        weights = np.round(rng.normal(size=(24, 18)), 1)
        result = prune_to_density(weights, density)

        reference = prune_by_threshold(weights, result.threshold)
        keep = max(1, int(round(density * weights.size)))
        if reference.num_nonzero > keep:
            surviving = np.argwhere(reference.mask)
            magnitudes = np.abs(reference.weights[reference.mask])
            order = np.argsort(magnitudes, kind="stable")
            for index in order[: reference.num_nonzero - keep]:
                row, col = surviving[index]
                reference.weights[row, col] = 0.0
                reference.mask[row, col] = False
        assert np.array_equal(result.weights, reference.weights)
        assert np.array_equal(result.mask, reference.mask)


# -- cycle-model parity -----------------------------------------------------


class TestVectorizedCycleModelParity:
    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        num_pes=st.sampled_from([1, 2, 5, 16]),
        broadcasts=st.sampled_from([0, 1, 2, 7, 8, 9, 40, 130]),
        depth=st.sampled_from([1, 2, 3, 8, 16, 33, 64, 500]),
    )
    def test_single_matches_reference_recurrence(
        self, seed, num_pes, broadcasts, depth
    ):
        rng = np.random.default_rng(seed)
        work = rng.poisson(1.5, size=(num_pes, broadcasts)).astype(np.int64)
        stats = simulate_layer_cycles(work, fifo_depth=depth)
        assert stats.total_cycles == reference_simulate_total_cycles(work, depth)

    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        depth=st.sampled_from([1, 2, 8, 32]),
    )
    def test_batch_matches_single_item_by_item(self, seed, depth):
        rng = np.random.default_rng(seed)
        num_pes = int(rng.integers(1, 9))
        works = [
            rng.poisson(1.5, size=(num_pes, int(rng.integers(0, 70)))).astype(np.int64)
            for _ in range(int(rng.integers(1, 9)))
        ]
        batch_stats = simulate_layer_cycles_batch(works, fifo_depth=depth)
        for work, stats in zip(works, batch_stats):
            single = simulate_layer_cycles(work, fifo_depth=depth)
            assert stats.total_cycles == single.total_cycles
            assert stats.broadcasts == single.broadcasts
            assert np.array_equal(stats.busy_cycles, single.busy_cycles)

    @SETTINGS
    @given(seed=st.integers(0, 2**31 - 1), depth=st.sampled_from([1, 8]))
    def test_assume_valid_fast_path_identical(self, seed, depth):
        rng = np.random.default_rng(seed)
        work = rng.poisson(2.0, size=(4, 37)).astype(np.int64)
        checked = simulate_layer_cycles(work, fifo_depth=depth)
        unchecked = simulate_layer_cycles(work, fifo_depth=depth, assume_valid=True)
        assert checked.total_cycles == unchecked.total_cycles
        works = [work, work[:, :5], work[:, :0]]
        for a, b in zip(
            simulate_layer_cycles_batch(works, fifo_depth=depth),
            simulate_layer_cycles_batch(works, fifo_depth=depth, assume_valid=True),
        ):
            assert a.total_cycles == b.total_cycles

    @SETTINGS
    @given(
        seed=st.integers(0, 2**31 - 1),
        num_pes=st.sampled_from([1, 2, 4]),
    )
    def test_layer_work_matrices_match_per_pe_reference(self, seed, num_pes):
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=(32, 24))
        weights[rng.random((32, 24)) >= 0.15] = 0.0
        if not np.count_nonzero(weights):
            weights[0, 0] = 1.0
        layer = DeepCompressor().compress(weights, num_pes=num_pes)
        counts, padding = layer_work_matrices(layer)
        ref_counts, ref_padding = reference_layer_work_matrices(layer)
        assert np.array_equal(counts, ref_counts)
        assert np.array_equal(padding, ref_padding)
