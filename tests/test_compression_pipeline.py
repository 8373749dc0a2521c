"""Tests for the end-to-end Deep Compression pipeline."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from compression_oracle import assert_layers_identical, oracle_compress, oracle_dense_weights
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compression.pipeline import CompressedLayer, CompressionConfig, DeepCompressor
from repro.compression.quantization import WeightCodebook
from repro.errors import CompressionError


class TestCompressionConfig:
    def test_defaults(self):
        config = CompressionConfig()
        assert config.index_bits == 4
        assert config.max_run == 15
        assert config.target_density is None

    def test_invalid_density_rejected(self):
        with pytest.raises(CompressionError):
            CompressionConfig(target_density=0.0)
        with pytest.raises(CompressionError):
            CompressionConfig(target_density=1.2)

    def test_max_run_bounded_by_index_bits(self):
        with pytest.raises(CompressionError):
            CompressionConfig(index_bits=4, max_run=16)


class TestDeepCompressor:
    def test_reconstruction_error_is_bounded(self, sparse_weights):
        layer = DeepCompressor().compress(sparse_weights, num_pes=4)
        reconstructed = layer.dense_weights()
        nonzero = sparse_weights != 0.0
        # Zero positions stay exactly zero; non-zeros only move to the nearest centroid.
        assert np.all(reconstructed[~nonzero] == 0.0)
        error = np.abs(reconstructed[nonzero] - sparse_weights[nonzero])
        spread = sparse_weights[nonzero].max() - sparse_weights[nonzero].min()
        assert error.max() <= spread / 2

    def test_sparsity_pattern_preserved_without_pruning(self, sparse_weights):
        layer = DeepCompressor().compress(sparse_weights, num_pes=4)
        reconstructed = layer.dense_weights()
        # Every surviving weight decodes to a non-zero unless k-means snapped it to 0.
        assert np.count_nonzero(reconstructed) <= np.count_nonzero(sparse_weights)
        assert np.count_nonzero(reconstructed) >= 0.9 * np.count_nonzero(sparse_weights)

    def test_target_density_pruning(self, rng):
        dense = rng.normal(size=(64, 48))
        compressor = DeepCompressor(CompressionConfig(target_density=0.1))
        layer = compressor.compress(dense, num_pes=4)
        assert layer.weight_density == pytest.approx(0.1, abs=0.03)

    def test_reference_matvec_matches_dense_weights(self, compressed_layer, dense_activations):
        expected = compressed_layer.dense_weights() @ dense_activations
        assert np.allclose(compressed_layer.reference_matvec(dense_activations), expected)

    def test_dense_weights_are_cached_and_read_only(self, compressed_layer):
        first = compressed_layer.dense_weights()
        assert compressed_layer.dense_weights() is first
        assert not first.flags.writeable

    def test_dense_weights_keep_a_negative_zero_entry(self, compressed_layer):
        codebook = WeightCodebook(
            centroids=np.concatenate([[-0.0], compressed_layer.codebook.centroids[1:]])
        )
        layer = replace(compressed_layer, codebook=codebook, metadata={})
        dense = layer.dense_weights()
        assert np.array_equal(dense, oracle_dense_weights(layer))
        assert np.signbit(dense[dense == 0.0]).all()

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(CompressionError):
            DeepCompressor().compress(np.zeros((8, 8)), num_pes=2)

    @pytest.mark.parametrize("target_density", [None, 0.5])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weight_rejected(self, rng, bad, target_density):
        weights = rng.normal(size=(8, 8))
        weights[3, 5] = bad
        compressor = DeepCompressor(CompressionConfig(target_density=target_density))
        with pytest.raises(CompressionError, match="'fc6'.*NaN or infinite"):
            compressor.compress(weights, num_pes=2, name="fc6")

    def test_invalid_num_pes_rejected(self, sparse_weights):
        with pytest.raises(CompressionError):
            DeepCompressor().compress(sparse_weights, num_pes=0)


class TestCompressedLayer:
    def test_shape_properties(self, compressed_layer, sparse_weights):
        assert compressed_layer.shape == sparse_weights.shape
        assert compressed_layer.rows == sparse_weights.shape[0]
        assert compressed_layer.cols == sparse_weights.shape[1]
        assert compressed_layer.dense_weight_count == sparse_weights.size

    def test_weight_density_close_to_input(self, compressed_layer, sparse_weights):
        input_density = np.count_nonzero(sparse_weights) / sparse_weights.size
        assert compressed_layer.weight_density == pytest.approx(input_density, rel=0.15)

    def test_compression_ratio_substantial(self, compressed_layer):
        # 4-bit indices + 4-bit runs versus 32-bit floats at ~15% density.
        assert compressed_layer.compression_ratio() > 5.0

    def test_storage_report_keys_and_consistency(self, compressed_layer):
        report = compressed_layer.storage_report()
        assert report["compressed_bits"] < report["dense_bits"]
        assert report["huffman_bits"] <= report["compressed_bits"] * 1.1
        assert report["compression_ratio"] > 1.0
        assert 0.0 <= report["padding_fraction"] < 1.0

    def test_huffman_never_worse_than_fixed_width_streams(self, compressed_layer):
        # Huffman coding the index/run streams cannot exceed 8 bits per entry
        # by more than the codebook/pointer overhead already counted.
        assert compressed_layer.huffman_storage_bits() <= compressed_layer.storage_bits()

    def test_mismatched_storage_rejected(self, compressed_layer):
        with pytest.raises(CompressionError):
            CompressedLayer(
                name="broken",
                shape=(compressed_layer.rows + 1, compressed_layer.cols),
                codebook=compressed_layer.codebook,
                storage=compressed_layer.storage,
                num_pes=compressed_layer.num_pes,
            )


# -- the one-scan pipeline against its dense-scan oracle ----------------------


def _exactly_half_way_to_zero() -> np.ndarray:
    # {-3, -1} form one cluster with centroid -2, so -1 ties with the zero entry.
    column = np.array([-3.0, -1.0] + [10.0 * i for i in range(1, 15)])
    matrix = np.zeros((20, 2))
    matrix[:16, 0] = column
    matrix[3:19, 1] = column[::-1]
    return matrix


def _tiny_non_zeros() -> np.ndarray:
    # Non-zeros far closer to 0 than to any centroid quantize to the zero entry.
    rng = np.random.default_rng(5)
    matrix = rng.normal(size=(12, 9))
    matrix[rng.random(matrix.shape) < 0.3] = 0.0
    matrix[0, 0], matrix[5, 3] = 1e-9, -1e-7
    return matrix


def _long_gaps() -> np.ndarray:
    matrix = np.zeros((70, 3))
    matrix[[0, 40, 69], 0] = [1.5, -2.0, 0.25]
    matrix[33, 2] = 4.0
    return matrix


@st.composite
def layer_matrices(draw):
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    if draw(st.booleans()):
        matrix = rng.normal(size=(rows, cols))
    else:
        matrix = rng.integers(-3, 4, size=(rows, cols)).astype(np.float64)
    matrix[rng.random((rows, cols)) >= draw(st.sampled_from([0.05, 0.3, 1.0]))] = 0.0
    matrix[rng.integers(rows), rng.integers(cols)] = 0.5
    return matrix


class TestOneScanMatchesOracle:
    @settings(max_examples=40, deadline=None)
    @given(
        matrix=layer_matrices(),
        num_pes=st.sampled_from([1, 7, 64]),
        target_density=st.sampled_from([None, 0.5]),
        max_run=st.sampled_from([1, 15]),
    )
    @example(matrix=_tiny_non_zeros(), num_pes=4, target_density=None, max_run=15)
    @example(matrix=np.array([[1.0, 0.0], [-2.0, 1.0]]), num_pes=1, target_density=None,
             max_run=15)
    @example(matrix=_exactly_half_way_to_zero(), num_pes=3, target_density=None, max_run=15)
    @example(matrix=np.array([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]), num_pes=2,
             target_density=None, max_run=15)
    @example(matrix=_tiny_non_zeros(), num_pes=64, target_density=None, max_run=15)
    @example(matrix=_long_gaps(), num_pes=1, target_density=None, max_run=15)
    @example(matrix=_long_gaps(), num_pes=2, target_density=None, max_run=1)
    @example(matrix=np.asfortranarray(_tiny_non_zeros()), num_pes=7, target_density=None,
             max_run=15)
    @example(matrix=_tiny_non_zeros().astype(np.float32), num_pes=4, target_density=None,
             max_run=15)
    @example(matrix=_tiny_non_zeros(), num_pes=4, target_density=0.5, max_run=15)
    def test_layer_bit_identical(self, matrix, num_pes, target_density, max_run):
        compressor = DeepCompressor(
            CompressionConfig(target_density=target_density, max_run=max_run)
        )
        names = {"name": "m/fc", "activation_name": "identity"}
        expected = oracle_compress(compressor, matrix, num_pes, **names)
        actual = compressor.compress(matrix, num_pes, **names)
        assert_layers_identical(actual, expected)

    def test_examples_reach_their_corner_cases(self):
        # Guards the @examples above: each must still exercise its case.
        for matrix in (_tiny_non_zeros(), _exactly_half_way_to_zero()):
            layer = DeepCompressor().compress(matrix, num_pes=1)
            assert layer.num_nonzero_weights < np.count_nonzero(matrix)
        half_way = DeepCompressor().compress(_exactly_half_way_to_zero(), num_pes=1)
        assert -2.0 in half_way.codebook.centroids
        few = DeepCompressor().compress(np.array([[1.0, 0.0], [-2.0, 1.0]]), num_pes=1)
        assert np.unique(few.codebook.centroids).size < few.codebook.size
        layer = DeepCompressor().compress(_long_gaps(), num_pes=1)
        assert layer.num_stored_entries > layer.num_nonzero_weights
