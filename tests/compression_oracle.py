"""Test oracle for Deep Compression: the dense-scan pipeline body.

:meth:`~repro.compression.pipeline.DeepCompressor.compress` lists the pruned
matrix's non-zeros once and fits, quantizes and scatters only that listing.
This is the earlier body it replaced, which masked the dense matrix for the
k-means input, quantized the whole dense matrix into an int64 index matrix and
encoded a float64 copy of it.  The rewrite must reproduce its layer bit for
bit; :func:`assert_layers_identical` is that comparison, and it also checks
the layer's decoded dense weights against :func:`oracle_dense_weights`.
"""

from __future__ import annotations

import numpy as np

from repro.compression.csc import InterleavedCSC
from repro.compression.pipeline import CompressedLayer, DeepCompressor
from repro.compression.pruning import prune_to_density
from repro.compression.quantization import WeightCodebook
from repro.errors import CompressionError
from repro.utils.rng import make_rng
from repro.utils.validation import require_matrix


def oracle_compress(
    compressor: DeepCompressor,
    weights: np.ndarray,
    num_pes: int,
    name: str = "layer",
    activation_name: str = "relu",
) -> CompressedLayer:
    """Compress ``weights`` the way the pipeline did before the one-scan rewrite."""
    config = compressor.config
    weights = np.asarray(require_matrix("weights", weights), dtype=np.float64)
    if num_pes < 1:
        raise CompressionError(f"num_pes must be >= 1, got {num_pes}")
    if config.target_density is not None:
        pruned = prune_to_density(weights, config.target_density).weights
    else:
        pruned = weights
    nonzero_values = pruned[pruned != 0.0]
    if nonzero_values.size == 0:
        raise CompressionError(f"layer {name!r} has no non-zero weights after pruning")
    rng = make_rng(config.codebook_seed)
    codebook = WeightCodebook.fit(nonzero_values, index_bits=config.index_bits, rng=rng)
    indices = codebook.quantize(pruned)
    storage = InterleavedCSC.from_dense(
        indices.astype(np.float64), num_pes=num_pes, max_run=config.max_run
    )
    return CompressedLayer(
        name=name,
        shape=tuple(weights.shape),
        codebook=codebook,
        storage=storage,
        num_pes=num_pes,
        activation_name=activation_name,
        metadata={"pruned_density": nonzero_values.size / pruned.size},
    )


def oracle_dense_weights(layer: CompressedLayer) -> np.ndarray:
    """The decode ``CompressedLayer.dense_weights`` did before its flat scatter."""
    rows, columns, indices = layer.storage.entry_listing
    dense = np.full(layer.shape, layer.codebook.centroids[layer.codebook.zero_index])
    dense[rows, columns] = layer.codebook.dequantize(indices)
    return dense


def _same_array(actual: np.ndarray, expected: np.ndarray) -> bool:
    return (
        actual.dtype == expected.dtype
        and actual.shape == expected.shape
        and actual.tobytes() == expected.tobytes()
    )


def assert_layers_identical(actual: CompressedLayer, expected: CompressedLayer) -> None:
    """Codebook, every per-PE stream, padding, storage report and metadata agree."""
    assert (actual.name, actual.shape, actual.num_pes, actual.activation_name) == (
        expected.name, expected.shape, expected.num_pes, expected.activation_name
    )
    assert actual.codebook.index_bits == expected.codebook.index_bits
    assert _same_array(actual.codebook.centroids, expected.codebook.centroids)
    assert len(actual.storage.per_pe) == len(expected.storage.per_pe)
    for pe, (mine, theirs) in enumerate(zip(actual.storage.per_pe, expected.storage.per_pe)):
        for field in ("values", "runs", "col_ptr"):
            assert _same_array(getattr(mine, field), getattr(theirs, field)), (pe, field)
        assert (mine.num_rows, mine.num_cols, mine.max_run) == (
            theirs.num_rows, theirs.num_cols, theirs.max_run
        )
        assert mine.num_padding_zeros == theirs.num_padding_zeros, pe
    assert actual.storage.num_padding_zeros == expected.storage.num_padding_zeros
    assert actual.storage_report() == expected.storage_report()
    assert actual.metadata == expected.metadata
    assert _same_array(actual.dense_weights(), oracle_dense_weights(expected))
