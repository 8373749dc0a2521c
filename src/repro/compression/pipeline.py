"""End-to-end Deep Compression pipeline producing EIE-ready layers.

:class:`DeepCompressor` chains the three stages (pruning, weight sharing and
relative-indexed interleaved CSC encoding) and returns a
:class:`CompressedLayer`, which is the unit the EIE simulators load into
their processing elements.  The layer also knows how to report its storage
footprint (with or without the optional Huffman stage) so that the
compression-ratio claims of the paper can be checked.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from typing import Any, Mapping

import numpy as np

from repro.compression.csc import DEFAULT_MAX_RUN, InterleavedCSC
from repro.compression.huffman import HuffmanCode
from repro.compression.pruning import prune_to_density
from repro.compression.quantization import WeightCodebook
from repro.errors import CompressionError, ConfigurationError
from repro.utils.rng import make_rng
from repro.utils.validation import require_matrix

__all__ = [
    "CompressionConfig",
    "CompressedLayer",
    "DeepCompressor",
    "weights_fingerprint",
]


def weights_fingerprint(weights: np.ndarray) -> str:
    """Content hash of a dense weight matrix, usable as a cache key.

    The digest covers the element bytes, dtype and shape, so two arrays with
    the same values but different shapes (or precisions) never collide.  The
    engine :class:`~repro.engine.session.Session` keys its compressed-layer
    cache on this, letting design-space sweeps compress each layer once.
    """
    weights = np.ascontiguousarray(weights)
    digest = hashlib.sha256()
    digest.update(str(weights.dtype).encode())
    digest.update(str(weights.shape).encode())
    digest.update(weights)  # hashes the contiguous buffer itself: no byte copy
    return digest.hexdigest()


@dataclass(frozen=True)
class CompressionConfig:
    """Parameters of the Deep Compression pipeline.

    Attributes:
        target_density: fraction of weights to keep when pruning; ``None``
            keeps the matrix's existing sparsity pattern (useful when the
            input is already sparse).
        index_bits: bits per weight index (4 in the paper, 16-entry codebook).
        max_run: largest zero run representable by the relative index
            (``2**index_bits - 1``).
        codebook_seed: RNG seed for the k-means codebook fit.
    """

    target_density: float | None = None
    index_bits: int = 4
    max_run: int = DEFAULT_MAX_RUN
    codebook_seed: int = 0

    def __post_init__(self) -> None:
        if self.target_density is not None and not 0.0 < self.target_density <= 1.0:
            raise CompressionError(
                f"target_density must be in (0, 1], got {self.target_density}"
            )
        if self.index_bits < 1:
            raise CompressionError(f"index_bits must be >= 1, got {self.index_bits}")
        if self.max_run < 1 or self.max_run > 2**self.index_bits - 1:
            raise CompressionError(
                f"max_run must be in [1, {2**self.index_bits - 1}], got {self.max_run}"
            )

    def to_dict(self) -> dict[str, Any]:
        """All pipeline parameters as a plain JSON-serializable mapping."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CompressionConfig":
        """Build a configuration from a (possibly partial) field mapping.

        Missing fields take their defaults; unknown keys are rejected with a
        :class:`~repro.errors.ConfigurationError` naming the offending key.
        """
        known = {spec.name for spec in fields(cls)}
        for key in data:
            if key not in known:
                raise ConfigurationError(
                    f"CompressionConfig has no field {key!r}; "
                    f"valid fields: {', '.join(sorted(known))}"
                )
        return cls(**dict(data))


@dataclass
class CompressedLayer:
    """A weight matrix after Deep Compression, distributed over PEs.

    Attributes:
        name: layer label (e.g. ``"Alex-7"``).
        shape: dense shape ``(rows, cols)`` = (output size, input size).
        codebook: shared-weight table; entry 0 is the reserved zero.
        storage: interleaved CSC structure whose *values are codebook
            indices* (padding zeros carry index 0).
        num_pes: number of processing elements the layer is interleaved over.
        activation_name: non-linearity applied after the M x V (``"relu"`` or
            ``"identity"``).
    """

    name: str
    shape: tuple[int, int]
    codebook: WeightCodebook
    storage: InterleavedCSC
    num_pes: int
    activation_name: str = "relu"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        rows, cols = self.shape
        if self.storage.num_rows != rows or self.storage.num_cols != cols:
            raise CompressionError(
                f"storage shape ({self.storage.num_rows}, {self.storage.num_cols}) "
                f"does not match layer shape {self.shape}"
            )
        if self.storage.num_pes != self.num_pes:
            raise CompressionError(
                f"storage is interleaved over {self.storage.num_pes} PEs, expected {self.num_pes}"
            )

    # -- structure ------------------------------------------------------------

    @property
    def rows(self) -> int:
        """Output size of the layer."""
        return self.shape[0]

    @property
    def cols(self) -> int:
        """Input size of the layer."""
        return self.shape[1]

    @property
    def dense_weight_count(self) -> int:
        """Number of weights in the uncompressed dense matrix."""
        return self.rows * self.cols

    @property
    def num_nonzero_weights(self) -> int:
        """Number of genuine (non-padding) stored weights."""
        return self.storage.num_true_nonzeros

    @property
    def num_stored_entries(self) -> int:
        """Stored entries including padding zeros."""
        return self.storage.num_entries

    @property
    def weight_density(self) -> float:
        """Fraction of surviving weights relative to the dense matrix."""
        return self.num_nonzero_weights / max(self.dense_weight_count, 1)

    @property
    def padding_fraction(self) -> float:
        """Fraction of stored entries that are padding zeros."""
        return self.storage.padding_fraction

    # -- reconstruction --------------------------------------------------------

    def dense_weights(self) -> np.ndarray:
        """Decode the layer back into a dense weight matrix (float64).

        The decoded matrix is cached (read-only) after the first call: the
        model layer re-reads it on every ``run_model`` propagation step, and
        the storage/codebook never change after construction.  The shared
        weights are scattered by flat position into ``np.zeros`` (a ``-0.0``
        zero entry is filled), so every unstored cell holds the zero entry.
        """
        cached = getattr(self, "_dense_weights", None)
        if cached is None:
            rows, columns, indices = self.storage.entry_listing
            zero = self.codebook.centroids[self.codebook.zero_index]
            cached = np.full(self.shape, zero) if np.signbit(zero) else np.zeros(self.shape)
            cached.reshape(-1)[rows * self.cols + columns] = self.codebook.dequantize(indices)
            cached.setflags(write=False)
            self._dense_weights = cached
        return cached

    def reference_matvec(self, activations: np.ndarray) -> np.ndarray:
        """Golden-model ``W @ a`` on the decoded dense weights."""
        return self.dense_weights() @ np.asarray(activations, dtype=np.float64)

    # -- storage accounting ----------------------------------------------------

    def storage_bits(self, pointer_bits: int = 16) -> int:
        """Bits stored in the PE SRAMs (indices, runs, pointers, codebook)."""
        csc_bits = self.storage.storage_bits(
            value_bits=self.codebook.index_bits,
            index_bits=self.codebook.index_bits,
            pointer_bits=pointer_bits,
        )
        return csc_bits + self.codebook.storage_bits

    def compression_ratio(self, dense_bits_per_weight: int = 32) -> float:
        """Dense 32-bit storage divided by compressed storage."""
        compressed = self.storage_bits()
        if compressed == 0:
            return float("inf")
        return self.dense_weight_count * dense_bits_per_weight / compressed

    def huffman_storage_bits(self, pointer_bits: int = 16) -> int:
        """Storage if the index and run streams were Huffman coded (off-chip).

        Huffman coding is applied separately to the weight-index stream and
        the zero-run stream, as Deep Compression does; pointers and the
        codebook stay fixed-width.  Each stream is tallied with one
        vectorised ``bincount`` pass (the symbols are small non-negative
        integers), so a paper-scale layer is accounted in milliseconds.
        """
        total_bits = self.codebook.storage_bits
        total_bits += sum(
            (matrix.col_ptr.shape[0]) * pointer_bits for matrix in self.storage.per_pe
        )
        values, runs = self.storage.streams()
        for stream in (values.astype(np.int64), runs):
            distinct, counts = HuffmanCode._symbol_counts(stream)
            if not distinct:
                continue
            frequencies = dict(zip(distinct, counts))
            code = HuffmanCode.from_frequencies(frequencies)
            total_bits += code.weighted_bits(frequencies)
        return total_bits

    def storage_report(self) -> dict[str, float]:
        """Summary of storage and compression statistics."""
        dense_bits = self.dense_weight_count * 32
        fixed_bits = self.storage_bits()
        huffman_bits = self.huffman_storage_bits()
        return {
            "dense_bits": float(dense_bits),
            "compressed_bits": float(fixed_bits),
            "huffman_bits": float(huffman_bits),
            "compression_ratio": dense_bits / fixed_bits if fixed_bits else float("inf"),
            "huffman_compression_ratio": dense_bits / huffman_bits if huffman_bits else float("inf"),
            "weight_density": self.weight_density,
            "padding_fraction": self.padding_fraction,
        }


class DeepCompressor:
    """Runs the full Deep Compression pipeline on dense weight matrices."""

    def __init__(self, config: CompressionConfig | None = None) -> None:
        self.config = config or CompressionConfig()

    def compress(
        self,
        weights: np.ndarray,
        num_pes: int,
        name: str = "layer",
        activation_name: str = "relu",
    ) -> CompressedLayer:
        """Compress ``weights`` and interleave the result over ``num_pes`` PEs.

        Steps: optional magnitude pruning to the configured density, k-means
        weight sharing into a ``2**index_bits``-entry codebook with a reserved
        zero, then relative-indexed CSC encoding of the index matrix,
        interleaved row-wise over the PEs.  One scan lists the non-zeros; k-means
        and quantize see only that listing, scattered back for the encoder.  A
        :class:`~repro.engine.session.Session` hashes the matrix once, before this.
        """
        weights = np.asarray(require_matrix("weights", weights), dtype=np.float64)
        if num_pes < 1:
            raise CompressionError(f"num_pes must be >= 1, got {num_pes}")
        if self.config.target_density is not None:
            # Pruning could silently drop a NaN, so the dense input is checked.
            _require_finite(weights, name)
            pruned = prune_to_density(weights, self.config.target_density).weights
        else:
            # Pruning is a no-op: the matrix is only read from here on, so the
            # caller's array is used as-is (no dense copy).
            pruned = weights
        flat = np.flatnonzero(pruned)
        values = pruned.reshape(-1)[flat]
        if values.size == 0:
            raise CompressionError(f"layer {name!r} has no non-zero weights after pruning")
        # NaN and +-inf are non-zero, so checking the listing alone is exact.
        _require_finite(values, name)
        rng = make_rng(self.config.codebook_seed)
        codebook = WeightCodebook.fit(values, index_bits=self.config.index_bits, rng=rng)
        indices = np.zeros(pruned.shape, dtype=np.float64)
        indices.reshape(-1)[flat] = codebook.quantize(values)
        storage = InterleavedCSC.from_dense(indices, num_pes=num_pes, max_run=self.config.max_run)
        return CompressedLayer(
            name=name,
            shape=tuple(weights.shape),
            codebook=codebook,
            storage=storage,
            num_pes=num_pes,
            activation_name=activation_name,
            metadata={"pruned_density": values.size / pruned.size},
        )


def _require_finite(values: np.ndarray, name: str) -> None:
    if not np.isfinite(values).all():
        raise CompressionError(f"layer {name!r} has NaN or infinite weights")
