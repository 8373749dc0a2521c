"""Weight sharing via k-means codebooks.

Deep Compression replaces each surviving weight with a 4-bit index into a
16-entry table of shared weights (the codebook).  EIE's weight decoder is a
16-entry lookup table that expands the 4-bit virtual weight into a 16-bit
fixed-point real weight before the multiply-accumulate.

Entry 0 of the codebook is reserved for the value 0.0 so that the padding
zeros inserted by the relative-indexed CSC encoding (runs of more than 15
zeros) decode exactly to zero and contribute nothing to the accumulation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CompressionError
from repro.utils.rng import make_rng

__all__ = ["kmeans_codebook", "WeightCodebook"]


def _nearest_centroid_indices(values: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of the nearest centroid for every value, in O(n log k).

    Exactly reproduces ``np.argmin(np.abs(values[:, None] - centroids), axis=1)``
    — including its tie-breaking — without materialising the O(n·k) distance
    matrix: the centroids are stably sorted, each value's two sorted
    neighbours are found with ``searchsorted``, the closer one wins (ties go
    to the smaller value, then to the first occurrence in the *original*
    centroid order, which is what a linear ``argmin`` scan returns).
    """
    order = np.argsort(centroids, kind="stable")
    sorted_centroids = centroids[order]
    k = sorted_centroids.shape[0]
    if k == 1:
        return np.zeros(values.shape, dtype=np.int64)
    insertion = np.searchsorted(sorted_centroids, values)
    left = np.clip(insertion - 1, 0, k - 1)
    right = np.clip(insertion, 0, k - 1)
    left_distance = np.abs(values - sorted_centroids[left])
    right_distance = np.abs(values - sorted_centroids[right])
    prefer_left = left_distance <= right_distance
    chosen = np.where(prefer_left, left, right)
    # Duplicate centroids: argmin returns the first index holding the chosen
    # value, which (stable sort) is the first slot of its sorted run.
    if np.any(sorted_centroids[1:] == sorted_centroids[:-1]):
        chosen = np.searchsorted(sorted_centroids, sorted_centroids[chosen])
    already_sorted = bool(np.all(order == np.arange(k)))
    result = chosen if already_sorted else order[chosen]
    # Exact distance ties between two *distinct* centroid values: argmin
    # returns whichever has the smaller original index.
    tie = (left_distance == right_distance) & (
        sorted_centroids[left] != sorted_centroids[right]
    )
    if np.any(tie):
        other = np.searchsorted(
            sorted_centroids, sorted_centroids[np.where(prefer_left, right, left)]
        )
        result = np.where(tie, np.minimum(result, order[other]), result)
    return result.astype(np.int64, copy=False)


def _sorted_cluster_bounds(sorted_values: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Cluster segment boundaries for *sorted* values and sorted distinct centroids.

    Returns ``bounds`` of length ``k + 1`` with ``bounds[i]`` the first index
    of ``sorted_values`` assigned to cluster ``>= i`` — so cluster ``i`` owns
    ``sorted_values[bounds[i]:bounds[i + 1]]``.  The assignment is a monotone
    step function of the value, and each of the ``k - 1`` crossovers is found
    by binary search using the *same* float64 distance comparison
    ``|v - c[i]| <= |v - c[i + 1]|`` that ``argmin`` (and
    :func:`_nearest_centroid_indices`) evaluates, ties preferring the left
    cluster — so the implied assignments are bit-identical while the cost per
    sweep drops from O(n) to O(k log n).
    """
    k = centroids.shape[0]
    n = sorted_values.shape[0]
    bounds = np.empty(k + 1, dtype=np.intp)
    bounds[0] = 0
    bounds[k] = n
    lo = 0
    for i in range(k - 1):
        left, right = centroids[i], centroids[i + 1]
        low, high = lo, n
        while low < high:
            mid = (low + high) // 2
            value = sorted_values[mid]
            if abs(value - left) <= abs(value - right):
                low = mid + 1
            else:
                high = mid
        bounds[i + 1] = low
        lo = low
    return bounds


def kmeans_codebook(
    values: np.ndarray,
    num_clusters: int,
    rng: np.random.Generator | int | None = None,
    max_iterations: int = 30,
    init: str = "linear",
) -> np.ndarray:
    """Cluster ``values`` into ``num_clusters`` centroids with Lloyd's algorithm.

    Deep Compression initialises the centroids linearly between the minimum
    and maximum weight (``init="linear"``), which the authors found preserves
    the long tails of the weight distribution better than random or
    density-based initialisation.  ``init="random"`` samples initial centroids
    from the data.

    The iteration runs on the *unique* values with their multiplicities:
    nearest-centroid assignment uses ``searchsorted`` on the sorted centroids
    (O(n log k) per iteration instead of the O(n·k) distance matrix) with
    ``argmin``'s exact tie-break semantics, and the centroid updates are
    count-weighted means via ``np.bincount``.  Initialisation and tie-breaks
    match the per-value reference implementation, so codebooks are unchanged
    (up to float summation order inside a cluster mean).

    Returns the sorted centroid array of length ``num_clusters``.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise CompressionError("cannot build a codebook from an empty value set")
    if num_clusters < 1:
        raise CompressionError(f"num_clusters must be >= 1, got {num_clusters}")
    rng = make_rng(rng)
    unique_values, unique_counts = np.unique(values, return_counts=True)
    if unique_values.size <= num_clusters:
        # Degenerate case: fewer distinct values than clusters.
        centroids = np.full(num_clusters, unique_values[-1], dtype=np.float64)
        centroids[: unique_values.size] = unique_values
        return np.sort(centroids)
    if init == "linear":
        centroids = np.linspace(values.min(), values.max(), num_clusters)
    elif init == "random":
        centroids = rng.choice(unique_values, size=num_clusters, replace=False)
    else:
        raise CompressionError(f"unknown init {init!r}; expected 'linear' or 'random'")
    centroids = np.sort(np.asarray(centroids, dtype=np.float64))
    counts = unique_counts.astype(np.float64)
    weighted_values = unique_values * counts
    # Counts are integers, so their per-cluster totals are exact under any
    # summation order — precompute one prefix sum and read each iteration's
    # member counts off the segment boundaries for free.
    counts_prefix = np.concatenate([[0.0], np.cumsum(counts)])
    cluster_ids = np.arange(num_clusters, dtype=np.int64)
    for _ in range(max_iterations):
        # Assign each distinct value to its nearest centroid, then update
        # every centroid to the multiplicity-weighted mean of its members.
        # The centroids are sorted, so when they are distinct the assignment
        # over the sorted unique values reduces to k - 1 binary-searched
        # crossovers (bit-identical to the elementwise nearest search, which
        # remains the fallback for the duplicate-centroid corner case).
        if np.any(centroids[1:] == centroids[:-1]):
            assignments = _nearest_centroid_indices(unique_values, centroids)
            member_counts = np.bincount(
                assignments, weights=counts, minlength=num_clusters
            )
        else:
            bounds = _sorted_cluster_bounds(unique_values, centroids)
            segment_sizes = np.diff(bounds)
            assignments = np.repeat(cluster_ids, segment_sizes)
            member_counts = counts_prefix[bounds[1:]] - counts_prefix[bounds[:-1]]
        member_sums = np.bincount(
            assignments, weights=weighted_values, minlength=num_clusters
        )
        occupied = member_counts > 0
        new_centroids = np.where(
            occupied, member_sums / np.where(occupied, member_counts, 1.0), centroids
        )
        new_centroids = np.sort(new_centroids)
        if np.allclose(new_centroids, centroids, rtol=0.0, atol=1e-12):
            centroids = new_centroids
            break
        centroids = new_centroids
    return centroids


@dataclass
class WeightCodebook:
    """A shared-weight table with a reserved zero entry.

    Attributes:
        centroids: the table ``S`` of shared weight values; ``centroids[0]``
            is always exactly ``0.0``.
        index_bits: number of bits per stored index (4 in the paper).
    """

    centroids: np.ndarray
    index_bits: int = 4

    def __post_init__(self) -> None:
        self.centroids = np.asarray(self.centroids, dtype=np.float64)
        if self.centroids.ndim != 1:
            raise CompressionError("centroids must be a 1-D array")
        if self.index_bits < 1:
            raise CompressionError(f"index_bits must be >= 1, got {self.index_bits}")
        if self.centroids.size > 2**self.index_bits:
            raise CompressionError(
                f"{self.centroids.size} centroids do not fit in {self.index_bits}-bit indices"
            )
        if self.centroids.size == 0 or self.centroids[0] != 0.0:
            raise CompressionError("centroids[0] must be the reserved zero entry")

    @classmethod
    def fit(
        cls,
        nonzero_values: np.ndarray,
        index_bits: int = 4,
        rng: np.random.Generator | int | None = None,
    ) -> "WeightCodebook":
        """Build a codebook for ``nonzero_values`` with a reserved zero entry.

        One of the ``2**index_bits`` entries is the reserved zero, leaving
        ``2**index_bits - 1`` k-means centroids for the non-zero weights (15
        shared weights in the paper's 4-bit configuration).
        """
        nonzero_values = np.asarray(nonzero_values, dtype=np.float64).ravel()
        nonzero_values = nonzero_values[nonzero_values != 0.0]
        if nonzero_values.size == 0:
            raise CompressionError("cannot fit a codebook: no non-zero weights")
        num_shared = 2**index_bits - 1
        centroids = kmeans_codebook(nonzero_values, num_shared, rng=rng)
        return cls(centroids=np.concatenate([[0.0], centroids]), index_bits=index_bits)

    @property
    def size(self) -> int:
        """Number of codebook entries."""
        return int(self.centroids.size)

    @property
    def zero_index(self) -> int:
        """Index of the reserved zero entry (always 0)."""
        return 0

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Map ``values`` to codebook indices (zeros map to the zero entry).

        Nearest-centroid search runs in O(n log k) via
        :func:`_nearest_centroid_indices`, bit-identical to the former
        O(n·k) ``argmin`` over the full distance matrix.
        """
        values = np.asarray(values, dtype=np.float64)
        flat = values.ravel()
        # Zeros map to the reserved zero entry by definition, so the nearest
        # search only ever runs on the non-zero values — on a pruned paper
        # layer that is ~10x fewer elements than the dense matrix.
        indices = np.zeros(flat.shape[0], dtype=np.int64)
        nonzero = np.flatnonzero(flat)
        if nonzero.size:
            indices[nonzero] = _nearest_centroid_indices(flat[nonzero], self.centroids)
        return indices.reshape(values.shape)

    def dequantize(self, indices: np.ndarray) -> np.ndarray:
        """Expand codebook indices back to shared weight values."""
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.size):
            raise CompressionError(
                f"indices must be in [0, {self.size - 1}], got range "
                f"[{indices.min()}, {indices.max()}]"
            )
        return self.centroids[indices]

    def quantization_error(self, values: np.ndarray) -> float:
        """Root-mean-square error introduced by weight sharing on ``values``."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return 0.0
        reconstructed = self.dequantize(self.quantize(values))
        return float(np.sqrt(np.mean((reconstructed - values) ** 2)))

    @property
    def storage_bits(self) -> int:
        """Bits needed to store the codebook itself (16-bit entries)."""
        return self.size * 16
