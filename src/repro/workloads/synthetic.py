"""Synthetic sparse matrices and activation vectors.

The paper notes (Section VII-A) that both the weight and the activation
sparsity of its workloads are approximately randomly distributed, so
Bernoulli-sampled patterns with the Table III densities exercise the same
code paths and produce the same load-balance and padding-zero behaviour as
the real pruned networks.  All generation is deterministic given the seed in
the :class:`~repro.workloads.benchmarks.LayerSpec`.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError
from repro.utils.parallel import run_parts, split_parts
from repro.utils.rng import make_rng
from repro.workloads.benchmarks import LayerSpec

__all__ = [
    "SparsePattern",
    "generate_sparse_pattern",
    "generate_activations",
    "generate_dense_weights",
]

#: Fewest draws for which :func:`generate_sparse_pattern` splits over two
#: threads.  On 2 cores a two-part draw took 0.94-1.10x the serial time at
#: 2**20 draws and 0.76-0.80x at 2**21; the smallest Table III layer
#: (NT-We) draws 2.46M, so every Table III pattern splits.
_SPLIT_DRAWS = 2**20


@dataclass
class SparsePattern:
    """Column-compressed description of a sparsity pattern (no values).

    Attributes:
        row_indices: row index of every non-zero, grouped by column with rows
            sorted ascending within each column.  Generated patterns store
            them as int16 when ``rows <= 2**15`` (every Table III layer) and
            as int32 otherwise: the nine Table III patterns take ~26 MB
            instead of ~102 MB as int64.
        col_ptr: length ``num_cols + 1`` offsets into ``row_indices``.
        shape: dense ``(rows, cols)``.
    """

    row_indices: np.ndarray
    col_ptr: np.ndarray
    shape: tuple[int, int]

    @property
    def rows(self) -> int:
        """Dense row count."""
        return self.shape[0]

    @property
    def cols(self) -> int:
        """Dense column count."""
        return self.shape[1]

    @property
    def nnz(self) -> int:
        """Number of non-zero positions."""
        return int(self.row_indices.shape[0])

    @property
    def density(self) -> float:
        """Fraction of non-zero positions."""
        total = self.rows * self.cols
        return self.nnz / total if total else 0.0

    def column_nnz(self) -> np.ndarray:
        """Non-zero count per column."""
        return np.diff(self.col_ptr)

    def column_rows(self, column: int) -> np.ndarray:
        """Row indices of the non-zeros in ``column``."""
        if not 0 <= column < self.cols:
            raise WorkloadError(f"column {column} out of range [0, {self.cols})")
        start, end = self.col_ptr[column], self.col_ptr[column + 1]
        return self.row_indices[start:end]

    def to_dense_mask(self) -> np.ndarray:
        """Boolean dense mask (only sensible for small patterns)."""
        mask = np.zeros(self.shape, dtype=bool)
        columns = np.repeat(np.arange(self.cols), self.column_nnz())
        mask[self.row_indices, columns] = True
        return mask


def generate_sparse_pattern(
    rows: int,
    cols: int,
    density: float,
    rng: np.random.Generator | int | None = None,
    column_block: int = 256,
) -> SparsePattern:
    """Sample a Bernoulli(``density``) sparsity pattern of shape (rows, cols).

    Columns are drawn ``column_block`` at a time, each block as one
    ``(rows, width)`` array of uniform doubles in C order, to bound peak
    memory for the large VGG-6 matrix (4096 x 25088).  Position ``(i, j)`` is
    a non-zero when its double is below ``density``.

    From 2**20 draws, on a PCG64 or PCG64DXSM generator and a host with two
    usable CPUs, the columns split at a block boundary into two halves
    sampled on two threads.  The first
    half draws from ``rng`` itself, the second from a copy of its bit
    generator advanced past the first half's ``rows * split`` doubles, and
    every block keeps its serial width, so each double lands where the
    serial loop would put it and the pattern is bit for bit the serial one.
    Either way ``rng`` ends ``rows * cols`` doubles on, with any buffered
    32-bit half it held kept.  Other bit generators always run serially.
    """
    if rows < 1 or cols < 1:
        raise WorkloadError("rows and cols must be >= 1")
    if not 0.0 < density <= 1.0:
        raise WorkloadError(f"density must be in (0, 1], got {density}")
    if column_block < 1:
        raise WorkloadError(f"column_block must be >= 1, got {column_block}")
    parts = split_parts(rows * cols, _SPLIT_DRAWS)
    return _sample_pattern(rows, cols, density, make_rng(rng), column_block, parts)


def _sample_pattern(
    rows: int,
    cols: int,
    density: float,
    rng: np.random.Generator,
    column_block: int,
    parts: int,
) -> SparsePattern:
    """:func:`generate_sparse_pattern`'s body, split into up to ``parts`` parts."""
    bit_generator = rng.bit_generator
    num_blocks = -(-cols // column_block)
    # Only the PCG64 family's ``advance(n)`` skips exactly the n doubles
    # that ``random`` would consume; any other generator samples serially.
    if not isinstance(bit_generator, (np.random.PCG64, np.random.PCG64DXSM)):
        parts = 1
    parts = min(parts, num_blocks)
    bounds = [min(cols, num_blocks * part // parts * column_block) for part in range(parts + 1)]
    width = min(column_block, cols)
    row_dtype = np.dtype(np.int16 if rows <= 2**15 else np.int32)
    column_counts = np.zeros(cols, dtype=np.int64)
    tasks = []
    for start, end in zip(bounds, bounds[1:]):
        part_rng = rng
        if start:
            part_generator = copy.deepcopy(bit_generator)
            part_generator.advance(rows * start)
            part_rng = np.random.Generator(part_generator)
        # The caller allocates every part's draw, mask and transposed-mask
        # buffers, so a worker thread's malloc arena never holds one.
        buffers = (
            np.empty(rows * width),
            np.empty(rows * width, dtype=bool),
            np.empty(rows * width, dtype=bool),
        )
        tasks.append(functools.partial(
            _sample_columns, part_rng, rows, start, end, density, column_block, row_dtype,
            column_counts, buffers,
        ))
    chunks = [chunk for part in run_parts(tasks) for chunk in part]
    if parts > 1:
        # Move the caller's generator, which drew the first part, past the
        # rest.  ``advance`` also drops the buffered 32-bit half of a word,
        # which double draws never touch, so put it back.
        kept = bit_generator.state
        bit_generator.advance(rows * (cols - bounds[1]))
        state = bit_generator.state
        state["has_uint32"] = kept["has_uint32"]
        state["uinteger"] = kept["uinteger"]
        bit_generator.state = state
    row_indices = np.concatenate(chunks)
    col_ptr = np.zeros(cols + 1, dtype=np.int64)
    np.cumsum(column_counts, out=col_ptr[1:])
    return SparsePattern(row_indices=row_indices, col_ptr=col_ptr, shape=(rows, cols))


def _sample_columns(
    rng: np.random.Generator,
    rows: int,
    start: int,
    end: int,
    density: float,
    column_block: int,
    row_dtype: np.dtype,
    column_counts: np.ndarray,
    buffers: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> list[np.ndarray]:
    """Row indices of columns ``[start, end)``, one chunk per block.

    Writes the columns' non-zero counts into ``column_counts[start:end]``;
    ``buffers`` are flat draw, mask and transposed-mask buffers, each long
    enough for one block.
    """
    draws, mask, transposed = buffers
    chunks = []
    for block_start in range(start, end, column_block):
        width = min(column_block, end - block_start)
        block = draws[: rows * width].reshape(rows, width)
        rng.random(out=block)
        block_mask = mask[: rows * width].reshape(rows, width)
        np.less(block, density, out=block_mask)
        # A contiguous transpose copy groups the non-zeros by column with
        # rows ascending — exactly the ordering SparsePattern requires — and
        # makes the non-zero scan run over contiguous memory.
        block_t = transposed[: rows * width].reshape(width, rows)
        np.copyto(block_t, block_mask.T)
        column_counts[block_start : block_start + width] = np.count_nonzero(block_t, axis=1)
        positions = np.flatnonzero(block_t)
        chunks.append(np.remainder(positions, rows, out=positions).astype(row_dtype))
    return chunks


def generate_activations(
    size: int,
    density: float,
    rng: np.random.Generator | int | None = None,
    distribution: str = "uniform",
) -> np.ndarray:
    """Sample an activation vector with roughly ``density`` non-zeros.

    Non-zero values are positive (post-ReLU activations), drawn either
    uniformly from (0, 1] or from the positive half of a normal distribution.
    """
    if size < 1:
        raise WorkloadError(f"size must be >= 1, got {size}")
    if not 0.0 < density <= 1.0:
        raise WorkloadError(f"density must be in (0, 1], got {density}")
    rng = make_rng(rng)
    mask = rng.random(size) < density
    if not mask.any():
        mask[rng.integers(0, size)] = True
    if distribution == "uniform":
        values = rng.uniform(0.1, 1.0, size=size)
    elif distribution == "normal":
        values = np.abs(rng.normal(0.0, 1.0, size=size)) + 1e-3
    else:
        raise WorkloadError(f"unknown distribution {distribution!r}")
    return np.where(mask, values, 0.0)


def generate_dense_weights(
    spec: LayerSpec,
    rng: np.random.Generator | int | None = None,
    scale: float = 0.1,
) -> np.ndarray:
    """Materialise a dense weight matrix with the spec's sparsity pattern.

    Only intended for layers small enough to hold densely (tests, examples,
    and the scaled-down benchmark variants); values are Gaussian.
    """
    rng = make_rng(spec.weight_seed if rng is None else rng)
    pattern = generate_sparse_pattern(spec.rows, spec.cols, spec.weight_density, rng)
    weights = np.zeros((spec.rows, spec.cols), dtype=np.float64)
    columns = np.repeat(np.arange(spec.cols), pattern.column_nnz())
    weights[pattern.row_indices, columns] = rng.normal(0.0, scale, size=pattern.nnz)
    # Guarantee the matrix is not all-zero even at tiny sizes/densities.
    if not np.count_nonzero(weights):
        weights[0, 0] = scale
    return weights
