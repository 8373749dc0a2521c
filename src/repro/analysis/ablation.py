"""Per-point helpers for the codebook-size ablation.

The three design-choice ablations are registered experiments of
:mod:`repro.experiments`:

* ``ablation_index_width`` — the 4-bit **relative-index width** (which
  trades index storage against padding zeros when zero runs exceed
  ``2**bits - 1``);
* ``ablation_codebook_bits`` — the 4-bit **weight-sharing codebook** (which
  trades weight storage against reconstruction error);
* ``ablation_partitioning`` — the **row-interleaved workload partitioning**
  versus the column and 2-D alternatives discussed in Section VII-A.

This module holds the codebook ablation's weight population and its
per-point fit.
"""

from __future__ import annotations

import numpy as np

from repro.compression.quantization import WeightCodebook
from repro.utils.rng import make_rng

__all__ = [
    "codebook_bits_point",
    "codebook_population",
]


def codebook_population(num_weights: int, seed: int) -> tuple[np.ndarray, float]:
    """The Gaussian weight population the codebook ablation quantizes.

    Returns the non-zero weights and the normalisation scale (their standard
    deviation).
    """
    weights = make_rng(seed).normal(0.0, 0.05, size=num_weights)
    weights = weights[weights != 0.0]
    scale = float(np.std(weights)) or 1.0
    return weights, scale


def codebook_bits_point(
    nonzero_weights: np.ndarray, scale: float, bits: int, seed: int
) -> dict:
    """Fit one codebook size and measure its reconstruction error."""
    codebook = WeightCodebook.fit(nonzero_weights, index_bits=int(bits), rng=make_rng(seed))
    error = codebook.quantization_error(nonzero_weights)
    return {
        "weight_bits": int(bits),
        "codebook_entries": codebook.size,
        "rms_error": error,
        "relative_rms_error": error / scale,
        "weight_storage_bits_per_nonzero": float(bits),
    }
