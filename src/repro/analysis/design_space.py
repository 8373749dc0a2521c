"""Design-space exploration helpers: Figures 8, 9 and 10.

The sweeps themselves are the ``"fig8_fifo_depth"``, ``"fig9_sram_width"``
and ``"fig10_precision"`` experiments of :mod:`repro.experiments`; this
module holds their default sweep ranges and the Figure 10 proxy model:

* Figure 8 — load-balance efficiency versus activation queue depth.
  Diminishing returns beyond a depth of 8.
* Figure 9 — number of Spmat SRAM reads, energy per read and total read
  energy versus interface width.  64 bits minimises the total energy.
* Figure 10 — prediction-accuracy proxy and multiplier energy versus
  arithmetic precision.  Because ImageNet is not available offline, accuracy
  is modelled as the float32 reference accuracy multiplied by the fraction
  of inputs whose arg-max prediction is unchanged under quantisation; the
  multiply energies come from the Table I-derived figures quoted in the
  paper.  16-bit fixed point is within a fraction of a percent of float
  while 8-bit collapses.
"""

from __future__ import annotations

import numpy as np

from repro.nn.fixed_point import FixedPointFormat

__all__ = [
    "DEFAULT_FIFO_DEPTHS",
    "DEFAULT_SRAM_WIDTHS",
]

#: FIFO depths swept in Figure 8.
DEFAULT_FIFO_DEPTHS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)
#: SRAM interface widths swept in Figure 9.
DEFAULT_SRAM_WIDTHS: tuple[int, ...] = (32, 64, 128, 256, 512)
#: Baseline ImageNet top-1-style accuracy of the float32 model (Figure 10).
FLOAT32_REFERENCE_ACCURACY = 0.803


def _build_proxy_classifier(
    input_size: int, hidden_size: int, classes: int, rng: np.random.Generator
) -> list[tuple[np.ndarray, str]]:
    """A small FC classifier standing in for the AlexNet FC stack.

    Returned as ``(weight, activation)`` pairs: a ReLU hidden layer, then
    linear logits.
    """
    hidden = rng.normal(0.0, 0.12, size=(hidden_size, input_size))
    logits = rng.normal(0.0, 0.12, size=(classes, hidden_size))
    return [(hidden, "relu"), (logits, "identity")]


def _quantized_forward(
    layers: list[tuple[np.ndarray, str]], inputs: np.ndarray, fmt: FixedPointFormat | None
) -> np.ndarray:
    """Forward pass with weights and activations quantised to ``fmt``."""
    current = inputs if fmt is None else fmt.quantize(inputs)
    for weight, activation in layers:
        if fmt is not None:
            weight = fmt.quantize(weight)
        pre = weight @ current
        if fmt is not None:
            pre = fmt.quantize(pre)
        current = np.maximum(pre, 0.0) if activation == "relu" else pre
    return current
