"""Model builders for the paper's networks.

These helpers construct the networks the paper's benchmarks come from — the
fully-connected tails of AlexNet and VGG-16 as :class:`~repro.models.ir.ModelIR`
chains, and the NeuralTalk LSTM cell — with synthetic weights at the Table III
densities.  They are sized by a scale factor so the examples run in seconds
on a laptop while preserving the structure (layer chaining, ReLU sparsity,
LSTM gate decomposition).
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import WorkloadError
from repro.nn.lstm import LSTM_GATE_NAMES, LSTMCell
from repro.utils.rng import derive_seed, make_rng
from repro.workloads.benchmarks import ALL_BENCHMARKS
from repro.workloads.synthetic import generate_dense_weights

if TYPE_CHECKING:
    from repro.models.ir import ModelIR

__all__ = [
    "build_alexnet_fc_network",
    "build_vgg_fc_network",
    "build_neuraltalk_lstm",
]


def _fc_tail(names: list[str], scale: float, seed: int | None, name: str) -> "ModelIR":
    """Shared FC6 -> FC7 -> FC8 tail builder for AlexNet and VGG-16.

    Each layer becomes one :class:`~repro.models.ir.MatVecNode` fed by the
    previous one: ReLU on every node but the last, which is linear.
    ``seed=None`` keeps the benchmarks' canonical deterministic patterns;
    an explicit seed re-derives every layer's pattern from it (for variance
    studies across synthetic weight draws).
    """
    # repro.models imports this module through its catalog.
    from repro.models.ir import INPUT, MatVecNode, ModelIR

    nodes: list[MatVecNode] = []
    for index, layer in enumerate(names):
        spec = ALL_BENCHMARKS[layer].scaled(scale)
        if nodes:
            # Force the chain to be connectable after integer rounding.
            spec = replace(spec, input_size=nodes[-1].rows)
        if seed is not None:
            spec = replace(spec, seed=derive_seed(seed, spec.name))
        nodes.append(
            MatVecNode(
                name=spec.name,
                weight=generate_dense_weights(spec),
                activation="relu" if index < len(names) - 1 else "identity",
                source=nodes[-1].name if nodes else INPUT,
            )
        )
    return ModelIR(nodes, name=name,
                   input_density=ALL_BENCHMARKS[names[0]].activation_density)


def build_alexnet_fc_network(scale: float = 32.0, seed: int | None = None) -> "ModelIR":
    """The FC6 -> FC7 -> FC8 tail of compressed AlexNet, scaled by ``scale``."""
    return _fc_tail(["Alex-6", "Alex-7", "Alex-8"], scale, seed, "alexnet_fc")


def build_vgg_fc_network(scale: float = 32.0, seed: int | None = None) -> "ModelIR":
    """The FC6 -> FC7 -> FC8 tail of compressed VGG-16, scaled by ``scale``."""
    return _fc_tail(["VGG-6", "VGG-7", "VGG-8"], scale, seed, "vgg_fc")


def build_neuraltalk_lstm(scale: float = 8.0, seed: int = 7) -> LSTMCell:
    """A NeuralTalk-style LSTM cell with sparse gate matrices.

    The full NT-LSTM benchmark stacks the gate matrices into a 1201 x 2400
    layer; this builder produces the cell form (hidden size 600 / input size
    600 at scale 1) with each gate matrix pruned to the NT-LSTM density.
    """
    if scale <= 0:
        raise WorkloadError(f"scale must be > 0, got {scale}")
    spec = ALL_BENCHMARKS["NT-LSTM"]
    hidden = max(8, int(round(600 / scale)))
    inputs = max(8, int(round(600 / scale)))
    density = spec.weight_density
    input_weights: dict[str, np.ndarray] = {}
    recurrent_weights: dict[str, np.ndarray] = {}
    for gate in LSTM_GATE_NAMES:
        w_rng = make_rng(derive_seed(seed, "W", gate))
        u_rng = make_rng(derive_seed(seed, "U", gate))
        w = w_rng.normal(0.0, 0.1, size=(hidden, inputs))
        u = u_rng.normal(0.0, 0.1, size=(hidden, hidden))
        w[w_rng.random(w.shape) >= density] = 0.0
        u[u_rng.random(u.shape) >= density] = 0.0
        if not np.count_nonzero(w):
            w[0, 0] = 0.1
        if not np.count_nonzero(u):
            u[0, 0] = 0.1
        input_weights[gate] = w
        recurrent_weights[gate] = u
    return LSTMCell(input_weights=input_weights, recurrent_weights=recurrent_weights)
