"""Neural-network substrate: activations, LSTM, convolution and fixed point.

This package provides the numpy pieces the paper's workloads need beyond the
M x V nodes of :class:`~repro.models.ir.ModelIR`: the non-linearities those
nodes apply, an LSTM cell decomposed into the eight matrix-vector products
the paper describes, convolution lowerings (Section VII-C), and fixed-point
quantisation used for the arithmetic precision study (Figure 10).
"""

from repro.nn.convolution import (
    ConvWorkload,
    conv1x1_as_matvec,
    conv2d_via_im2col,
    direct_conv2d,
    im2col,
    winograd_conv2d_3x3,
    winograd_multiplication_savings,
)
from repro.nn.fixed_point import FixedPointFormat, quantization_snr_db
from repro.nn.layers import identity, relu, sigmoid, tanh
from repro.nn.lstm import LSTMCell, LSTMState

__all__ = [
    "ConvWorkload",
    "FixedPointFormat",
    "LSTMCell",
    "LSTMState",
    "conv1x1_as_matvec",
    "conv2d_via_im2col",
    "direct_conv2d",
    "identity",
    "im2col",
    "quantization_snr_db",
    "relu",
    "sigmoid",
    "tanh",
    "winograd_conv2d_3x3",
    "winograd_multiplication_savings",
]
