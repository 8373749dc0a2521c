"""Benchmark workloads: the nine Table III layers and synthetic generators.

The paper evaluates EIE on nine fully-connected layers taken from compressed
AlexNet, VGG-16 and NeuralTalk models.  Because the trained/pruned weights
themselves are not needed to reproduce the accelerator's behaviour — only the
layer shapes, weight densities and activation densities matter — this package
describes each benchmark as a :class:`~repro.workloads.benchmarks.LayerSpec`
and generates deterministic synthetic sparsity patterns with those statistics.
"""

from repro.workloads.benchmarks import (
    ALL_BENCHMARKS,
    BENCHMARK_NAMES,
    LayerSpec,
    get_benchmark,
    scaled_benchmarks,
)
from repro.workloads.generator import LayerWorkload, WorkloadBuilder
from repro.workloads.models import (
    build_alexnet_fc_network,
    build_neuraltalk_lstm,
    build_vgg_fc_network,
    random_dense_layer,
)
from repro.workloads.synthetic import (
    SparsePattern,
    generate_activations,
    generate_dense_weights,
    generate_sparse_pattern,
)

__all__ = [
    "ALL_BENCHMARKS",
    "BENCHMARK_NAMES",
    "LayerSpec",
    "LayerWorkload",
    "SparsePattern",
    "WorkloadBuilder",
    "build_alexnet_fc_network",
    "build_neuraltalk_lstm",
    "build_vgg_fc_network",
    "generate_activations",
    "generate_dense_weights",
    "generate_sparse_pattern",
    "get_benchmark",
    "random_dense_layer",
    "scaled_benchmarks",
]
