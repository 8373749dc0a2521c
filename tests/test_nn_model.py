"""Tests for a feed-forward chain of fully-connected nodes in ModelIR."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models import INPUT, MatVecNode, ModelIR
from repro.models.compressed import measured_density


def _make_network(rng: np.random.Generator) -> ModelIR:
    first = MatVecNode(name="l1", weight=rng.normal(size=(6, 8)), activation="relu",
                       source=INPUT)
    second = MatVecNode(name="l2", weight=rng.normal(size=(4, 6)), activation="identity",
                        source="l1")
    return ModelIR([first, second], name="net")


class TestFeedForwardNetwork:
    def test_forward_matches_manual_composition(self, rng):
        network = _make_network(rng)
        inputs = rng.normal(size=8)
        expected = network.nodes[1].forward(network.nodes[0].forward(inputs))
        assert np.array_equal(network.forward(inputs), expected)
        assert np.array_equal(network(inputs), expected)

    def test_trace_records_all_activations(self, rng):
        network = _make_network(rng)
        inputs = rng.normal(size=8)
        trace = network.trace(inputs)
        assert list(trace.node_outputs) == ["l1", "l2"]
        assert trace.output.shape == (4,)
        assert np.array_equal(trace.node_output("l1"), network.nodes[0].forward(inputs))
        second_input = network.node_input(network.nodes[1], inputs, trace.node_outputs)
        assert np.array_equal(second_input, trace.node_output("l1"))
        assert np.array_equal(
            network.node_input(network.nodes[0], inputs, trace.node_outputs), trace.inputs
        )

    def test_activation_density_after_relu(self, rng):
        network = _make_network(rng)
        inputs = rng.normal(size=8)
        trace = network.trace(inputs)
        density = measured_density(trace.node_output("l1"))
        pre_activation = network.nodes[0].weight @ inputs
        assert 0.0 <= density <= 1.0
        assert density == pytest.approx(np.mean(pre_activation > 0))

    def test_size_properties(self, rng):
        network = _make_network(rng)
        assert network.input_size == 8
        assert network.output_size == 4
        assert network.num_parameters == network.total_macs == 6 * 8 + 4 * 6
        assert len(network) == network.num_nodes == 2
        biased = ModelIR([MatVecNode(name="fc", weight=np.eye(3), bias=np.ones(3))])
        assert biased.num_parameters == 9 + 3 and biased.total_macs == 9

    def test_mismatched_layers_rejected(self, rng):
        first = MatVecNode(name="l1", weight=rng.normal(size=(6, 8)))
        second = MatVecNode(name="l2", weight=rng.normal(size=(4, 5)), source="l1")
        with pytest.raises(ConfigurationError, match="columns"):
            ModelIR([first, second])

    def test_empty_network_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one node"):
            ModelIR([])

    def test_wrong_input_length_rejected(self, rng):
        network = _make_network(rng)
        with pytest.raises(ConfigurationError, match="model input"):
            network.forward(np.zeros(9))

    def test_iteration(self, rng):
        network = _make_network(rng)
        assert [layer.name for layer in network] == ["l1", "l2"]
