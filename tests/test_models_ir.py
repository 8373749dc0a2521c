"""Tests for the model IR: nodes, wiring, lowering rules and specs."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.models import (
    INPUT,
    MatVecNode,
    ModelIR,
    ModelSpec,
    conv_activation_batch,
)
from repro.nn.convolution import conv2d_via_im2col
from repro.nn.lstm import LSTM_GATE_NAMES, LSTMCell, LSTMState


def chain_model(rng: np.random.Generator, sizes=(12, 10, 8)) -> ModelIR:
    nodes = []
    previous = INPUT
    for index in range(len(sizes) - 1):
        nodes.append(
            MatVecNode(
                name=f"fc{index}",
                weight=rng.normal(size=(sizes[index + 1], sizes[index])),
                activation="relu" if index < len(sizes) - 2 else "identity",
                source=previous,
            )
        )
        previous = f"fc{index}"
    return ModelIR(nodes, name="chain")


class TestMatVecNode:
    def test_rejects_reserved_name(self, rng):
        with pytest.raises(ConfigurationError, match="input"):
            MatVecNode(name=INPUT, weight=rng.normal(size=(2, 3)))

    def test_rejects_unknown_activation(self, rng):
        with pytest.raises(ConfigurationError, match="activation"):
            MatVecNode(name="fc", weight=rng.normal(size=(2, 3)), activation="swish")

    def test_rejects_mismatched_bias(self, rng):
        with pytest.raises(ConfigurationError, match="bias"):
            MatVecNode(name="fc", weight=rng.normal(size=(2, 3)), bias=np.zeros(3))

    def test_rejects_slice_not_matching_columns(self, rng):
        with pytest.raises(ConfigurationError, match="input_slice"):
            MatVecNode(name="fc", weight=rng.normal(size=(2, 3)), input_slice=(0, 5))

    def test_forward_matches_manual(self, rng):
        node = MatVecNode(
            name="fc", weight=rng.normal(size=(4, 6)), bias=rng.normal(size=4),
            activation="relu",
        )
        x = rng.normal(size=6)
        expected = np.maximum(node.weight @ x + node.bias, 0.0)
        assert np.allclose(node.forward(x), expected)
        batch = rng.normal(size=(5, 6))
        assert np.allclose(node.forward(batch)[2], node.forward(batch[2]))


class TestModelWiring:
    def test_duplicate_names_rejected(self, rng):
        nodes = [
            MatVecNode(name="fc", weight=rng.normal(size=(4, 4))),
            MatVecNode(name="fc", weight=rng.normal(size=(4, 4)), source="fc"),
        ]
        with pytest.raises(ConfigurationError, match="duplicate"):
            ModelIR(nodes)

    def test_unknown_source_rejected(self, rng):
        with pytest.raises(ConfigurationError, match="sources"):
            ModelIR([MatVecNode(name="fc", weight=rng.normal(size=(4, 4)), source="ghost")])

    def test_forward_reference_rejected(self, rng):
        nodes = [
            MatVecNode(name="a", weight=rng.normal(size=(4, 4)), source="b"),
            MatVecNode(name="b", weight=rng.normal(size=(4, 4))),
        ]
        with pytest.raises(ConfigurationError, match="earlier node"):
            ModelIR(nodes)

    def test_size_mismatch_rejected(self, rng):
        nodes = [
            MatVecNode(name="a", weight=rng.normal(size=(4, 6))),
            MatVecNode(name="b", weight=rng.normal(size=(3, 5)), source="a"),
        ]
        with pytest.raises(ConfigurationError, match="columns"):
            ModelIR(nodes)

    def test_slice_out_of_range_rejected(self, rng):
        nodes = [
            MatVecNode(name="a", weight=rng.normal(size=(4, 6))),
            MatVecNode(name="b", weight=rng.normal(size=(3, 3)), source="a",
                       input_slice=(2, 5)),
        ]
        with pytest.raises(ConfigurationError, match="slices"):
            ModelIR(nodes)

    def test_inconsistent_full_input_sizes_rejected(self, rng):
        nodes = [
            MatVecNode(name="a", weight=rng.normal(size=(4, 6))),
            MatVecNode(name="b", weight=rng.normal(size=(4, 7))),
        ]
        with pytest.raises(ConfigurationError, match="model input"):
            ModelIR(nodes)

    def test_input_slice_past_full_input_node_rejected_in_any_order(self, rng):
        full = MatVecNode(name="full", weight=rng.normal(size=(4, 10)))
        sliced = MatVecNode(name="sliced", weight=rng.normal(size=(4, 20)),
                            input_slice=(0, 20))
        with pytest.raises(ConfigurationError, match="past the"):
            ModelIR([full, sliced])
        full = MatVecNode(name="full", weight=rng.normal(size=(4, 10)))
        sliced = MatVecNode(name="sliced", weight=rng.normal(size=(4, 20)),
                            input_slice=(0, 20))
        with pytest.raises(ConfigurationError, match="past the"):
            ModelIR([sliced, full])

    def test_output_names_are_unconsumed_nodes(self, rng):
        model = chain_model(rng)
        assert model.output_names == ("fc1",)
        assert model.input_size == 12 and model.output_size == 8

    def test_trace_applies_slices(self, rng):
        nodes = [
            MatVecNode(name="head", weight=rng.normal(size=(4, 3)),
                       activation="identity", input_slice=(0, 3)),
            MatVecNode(name="tail", weight=rng.normal(size=(2, 3)),
                       activation="identity", input_slice=(3, 6)),
        ]
        model = ModelIR(nodes, name="split")
        assert model.input_size == 6
        x = rng.normal(size=6)
        trace = model.trace(x)
        assert np.allclose(trace.node_outputs["head"], nodes[0].weight @ x[:3])
        assert np.allclose(trace.node_outputs["tail"], nodes[1].weight @ x[3:])

    def test_batched_trace_matches_vector_loop(self, rng):
        model = chain_model(rng)
        batch = rng.normal(size=(5, model.input_size))
        batched = model.trace(batch)
        for index, row in enumerate(batch):
            single = model.trace(row)
            for name in batched.node_outputs:
                assert np.allclose(batched.node_outputs[name][index],
                                   single.node_outputs[name])

    def test_fingerprint_changes_with_weights_and_wiring(self, rng):
        model = chain_model(rng)
        same = ModelIR([MatVecNode(name=n.name, weight=n.weight, activation=n.activation,
                                   source=n.source) for n in model], name="chain")
        assert model.fingerprint() == same.fingerprint()
        perturbed = chain_model(rng)
        assert model.fingerprint() != perturbed.fingerprint()

    def test_fingerprint_is_memoized_and_freezes_the_weights(self, rng):
        model = chain_model(rng)
        first = model.fingerprint()
        assert model.fingerprint() is first  # memoized, not recomputed
        # The hashed arrays are frozen so the memo cannot go stale silently.
        with pytest.raises(ValueError, match="read-only"):
            model.nodes[0].weight[0, 0] = 99.0

    def test_fingerprint_freezes_view_backed_weights_through_the_base(self, rng):
        kernels = rng.normal(size=(4, 3, 1, 1))
        model = ModelIR.from_conv(kernels, 5, 5)  # node weight is a reshape view
        model.fingerprint()
        with pytest.raises(ValueError, match="read-only"):
            kernels[0, 0, 0, 0] = 99.0  # writing the base must fail too

    def test_describe_is_json_serializable(self, rng):
        model = chain_model(rng)
        text = json.dumps(model.describe())
        assert "fc0" in text and "fc1" in text


class TestLowering:
    def test_from_lstm_per_gate_matches_gate_pre_activations(self, rng):
        cell = LSTMCell.random(9, 7, rng)
        model = ModelIR.from_lstm(cell, mode="per_gate")
        assert model.num_nodes == 4
        x, h = rng.normal(size=9), rng.normal(size=7)
        pre = cell.gate_pre_activations(x, LSTMState(hidden=h, cell=np.zeros(7)))
        trace = model.trace(np.concatenate([x, h]))
        for gate in LSTM_GATE_NAMES:
            assert np.allclose(trace.node_outputs[f"gate_{gate}"], pre[gate])

    def test_from_lstm_stacked_matches_stacked_matrix(self, rng):
        cell = LSTMCell.random(9, 7, rng)
        model = ModelIR.from_lstm(cell, mode="stacked")
        assert model.num_nodes == 1
        x = rng.normal(size=16)
        assert np.allclose(model.forward(x), cell.stacked_matrix() @ x)

    def test_from_lstm_rejects_unknown_mode(self, rng):
        cell = LSTMCell.random(4, 4, rng)
        with pytest.raises(ConfigurationError, match="mode"):
            ModelIR.from_lstm(cell, mode="unrolled")

    def test_from_conv_im2col_matches_reference_conv(self, rng):
        feature_map = rng.normal(size=(5, 8, 8))
        kernels = rng.normal(size=(6, 5, 3, 3))
        model = ModelIR.from_conv(kernels, 8, 8, activation="identity")
        batch = conv_activation_batch(feature_map, model)
        outputs = model.trace(batch).output  # (positions, C_out)
        reference = conv2d_via_im2col(feature_map, kernels)
        assert np.allclose(outputs.T.reshape(reference.shape), reference)

    def test_from_conv_rejects_bad_stride_and_padding(self, rng):
        kernels = rng.normal(size=(4, 3, 3, 3))
        with pytest.raises(ConfigurationError, match="stride"):
            ModelIR.from_conv(kernels, 8, 8, stride=0)
        with pytest.raises(ConfigurationError, match="padding"):
            ModelIR.from_conv(kernels, 8, 8, padding=-1)

    def test_conv_activation_batch_requires_conv_model(self, rng):
        model = chain_model(rng)
        with pytest.raises(ConfigurationError, match="from_conv"):
            conv_activation_batch(rng.normal(size=(3, 4, 4)), model)


class TestNpzRoundTrip:
    def test_round_trip_preserves_weights_biases_activations(self, rng, tmp_path):
        nodes = [
            MatVecNode(name="fc6", weight=rng.normal(size=(6, 9)), activation="relu",
                       bias=rng.normal(size=6)),
            MatVecNode(name="fc7", weight=rng.normal(size=(3, 6)),
                       activation="identity", source="fc6"),
        ]
        model = ModelIR(nodes, name="tiny")
        path = model.to_npz(tmp_path / "tiny.npz")
        loaded = ModelIR.from_npz(path)
        assert [n.name for n in loaded] == ["fc6", "fc7"]
        assert loaded.nodes[0].activation == "relu"
        assert loaded.nodes[1].activation == "identity"
        assert np.array_equal(loaded.nodes[0].bias, nodes[0].bias)
        x = rng.normal(size=9)
        assert np.allclose(loaded.forward(x), model.forward(x))

    def test_to_npz_rejects_non_chain_models(self, rng, tmp_path):
        nodes = [
            MatVecNode(name="a", weight=rng.normal(size=(4, 6))),
            MatVecNode(name="b", weight=rng.normal(size=(4, 6))),
        ]
        model = ModelIR(nodes)
        with pytest.raises(ConfigurationError, match="chain"):
            model.to_npz(tmp_path / "fan.npz")

    def test_to_npz_without_suffix_returns_the_written_path(self, rng, tmp_path):
        model = chain_model(rng)
        path = model.to_npz(tmp_path / "no-suffix")
        assert path.exists() and path.suffix == ".npz"
        loaded = ModelIR.from_npz(path)
        assert loaded.fingerprint() == model.fingerprint()

    def test_from_npz_without_weight_members_fails(self, tmp_path):
        path = tmp_path / "empty.npz"
        np.savez(path, other=np.zeros(3))
        with pytest.raises(ConfigurationError, match="weight"):
            ModelIR.from_npz(path)


class TestModelSpec:
    def test_json_round_trip(self):
        spec = ModelSpec(model="neuraltalk_lstm", scale=16, seed=3,
                         params={"mode": "stacked"})
        assert ModelSpec.from_json(spec.to_json()) == spec

    def test_unknown_keys_rejected_by_name(self):
        with pytest.raises(ConfigurationError, match="bogus"):
            ModelSpec.from_dict({"model": "alexnet_fc", "bogus": 1})

    def test_invalid_scale_rejected(self):
        with pytest.raises(ConfigurationError, match="scale"):
            ModelSpec(model="alexnet_fc", scale=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("scale", float("nan"), id="scale-nan"),
            pytest.param("scale", float("inf"), id="scale-inf"),
            pytest.param("scale", True, id="scale-bool"),
            pytest.param("scale", "64", id="scale-str"),
            pytest.param("seed", 1.5, id="seed-float"),
            pytest.param("seed", True, id="seed-bool"),
        ],
    )
    def test_non_finite_scale_and_non_integer_seed_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ModelSpec(model="alexnet_fc", **{field: value})

    def test_merged_overlays_scalars_and_params(self):
        defaults = ModelSpec(model="m", scale=8, seed=7, params={"mode": "per_gate"})
        override = ModelSpec(model="m", scale=2, params={"extra": 1})
        merged = defaults.merged(override)
        assert merged.scale == 2 and merged.seed == 7
        assert merged.params == {"mode": "per_gate", "extra": 1}

    def test_merged_rejects_different_model(self):
        with pytest.raises(ConfigurationError, match="merge"):
            ModelSpec(model="a").merged(ModelSpec(model="b"))
