"""Running compressed layers and models on the accelerator through ``Session``.

One layer is ``Session.compress`` then ``Session.run("functional"|"cycle")``;
a network is a :class:`~repro.models.ir.ModelIR` run with
``Session.run_model``.  These tests pin what a user of either path relies
on: outputs against the decoded-weights reference, the checks that refuse a
layer the configured array cannot hold, and EIE's energy rule.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EIEConfig
from repro.engine.session import Session
from repro.errors import ConfigurationError, SimulationError
from repro.hardware.area import chip_area_mm2, chip_energy_j, chip_power_w
from repro.models.ir import MatVecNode, ModelIR


@pytest.fixture
def session(small_config) -> Session:
    return Session(config=small_config)


def _random_sparse(rng, shape, density=0.15):
    weights = rng.normal(size=shape)
    weights[rng.random(shape) >= density] = 0.0
    weights[0, 0] = 0.5
    return weights


def _two_layer_model(rng, second_activation="relu") -> ModelIR:
    return ModelIR(
        [
            MatVecNode(name="fc1", weight=_random_sparse(rng, (24, 40))),
            MatVecNode(name="fc2", weight=_random_sparse(rng, (12, 24)),
                       activation=second_activation, source="fc1"),
        ],
        name="two_layer",
    )


class TestLoading:
    def test_compress_and_load_returns_layer(self, session, small_config, sparse_weights):
        layer = session.compress(sparse_weights, num_pes=small_config.num_pes, name="fc1")
        assert layer.name == "fc1"
        assert layer.num_pes == small_config.num_pes
        assert (layer.rows, layer.cols) == sparse_weights.shape

    def test_chained_layers_must_match_shapes(self, rng):
        nodes = [
            MatVecNode(name="fc1", weight=_random_sparse(rng, (24, 40))),
            MatVecNode(name="fc2", weight=_random_sparse(rng, (8, 30)), source="fc1"),
        ]
        with pytest.raises(ConfigurationError, match="columns"):
            ModelIR(nodes)

    def test_load_rejects_wrong_pe_count(self, session, small_config, sparse_weights,
                                         dense_activations):
        layer = session.compress(sparse_weights, num_pes=8)
        with pytest.raises(SimulationError, match="8 PEs"):
            session.run("functional", layer, dense_activations, config=small_config)

    def test_capacity_enforced(self, sparse_weights, dense_activations):
        tiny = EIEConfig(num_pes=4, spmat_sram_kb=0.001)
        session = Session(config=tiny)
        layer = session.compress(sparse_weights, num_pes=tiny.num_pes)
        with pytest.raises(SimulationError, match="Spmat SRAM"):
            session.run("functional", layer, dense_activations)

    def test_clear(self, session, small_config, sparse_weights):
        session.compress(sparse_weights, num_pes=small_config.num_pes)
        session.clear()
        assert session.cache_info()["layers"]["entries"] == 0


class TestExecution:
    def test_single_layer_run_matches_reference(self, session, small_config, sparse_weights,
                                                dense_activations):
        layer = session.compress(sparse_weights, num_pes=small_config.num_pes, name="fc")
        output = session.run("functional", layer, dense_activations).output
        expected = np.maximum(layer.dense_weights() @ dense_activations, 0.0)
        assert np.allclose(output, expected)

    def test_multi_layer_feed_forward(self, session, rng):
        model = _two_layer_model(rng, second_activation="identity")
        inputs = rng.uniform(0, 1, size=40)
        run = session.run_model("functional", model, inputs)
        layer1, layer2 = (record.layer for record in run.nodes)
        hidden = np.maximum(layer1.dense_weights() @ inputs, 0.0)
        expected = layer2.dense_weights() @ hidden
        assert len(run.nodes) == 2
        assert np.allclose(run.nodes[-1].result.output, expected)
        assert np.allclose(run.outputs[0], expected)

    def test_run_without_layers_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one node"):
            ModelIR([])

    def test_run_layer_index_checked(self, rng):
        model = _two_layer_model(rng)
        with pytest.raises(ConfigurationError, match="fc3"):
            model.node("fc3")

    def test_run_batch_equals_per_row_runs(self, session, rng):
        model = _two_layer_model(rng)
        batch = rng.uniform(0, 1, size=(5, 40))
        batch[rng.random((5, 40)) >= 0.5] = 0.0
        run = session.run_model("functional", model, batch)
        assert run.outputs.shape == (5, 12)
        for index, row in enumerate(batch):
            single = session.run_model("functional", model, row)
            assert np.array_equal(run.outputs[index], single.outputs[0])
            assert np.array_equal(
                run.nodes[-1].result.outputs[index], single.nodes[-1].result.output
            )

    def test_run_batch_requires_matrix_and_layers(self, session, rng):
        model = _two_layer_model(rng)
        with pytest.raises(ConfigurationError, match="vector or"):
            session.run_model("functional", model, np.zeros((2, 2, 40)))
        with pytest.raises(ConfigurationError, match="ModelIR"):
            session.run_model("functional", [], np.zeros((2, 40)))

    def test_repeated_compression_hits_session_cache(self, session, small_config,
                                                     sparse_weights):
        session.compress(sparse_weights, num_pes=small_config.num_pes, name="fc")
        first = session.cache_info()["layers"]
        session.compress(sparse_weights, num_pes=small_config.num_pes, name="fc")
        second = session.cache_info()["layers"]
        assert second["hits"] == first["hits"] + 1


class TestEstimation:
    def test_estimate_layer_consistency(self, session, small_config, sparse_weights,
                                        dense_activations):
        layer = session.compress(sparse_weights, num_pes=small_config.num_pes, name="fc")
        cycles = session.run("cycle", layer, dense_activations).stats
        functional = session.run("functional", layer, dense_activations).functional[0]
        performance = cycles.performance(layer.dense_weight_count)
        assert cycles.total_cycles > 0
        assert performance.time_s == pytest.approx(cycles.time_s)
        assert chip_energy_j(small_config.num_pes, cycles.time_s) > 0
        assert cycles.entries_processed == functional.total_entries_processed

    def test_estimate_without_functional_run(self, session, small_config, sparse_weights,
                                             dense_activations):
        """EIE's energy needs only the cycle run: chip power times its time."""
        layer = session.compress(sparse_weights, num_pes=small_config.num_pes)
        cycles = session.run("cycle", layer, dense_activations).stats
        assert chip_energy_j(small_config.num_pes, cycles.time_s) == (
            cycles.time_s * chip_power_w(small_config.num_pes)
        )

    def test_chip_power_and_area_scale_with_pes(self):
        assert chip_power_w(64) > chip_power_w(4)
        assert chip_area_mm2(64) > chip_area_mm2(4)
