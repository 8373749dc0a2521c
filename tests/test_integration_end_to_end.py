"""Integration tests spanning compression, simulation and analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.roofline import RooflinePlatform
from repro.baselines.specs import CPU_CORE_I7_5930K
from repro.compression import CompressionConfig, DeepCompressor
from repro.core import EIEConfig, FunctionalEIE
from repro.engine.session import Session
from repro.hardware.area import chip_energy_j
from repro.models.ir import INPUT, MatVecNode, ModelIR
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.generator import WorkloadBuilder
from repro.workloads.models import build_alexnet_fc_network
from repro.workloads.synthetic import generate_activations, generate_dense_weights


class TestCompressedNetworkEndToEnd:
    """Compress a scaled AlexNet FC tail and run it on EIE end to end."""

    @pytest.fixture(scope="class")
    def model(self):
        return build_alexnet_fc_network(scale=96)

    @pytest.fixture(scope="class")
    def session(self):
        return Session(CompressionConfig(), config=EIEConfig(num_pes=8))

    def test_eie_matches_compressed_software_network(self, model, session):
        rng = np.random.default_rng(11)
        inputs = np.maximum(rng.normal(size=model.input_size), 0.0)
        run = session.run_model("functional", model, inputs)
        # The software reference runs the *decoded* compressed weights.
        reference = inputs
        for record, node in zip(run.nodes, model):
            pre = record.layer.dense_weights() @ reference
            reference = np.maximum(pre, 0.0) if node.activation == "relu" else pre
        assert np.allclose(run.nodes[-1].result.output, reference)
        assert np.allclose(run.outputs[0], reference)

    def test_relu_sparsity_reduces_downstream_work(self, model, session):
        rng = np.random.default_rng(12)
        inputs = np.maximum(rng.normal(size=model.input_size), 0.0)
        run = session.run_model("functional", model, inputs)
        # The second layer must broadcast exactly the non-zero outputs the
        # first layer's ReLU left.
        first, second = run.nodes[0], run.nodes[1]
        assert second.result.functional[0].broadcasts == np.count_nonzero(
            run.node_outputs[first.name]
        )
        assert second.result.functional[0].broadcasts == np.count_nonzero(
            first.result.output
        )

    def test_compression_accuracy_close_to_dense(self, model, session):
        rng = np.random.default_rng(13)
        inputs = np.maximum(rng.normal(size=model.input_size), 0.0)
        dense_out = model.forward(inputs)
        eie_out = session.run_model("functional", model, inputs).nodes[-1].result.output
        # Weight sharing introduces bounded error; outputs stay correlated.
        if np.linalg.norm(dense_out) > 0:
            correlation = float(
                np.dot(dense_out, eie_out)
                / (np.linalg.norm(dense_out) * np.linalg.norm(eie_out) + 1e-12)
            )
            assert correlation > 0.9


class TestBenchmarkPipelineSmallScale:
    """Run one scaled Table III benchmark through every model layer."""

    @pytest.fixture(scope="class")
    def spec(self):
        return get_benchmark("Alex-7").scaled(64)

    def test_functional_and_cycle_models_agree_on_work(self, spec):
        config = EIEConfig(num_pes=8)
        weights = generate_dense_weights(spec)
        layer = DeepCompressor().compress(weights, num_pes=config.num_pes, name=spec.name)
        activations = generate_activations(spec.cols, spec.activation_density, rng=3)
        functional = FunctionalEIE(layer, config).run(activations)
        cycle = Session(config=config).run("cycle", layer, activations).stats
        assert functional.total_entries_processed == cycle.entries_processed
        assert functional.broadcasts == cycle.broadcasts

    def test_eie_beats_cpu_baseline_on_scaled_layer(self, spec):
        config = EIEConfig(num_pes=16)
        workload = WorkloadBuilder().build(spec, config.num_pes)
        eie_time = workload.simulate(config).time_s
        cpu_time = RooflinePlatform(CPU_CORE_I7_5930K).dense_time_s(spec, batch=1)
        assert cpu_time / eie_time > 10.0

    def test_energy_advantage_larger_than_speed_advantage(self, spec):
        config = EIEConfig(num_pes=16)
        workload = WorkloadBuilder().build(spec, config.num_pes)
        eie_time = workload.simulate(config).time_s
        cpu_time = RooflinePlatform(CPU_CORE_I7_5930K).dense_time_s(spec, batch=1)
        eie_energy = chip_energy_j(config.num_pes, eie_time)
        cpu_energy = cpu_time * CPU_CORE_I7_5930K.power_w
        assert cpu_energy / eie_energy > cpu_time / eie_time


class TestMultiLayerNetworkConsistency:
    def test_network_output_independent_of_pe_count(self, rng):
        weights1 = rng.normal(size=(32, 48)) * (rng.random((32, 48)) < 0.2)
        weights2 = rng.normal(size=(16, 32)) * (rng.random((16, 32)) < 0.2)
        weights1[0, 0] = weights2[0, 0] = 0.3
        model = ModelIR([
            MatVecNode(name="fc1", weight=weights1),
            MatVecNode(name="fc2", weight=weights2, source="fc1"),
        ])
        inputs = rng.uniform(0, 1, size=48)
        outputs = []
        for num_pes in (1, 2, 8):
            session = Session(config=EIEConfig(num_pes=num_pes))
            outputs.append(session.run_model("functional", model, inputs).nodes[-1].result.output)
        assert np.allclose(outputs[0], outputs[1])
        assert np.allclose(outputs[0], outputs[2])

    def test_software_network_and_accelerator_share_structure(self, rng):
        nodes = [
            MatVecNode(name="a", weight=rng.normal(size=(24, 30)) * (rng.random((24, 30)) < 0.3),
                       activation="relu", source=INPUT),
            MatVecNode(name="b", weight=rng.normal(size=(10, 24)) * (rng.random((10, 24)) < 0.3),
                       activation="identity", source="a"),
        ]
        for node in nodes:
            node.weight[0, 0] = 0.4
        model = ModelIR(nodes)
        compressed = Session().compress_model(model, num_pes=4)
        loaded = [compressed.layer(node.name) for node in compressed.model]
        assert len(loaded) == len(model.nodes)
        assert loaded[0].cols == model.input_size
        assert loaded[-1].rows == model.output_size
        assert [layer.activation_name for layer in loaded] == ["relu", "identity"]
