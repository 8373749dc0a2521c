"""Tests for the I/O-mode (DMA loading) and activation-batching models."""

from __future__ import annotations

import pytest

from repro.core.config import EIEConfig
from repro.core.io_model import (
    DMAModel,
    activation_batches,
    activation_sram_overhead_cycles,
)
from repro.errors import ConfigurationError


class TestDMAModel:
    def test_layer_load_cost_matches_storage(self, compressed_layer, small_config):
        cost = DMAModel(bandwidth_gbs=4.0).layer_load_cost(compressed_layer, small_config)
        expected_bytes = -(-compressed_layer.storage_bits(small_config.pointer_bits) // 8)
        assert cost.bytes_transferred == expected_bytes
        assert cost.transfer_time_s == pytest.approx(expected_bytes / 4e9)
        assert cost.cycles >= 1

    def test_faster_link_loads_faster(self, compressed_layer, small_config):
        slow = DMAModel(bandwidth_gbs=1.0).layer_load_cost(compressed_layer, small_config)
        fast = DMAModel(bandwidth_gbs=8.0).layer_load_cost(compressed_layer, small_config)
        assert fast.transfer_time_s < slow.transfer_time_s
        assert fast.bytes_transferred == slow.bytes_transferred

    def test_network_load_cost_sums_layers(self, compressed_layer, small_config):
        dma = DMAModel()
        single = dma.layer_load_cost(compressed_layer, small_config)
        network = dma.network_load_cost([compressed_layer, compressed_layer], small_config)
        assert network.bytes_transferred == 2 * single.bytes_transferred
        assert network.transfer_time_s == pytest.approx(2 * single.transfer_time_s)

    def test_amortization(self, compressed_layer, small_config):
        cost = DMAModel().layer_load_cost(compressed_layer, small_config)
        assert cost.amortized_over(1000) == pytest.approx(cost.transfer_time_s / 1000)
        with pytest.raises(ConfigurationError):
            cost.amortized_over(0)

    def test_load_is_one_time_cost_versus_inference(self, compressed_layer, small_config,
                                                    dense_activations):
        # Amortised over a realistic number of inferences, loading is negligible
        # compared to the per-inference compute time — the paper's argument for
        # ignoring the I/O mode in Table IV.
        from repro.engine import Session

        load = DMAModel().layer_load_cost(compressed_layer, small_config)
        inference = Session(config=small_config).run(
            "cycle", compressed_layer, dense_activations
        ).stats
        assert load.amortized_over(100_000) < inference.time_s

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigurationError):
            DMAModel(bandwidth_gbs=0.0)

    def test_empty_network_rejected(self, small_config):
        with pytest.raises(ConfigurationError):
            DMAModel().network_load_cost([], small_config)


class TestActivationBatching:
    def test_short_vectors_fit_in_one_batch(self):
        config = EIEConfig(num_pes=64)
        assert activation_batches(4096, config) == 1
        assert activation_sram_overhead_cycles(4096, config) == 0

    def test_vgg6_needs_batching(self):
        # VGG-16 FC6 has 25088 inputs: 7 register-file batches on 64 PEs.
        config = EIEConfig(num_pes=64)
        assert activation_batches(25088, config) == 7
        assert activation_sram_overhead_cycles(25088, config) == 6 * 2 * 64

    def test_fewer_pes_need_more_batches(self):
        assert activation_batches(4096, EIEConfig(num_pes=16)) == 4

    def test_overhead_is_small_relative_to_compute(self):
        # Even for VGG-6 the spill/fill overhead is well under 1% of the
        # ~23k-cycle layer computation.
        config = EIEConfig(num_pes=64)
        assert activation_sram_overhead_cycles(25088, config) < 0.05 * 23_000

    def test_invalid_length_rejected(self):
        with pytest.raises(ConfigurationError):
            activation_batches(0, EIEConfig())
