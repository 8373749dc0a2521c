"""Tests for the whole-array functional simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EIEConfig
from repro.core.functional import FunctionalEIE
from repro.errors import SimulationError
from repro.nn.fixed_point import FixedPointFormat


class TestFunctionalEIE:
    def test_matches_dense_reference_with_relu(self, compressed_layer, small_config, dense_activations):
        simulator = FunctionalEIE(compressed_layer, small_config)
        result = simulator.run(dense_activations)
        expected = np.maximum(compressed_layer.dense_weights() @ dense_activations, 0.0)
        assert np.allclose(result.output, expected)

    def test_pre_activation_matches_dense(self, compressed_layer, small_config, dense_activations):
        simulator = FunctionalEIE(compressed_layer, small_config)
        result = simulator.run(dense_activations, apply_nonlinearity=False)
        expected = compressed_layer.dense_weights() @ dense_activations
        assert np.allclose(result.output, expected)
        assert np.allclose(result.pre_activation, expected)

    def test_broadcast_count_equals_nonzero_activations(
        self, compressed_layer, small_config, dense_activations
    ):
        result = FunctionalEIE(compressed_layer, small_config).run(dense_activations)
        assert result.broadcasts == np.count_nonzero(dense_activations)
        assert result.activation_density == pytest.approx(
            np.count_nonzero(dense_activations) / dense_activations.size
        )

    def test_zero_columns_never_processed(self, compressed_layer, small_config):
        activations = np.zeros(compressed_layer.cols)
        activations[5] = 1.0
        result = FunctionalEIE(compressed_layer, small_config).run(activations)
        per_pe_counts = compressed_layer.storage.entries_per_pe_column()
        assert result.total_entries_processed == int(per_pe_counts[:, 5].sum())

    def test_all_zero_input(self, compressed_layer, small_config):
        result = FunctionalEIE(compressed_layer, small_config).run(np.zeros(compressed_layer.cols))
        assert result.broadcasts == 0
        assert np.all(result.output == 0.0)

    def test_per_pe_entry_distribution_sums(self, compressed_layer, small_config, dense_activations):
        result = FunctionalEIE(compressed_layer, small_config).run(dense_activations)
        assert result.per_pe_entries.sum() == result.total_entries_processed
        assert result.per_pe_entries.shape == (small_config.num_pes,)

    def test_output_density_reported(self, compressed_layer, small_config, dense_activations):
        result = FunctionalEIE(compressed_layer, small_config).run(dense_activations)
        assert 0.0 <= result.output_density <= 1.0

    def test_wrong_activation_length_rejected(self, compressed_layer, small_config):
        simulator = FunctionalEIE(compressed_layer, small_config)
        with pytest.raises(SimulationError):
            simulator.run(np.zeros(compressed_layer.cols + 1))

    def test_pe_count_mismatch_rejected(self, compressed_layer):
        with pytest.raises(SimulationError):
            FunctionalEIE(compressed_layer, EIEConfig(num_pes=8))

    def test_overfull_pe_rejected(self, compressed_layer):
        stored = compressed_layer.storage.entries_per_pe()
        # A Spmat SRAM one entry short of the fullest PE's slice.
        tight = EIEConfig(num_pes=4, spmat_sram_kb=(stored.max() - 1) / 1024)
        with pytest.raises(SimulationError, match=f"PE {int(stored.argmax())} stores"):
            FunctionalEIE(compressed_layer, tight)
        FunctionalEIE(compressed_layer, EIEConfig(num_pes=4, spmat_sram_kb=stored.max() / 1024))

    def test_fixed_point_mode_close_to_float(self, compressed_layer, small_config, dense_activations):
        fmt = FixedPointFormat(total_bits=16, fraction_bits=8)
        float_result = FunctionalEIE(compressed_layer, small_config).run(dense_activations)
        fixed_result = FunctionalEIE(compressed_layer, small_config, fixed_point=fmt).run(
            dense_activations
        )
        assert np.allclose(float_result.output, fixed_result.output, atol=0.2)

    def test_repeated_runs_are_independent(self, compressed_layer, small_config, dense_activations):
        simulator = FunctionalEIE(compressed_layer, small_config)
        first = simulator.run(dense_activations)
        second = simulator.run(dense_activations)
        assert np.allclose(first.output, second.output)

    def test_counters_aggregated(self, compressed_layer, small_config, dense_activations):
        result = FunctionalEIE(compressed_layer, small_config).run(dense_activations)
        assert result.counters.macs == result.total_entries_processed
        assert result.counters.ptr_sram_reads == 2 * result.broadcasts * small_config.num_pes
