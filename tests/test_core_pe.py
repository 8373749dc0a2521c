"""Tests for the per-PE walk of the functional oracle."""

from __future__ import annotations

import numpy as np
import pytest
from functional_oracle import ProcessingElement

from repro.core.config import EIEConfig
from repro.errors import SimulationError
from repro.nn.fixed_point import FixedPointFormat


def _build_pe(compressed_layer, pe_id: int, config: EIEConfig, fixed_point=None):
    return ProcessingElement(
        pe_id=pe_id,
        slice_matrix=compressed_layer.storage.per_pe[pe_id],
        codebook=compressed_layer.codebook,
        num_pes=config.num_pes,
        config=config,
        fixed_point=fixed_point,
    )


class TestProcessingElement:
    def test_accumulates_one_column_correctly(self, compressed_layer, small_config):
        pe = _build_pe(compressed_layer, pe_id=0, config=small_config)
        dense = compressed_layer.dense_weights()
        column, value = 3, 0.8
        pe.process_activation(column, value)
        expected = dense[0::small_config.num_pes, column] * value
        assert np.allclose(pe.read_outputs(), expected)

    def test_accumulates_across_columns(self, compressed_layer, small_config, dense_activations):
        pe = _build_pe(compressed_layer, pe_id=2, config=small_config)
        dense = compressed_layer.dense_weights()
        for column in np.nonzero(dense_activations)[0]:
            pe.process_activation(int(column), float(dense_activations[column]))
        expected = dense[2::small_config.num_pes, :] @ dense_activations
        assert np.allclose(pe.read_outputs(), expected)

    def test_zero_activation_broadcast_rejected(self, compressed_layer, small_config):
        pe = _build_pe(compressed_layer, pe_id=0, config=small_config)
        with pytest.raises(SimulationError):
            pe.process_activation(0, 0.0)

    def test_column_out_of_range_rejected(self, compressed_layer, small_config):
        pe = _build_pe(compressed_layer, pe_id=0, config=small_config)
        with pytest.raises(SimulationError):
            pe.process_activation(compressed_layer.cols, 1.0)

    def test_counters_track_entries_and_reads(self, compressed_layer, small_config):
        pe = _build_pe(compressed_layer, pe_id=1, config=small_config)
        entries = pe.process_activation(5, 1.0)
        assert pe.counters.entries_processed == entries
        assert pe.counters.macs == entries
        assert pe.counters.ptr_sram_reads == 2
        expected_reads = int(np.ceil(entries / small_config.entries_per_spmat_read)) if entries else 0
        assert pe.counters.spmat_sram_reads == expected_reads

    def test_empty_column_counts_skip(self, compressed_layer, small_config):
        pe = _build_pe(compressed_layer, pe_id=0, config=small_config)
        counts = compressed_layer.storage.per_pe[0].column_entry_counts()
        empty_columns = np.nonzero(counts == 0)[0]
        if empty_columns.size == 0:
            pytest.skip("fixture has no empty column for PE 0")
        processed = pe.process_activation(int(empty_columns[0]), 1.0)
        assert processed == 0
        assert pe.counters.columns_skipped == 1

    def test_reset_clears_state(self, compressed_layer, small_config):
        pe = _build_pe(compressed_layer, pe_id=0, config=small_config)
        pe.process_activation(3, 1.0)
        pe.reset()
        assert np.all(pe.read_outputs() == 0.0)
        assert pe.counters.entries_processed == 0

    def test_global_output_indices_interleaved(self, compressed_layer, small_config):
        pe = _build_pe(compressed_layer, pe_id=1, config=small_config)
        indices = pe.global_output_indices()
        assert indices[0] == 1
        assert np.all(np.diff(indices) == small_config.num_pes)

    def test_capacity_check(self, compressed_layer):
        tiny_config = EIEConfig(num_pes=4, spmat_sram_kb=0.001)
        pe = ProcessingElement(
            pe_id=0,
            slice_matrix=compressed_layer.storage.per_pe[0],
            codebook=compressed_layer.codebook,
            num_pes=4,
            config=tiny_config,
        )
        with pytest.raises(SimulationError):
            pe.check_capacity()

    def test_invalid_pe_id_rejected(self, compressed_layer, small_config):
        with pytest.raises(SimulationError):
            ProcessingElement(
                pe_id=9,
                slice_matrix=compressed_layer.storage.per_pe[0],
                codebook=compressed_layer.codebook,
                num_pes=4,
                config=small_config,
            )

    def test_fixed_point_mode_close_to_float(self, compressed_layer, small_config, dense_activations):
        fmt = FixedPointFormat(total_bits=16, fraction_bits=8)
        float_pe = _build_pe(compressed_layer, pe_id=0, config=small_config)
        fixed_pe = _build_pe(compressed_layer, pe_id=0, config=small_config, fixed_point=fmt)
        for column in np.nonzero(dense_activations)[0]:
            float_pe.process_activation(int(column), float(dense_activations[column]))
            fixed_pe.process_activation(int(column), float(dense_activations[column]))
        assert np.allclose(float_pe.read_outputs(), fixed_pe.read_outputs(), atol=0.1)

    def test_counter_merge(self, compressed_layer, small_config):
        first = _build_pe(compressed_layer, pe_id=0, config=small_config)
        second = _build_pe(compressed_layer, pe_id=1, config=small_config)
        first.process_activation(3, 1.0)
        second.process_activation(3, 1.0)
        merged = first.counters.merge(second.counters)
        assert merged.entries_processed == (
            first.counters.entries_processed + second.counters.entries_processed
        )
        assert merged.ptr_sram_reads == 4
