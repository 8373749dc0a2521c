"""Tests for the SRAM read-energy model and counting banks."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.hardware.sram import SramConfig, sram_read_energy_pj


class TestReadEnergy:
    def test_reference_point_matches_table1(self):
        # 32-bit read of a 32 KB SRAM is the Table I anchor: 5 pJ.
        assert sram_read_energy_pj(32, 32) == pytest.approx(5.0)

    def test_energy_grows_with_width(self):
        energies = [sram_read_energy_pj(width, 128) for width in (32, 64, 128, 256, 512)]
        assert all(b > a for a, b in zip(energies, energies[1:]))

    def test_energy_grows_with_capacity(self):
        assert sram_read_energy_pj(64, 128) > sram_read_energy_pj(64, 32)

    def test_width_must_be_power_of_two(self):
        with pytest.raises(ConfigurationError):
            sram_read_energy_pj(48, 128)

    def test_wider_read_cheaper_per_bit(self):
        per_bit_64 = sram_read_energy_pj(64, 128) / 64
        per_bit_512 = sram_read_energy_pj(512, 128) / 512
        assert per_bit_512 < per_bit_64


class TestSramConfig:
    def test_rows_and_capacity(self):
        config = SramConfig(capacity_kb=128, width_bits=64, name="spmat")
        assert config.capacity_bits == 128 * 1024 * 8
        assert config.num_rows == config.capacity_bits // 64

    def test_reads_for_entries_packing(self):
        # 64-bit rows hold eight 8-bit entries, as in the paper.
        config = SramConfig(capacity_kb=128, width_bits=64)
        assert config.reads_for_entries(0, 8) == 0
        assert config.reads_for_entries(1, 8) == 1
        assert config.reads_for_entries(8, 8) == 1
        assert config.reads_for_entries(9, 8) == 2
        assert config.reads_for_entries(64, 8) == 8

    def test_reads_for_entries_validation(self):
        config = SramConfig(capacity_kb=2, width_bits=16)
        with pytest.raises(ConfigurationError):
            config.reads_for_entries(4, 0)
        with pytest.raises(ConfigurationError):
            config.reads_for_entries(-1, 8)
        with pytest.raises(ConfigurationError):
            config.reads_for_entries(4, 32)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            SramConfig(capacity_kb=0, width_bits=64)
        with pytest.raises(ConfigurationError):
            SramConfig(capacity_kb=8, width_bits=24)
