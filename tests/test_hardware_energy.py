"""Tests for the Table I energy table and the per-precision arithmetic energies."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.hardware.energy import (
    ENERGY_TABLE_45NM,
    add_energy_pj,
    multiply_energy_pj,
)


class TestEnergyTable:
    def test_table1_values_match_paper(self):
        table = ENERGY_TABLE_45NM
        assert table.int32_add_pj == pytest.approx(0.1)
        assert table.float32_add_pj == pytest.approx(0.9)
        assert table.int32_mult_pj == pytest.approx(3.1)
        assert table.float32_mult_pj == pytest.approx(3.7)
        assert table.sram32_read_pj == pytest.approx(5.0)
        assert table.dram32_read_pj == pytest.approx(640.0)

    def test_relative_costs(self):
        operations = {op.name: op for op in ENERGY_TABLE_45NM.as_operations()}
        assert operations["32 bit int ADD"].relative_cost == pytest.approx(1.0)
        assert operations["32 bit DRAM"].relative_cost == pytest.approx(6400.0)
        assert operations["32 bit 32KB SRAM"].relative_cost == pytest.approx(50.0)

    def test_dram_is_128x_sram(self):
        assert ENERGY_TABLE_45NM.dram_over_sram == pytest.approx(128.0)

    def test_operation_total(self):
        operation = ENERGY_TABLE_45NM.as_operations()[0]
        assert operation.total_pj(10) == pytest.approx(10 * operation.energy_pj)


class TestMultiplyEnergy:
    def test_16bit_is_5x_cheaper_than_32bit_fixed(self):
        ratio = multiply_energy_pj("int32") / multiply_energy_pj("int16")
        assert ratio == pytest.approx(5.0, rel=0.01)

    def test_16bit_vs_float32_ratio(self):
        ratio = multiply_energy_pj("float32") / multiply_energy_pj("int16")
        assert 5.5 < ratio < 7.0  # the paper quotes 6.2x

    def test_monotone_with_precision(self):
        assert (
            multiply_energy_pj("int8")
            < multiply_energy_pj("int16")
            < multiply_energy_pj("int32")
            < multiply_energy_pj("float32")
        )

    def test_unknown_precision_rejected(self):
        with pytest.raises(ConfigurationError):
            multiply_energy_pj("int4")

    def test_add_energy_scales_down(self):
        assert add_energy_pj("int16") < add_energy_pj("int32") < add_energy_pj("float32")
