"""Tests for the Table II area/power breakdown, the LNZD accounting and EIE energy."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.analysis.energy_efficiency import layer_energies
from repro.core.config import EIEConfig
from repro.engine.session import Session
from repro.errors import ConfigurationError
from repro.hardware.area import (
    LNZD_UNIT,
    PE_TOTAL_AREA_UM2,
    PE_TOTAL_POWER_MW,
    PEAreaModel,
    chip_area_mm2,
    chip_energy_j,
    chip_power_w,
    num_lnzd_units,
)
from repro.experiments import run_experiment
from repro.models import build_model, synthetic_model_inputs
from repro.serve import Server
from repro.workloads.benchmarks import scaled_benchmarks
from repro.workloads.generator import WorkloadBuilder


class TestPEAreaModel:
    def test_total_power_matches_table2(self):
        assert PEAreaModel().total_power_mw == pytest.approx(PE_TOTAL_POWER_MW, rel=0.01)

    def test_total_area_matches_table2(self):
        assert PEAreaModel().total_area_um2 == pytest.approx(PE_TOTAL_AREA_UM2, rel=0.01)

    def test_memory_dominates_area(self):
        # The paper: SRAM takes 93% of the area and 59% of the power.
        model = PEAreaModel()
        assert model.component_fraction("memory", "area") > 0.90
        assert 0.5 < model.component_fraction("memory", "power") < 0.7

    def test_spmat_read_is_largest_module(self):
        model = PEAreaModel()
        assert model.module_fraction("spmat_read", "area") > 0.7
        assert model.module_fraction("spmat_read", "power") > 0.5

    def test_arithmetic_is_small(self):
        model = PEAreaModel()
        assert model.module_fraction("arithmetic", "area") < 0.01

    def test_unknown_module_rejected(self):
        with pytest.raises(ConfigurationError):
            PEAreaModel().module_fraction("dsp", "area")
        with pytest.raises(ConfigurationError):
            PEAreaModel().component_fraction("memory", "volume")

    def test_breakdown_rows_include_total(self):
        rows = PEAreaModel().breakdown_rows()
        assert rows[0]["name"] == "Total"
        assert rows[0]["area_pct"] == pytest.approx(100.0)
        assert len(rows) > 10


class TestLNZD:
    def test_64_pes_need_21_units(self):
        assert num_lnzd_units(64) == 21

    def test_256_pes(self):
        assert num_lnzd_units(256) == 64 + 16 + 4 + 1

    def test_small_arrays(self):
        assert num_lnzd_units(1) == 1
        assert num_lnzd_units(4) == 1
        assert num_lnzd_units(16) == 5
        assert num_lnzd_units(6) == 3  # two leaves, one of them partly filled, and a root

    def test_invalid_count_rejected(self):
        with pytest.raises(ConfigurationError):
            num_lnzd_units(0)

    def test_lnzd_unit_is_negligible(self):
        assert LNZD_UNIT.area_um2 / PE_TOTAL_AREA_UM2 < 0.003


class TestChipTotals:
    def test_64_pe_chip_matches_paper(self):
        # Paper: 40.8 mm^2 and ~0.59 W for 64 PEs.
        assert chip_area_mm2(64) == pytest.approx(40.8, rel=0.02)
        assert chip_power_w(64) == pytest.approx(0.59, rel=0.02)

    def test_area_scales_with_pes(self):
        assert chip_area_mm2(128) == pytest.approx(2 * chip_area_mm2(64), rel=0.01)

    def test_single_pe(self):
        assert chip_area_mm2(1) == pytest.approx(0.638, rel=0.02)
        assert chip_power_w(1) == pytest.approx(0.00918, rel=0.02)


class TestChipEnergy:
    """EIE's one energy rule, and the energies it gives pinned bit for bit."""

    def test_per_item_array_matches_scalar_calls(self):
        seconds = np.array([1e-6, 2.5e-6, 0.0])
        energies = chip_energy_j(64, seconds)
        assert energies.shape == seconds.shape
        assert [float(e) for e in energies] == [chip_energy_j(64, float(s)) for s in seconds]

    def test_fig7_eie_alex7_at_scale_64(self):
        spec = scaled_benchmarks(64.0)["Alex-7"]
        assert layer_energies(spec, WorkloadBuilder(), EIEConfig())["EIE"] == 1.393163125e-08
        result = run_experiment("fig7_energy_efficiency", scale=64, workloads=["Alex-7"])
        assert result.records[0]["EIE"] == 4292.505229780611

    def test_run_model_and_served_energy(self):
        config = EIEConfig(num_pes=8)
        model = build_model("neuraltalk_lstm", scale=32)
        inputs = synthetic_model_inputs(model, batch=1, seed=0)
        run = Session(config=config).run_model("cycle", model, inputs[0], config)
        assert run.energy_j == 1.4208268750000004e-08

        async def serve_one():
            async with Server([model], config=config) as server:
                return await server.submit(model.name, inputs[0])

        assert asyncio.run(serve_one()).energy_j == 1.4208268750000004e-08
