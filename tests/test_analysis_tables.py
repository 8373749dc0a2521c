"""Tests for Tables I-IV (Table IV through its experiment on scaled layers).

:class:`TestFullScaleTables` regenerates Tables I-III through the
session-scoped ``paper_runner``; the full-size Tables IV and V are checked in
``test_baselines.py``.
"""

from __future__ import annotations

import pytest

from repro.analysis.tables import table1_rows, table2_rows, table3_rows
from repro.experiments import run_experiment
from repro.hardware.area import chip_area_mm2, chip_power_w, num_lnzd_units
from repro.hardware.energy import ENERGY_TABLE_45NM
from repro.workloads.benchmarks import BENCHMARK_NAMES, get_benchmark, scaled_benchmarks
from repro.workloads.generator import WorkloadBuilder


class TestTable1:
    def test_six_operations(self):
        rows = table1_rows()
        assert len(rows) == 6
        assert rows[0]["operation"] == "32 bit int ADD"

    def test_dram_row(self):
        dram = [row for row in table1_rows() if "DRAM" in row["operation"]][0]
        assert dram["energy_pj"] == pytest.approx(640.0)
        assert dram["relative_cost"] == pytest.approx(6400.0)


class TestTable2:
    def test_total_row_first(self):
        rows = table2_rows()
        assert rows[0]["name"] == "Total"
        assert rows[0]["power_mw"] == pytest.approx(9.157, rel=0.01)

    def test_percentages_sum_within_groups(self):
        rows = table2_rows()
        module_rows = [row for row in rows if row.get("group") == "module"]
        assert sum(row["area_pct"] for row in module_rows) == pytest.approx(100.0, abs=0.5)
        component_rows = [row for row in rows if row.get("group") == "component"]
        assert sum(row["power_pct"] for row in component_rows) == pytest.approx(100.0, abs=1.0)


class TestTable3:
    def test_nine_rows_in_order(self):
        rows = table3_rows()
        assert [row["layer"] for row in rows] == list(BENCHMARK_NAMES)

    def test_densities_populated(self):
        for row in table3_rows():
            assert 0 < row["weight_density"] <= 1
            assert 0 < row["activation_density"] <= 1


class TestTable4:
    @pytest.fixture(scope="class")
    def rows(self):
        specs = scaled_benchmarks(64)
        subset = [specs["Alex-6"], specs["NT-Wd"]]
        result = run_experiment(
            "table4_wallclock", builder=WorkloadBuilder(), workloads=subset,
            config={"num_pes": 16},
        )
        return result.records

    def test_row_structure(self, rows):
        # 3 platforms x 2 batches x 2 kernels + 2 EIE rows.
        assert len(rows) == 14
        platforms = {row["platform"] for row in rows}
        assert platforms == {"CPU", "GPU", "mGPU", "EIE"}

    def test_eie_actual_at_least_theoretical(self, rows):
        eie = {row["kernel"]: row for row in rows if row["platform"] == "EIE"}
        for benchmark in eie["actual"]:
            if benchmark in ("platform", "batch", "kernel"):
                continue
            assert eie["actual"][benchmark] >= eie["theoretical"][benchmark] - 1e-9

    def test_eie_fastest_at_batch_one(self, rows):
        eie_actual = [row for row in rows if row["platform"] == "EIE" and row["kernel"] == "actual"][0]
        cpu_dense = [
            row for row in rows
            if row["platform"] == "CPU" and row["batch"] == 1 and row["kernel"] == "dense"
        ][0]
        for benchmark in eie_actual:
            if benchmark in ("platform", "batch", "kernel"):
                continue
            assert eie_actual[benchmark] < cpu_dense[benchmark]


class TestFullScaleTables:
    def test_table1_energy_table(self, paper_runner):
        rows = paper_runner.run("table1_energy").records
        # DRAM costs 128x an SRAM access and three orders of magnitude more than an add.
        assert ENERGY_TABLE_45NM.dram_over_sram == 128.0
        assert rows[-1]["relative_cost"] > 1000.0

    def test_table2_chip_totals(self):
        # The 64-PE chip totals quoted in Section VI: 40.8 mm^2, ~0.59 W.
        assert abs(chip_area_mm2(64) - 40.8) / 40.8 < 0.05
        assert abs(chip_power_w(64) - 0.59) / 0.59 < 0.05
        assert num_lnzd_units(64) == 21

    def test_table3_realised_workload_densities(self, paper_runner):
        rows = paper_runner.run("table3_benchmarks").records
        assert [row["layer"] for row in rows] == list(BENCHMARK_NAMES)
        builder = paper_runner.builder
        for name in BENCHMARK_NAMES:
            spec = get_benchmark(name)
            activations = builder.activations(spec)
            assert abs(builder.pattern(spec).density - spec.weight_density) < 0.01
            assert abs(float((activations != 0).mean()) - spec.activation_density) < 0.03
