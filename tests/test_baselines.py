"""Tests for the baseline platform models (roofline, DaDianNao, Table V)."""

from __future__ import annotations

import pytest

from repro.baselines.dadiannao import DaDianNaoModel
from repro.baselines.platforms import build_table5
from repro.baselines.reference import PAPER_TABLE_IV_US, PAPER_TABLE_V
from repro.baselines.roofline import RooflinePlatform
from repro.baselines.specs import CPU_CORE_I7_5930K, GPU_TITAN_X, MOBILE_GPU_TEGRA_K1
from repro.errors import ConfigurationError
from repro.workloads.benchmarks import BENCHMARK_NAMES, get_benchmark
from repro.workloads.generator import WorkloadBuilder


class TestRooflineCalibration:
    """The models are calibrated on Alex-6; check they land near Table IV."""

    @pytest.mark.parametrize(
        "spec, platform_name",
        [(CPU_CORE_I7_5930K, "CPU"), (GPU_TITAN_X, "GPU"), (MOBILE_GPU_TEGRA_K1, "mGPU")],
    )
    def test_dense_batch1_matches_paper_within_2x(self, spec, platform_name):
        layer = get_benchmark("Alex-6")
        model = RooflinePlatform(spec)
        paper_us = PAPER_TABLE_IV_US[platform_name][(1, "dense")]["Alex-6"]
        ours_us = model.dense_time_s(layer, batch=1) * 1e6
        assert 0.5 < ours_us / paper_us < 2.0

    @pytest.mark.parametrize(
        "spec, platform_name",
        [(CPU_CORE_I7_5930K, "CPU"), (GPU_TITAN_X, "GPU"), (MOBILE_GPU_TEGRA_K1, "mGPU")],
    )
    def test_sparse_batch1_matches_paper_within_2x(self, spec, platform_name):
        layer = get_benchmark("Alex-6")
        model = RooflinePlatform(spec)
        paper_us = PAPER_TABLE_IV_US[platform_name][(1, "sparse")]["Alex-6"]
        ours_us = model.sparse_time_s(layer, batch=1) * 1e6
        assert 0.4 < ours_us / paper_us < 2.5


class TestRooflineShape:
    def test_compression_helps_at_batch_one(self):
        layer = get_benchmark("Alex-7")
        for spec in (CPU_CORE_I7_5930K, GPU_TITAN_X, MOBILE_GPU_TEGRA_K1):
            model = RooflinePlatform(spec)
            assert model.sparse_time_s(layer, 1) < model.dense_time_s(layer, 1)

    def test_compression_hurts_at_batch_64_on_cpu(self):
        # Table IV crossover: the sparse kernel loses to batched dense GEMM.
        layer = get_benchmark("Alex-6")
        model = RooflinePlatform(CPU_CORE_I7_5930K)
        assert model.sparse_time_s(layer, 64) > model.dense_time_s(layer, 64)

    def test_batching_amortises_memory_traffic(self):
        layer = get_benchmark("Alex-6")
        model = RooflinePlatform(GPU_TITAN_X)
        assert model.dense_time_s(layer, 64) < model.dense_time_s(layer, 1) / 5

    def test_gpu_faster_than_cpu_faster_than_mgpu(self):
        layer = get_benchmark("VGG-6")
        gpu = RooflinePlatform(GPU_TITAN_X).dense_time_s(layer, 1)
        cpu = RooflinePlatform(CPU_CORE_I7_5930K).dense_time_s(layer, 1)
        mgpu = RooflinePlatform(MOBILE_GPU_TEGRA_K1).dense_time_s(layer, 1)
        assert gpu < cpu <= mgpu

    def test_performance_record(self):
        layer = get_benchmark("NT-We")
        record = RooflinePlatform(GPU_TITAN_X).performance(layer, compressed=True, batch=1)
        assert record.dense_macs == layer.dense_weights
        assert record.macs_performed < record.dense_macs

    def test_invalid_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            RooflinePlatform(CPU_CORE_I7_5930K).dense_time_s(get_benchmark("Alex-6"), batch=0)


class TestDaDianNao:
    def test_bandwidth_value(self):
        assert DaDianNaoModel().bandwidth_gbs == pytest.approx(4964, rel=0.02)

    def test_fc7_throughput_matches_table5_order(self):
        model = DaDianNaoModel()
        fps = model.frames_per_second(get_benchmark("Alex-7"))
        assert fps == pytest.approx(PAPER_TABLE_V["DaDianNao"]["throughput_fps"], rel=0.1)


class TestFullScaleTables4And5:
    """Tables IV and V regenerated on the full-size Table III layers."""

    def test_table4_wall_clock_times(self, paper_runner):
        rows = paper_runner.run("table4_wallclock").records
        eie_actual = next(r for r in rows if r["platform"] == "EIE" and r["kernel"] == "actual")
        eie_theoretical = next(
            r for r in rows if r["platform"] == "EIE" and r["kernel"] == "theoretical"
        )
        paper_actual = PAPER_TABLE_IV_US["EIE"][(1, "actual")]
        for name in BENCHMARK_NAMES:
            # Our EIE latency lands within ~2x of the published value and the
            # actual time is never better than the theoretical bound.
            assert 0.4 < eie_actual[name] / paper_actual[name] < 2.5
            assert eie_actual[name] >= eie_theoretical[name] - 1e-9
        cpu_rows = {(r["batch"], r["kernel"]): r for r in rows if r["platform"] == "CPU"}
        # Crossover: compression helps the CPU at batch 1 but hurts at batch 64.
        assert cpu_rows[(1, "sparse")]["Alex-6"] < cpu_rows[(1, "dense")]["Alex-6"]
        assert cpu_rows[(64, "sparse")]["Alex-6"] > cpu_rows[(64, "dense")]["Alex-6"]

    def test_table5_platform_comparison(self, paper_runner):
        by_name = {row["platform"]: row for row in paper_runner.run("table5_platforms").records}
        eie64 = by_name["EIE (64PE, 45nm)"]
        eie256 = by_name["EIE (256PE, 28nm)"]
        dadiannao = by_name["DaDianNao"]
        # EIE (256 PE) out-runs DaDianNao and EIE (64 PE) is ~10x more efficient.
        assert eie256["throughput_fps"] > dadiannao["throughput_fps"]
        assert eie64["energy_efficiency_fpj"] > 10 * dadiannao["energy_efficiency_fpj"]
        assert eie64["power_w"] < 1.0
        assert eie64["throughput_fps"] > by_name["GeForce Titan X"]["throughput_fps"]


class TestTable5:
    @pytest.fixture(scope="class")
    def rows(self):
        builder = WorkloadBuilder()
        return {row.name: row for row in build_table5(builder=builder)}

    def test_all_platforms_present(self, rows):
        assert {"Core i7-5930K", "GeForce Titan X", "Tegra K1", "A-Eye", "TrueNorth",
                "DaDianNao", "EIE (64PE, 45nm)", "EIE (256PE, 28nm)"} <= set(rows)

    def test_eie_beats_dadiannao_energy_efficiency(self, rows):
        # Paper: 19x better energy efficiency (we only require a large factor).
        ratio = rows["EIE (64PE, 45nm)"].energy_efficiency / rows["DaDianNao"].energy_efficiency
        assert ratio > 5.0

    def test_eie_throughput_in_paper_ballpark(self, rows):
        fps = rows["EIE (64PE, 45nm)"].throughput_fps
        assert 0.5 * PAPER_TABLE_V["EIE (64PE, 45nm)"]["throughput_fps"] < fps < \
            2.0 * PAPER_TABLE_V["EIE (64PE, 45nm)"]["throughput_fps"]

    def test_256pe_faster_than_64pe(self, rows):
        assert rows["EIE (256PE, 28nm)"].throughput_fps > 2.0 * rows["EIE (64PE, 45nm)"].throughput_fps

    def test_eie_area_matches_paper(self, rows):
        assert rows["EIE (64PE, 45nm)"].area_mm2 == pytest.approx(40.8, rel=0.05)

    def test_area_efficiency_none_when_area_unknown(self, rows):
        assert rows["Tegra K1"].area_efficiency is None
