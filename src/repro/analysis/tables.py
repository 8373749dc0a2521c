"""Builders for Tables I-V of the paper.

Each function returns a list of plain dictionaries (one per table row) so the
experiment renderers can print the rows and the tests can compare selected
cells against the paper's published values.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.baselines.platforms import build_table5
from repro.baselines.roofline import RooflinePlatform
from repro.baselines.specs import CPU_CORE_I7_5930K, GPU_TITAN_X, MOBILE_GPU_TEGRA_K1
from repro.core.config import EIEConfig
from repro.hardware.area import PEAreaModel
from repro.hardware.energy import ENERGY_TABLE_45NM
from repro.workloads.benchmarks import BENCHMARK_NAMES, LayerSpec, get_benchmark, resolve_spec
from repro.workloads.generator import WorkloadBuilder

__all__ = ["table1_rows", "table2_rows", "table3_rows", "table4_rows", "table5_rows"]


def table1_rows() -> list[dict[str, object]]:
    """Table I: energy per operation in a 45 nm process."""
    return [
        {
            "operation": operation.name,
            "energy_pj": operation.energy_pj,
            "relative_cost": operation.relative_cost,
        }
        for operation in ENERGY_TABLE_45NM.as_operations()
    ]


def table2_rows() -> list[dict[str, object]]:
    """Table II: power/area of one PE broken down by component and module."""
    return PEAreaModel().breakdown_rows()


def table3_rows() -> list[dict[str, object]]:
    """Table III: the nine benchmark layers and their sparsity statistics."""
    rows = []
    for name in BENCHMARK_NAMES:
        spec = get_benchmark(name)
        rows.append(
            {
                "layer": spec.name,
                "size": f"{spec.input_size} x {spec.output_size}",
                "weight_density": spec.weight_density,
                "activation_density": spec.activation_density,
                "flop_fraction": spec.flop_fraction,
                "description": spec.description,
            }
        )
    return rows


def table4_rows(
    benchmarks: "Iterable[str | LayerSpec]" = BENCHMARK_NAMES,
    builder: WorkloadBuilder | None = None,
    eie_config: EIEConfig | None = None,
) -> list[dict[str, object]]:
    """Table IV: per-frame wall-clock time (us) for every platform and kernel.

    Rows cover CPU/GPU/mGPU at batch 1 and 64 with dense and sparse kernels,
    plus EIE's theoretical and actual (load-imbalance-affected) times.
    """
    builder = builder or WorkloadBuilder()
    eie_config = eie_config or EIEConfig()
    platforms = {
        "CPU": RooflinePlatform(CPU_CORE_I7_5930K),
        "GPU": RooflinePlatform(GPU_TITAN_X),
        "mGPU": RooflinePlatform(MOBILE_GPU_TEGRA_K1),
    }
    rows: list[dict[str, object]] = []
    for platform_name, model in platforms.items():
        for batch in (1, 64):
            for kernel in ("dense", "sparse"):
                row: dict[str, object] = {
                    "platform": platform_name,
                    "batch": batch,
                    "kernel": kernel,
                }
                for benchmark in benchmarks:
                    spec = resolve_spec(benchmark)
                    time_s = model.time_s(spec, compressed=(kernel == "sparse"), batch=batch)
                    row[spec.name] = time_s * 1e6
                rows.append(row)
    theoretical_row: dict[str, object] = {"platform": "EIE", "batch": 1, "kernel": "theoretical"}
    actual_row: dict[str, object] = {"platform": "EIE", "batch": 1, "kernel": "actual"}
    for benchmark in benchmarks:
        spec = resolve_spec(benchmark)
        workload = builder.build(spec, eie_config.num_pes)
        stats = workload.simulate(eie_config)
        theoretical_row[spec.name] = stats.theoretical_time_s * 1e6
        actual_row[spec.name] = stats.time_s * 1e6
    rows.append(theoretical_row)
    rows.append(actual_row)
    return rows


def table5_rows(builder: WorkloadBuilder | None = None) -> list[dict[str, object]]:
    """Table V: platform comparison on AlexNet FC7."""
    rows = []
    for comparison in build_table5(builder=builder):
        rows.append(
            {
                "platform": comparison.name,
                "type": comparison.platform_type,
                "year": comparison.year,
                "technology_nm": comparison.technology_nm,
                "clock_mhz": comparison.clock_mhz,
                "memory": comparison.memory_type,
                "quantization": comparison.quantization,
                "max_model_params": comparison.max_model_params,
                "area_mm2": comparison.area_mm2,
                "power_w": comparison.power_w,
                "throughput_fps": comparison.throughput_fps,
                "area_efficiency_fps_mm2": comparison.area_efficiency,
                "energy_efficiency_fpj": comparison.energy_efficiency,
            }
        )
    return rows
