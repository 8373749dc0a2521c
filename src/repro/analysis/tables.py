"""Builders for Tables I, II, III and V of the paper.

Each function returns a list of plain dictionaries (one per table row) so the
experiment renderers can print the rows and the tests can compare selected
cells against the paper's published values.  Table IV is built per benchmark
by the ``"table4_wallclock"`` experiment of :mod:`repro.experiments`.
"""

from __future__ import annotations

from repro.baselines.platforms import build_table5
from repro.hardware.area import PEAreaModel
from repro.hardware.energy import ENERGY_TABLE_45NM
from repro.workloads.benchmarks import BENCHMARK_NAMES, get_benchmark
from repro.workloads.generator import WorkloadBuilder

__all__ = ["table1_rows", "table2_rows", "table3_rows", "table5_rows"]


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
