"""Figure 7: energy efficiency of every platform over CPU dense at batch 1.

Energy is computation time multiplied by the platform's power while running
M x V (the paper measures power with pcm-power / nvidia-smi / a power meter;
we use the same per-platform power figures as Table V).  EIE's power comes
from the per-PE Table II breakdown plus the LNZD tree.  The
``"fig7_energy_efficiency"`` experiment of :mod:`repro.experiments` turns
these per-layer energies into efficiencies relative to CPU dense.
"""

from __future__ import annotations

from repro.baselines.roofline import RooflinePlatform
from repro.baselines.specs import CPU_CORE_I7_5930K, GPU_TITAN_X, MOBILE_GPU_TEGRA_K1
from repro.core.config import EIEConfig
from repro.hardware.area import chip_energy_j
from repro.workloads.benchmarks import LayerSpec, resolve_spec
from repro.workloads.generator import WorkloadBuilder

__all__ = ["layer_energies"]


def layer_energies(
    benchmark: "str | LayerSpec",
    builder: WorkloadBuilder,
    eie_config: EIEConfig | None = None,
    batch: int = 1,
) -> dict[str, float]:
    """Per-frame energy in joules of every Figure 7 configuration for one layer."""
    eie_config = eie_config or EIEConfig()
    spec = resolve_spec(benchmark)
    cpu = RooflinePlatform(CPU_CORE_I7_5930K)
    gpu = RooflinePlatform(GPU_TITAN_X)
    mgpu = RooflinePlatform(MOBILE_GPU_TEGRA_K1)
    workload = builder.build(spec, eie_config.num_pes)
    eie_stats = workload.simulate(eie_config)
    return {
        "CPU Dense": cpu.dense_time_s(spec, batch) * CPU_CORE_I7_5930K.power_w,
        "CPU Compressed": cpu.sparse_time_s(spec, batch) * CPU_CORE_I7_5930K.power_w,
        "GPU Dense": gpu.dense_time_s(spec, batch) * GPU_TITAN_X.power_w,
        "GPU Compressed": gpu.sparse_time_s(spec, batch) * GPU_TITAN_X.power_w,
        "mGPU Dense": mgpu.dense_time_s(spec, batch) * MOBILE_GPU_TEGRA_K1.power_w,
        "mGPU Compressed": mgpu.sparse_time_s(spec, batch) * MOBILE_GPU_TEGRA_K1.power_w,
        "EIE": chip_energy_j(eie_config.num_pes, eie_stats.time_s),
    }
