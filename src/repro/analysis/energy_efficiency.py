"""Figure 7: energy efficiency of every platform over CPU dense at batch 1.

Energy is computation time multiplied by the platform's power while running
M x V (the paper measures power with pcm-power / nvidia-smi / a power meter;
we use the same per-platform power figures as Table V).  The times are
Figure 6's (:func:`~repro.analysis.speedup.layer_times`); EIE's power comes
from the per-PE Table II breakdown plus the LNZD tree.  The
``"fig7_energy_efficiency"`` experiment of :mod:`repro.experiments` turns
these per-layer energies into efficiencies relative to CPU dense.
"""

from __future__ import annotations

from repro.analysis.speedup import layer_times
from repro.baselines.specs import CPU_CORE_I7_5930K, GPU_TITAN_X, MOBILE_GPU_TEGRA_K1
from repro.core.config import EIEConfig
from repro.hardware.area import chip_energy_j
from repro.workloads.benchmarks import LayerSpec
from repro.workloads.generator import WorkloadBuilder

__all__ = ["layer_energies"]

#: Power of the platform behind each roofline bar of Figures 6 and 7.
_BAR_POWER_W: dict[str, float] = {
    "CPU Dense": CPU_CORE_I7_5930K.power_w,
    "CPU Compressed": CPU_CORE_I7_5930K.power_w,
    "GPU Dense": GPU_TITAN_X.power_w,
    "GPU Compressed": GPU_TITAN_X.power_w,
    "mGPU Dense": MOBILE_GPU_TEGRA_K1.power_w,
    "mGPU Compressed": MOBILE_GPU_TEGRA_K1.power_w,
}


def layer_energies(
    benchmark: "str | LayerSpec",
    builder: WorkloadBuilder,
    eie_config: EIEConfig | None = None,
    batch: int = 1,
) -> dict[str, float]:
    """Per-frame energy in joules of every Figure 7 configuration for one layer."""
    eie_config = eie_config or EIEConfig()
    times = layer_times(benchmark, builder, eie_config, batch)
    energies = {name: times[name] * power for name, power in _BAR_POWER_W.items()}
    energies["EIE"] = chip_energy_j(eie_config.num_pes, times["EIE"])
    return energies
