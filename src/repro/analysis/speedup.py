"""Figure 6: speedup of every platform over CPU dense at batch size 1.

For each of the nine benchmarks the paper reports seven bars: CPU dense (the
baseline), CPU compressed, GPU dense, GPU compressed, mobile-GPU dense,
mobile-GPU compressed, and EIE running the compressed model, all without
batching.  The last group is the geometric mean.  This module computes one
layer's per-frame times from the roofline baselines and the EIE cycle model;
the ``"fig6_speedup"`` experiment of :mod:`repro.experiments` turns them into
speedups relative to CPU dense and adds the geometric mean.
"""

from __future__ import annotations

from repro.baselines.roofline import RooflinePlatform
from repro.baselines.specs import CPU_CORE_I7_5930K, GPU_TITAN_X, MOBILE_GPU_TEGRA_K1
from repro.core.config import EIEConfig
from repro.engine import EngineRegistry
from repro.workloads.benchmarks import LayerSpec, resolve_spec
from repro.workloads.generator import WorkloadBuilder

__all__ = ["SPEEDUP_CONFIGS", "layer_times", "GEOMEAN_KEY"]

#: The seven bars of Figure 6, in plot order.
SPEEDUP_CONFIGS: tuple[str, ...] = (
    "CPU Dense",
    "CPU Compressed",
    "GPU Dense",
    "GPU Compressed",
    "mGPU Dense",
    "mGPU Compressed",
    "EIE",
)

#: Key used for the aggregated column.
GEOMEAN_KEY = "Geo Mean"


def layer_times(
    benchmark: "str | LayerSpec",
    builder: WorkloadBuilder,
    eie_config: EIEConfig | None = None,
    batch: int = 1,
) -> dict[str, float]:
    """Per-frame time in seconds of every Figure 6 configuration for one layer.

    The EIE bar comes from the registry's ``"cycle"`` engine; the other six
    bars are analytic roofline baselines.
    """
    eie_config = eie_config or EIEConfig()
    spec = resolve_spec(benchmark)
    cpu = RooflinePlatform(CPU_CORE_I7_5930K)
    gpu = RooflinePlatform(GPU_TITAN_X)
    mgpu = RooflinePlatform(MOBILE_GPU_TEGRA_K1)
    workload = builder.build(spec, eie_config.num_pes)
    engine = EngineRegistry.create("cycle", eie_config)
    eie_stats = engine.run(engine.prepare(workload)).stats
    return {
        "CPU Dense": cpu.dense_time_s(spec, batch),
        "CPU Compressed": cpu.sparse_time_s(spec, batch),
        "GPU Dense": gpu.dense_time_s(spec, batch),
        "GPU Compressed": gpu.sparse_time_s(spec, batch),
        "mGPU Dense": mgpu.dense_time_s(spec, batch),
        "mGPU Compressed": mgpu.sparse_time_s(spec, batch),
        "EIE": eie_stats.time_s,
    }
