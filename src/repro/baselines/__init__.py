"""Baseline platform models: CPU, GPU, mobile GPU and other accelerators.

The paper compares EIE against measured wall-clock time and power on an Intel
Core i7-5930k (MKL GEMV / MKL sparse CSRMV), an NVIDIA GeForce Titan X
(cuBLAS / cuSPARSE) and an NVIDIA Tegra K1, plus published numbers for A-Eye,
DaDianNao and TrueNorth.  We cannot measure that hardware here, so each
platform is an analytic roofline model (effective compute throughput plus
effective memory bandwidth, separately for dense and sparse kernels)
calibrated against the paper's Table IV, which reproduces who wins, by what
factor, and the batching/sparsity crossovers.
"""

from repro.baselines.platforms import (
    EIE_PLATFORM_28NM_256PE,
    EIE_PLATFORM_45NM_64PE,
    OTHER_ACCELERATORS,
    PlatformComparison,
    build_table5,
)
from repro.baselines.reference import (
    PAPER_ENERGY_EFFICIENCY_GEOMEAN,
    PAPER_SPEEDUP_GEOMEAN,
    PAPER_TABLE_IV_US,
)
from repro.baselines.roofline import RooflinePlatform, RooflineSpec
from repro.baselines.specs import (
    CPU_CORE_I7_5930K,
    GPU_TITAN_X,
    MOBILE_GPU_TEGRA_K1,
    PlatformSpec,
)
from repro.baselines.dadiannao import DaDianNaoModel

__all__ = [
    "CPU_CORE_I7_5930K",
    "DaDianNaoModel",
    "EIE_PLATFORM_28NM_256PE",
    "EIE_PLATFORM_45NM_64PE",
    "GPU_TITAN_X",
    "MOBILE_GPU_TEGRA_K1",
    "OTHER_ACCELERATORS",
    "PAPER_ENERGY_EFFICIENCY_GEOMEAN",
    "PAPER_SPEEDUP_GEOMEAN",
    "PAPER_TABLE_IV_US",
    "PlatformComparison",
    "PlatformSpec",
    "RooflinePlatform",
    "RooflineSpec",
    "build_table5",
]
