"""DaDianNao comparison model.

DaDianNao stores uncompressed 16-bit weights in 16 tiles of 4 eDRAM banks
each, giving a peak on-chip memory bandwidth of
``16 x 4 x (1024 bit / 8) x 606 MHz = 4964 GB/s``.  Because M x V is entirely
memory bound and DaDianNao cannot exploit weight or activation sparsity (nor
weight sharing), its M x V throughput is the peak bandwidth divided by the
dense 16-bit weight traffic per frame — exactly how the paper estimates its
Table V entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stats import PerformanceStats
from repro.workloads.benchmarks import LayerSpec

__all__ = ["DaDianNaoModel"]

#: Peak aggregate eDRAM bandwidth (GB/s) quoted in the paper.
_PEAK_BANDWIDTH_GBS = 16 * 4 * (1024 / 8) * 606e6 / 1e9
#: Bytes per dense weight (16-bit fixed point).
_BYTES_PER_WEIGHT = 2


@dataclass(frozen=True)
class DaDianNaoModel:
    """Bandwidth-bound throughput model of DaDianNao.

    Attributes carry the Table V headline numbers; the timing method assumes
    the dense 16-bit model must be streamed from eDRAM once per frame.
    """

    name: str = "DaDianNao"
    technology_nm: int = 28
    clock_mhz: float = 606.0
    power_w: float = 15.97
    area_mm2: float = 67.7
    max_model_params: float = 18e6
    bandwidth_gbs: float = _PEAK_BANDWIDTH_GBS

    def dense_time_s(self, layer: LayerSpec) -> float:
        """Per-frame time: dense 16-bit weight traffic over peak bandwidth."""
        traffic_bytes = layer.dense_weights * _BYTES_PER_WEIGHT
        return traffic_bytes / (self.bandwidth_gbs * 1e9)

    def performance(self, layer: LayerSpec) -> PerformanceStats:
        """Performance record for one frame of ``layer``."""
        time_s = self.dense_time_s(layer)
        return PerformanceStats(
            cycles=0,
            time_s=time_s,
            macs_performed=layer.dense_weights,
            dense_macs=layer.dense_weights,
            clock_hz=self.clock_mhz * 1e6,
        )

    def frames_per_second(self, layer: LayerSpec) -> float:
        """M x V throughput on ``layer``."""
        return 1.0 / self.dense_time_s(layer)
