"""Roofline timing model for the CPU, GPU and mobile-GPU baselines.

For a fully-connected layer ``b = W a`` with ``R x C`` weights:

* the dense kernel must fetch every 32-bit weight from DRAM and perform
  ``2 R C`` FLOPs; with batch ``B`` the weight traffic is amortised over the
  batch, so the per-frame time is
  ``max(2RC / F_dense, 4RC / (BW_dense * B))``;
* the sparse (compressed) kernel touches only the ``nnz = R C d_w`` surviving
  weights, but pays 8 bytes per non-zero (value + column index) plus the row
  pointers, and runs at a much lower effective FLOP rate because of the
  irregular accesses — which is why compression alone gives only ~3x on
  CPU/GPU at batch 1 and actually *hurts* at batch 64, exactly the crossover
  visible in Table IV.

Neither baseline kernel can exploit the dynamic activation sparsity or the
4-bit weight sharing; only EIE does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.specs import PlatformSpec
from repro.core.stats import PerformanceStats
from repro.errors import ConfigurationError
from repro.workloads.benchmarks import LayerSpec

__all__ = ["RooflineSpec", "RooflinePlatform"]

#: Bytes per dense weight (single-precision float).
_DENSE_BYTES_PER_WEIGHT = 4
#: Bytes per stored non-zero in CSR (float32 value + int32 column index).
_SPARSE_BYTES_PER_NNZ = 8
#: Bytes per row pointer in CSR.
_SPARSE_BYTES_PER_ROW = 4


@dataclass(frozen=True)
class RooflineSpec:
    """The four effective-throughput parameters of one platform."""

    dense_gflops: float
    dense_bandwidth_gbs: float
    sparse_gflops: float
    sparse_bandwidth_gbs: float


class RooflinePlatform:
    """Analytic latency model of one off-the-shelf platform."""

    def __init__(self, spec: PlatformSpec) -> None:
        self.spec = spec

    # -- timing -------------------------------------------------------------------

    def dense_time_s(self, layer: LayerSpec, batch: int = 1) -> float:
        """Per-frame time of the dense (uncompressed) kernel."""
        self._check_batch(batch)
        flops = 2.0 * layer.dense_weights
        weight_bytes = float(layer.dense_weights * _DENSE_BYTES_PER_WEIGHT)
        compute_time = flops / (self.spec.dense_gflops * 1e9)
        memory_time = weight_bytes / (self.spec.dense_bandwidth_gbs * 1e9 * batch)
        return max(compute_time, memory_time)

    def sparse_time_s(self, layer: LayerSpec, batch: int = 1) -> float:
        """Per-frame time of the compressed (sparse CSR) kernel."""
        self._check_batch(batch)
        nnz = layer.dense_weights * layer.weight_density
        flops = 2.0 * nnz
        traffic = nnz * _SPARSE_BYTES_PER_NNZ + (layer.rows + 1) * _SPARSE_BYTES_PER_ROW
        compute_time = flops / (self.spec.sparse_gflops * 1e9)
        memory_time = traffic / (self.spec.sparse_bandwidth_gbs * 1e9 * batch)
        return max(compute_time, memory_time)

    def time_s(self, layer: LayerSpec, compressed: bool, batch: int = 1) -> float:
        """Per-frame time for either kernel."""
        if compressed:
            return self.sparse_time_s(layer, batch)
        return self.dense_time_s(layer, batch)

    # -- performance --------------------------------------------------------------

    def performance(self, layer: LayerSpec, compressed: bool, batch: int = 1) -> PerformanceStats:
        """Performance record for one frame of ``layer``."""
        time_s = self.time_s(layer, compressed, batch)
        if compressed:
            macs = int(round(layer.dense_weights * layer.weight_density))
        else:
            macs = layer.dense_weights
        return PerformanceStats(
            cycles=0,
            time_s=time_s,
            macs_performed=macs,
            dense_macs=layer.dense_weights,
            clock_hz=self.spec.clock_mhz * 1e6,
        )

    @staticmethod
    def _check_batch(batch: int) -> None:
        if batch < 1:
            raise ConfigurationError(f"batch must be >= 1, got {batch}")
