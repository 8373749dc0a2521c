"""User-facing EIE accelerator facade.

:class:`EIEAccelerator` bundles the pieces a user of the library needs to go
from a dense weight matrix to EIE performance and energy numbers:

* it compresses layers with the Deep Compression pipeline and loads them into
  the PE array (the CCU's I/O mode);
* :meth:`EIEAccelerator.run` performs functionally exact inference through the
  loaded layers (multi-layer feed-forward, source/destination register files
  swapping between layers, as Section IV describes);
* :meth:`EIEAccelerator.estimate_layer` combines the cycle-level timing model
  with the energy and area models to produce the per-layer latency, power and
  energy numbers reported in Table IV, Figure 6 and Figure 7.

All simulation goes through the :mod:`repro.engine` seam: the facade owns a
:class:`~repro.engine.session.Session`, so repeated calls on the same layer
reuse the cached compressed form, the prepared entry listing of the
``"functional"`` engine and the prepared work matrices of the ``"cycle"``
engine instead of rebuilding them per call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.compression.pipeline import CompressedLayer, CompressionConfig
from repro.core.config import EIEConfig
from repro.core.cycle_model import CycleStats
from repro.core.functional import FunctionalResult
from repro.core.stats import EnergyStats, PerformanceStats
from repro.engine.session import Session
from repro.errors import SimulationError
from repro.hardware.area import chip_area_mm2, chip_power_w
from repro.hardware.energy import EnergyModel
from repro.hardware.sram import sram_read_energy_pj
from repro.utils.validation import require_matrix, require_vector

__all__ = ["LayerEstimate", "EIEAccelerator"]


@dataclass
class LayerEstimate:
    """Performance and energy estimate for one layer on the accelerator.

    Attributes:
        layer_name: label of the estimated layer.
        cycles: cycle-level timing statistics.
        performance: throughput/latency summary.
        energy: energy/power summary.
        functional: optional functional-run result (access counters).
    """

    layer_name: str
    cycles: CycleStats
    performance: PerformanceStats
    energy: EnergyStats
    functional: FunctionalResult | None = None


class EIEAccelerator:
    """The full accelerator: compression, functional execution and estimation."""

    def __init__(
        self,
        config: EIEConfig | None = None,
        compression: CompressionConfig | None = None,
        session: Session | None = None,
    ) -> None:
        self.config = config or EIEConfig()
        if session is not None and compression is not None:
            raise SimulationError(
                "pass either a compression configuration or a ready session, not both"
            )
        self.session = session or Session(compression, config=self.config)
        self.compressor = self.session.compressor
        self.energy_model = EnergyModel(precision="int16")
        self.layers: list[CompressedLayer] = []

    # -- loading -------------------------------------------------------------------

    def load_compressed_layer(self, layer: CompressedLayer) -> CompressedLayer:
        """Load an already compressed layer (checks interleaving and capacity)."""
        if layer.num_pes != self.config.num_pes:
            raise SimulationError(
                f"layer {layer.name!r} is interleaved over {layer.num_pes} PEs but the "
                f"accelerator has {self.config.num_pes}"
            )
        per_pe_entries = layer.storage.entries_per_pe()
        if per_pe_entries.size and per_pe_entries.max() > self.config.weights_per_pe_capacity:
            raise SimulationError(
                f"layer {layer.name!r} needs {int(per_pe_entries.max())} entries in one PE, "
                f"exceeding the Spmat SRAM capacity of {self.config.weights_per_pe_capacity}"
            )
        if self.layers and self.layers[-1].rows != layer.cols:
            raise SimulationError(
                f"layer {layer.name!r} input size {layer.cols} does not match the previous "
                f"layer's output size {self.layers[-1].rows}"
            )
        self.layers.append(layer)
        return layer

    def compress_and_load(
        self,
        weights: np.ndarray,
        name: str = "layer",
        activation_name: str = "relu",
    ) -> CompressedLayer:
        """Compress a dense weight matrix and load it as the next layer.

        Compression goes through the session cache: reloading a matrix this
        session has already compressed (same parameters) is free.
        """
        weights = require_matrix("weights", weights)
        layer = self.session.compress(
            weights, num_pes=self.config.num_pes, name=name, activation_name=activation_name
        )
        return self.load_compressed_layer(layer)

    def clear(self) -> None:
        """Unload all layers."""
        self.layers = []

    # -- functional execution ----------------------------------------------------------

    def run_layer(self, layer_index: int, activations: np.ndarray) -> FunctionalResult:
        """Functionally run one loaded layer on ``activations``."""
        if not 0 <= layer_index < len(self.layers):
            raise SimulationError(f"layer index {layer_index} out of range")
        activations = require_vector("activations", activations)
        result = self.session.run(
            "functional", self.layers[layer_index], activations, config=self.config
        )
        return result.functional[0]

    def run(self, activations: np.ndarray) -> list[FunctionalResult]:
        """Run all loaded layers in sequence (multi-layer feed-forward).

        The output activation register file of one layer becomes the source
        register file of the next, so no data movement is modelled between
        layers.  Returns the per-layer results; the last one holds the
        network output.
        """
        if not self.layers:
            raise SimulationError("no layers loaded")
        activations = require_vector("activations", activations)
        results: list[FunctionalResult] = []
        current = np.asarray(activations, dtype=np.float64)
        for index in range(len(self.layers)):
            result = self.run_layer(index, current)
            results.append(result)
            current = result.output
        return results

    def run_batch(self, activations: np.ndarray) -> np.ndarray:
        """Feed a ``(batch, n_in)`` activation matrix through all layers.

        Each row is one independent inference; every layer's prepared entry
        listing is built once (session cache) and reused across the batch.
        Returns the ``(batch, n_out)`` network outputs.
        """
        if not self.layers:
            raise SimulationError("no layers loaded")
        current = np.asarray(require_matrix("activations", activations), dtype=np.float64)
        for layer in self.layers:
            result = self.session.run("functional", layer, current, config=self.config)
            current = result.outputs
        return current

    # -- performance / energy estimation -------------------------------------------------

    @property
    def chip_power_w(self) -> float:
        """Total chip power (PEs plus LNZD tree)."""
        return chip_power_w(self.config.num_pes)

    @property
    def chip_area_mm2(self) -> float:
        """Total chip area (PEs plus LNZD tree)."""
        return chip_area_mm2(self.config.num_pes)

    def estimate_layer(
        self,
        layer: CompressedLayer,
        activations: np.ndarray,
        run_functional: bool = True,
    ) -> LayerEstimate:
        """Estimate latency, throughput and energy of ``layer`` on ``activations``."""
        activations = require_vector("activations", activations)
        cycles = self.session.run("cycle", layer, activations, config=self.config).stats
        dense_macs = layer.dense_weight_count
        performance = cycles.performance(dense_macs)
        functional: FunctionalResult | None = None
        if run_functional:
            functional = self.session.run(
                "functional", layer, activations, config=self.config
            ).functional[0]
            energy = self._energy_from_counters(functional, cycles)
        else:
            energy = self._energy_from_cycles(cycles)
        return LayerEstimate(
            layer_name=layer.name,
            cycles=cycles,
            performance=performance,
            energy=energy,
            functional=functional,
        )

    def _energy_from_counters(
        self, functional: FunctionalResult, cycles: CycleStats
    ) -> EnergyStats:
        """Bottom-up energy: SRAM accesses and arithmetic from the counters."""
        counters = functional.counters
        spmat_pj = counters.spmat_sram_reads * sram_read_energy_pj(
            self.config.spmat_sram_width_bits, self.config.spmat_sram_kb
        )
        ptr_pj = counters.ptr_sram_reads * sram_read_energy_pj(
            max(self.config.pointer_bits, 16), self.config.ptr_sram_kb / 2
        )
        act_pj = (counters.act_reg_reads + counters.act_reg_writes) * 0.1
        mac_pj = counters.macs * self.energy_model.mac_energy_pj()
        breakdown_pj = {
            "spmat_sram": spmat_pj,
            "ptr_sram": ptr_pj,
            "act_regs": act_pj,
            "arithmetic": mac_pj,
        }
        dynamic_j = sum(breakdown_pj.values()) * 1e-12
        # Clock / leakage overhead: the chip draws its rated power for the
        # duration of the layer; use the larger of the two estimates so short
        # layers are not credited with unrealistically low energy.
        power_based_j = self.chip_power_w * cycles.time_s
        energy_j = max(dynamic_j, power_based_j)
        return EnergyStats(
            energy_j=energy_j,
            power_w=self.chip_power_w,
            breakdown={name: value * 1e-12 for name, value in breakdown_pj.items()},
        )

    def _energy_from_cycles(self, cycles: CycleStats) -> EnergyStats:
        """Top-down energy: chip power times execution time."""
        return EnergyStats(
            energy_j=self.chip_power_w * cycles.time_s,
            power_w=self.chip_power_w,
            breakdown={},
        )
