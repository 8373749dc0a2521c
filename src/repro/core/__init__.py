"""EIE core: the paper's primary contribution.

The accelerator model is split into:

* :mod:`repro.core.config` — :class:`EIEConfig`, the hardware parameters
  (number of PEs, FIFO depth, SRAM widths/capacities, arithmetic precision,
  clock) with the paper's defaults;
* :mod:`repro.core.functional` — whole-accelerator functional simulation
  (bit-exact against the dense reference) with per-PE access counters;
* :mod:`repro.core.cycle_model` — the cycle-level performance model behind
  Figures 8 and 11-13 and the EIE rows of Table IV.

Users reach these models through :class:`repro.engine.Session`: compress a
layer, then run it on the ``"functional"`` or ``"cycle"`` engine, or run a
whole :class:`repro.models.ModelIR` with ``Session.run_model``.
"""

from repro.core.config import EIEConfig
from repro.core.cycle_model import CycleStats, simulate_layer_cycles
from repro.core.functional import FunctionalEIE, FunctionalResult
from repro.core.partitioning import (
    PartitioningResult,
    compare_strategies,
    simulate_block_2d,
    simulate_column_partitioned,
    simulate_row_interleaved,
)
from repro.core.stats import LoadBalanceStats, PerformanceStats

__all__ = [
    "CycleStats",
    "EIEConfig",
    "FunctionalEIE",
    "FunctionalResult",
    "LoadBalanceStats",
    "PartitioningResult",
    "PerformanceStats",
    "compare_strategies",
    "simulate_block_2d",
    "simulate_column_partitioned",
    "simulate_layer_cycles",
    "simulate_row_interleaved",
]
