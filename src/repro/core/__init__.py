"""EIE core: the paper's primary contribution.

The accelerator model is split into:

* :mod:`repro.core.config` — :class:`EIEConfig`, the hardware parameters
  (number of PEs, FIFO depth, SRAM widths/capacities, arithmetic precision,
  clock) with the paper's defaults;
* :mod:`repro.core.activation_queue` — :class:`QueueEntry`, one broadcast
  item of the per-PE activation FIFO that absorbs load imbalance;
* :mod:`repro.core.lnzd` — the quadtree of leading non-zero detectors that
  feeds non-zero input activations to the central control unit;
* :mod:`repro.core.pe` — the functional processing element (pointer read,
  sparse-matrix read, codebook expansion, multiply-accumulate, activation
  read/write);
* :mod:`repro.core.functional` — whole-accelerator functional simulation
  (bit-exact against the dense reference);
* :mod:`repro.core.cycle_model` — the cycle-level performance model behind
  Figures 8 and 11-13 and the EIE rows of Table IV;
* :mod:`repro.core.rtl` — a small two-phase (propagate/update) RTL-style
  simulation kernel mirroring the paper's C++ simulator structure.

Users reach these models through :class:`repro.engine.Session`: compress a
layer, then run it on the ``"functional"``, ``"cycle"`` or ``"rtl"`` engine,
or run a whole :class:`repro.models.ModelIR` with ``Session.run_model``.
"""

from repro.core.activation_queue import QueueEntry
from repro.core.config import EIEConfig
from repro.core.cycle_model import CycleStats, simulate_layer_cycles
from repro.core.functional import FunctionalEIE, FunctionalResult
from repro.core.io_model import DMAModel, LoadCost, activation_batches, activation_sram_overhead_cycles
from repro.core.lnzd import LNZDNode, LNZDTree
from repro.core.partitioning import (
    PartitioningResult,
    compare_strategies,
    simulate_block_2d,
    simulate_column_partitioned,
    simulate_row_interleaved,
)
from repro.core.pe import ProcessingElement
from repro.core.stats import LoadBalanceStats, PerformanceStats

__all__ = [
    "CycleStats",
    "DMAModel",
    "EIEConfig",
    "LoadCost",
    "activation_batches",
    "activation_sram_overhead_cycles",
    "FunctionalEIE",
    "FunctionalResult",
    "LNZDNode",
    "LNZDTree",
    "LoadBalanceStats",
    "PartitioningResult",
    "PerformanceStats",
    "ProcessingElement",
    "QueueEntry",
    "compare_strategies",
    "simulate_block_2d",
    "simulate_column_partitioned",
    "simulate_layer_cycles",
    "simulate_row_interleaved",
]
