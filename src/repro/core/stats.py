"""Statistics containers shared by the EIE simulators.

The containers separate two concerns: load balance (Figures 8 and 13) and
performance (cycle counts, wall-clock, throughput, Figure 11 / Table IV).
They are plain dataclasses so they can be assembled by any of the simulators
and consumed by the analysis layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LoadBalanceStats", "PerformanceStats"]


@dataclass
class LoadBalanceStats:
    """Per-PE busy/stall accounting for one layer computation.

    Attributes:
        busy_cycles: cycles each PE spent processing entries.
        total_cycles: wall-clock cycles of the whole layer.
        num_pes: number of PEs simulated.
    """

    busy_cycles: np.ndarray
    total_cycles: int
    num_pes: int

    @property
    def stall_cycles(self) -> np.ndarray:
        """Idle (starvation) cycles per PE."""
        return self.total_cycles - np.asarray(self.busy_cycles)

    @property
    def load_balance_efficiency(self) -> float:
        """1 - (bubble cycles / total cycles), averaged over PEs.

        This is the paper's definition for Figures 8 and 13: at FIFO depth 1
        roughly half the cycles are bubbles, at depth 8 most benchmarks are
        above 80%.
        """
        if self.total_cycles <= 0:
            return 1.0
        busy = np.asarray(self.busy_cycles, dtype=np.float64)
        return float(np.mean(busy) / self.total_cycles)

    @property
    def worst_pe_utilization(self) -> float:
        """Utilisation of the least-busy PE."""
        if self.total_cycles <= 0:
            return 1.0
        return float(np.min(self.busy_cycles) / self.total_cycles)

    @property
    def critical_pe_cycles(self) -> int:
        """Busy cycles of the most loaded PE (a lower bound on total cycles)."""
        return int(np.max(self.busy_cycles)) if len(np.atleast_1d(self.busy_cycles)) else 0


@dataclass
class PerformanceStats:
    """Throughput/latency summary for one layer on one platform.

    Attributes:
        cycles: total cycles (0 for analytic baselines that report time only).
        time_s: wall-clock seconds for one inference of the layer.
        macs_performed: multiply-accumulates actually executed.
        dense_macs: multiply-accumulates a dense implementation would execute.
        clock_hz: clock frequency used to convert cycles to time.
    """

    cycles: int
    time_s: float
    macs_performed: int
    dense_macs: int
    clock_hz: float = 0.0

    @property
    def time_us(self) -> float:
        """Wall-clock time in microseconds."""
        return self.time_s * 1e6

    @property
    def effective_gops(self) -> float:
        """GOP/s counting only the operations actually performed."""
        if self.time_s <= 0:
            return 0.0
        return 2.0 * self.macs_performed / self.time_s / 1e9

    @property
    def dense_equivalent_gops(self) -> float:
        """GOP/s credited as if the dense computation had been performed.

        The paper's '3 TOP/s equivalent' number: a compressed accelerator
        doing 102 GOP/s of real work delivers the application throughput of a
        3 TOP/s dense accelerator.
        """
        if self.time_s <= 0:
            return 0.0
        return 2.0 * self.dense_macs / self.time_s / 1e9

    @property
    def frames_per_second(self) -> float:
        """Layer inferences per second."""
        if self.time_s <= 0:
            return 0.0
        return 1.0 / self.time_s
