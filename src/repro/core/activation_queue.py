"""The item of the per-PE activation FIFO queue.

Non-zero input activations and their column indices are broadcast by the
central control unit into an activation queue in each PE.  The queue lets a
PE that happens to have few non-zeros in the current column run ahead,
absorbing the load imbalance between PEs; the broadcast stalls whenever any
PE's queue is full.  Figure 8 of the paper sweeps the queue depth and picks 8.

The RTL PE (:mod:`repro.core.rtl.pe_rtl`) holds its queue as a bounded deque
of :class:`QueueEntry` items; the cycle model's recurrence models the depth.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["QueueEntry"]


@dataclass(frozen=True)
class QueueEntry:
    """One broadcast item: a non-zero activation value and its column index."""

    column: int
    value: float
