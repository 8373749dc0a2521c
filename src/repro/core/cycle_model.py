"""Cycle-level performance model of the EIE array.

The model reproduces the timing behaviour the paper's custom cycle-accurate
simulator measures, at activation-broadcast granularity:

* the CCU broadcasts one non-zero input activation per cycle at most, and
  only when no PE's activation FIFO is full;
* a PE consumes its queued activations in order; activation ``b`` (the
  ``b``-th broadcast) takes as many cycles as the PE has encoded entries
  (true non-zeros plus padding zeros) in the corresponding column, because
  the arithmetic unit retires one (weight, index) entry per cycle;
* a broadcast occupies a FIFO slot from the cycle it is issued until the PE
  has *finished* processing it, so with FIFO depth ``D`` the CCU may run at
  most ``D`` columns ahead of the slowest PE.

These rules give the recurrences implemented in one private simulation
body, which is exact for the stated abstraction and runs in
``O(broadcasts x PEs)`` — fast enough to simulate the full-size Table III
layers for every design-space sweep in the paper (Figures 8 and 11-13)
without scaling anything down.  Two public entry points share that body:
:func:`simulate_layer_cycles` times one broadcast schedule and
:func:`simulate_layer_cycles_batch` times many at once.  Their caller is the
``"cycle"`` engine of :mod:`repro.engine`; analysis code times a Table III
layer through :meth:`repro.workloads.generator.LayerWorkload.simulate`,
which runs that engine.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.compression.pipeline import CompressedLayer
from repro.core.stats import LoadBalanceStats, PerformanceStats
from repro.errors import SimulationError

__all__ = [
    "CycleStats",
    "layer_work_matrices",
    "simulate_layer_cycles",
    "simulate_layer_cycles_batch",
]


@dataclass(frozen=True)
class CycleStats:
    """Timing statistics of one layer computation on the EIE array.

    Attributes:
        total_cycles: wall-clock cycles from first broadcast to last retire.
        busy_cycles: per-PE cycles spent retiring entries (read-only, like
            the record itself: the cycle engine shares one record among
            batch items with the same broadcast set).
        broadcasts: number of non-zero activations broadcast.
        entries_processed: total entries retired across all PEs (true
            non-zeros plus padding zeros of the touched columns).
        padding_entries: padding-zero entries among ``entries_processed``.
        theoretical_cycles: perfectly balanced cycle count
            (``entries_processed / num_pes``).
        num_pes: number of PEs.
        fifo_depth: activation queue depth used.
        clock_mhz: clock used to convert cycles into time.
    """

    total_cycles: int
    busy_cycles: np.ndarray
    broadcasts: int
    entries_processed: int
    padding_entries: int
    theoretical_cycles: float
    num_pes: int
    fifo_depth: int
    clock_mhz: float

    @property
    def load_balance(self) -> LoadBalanceStats:
        """Per-PE busy/stall view of this run."""
        return LoadBalanceStats(
            busy_cycles=np.asarray(self.busy_cycles),
            total_cycles=self.total_cycles,
            num_pes=self.num_pes,
        )

    @property
    def load_balance_efficiency(self) -> float:
        """1 - bubble cycles / total cycles (Figures 8 and 13)."""
        return self.load_balance.load_balance_efficiency

    @property
    def real_work_fraction(self) -> float:
        """Useful entries / total entries processed (Figure 12's metric,
        restricted to the touched columns)."""
        if self.entries_processed == 0:
            return 1.0
        return 1.0 - self.padding_entries / self.entries_processed

    @property
    def actual_over_theoretical(self) -> float:
        """Slowdown of the real schedule versus perfect load balance."""
        if self.theoretical_cycles <= 0:
            return 1.0
        return self.total_cycles / self.theoretical_cycles

    @property
    def time_s(self) -> float:
        """Wall-clock seconds for the layer at the configured clock."""
        return self.total_cycles / (self.clock_mhz * 1e6)

    @property
    def theoretical_time_s(self) -> float:
        """Wall-clock seconds under perfect load balance."""
        return self.theoretical_cycles / (self.clock_mhz * 1e6)

    def performance(self, dense_macs: int) -> PerformanceStats:
        """Package the run as a :class:`PerformanceStats` record."""
        return PerformanceStats(
            cycles=self.total_cycles,
            time_s=self.time_s,
            macs_performed=self.entries_processed,
            dense_macs=dense_macs,
            clock_hz=self.clock_mhz * 1e6,
        )


def layer_work_matrices(layer: CompressedLayer) -> tuple[np.ndarray, np.ndarray]:
    """Per-(PE, column) work and padding counts of a compressed layer.

    Returns ``(counts, padding)``, both of shape ``(num_pes, num_cols)``:
    ``counts[p, j]`` is the number of encoded entries PE ``p`` must retire
    when column ``j`` is broadcast, and ``padding[p, j]`` how many of those
    are padding zeros.  This is the layer-dependent (but activation- and
    configuration-independent) half of the cycle model, which the ``"cycle"``
    engine adapter extracts once per preparation.  Both matrices come from
    one bincount over flat (PE, column) ids covering every stored entry (no
    per-PE Python loop) and are cached read-only on the storage, so repeated
    simulations of the same layer skip the extraction entirely.
    """
    return layer.storage.entries_per_pe_column(), layer.storage.padding_per_pe_column()


def _blocked_recurrence_totals(
    packed: np.ndarray, lengths: np.ndarray, fifo_depth: int
) -> np.ndarray:
    """Total cycles per batch item under the broadcast/FIFO recurrence.

    One implementation serves both the single-input and the batched
    simulation paths.  The exact per-broadcast recurrence is

    * ``t_b = max(t_{b-1} + 1, M_{b-D})`` — the CCU broadcasts at most one
      activation per cycle and must wait until the slowest PE has retired
      broadcast ``b - D`` (its FIFO slot frees up), where
      ``M_j = max_p done[p, j]``;
    * ``done[p, b] = max(done[p, b-1], t_b) + work[p, b]``.

    Because ``t`` within a window of ``D = fifo_depth`` broadcasts depends
    only on completions from *before* the window, the recurrence advances one
    FIFO-depth-sized block at a time with pure array operations: writing
    ``t_b = b + 1 + g_b`` turns the backpressure into a running maximum of
    ``M_{b-D} - b - 1`` over the rolling completion array of the previous
    block, and the per-PE ``done`` recurrence inside a block becomes a
    prefix-sum plus running maximum (``done = W + max(done_prev, accmax(t - W
    + w))``).  All batch items advance together; items shorter than the
    longest are read off at their own last broadcast (the recurrence past an
    item's end only touches that item's lanes).

    Args:
        packed: ``(max_broadcasts, batch, num_pes)`` int64 work tensor,
            zero-padded beyond each item's length.  Broadcast-major layout
            keeps each block's slab contiguous (and L2-resident together
            with the scratch buffers).
        lengths: per-item broadcast counts.
        fifo_depth: activation queue depth ``D``.

    Returns:
        int64 totals of shape ``(batch,)`` (0 for zero-length items).
    """
    max_broadcasts, batch, num_pes = packed.shape
    totals = np.zeros(batch, dtype=np.int64)
    if max_broadcasts == 0 or batch == 0:
        return totals
    depth = int(fifo_depth)
    last_index = np.asarray(lengths, dtype=np.int64) - 1
    item_ids = np.arange(batch)

    if depth == 1:
        # Depth-1 closed form: the CCU waits for the slowest PE after every
        # broadcast, so t_b = t_{b-1} + max(1, max_p work[p, b-1]) and every
        # PE starts at t_b exactly (done[p, b] = t_b + work[p, b]).
        slowest = packed.max(axis=2)  # (max_broadcasts, batch)
        strides = np.maximum(slowest, 1)
        starts = np.ones(batch, dtype=np.int64)
        np.cumsum(strides[:-1], axis=0, out=strides[:-1])
        if max_broadcasts > 1:
            starts = starts + np.where(
                last_index > 0, strides[np.maximum(last_index - 1, 0), item_ids], 0
            )
        finishes = starts + slowest[np.maximum(last_index, 0), item_ids]
        return np.where(last_index >= 0, finishes, 0)

    # Block span: at most the FIFO depth (the backpressure lag), and at most
    # 32 broadcasts so the per-block slabs stay cache-resident.  The span
    # must divide the depth so block boundaries align with the b - D window.
    no_backpressure = depth >= max_broadcasts
    if no_backpressure:
        span_cap = min(max_broadcasts, 512)
    elif depth <= 32:
        span_cap = depth
    else:
        span_cap = next(size for size in range(32, 0, -1) if depth % size == 0)
    all_steps = np.arange(1, max_broadcasts + 1, dtype=np.int64)

    # Scratch buffers reused by every block (out= everywhere): per-block
    # allocations would otherwise dominate the runtime at small FIFO depths,
    # and reuse keeps the slabs hot in cache.  ``all_peaks[b]`` records
    # ``M_b = max_p done[p, b]`` for the whole run — the rolling completion
    # array the backpressure term reads ``D`` broadcasts behind the front.
    done = np.zeros((batch, num_pes), dtype=np.int64)
    backpressure = np.zeros(batch, dtype=np.int64)
    work_prefix = np.empty((span_cap, batch, num_pes), dtype=np.int64)
    arrivals = np.empty((span_cap, batch, num_pes), dtype=np.int64)
    times = np.empty((span_cap, batch), dtype=np.int64)
    stall = np.empty((span_cap, batch), dtype=np.int64)
    all_peaks = np.empty((max_broadcasts, batch), dtype=np.int64)

    for start in range(0, max_broadcasts, span_cap):
        end = min(start + span_cap, max_broadcasts)
        span = end - start
        work = packed[start:end]
        steps = all_steps[start:end]
        prefix = work_prefix[:span]
        arrive = arrivals[:span]
        t_block = times[:span]
        if no_backpressure or start < depth:
            # Backpressure cannot bind before broadcast D: t_b = b + 1.
            # (Block starts are multiples of the span, which divides D, so a
            # block never straddles the b = D boundary.)
            t_block[:] = steps[:, None]
        else:
            # M_{b-D} for b in this block was recorded D broadcasts ago in
            # the completion array; the stall level is its running maximum
            # over M_{b-D} - (b + 1), carried across blocks.
            s_block = stall[:span]
            np.subtract(all_peaks[start - depth : end - depth], steps[:, None], out=s_block)
            np.maximum.accumulate(s_block, axis=0, out=s_block)
            np.maximum(s_block, backpressure[None, :], out=s_block)
            backpressure = s_block[-1].copy()
            np.add(steps[:, None], s_block, out=t_block)
        np.cumsum(work, axis=0, out=prefix)
        # arrivals = t_b - (prefix - work): the candidate start offset each
        # broadcast imposes on the running per-PE schedule.
        np.subtract(prefix, work, out=arrive)
        np.subtract(t_block[:, :, None], arrive, out=arrive)
        np.maximum.accumulate(arrive, axis=0, out=arrive)
        np.maximum(arrive, done[None, :, :], out=arrive)
        np.add(prefix, arrive, out=arrive)  # arrive now holds done[b, i, p]
        arrive.max(axis=2, out=all_peaks[start:end])
        done = arrive[-1].copy()
    totals = np.where(
        last_index >= 0, all_peaks[np.maximum(last_index, 0), item_ids], 0
    )
    return totals


def _simulate(
    works: "Sequence[np.ndarray]",
    fifo_depth: int,
    padding_totals: "Sequence[int] | None",
    clock_mhz: float,
    assume_valid: bool,
) -> "list[CycleStats]":
    """The one simulation body behind both public entry points.

    Validates the work matrices, packs them into one ``(max_broadcasts,
    batch, lanes)`` tensor (one lane per PE with work in some item), runs
    :func:`_blocked_recurrence_totals` and assembles one :class:`CycleStats`
    per item.  ``busy_cycles``, ``num_pes`` and ``theoretical_cycles``
    still count every PE.
    """
    if fifo_depth < 1:
        raise SimulationError(f"fifo_depth must be >= 1, got {fifo_depth}")
    if clock_mhz <= 0.0:
        raise SimulationError(f"clock_mhz must be > 0, got {clock_mhz}")
    if padding_totals is not None and len(padding_totals) != len(works):
        raise SimulationError("padding_totals must have one entry per work matrix")
    if not works:
        return []
    if assume_valid:
        arrays = list(works)
    else:
        arrays = [np.asarray(work, dtype=np.int64) for work in works]
        for work in arrays:
            if work.ndim != 2:
                raise SimulationError(
                    f"work must be 2-D (num_pes, broadcasts), got shape {work.shape}"
                )
            if np.any(work < 0):
                raise SimulationError("work counts must be non-negative")
    num_pes = arrays[0].shape[0]
    if num_pes == 0:
        raise SimulationError("work must cover at least one PE (got an empty PE axis)")
    if any(work.shape[0] != num_pes for work in arrays):
        raise SimulationError("all work matrices of a batch must share the PE count")
    if padding_totals is None:
        padding_totals = [0] * len(arrays)

    batch = len(arrays)
    lengths = np.asarray([work.shape[1] for work in arrays], dtype=np.int64)
    max_broadcasts = int(lengths.max())
    busies = np.stack([work.sum(axis=1) for work in arrays])
    busies.setflags(write=False)
    active = busies.any(axis=0)
    if not active.all():
        # Only PEs with work in some item get a lane.  An idle PE finishes
        # every broadcast the cycle it arrives (done[p, b] = t_b), so it
        # never raises the slowest-PE completion M_b the backpressure reads;
        # dropping it is exact.  One lane always stays, so an all-idle batch
        # still yields t_b.
        keep = np.flatnonzero(active) if active.any() else [0]
        arrays = [work[keep] for work in arrays]
    if batch == 1:
        # Nothing to pad: a work matrix whose transpose is already
        # contiguous (a LayerWorkload's column slice) is packed without a copy.
        packed = np.ascontiguousarray(arrays[0].T, dtype=np.int64)[:, np.newaxis, :]
    else:
        packed = np.zeros((max_broadcasts, batch, arrays[0].shape[0]), dtype=np.int64)
        for index, work in enumerate(arrays):
            packed[: work.shape[1], index, :] = work.T
    totals = _blocked_recurrence_totals(packed, lengths, fifo_depth)

    results: list[CycleStats] = []
    for index, busy in enumerate(busies):
        entries_total = int(busy.sum())
        num_broadcasts = int(lengths[index])
        results.append(
            CycleStats(
                total_cycles=int(totals[index]) if num_broadcasts else 0,
                busy_cycles=busy,
                broadcasts=num_broadcasts,
                entries_processed=entries_total if num_broadcasts else 0,
                padding_entries=int(padding_totals[index]) if num_broadcasts else 0,
                theoretical_cycles=entries_total / num_pes if num_broadcasts else 0.0,
                num_pes=num_pes,
                fifo_depth=fifo_depth,
                clock_mhz=clock_mhz,
            )
        )
    return results


def simulate_layer_cycles(
    work: np.ndarray,
    fifo_depth: int,
    padding_work: np.ndarray | None = None,
    clock_mhz: float = 800.0,
    assume_valid: bool = False,
) -> CycleStats:
    """Simulate the broadcast/FIFO timing for one layer.

    Runs the batched simulation body on a batch of one, so the two entry
    points cannot drift apart.

    Args:
        work: integer array of shape ``(num_pes, num_broadcasts)``;
            ``work[p, b]`` is the number of encoded entries PE ``p`` must
            retire for the ``b``-th broadcast non-zero activation.
        fifo_depth: activation queue depth ``D``.
        padding_work: optional array of the same shape counting how many of
            those entries are padding zeros (used for Figure 12 statistics).
        clock_mhz: clock frequency for time conversion.
        assume_valid: skip the dtype conversion and the non-negativity /
            dimensionality checks.  Set by the engine adapter, whose prepared
            layers already hold validated int64 work matrices — the checks
            would otherwise re-scan every entry on every run call.

    Returns:
        A :class:`CycleStats` with total cycles, per-PE busy cycles and the
        derived efficiency metrics.
    """
    padding_totals = None
    if padding_work is not None:
        padding_work = np.asarray(padding_work, dtype=np.int64)
        if padding_work.shape != np.shape(work):
            raise SimulationError("padding_work must have the same shape as work")
        padding_totals = [int(padding_work.sum())]
    return _simulate([work], fifo_depth, padding_totals, clock_mhz, assume_valid)[0]


def simulate_layer_cycles_batch(
    works: "list[np.ndarray]",
    fifo_depth: int,
    padding_totals: "Sequence[int] | None" = None,
    clock_mhz: float = 800.0,
    assume_valid: bool = False,
) -> "list[CycleStats]":
    """Run the broadcast/FIFO recurrence for many inputs at once.

    Semantically identical to calling :func:`simulate_layer_cycles` on each
    ``works[i]`` (the engine parity tests pin this element-wise): both run
    the same simulation body.  The items are packed into one
    ``(max_broadcasts, batch, lanes)`` tensor, one lane per PE with work in
    some item, and the recurrence advances every batch item one
    FIFO-depth-sized block of broadcasts at a time.

    Args:
        works: per-item work matrices, all with the same ``num_pes`` rows.
        fifo_depth: activation queue depth ``D``.
        padding_totals: optional per-item counts of padding-zero entries
            among the touched columns (a total, not a matrix: the batched
            path only reports the aggregate, and callers can derive it from
            per-column padding sums without gathering full matrices).
        clock_mhz: clock frequency for time conversion.
        assume_valid: skip per-item dtype conversion and validity checks
            (engine-adapter fast path for already-prepared int64 matrices).
    """
    return _simulate(works, fifo_depth, padding_totals, clock_mhz, assume_valid)
