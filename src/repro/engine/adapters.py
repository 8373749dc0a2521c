"""The built-in backends: the core simulators behind the seam.

Each adapter wraps one core simulator so its results stay bit-for-bit
identical to direct use of that class (the parity test suite pins this):

* :class:`FunctionalEngine` — wraps
  :class:`~repro.core.functional.FunctionalEIE`.  ``prepare`` lists the
  layer's entries with their shared weights once; ``run`` accumulates a whole
  batch with one ordered scatter-add and derives the access counters from
  the per-(PE, column) entry counts.
* :class:`CycleEngine` — wraps the broadcast/FIFO recurrence of
  :mod:`repro.core.cycle_model`.  ``prepare`` extracts the per-(PE, column)
  work/padding matrices once per layer.  ``run`` has one columns path for
  any batch size: it simulates each distinct broadcast set (non-zero mask)
  once and gathers the work columns of those sets with a single NumPy
  fancy-index into the prepared matrices (one CSC column-gather per layer).
  ``run`` also takes a tuple of sibling layers that read one input (the
  four gates of a per-gate LSTM): one mask dedup serves the group, and every
  (layer, mask) pair is an independent item of one
  :func:`~repro.core.cycle_model.simulate_layer_cycles_batch` call, which
  packs only the PE lanes that have work in some item.  The timing of the
  mask that broadcasts every column (a dense input) is kept on the prepared
  layer per FIFO depth and clock, so it is simulated once.

``CycleEngine.prepare`` also accepts a
:class:`~repro.workloads.generator.LayerWorkload` (the synthetic full-size
Table III layers), whose work matrices are pre-sliced to its own broadcast
schedule; such prepared layers are run with ``activations=None``.
"""

from __future__ import annotations

import numpy as np

from repro.compression.pipeline import CompressedLayer
from repro.core.config import EIEConfig
from repro.core.cycle_model import (
    layer_work_matrices,
    simulate_layer_cycles,
    simulate_layer_cycles_batch,
)
from repro.core.functional import FunctionalEIE
from repro.engine.base import EngineResult, PreparedLayer, SimulationEngine
from repro.engine.registry import register_engine
from repro.errors import SimulationError
from repro.nn.fixed_point import FixedPointFormat

__all__ = ["FunctionalEngine", "CycleEngine"]


def _require_compressed_layer(engine_name: str, layer: object) -> CompressedLayer:
    if not isinstance(layer, CompressedLayer):
        raise SimulationError(
            f"engine {engine_name!r} prepares CompressedLayer objects, "
            f"got {type(layer).__name__}"
        )
    return layer


@register_engine
class FunctionalEngine(SimulationEngine):
    """Bit-exact value simulation behind the engine seam.

    ``prepare`` constructs the :class:`FunctionalEIE` simulator (capacity
    check, per-entry weights, per-column counter sources) once; every ``run``
    executes its whole batch through :meth:`FunctionalEIE.run_batch`.
    """

    name = "functional"

    def __init__(
        self,
        config: EIEConfig | None = None,
        fixed_point: FixedPointFormat | None = None,
    ) -> None:
        super().__init__(config)
        self.fixed_point = fixed_point

    def prepare_token(self) -> tuple:
        return (self.name, self.config, self.fixed_point)

    def prepare(self, layer: CompressedLayer) -> PreparedLayer:
        layer = _require_compressed_layer(self.name, layer)
        simulator = FunctionalEIE(layer, self.config, fixed_point=self.fixed_point)
        return PreparedLayer(
            engine=self.name,
            num_pes=layer.num_pes,
            rows=layer.rows,
            cols=layer.cols,
            activation_name=layer.activation_name,
            payload=simulator,
            source=layer,
            cache_token=self.prepare_token(),
        )

    def run(self, prepared: PreparedLayer, activations: np.ndarray | None = None) -> EngineResult:
        self._check_prepared(prepared)
        if activations is None:
            raise SimulationError(f"engine {self.name!r} requires an activation vector or batch")
        matrix, batched = self._as_batch(prepared, activations)
        simulator: FunctionalEIE = prepared.payload
        results = simulator.run_batch(matrix)
        outputs = np.stack([result.output for result in results])
        return EngineResult(
            engine=self.name,
            batch_size=matrix.shape[0],
            batched=batched,
            outputs=outputs,
            functional=results,
        )


@register_engine
class CycleEngine(SimulationEngine):
    """Broadcast/FIFO timing model behind the engine seam.

    The expensive, layer-dependent half of the timing model — extracting the
    per-(PE, column) entry and padding counts from the interleaved CSC
    storage — happens once in ``prepare``.  ``run`` then only gathers the
    broadcast columns and runs the timing recurrence.  A batch's items that
    share a non-zero mask share one recurrence and one (read-only)
    :class:`CycleStats`: the timing never depends on activation values, only
    on which columns are broadcast.
    """

    name = "cycle"
    runs_siblings = True

    def prepare_token(self) -> tuple:
        # Work matrices depend on the interleaving (PE count) only, so one
        # prepared layer serves a whole FIFO-depth / clock sweep.
        return (self.name, self.config.num_pes)

    def prepare(self, layer) -> PreparedLayer:
        work = getattr(layer, "work", None)
        if work is not None and hasattr(layer, "padding_work"):
            # A LayerWorkload: matrices are pre-sliced to its own schedule.
            if layer.num_pes != self.config.num_pes:
                raise SimulationError(
                    f"workload was built for {layer.num_pes} PEs but the engine "
                    f"configuration has {self.config.num_pes}"
                )
            return PreparedLayer(
                engine=self.name,
                num_pes=layer.num_pes,
                rows=layer.spec.rows,
                cols=layer.spec.cols,
                activation_name="relu",
                # Normalised to int64 here, once: every run call then takes
                # the simulator's assume_valid fast path.
                payload=(
                    "schedule",
                    np.asarray(work, dtype=np.int64),
                    np.asarray(layer.padding_work, dtype=np.int64),
                ),
                source=layer,
                cache_token=self.prepare_token(),
            )
        layer = _require_compressed_layer(self.name, layer)
        if layer.num_pes != self.config.num_pes:
            raise SimulationError(
                f"layer is interleaved over {layer.num_pes} PEs but the configuration "
                f"has {self.config.num_pes}"
            )
        counts, padding = layer_work_matrices(layer)
        return PreparedLayer(
            engine=self.name,
            num_pes=layer.num_pes,
            rows=layer.rows,
            cols=layer.cols,
            activation_name=layer.activation_name,
            # The dict: CycleStats of the all-columns mask per (fifo_depth,
            # clock_mhz), which the token omits; NT-* layers repeat that mask.
            payload=("columns", counts, padding, padding.sum(axis=0), {}),
            source=layer,
            cache_token=self.prepare_token(),
        )

    def run(
        self,
        prepared: PreparedLayer | tuple[PreparedLayer, ...],
        activations: np.ndarray | None = None,
    ) -> EngineResult:
        """Time one vector or batch; ``prepared`` may be a tuple of siblings.

        Sibling layers read the same input, so they share its broadcast
        sets: one mask dedup serves them all, and their work matrices run as
        independent items of one recurrence call.  The result's ``cycles``
        then hold ``batch_size`` records per layer, layer by layer.
        """
        group = prepared if isinstance(prepared, tuple) else (prepared,)
        for layer in group:
            self._check_prepared(layer)
        kinds = {layer.payload[0] for layer in group}
        if activations is None:
            if kinds != {"schedule"} or len(group) > 1:
                raise SimulationError(
                    f"engine {self.name!r} needs activations unless the prepared layer "
                    "carries its own broadcast schedule (a LayerWorkload)"
                )
            _, work, padding = group[0].payload
            stats = simulate_layer_cycles(
                work=work,
                fifo_depth=self.config.fifo_depth,
                padding_work=padding,
                clock_mhz=self.config.clock_mhz,
                assume_valid=True,
            )
            return EngineResult(engine=self.name, batch_size=1, batched=False, cycles=(stats,))
        if "schedule" in kinds:
            raise SimulationError(
                "this prepared layer is pre-sliced to its workload's schedule and "
                "cannot run arbitrary activations; prepare a CompressedLayer instead"
            )
        if len({layer.cols for layer in group}) != 1:
            raise SimulationError("sibling layers must share one input size")
        matrix, batched = self._as_batch(group[0], activations)
        # Timing depends only on which activations are non-zero (the
        # broadcast set), never on their values, so each distinct mask is
        # simulated once and its CycleStats shared by every item with that
        # mask.  Rows are packed to bytes so np.unique sorts one opaque key
        # per row: np.unique(axis=0) on the boolean matrix compares rows
        # field by field and costs ~0.5 ms for a 16 x 76 batch (one Xeon
        # core), more than the recurrence it saves.
        packed = np.ascontiguousarray(np.packbits(matrix != 0, axis=1))
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        distinct = matrix[first] != 0  # boolean: it stays alive through the gather
        # A full mask whose timing every layer knows skips the gather and the
        # recurrence.  Racing threads only ever write equal values.
        key = (self.config.fifo_depth, self.config.clock_mhz)
        full = np.flatnonzero(distinct.all(axis=1))
        known = [layer.payload[4].get(key) for layer in group]
        hit = full.size > 0 and all(stats is not None for stats in known)
        if hit:
            distinct = np.delete(distinct, full, axis=0)
        # One column-gather per layer for the distinct masks: concatenate
        # their non-zero columns, fancy-index the prepared matrices once,
        # then cut the gathered block back into per-mask spans.
        mask_ids, column_ids = np.nonzero(distinct)
        boundaries = np.searchsorted(mask_ids, np.arange(distinct.shape[0] + 1))
        spans = list(zip(boundaries[:-1], boundaries[1:]))
        works: list[np.ndarray] = []
        padding_totals: list[int] = []
        for layer in group:
            _, counts, _, padding_per_column, _ = layer.payload
            gathered = counts[:, column_ids]
            works.extend(gathered[:, start:end] for start, end in spans)
            # Per-mask padding totals from the prepared per-column padding
            # sums: a cumulative sum over the gathered columns, differenced
            # at the mask boundaries, avoids gathering full padding matrices.
            cumsum = np.concatenate([[0], np.cumsum(padding_per_column[column_ids])])
            padding_totals.extend((cumsum[boundaries[1:]] - cumsum[boundaries[:-1]]).tolist())
        # The batched recurrence advances every (layer, mask) item per
        # broadcast step (bit-identical to a loop of single runs; see the
        # parity tests).  Sibling layers are separate items, never extra PE
        # lanes: the broadcast couples the PEs of one layer only.
        per_mask = [] if not works else simulate_layer_cycles_batch(
            works, self.config.fifo_depth, padding_totals, self.config.clock_mhz, assume_valid=True
        )
        count = len(spans)
        by_layer = [per_mask[index * count : (index + 1) * count] for index in range(len(group))]
        for layer, row, cached in zip(group, by_layer, known):
            if hit:
                row.insert(full[0], cached)
            elif full.size:
                layer.payload[4][key] = row[full[0]]
        inverse = inverse.ravel()
        stats = tuple(row[index] for row in by_layer for index in inverse)
        return EngineResult(
            engine=self.name, batch_size=matrix.shape[0], batched=batched, cycles=stats
        )
