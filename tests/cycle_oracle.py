"""Test oracle for the cycle engine: one vector, every PE lane, no dedup.

Gathers the vector's broadcast columns from the layer's per-(PE, column)
work and padding matrices and runs the single-input recurrence
:func:`~repro.core.cycle_model.simulate_layer_cycles` on them.  The cycle
engine (mask dedup, sibling fusion, idle PE lanes dropped) must reproduce
this record on every field.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.compression.pipeline import CompressedLayer
from repro.core.config import EIEConfig
from repro.core.cycle_model import CycleStats, layer_work_matrices, simulate_layer_cycles


def cycle_oracle(layer: CompressedLayer, config: EIEConfig, activations: np.ndarray) -> CycleStats:
    """Timing of ``layer`` on one activation vector under ``config``."""
    columns = np.nonzero(activations)[0]
    counts, padding = layer_work_matrices(layer)
    return simulate_layer_cycles(
        counts[:, columns],
        config.fifo_depth,
        padding_work=padding[:, columns],
        clock_mhz=config.clock_mhz,
    )


def assert_stats_identical(ours: CycleStats, reference: CycleStats) -> None:
    """Every field equal, with the same types and array dtypes."""
    for field in dataclasses.fields(CycleStats):
        mine, theirs = getattr(ours, field.name), getattr(reference, field.name)
        if isinstance(theirs, np.ndarray):
            assert mine.dtype == theirs.dtype, field.name
            assert np.array_equal(mine, theirs), field.name
        else:
            assert type(mine) is type(theirs), field.name
            assert mine == theirs, field.name
