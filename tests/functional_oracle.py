"""Test oracle for the functional engine: the per-PE broadcast walk.

Replays Equation (3) the way the hardware sequences it: the LNZD tree scans
the non-zero activations in order, and every broadcast ``(j, a_j)`` is
handed to each :class:`~repro.core.pe.ProcessingElement`, which reads its
pointers, walks its slice of column ``j`` and accumulates ``S[I] * a_j``.
The interleaved accumulators are then gathered into the dense output and
the per-PE counters merged.  :class:`~repro.core.functional.FunctionalEIE`
must reproduce this result bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.compression.pipeline import CompressedLayer
from repro.core.config import EIEConfig
from repro.core.functional import FunctionalResult
from repro.core.lnzd import LNZDTree
from repro.core.pe import PEAccessCounters, ProcessingElement
from repro.nn.fixed_point import FixedPointFormat
from repro.nn.layers import ACTIVATIONS


def oracle_run(
    layer: CompressedLayer,
    config: EIEConfig,
    activations: np.ndarray,
    fixed_point: FixedPointFormat | None = None,
    apply_nonlinearity: bool = True,
) -> FunctionalResult:
    """One layer on one activation vector, broadcast by broadcast, PE by PE."""
    pes = [
        ProcessingElement(
            pe_id=pe,
            slice_matrix=layer.storage.per_pe[pe],
            codebook=layer.codebook,
            num_pes=config.num_pes,
            config=config,
            fixed_point=fixed_point,
        )
        for pe in range(config.num_pes)
    ]
    activations = np.asarray(activations, dtype=np.float64)
    if fixed_point is not None:
        activations = fixed_point.quantize(activations)
    for pe in pes:
        pe.reset()
    schedule = LNZDTree(config.num_pes).scan_nonzeros(activations)
    for column, value in schedule:
        for pe in pes:
            pe.process_activation(column, value)
    pre_activation = np.zeros(layer.rows, dtype=np.float64)
    for pe in pes:
        pre_activation[pe.global_output_indices()] = pe.read_outputs()
    if apply_nonlinearity:
        output = ACTIVATIONS[layer.activation_name](pre_activation)
    else:
        output = pre_activation.copy()
    counters = PEAccessCounters()
    for pe in pes:
        counters = counters.merge(pe.counters)
    return FunctionalResult(
        output=output,
        pre_activation=pre_activation,
        broadcasts=len(schedule),
        columns_total=activations.shape[0],
        counters=counters,
        per_pe_entries=np.asarray(
            [pe.counters.entries_processed for pe in pes], dtype=np.int64
        ),
    )


def assert_results_identical(ours: FunctionalResult, oracle: FunctionalResult) -> None:
    """Every field equal, floats compared by their raw bits."""
    assert np.array_equal(ours.pre_activation.view(np.int64), oracle.pre_activation.view(np.int64))
    assert np.array_equal(ours.output.view(np.int64), oracle.output.view(np.int64))
    assert ours.broadcasts == oracle.broadcasts
    assert ours.columns_total == oracle.columns_total
    assert ours.counters == oracle.counters
    assert ours.per_pe_entries.dtype == oracle.per_pe_entries.dtype
    assert np.array_equal(ours.per_pe_entries, oracle.per_pe_entries)
