"""The two engines describe one run: ``cycle`` timing against ``functional`` work.

``cycle`` is the repo's only timing model.  These checks hold its records to
the per-PE broadcast walk of :mod:`functional_oracle` and to the
``functional`` engine on the same layer and inputs: the same broadcasts, the
same entries on each PE, the same padding, and total cycles inside the
bounds that the walk's per-broadcast work sets.  Each PE retires at most one
entry per cycle, and with a one-slot activation FIFO the array runs in
lockstep, so that case has an exact closed form.

Every check runs on a grid of array sizes (PE counts that are and are not
powers of two, more PEs than some PEs have rows) and FIFO depths, over a
batch that mixes a dense, a sparse and an all-zero input.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from functional_oracle import ProcessingElement, oracle_run

from repro.compression.pipeline import CompressionConfig, DeepCompressor
from repro.core.config import EIEConfig
from repro.engine import EngineRegistry

# (num_pes, fifo_depth) of each array the checks run on.
ARRAYS = [(1, 8), (2, 2), (3, 4), (4, 8), (6, 1), (16, 8)]


@dataclasses.dataclass
class Case:
    """One layer on one array, its input batch and both engines' records."""

    layer: object
    config: EIEConfig
    batch: np.ndarray
    cycles: tuple
    functional: tuple


def _build_case(num_pes: int, fifo_depth: int) -> Case:
    rng = np.random.default_rng(100 + num_pes)
    rows, cols = 40, 24
    weights = rng.normal(size=(rows, cols))
    weights[rng.random((rows, cols)) >= 0.25] = 0.0
    # One long zero run down column 0, so that some arrays store padding.
    weights[:, 0] = 0.0
    weights[rows - 1, 0] = 1.0
    layer = DeepCompressor(CompressionConfig()).compress(weights, num_pes=num_pes)
    batch = rng.uniform(0.1, 1.0, size=(3, cols))
    batch[1, rng.random(cols) >= 0.3] = 0.0
    batch[1, 0] = 0.5
    batch[2] = 0.0
    config = EIEConfig(num_pes=num_pes, fifo_depth=fifo_depth)
    cycle = EngineRegistry.create("cycle", config)
    functional = EngineRegistry.create("functional", config)
    return Case(
        layer=layer,
        config=config,
        batch=batch,
        cycles=cycle.run(cycle.prepare(layer), batch).cycles,
        functional=functional.run(functional.prepare(layer), batch).functional,
    )


def _walk_work(case: Case, activations: np.ndarray) -> np.ndarray:
    """``(num_pes, broadcasts)`` entries each oracle PE walks per broadcast."""
    config, layer = case.config, case.layer
    pes = [
        ProcessingElement(
            pe_id=pe,
            slice_matrix=layer.storage.per_pe[pe],
            codebook=layer.codebook,
            num_pes=config.num_pes,
            config=config,
        )
        for pe in range(config.num_pes)
    ]
    columns = np.flatnonzero(activations)
    work = np.zeros((config.num_pes, columns.size), dtype=np.int64)
    for broadcast, column in enumerate(columns.tolist()):
        for pe in pes:
            work[pe.pe_id, broadcast] = pe.process_activation(column, activations[column])
    return work


def _lockstep_cycles(work: np.ndarray) -> int:
    """Total cycles when every broadcast waits for the slowest PE.

    Broadcast ``b`` issues once the slowest PE has retired broadcast
    ``b - 1``, and at least one cycle after it; the first issues at cycle 1.
    """
    if work.shape[1] == 0:
        return 0
    slowest = work.max(axis=0)
    return int(1 + np.maximum(slowest[:-1], 1).sum() + slowest[-1])


@pytest.fixture(scope="module", params=ARRAYS, ids=[f"pes{p}-fifo{d}" for p, d in ARRAYS])
def case(request) -> Case:
    return _build_case(*request.param)


class TestCycleAgreesWithFunctional:
    def test_broadcasts_are_the_nonzero_activations(self, case):
        for activations, timing, functional in zip(case.batch, case.cycles, case.functional):
            assert timing.broadcasts == functional.broadcasts
            assert timing.broadcasts == np.count_nonzero(activations)

    def test_busy_cycles_are_the_entries_each_pe_walks(self, case):
        for activations, timing, functional in zip(case.batch, case.cycles, case.functional):
            walked = _walk_work(case, activations).sum(axis=1)
            assert np.array_equal(timing.busy_cycles, walked)
            assert np.array_equal(timing.busy_cycles, functional.per_pe_entries)
            assert timing.num_pes == case.config.num_pes

    def test_entries_and_padding_agree_with_the_oracle(self, case):
        for activations, timing in zip(case.batch, case.cycles):
            oracle = oracle_run(case.layer, case.config, activations)
            assert timing.entries_processed == oracle.total_entries_processed
            assert timing.padding_entries == oracle.counters.padding_entries_processed

    def test_total_cycles_cover_the_critical_pe_and_every_broadcast(self, case):
        for timing in case.cycles:
            if timing.broadcasts == 0:
                assert timing.total_cycles == 0
                continue
            # Broadcast 1 issues at cycle 1, one broadcast per cycle at most.
            assert timing.total_cycles >= timing.broadcasts
            assert timing.total_cycles >= int(timing.busy_cycles.max()) + 1

    def test_total_cycles_at_most_lockstep(self, case):
        for activations, timing in zip(case.batch, case.cycles):
            assert timing.total_cycles <= _lockstep_cycles(_walk_work(case, activations))

    def test_one_slot_fifo_runs_in_lockstep(self, case):
        config = dataclasses.replace(case.config, fifo_depth=1)
        engine = EngineRegistry.create("cycle", config)
        records = engine.run(engine.prepare(case.layer), case.batch).cycles
        for activations, timing in zip(case.batch, records):
            assert timing.fifo_depth == 1
            assert timing.total_cycles == _lockstep_cycles(_walk_work(case, activations))

    def test_theoretical_cycles_are_the_mean_pe_load(self, case):
        for timing, functional in zip(case.cycles, case.functional):
            mean_load = functional.total_entries_processed / case.config.num_pes
            assert timing.theoretical_cycles == pytest.approx(mean_load)
            if timing.entries_processed:
                assert timing.actual_over_theoretical >= 1.0
