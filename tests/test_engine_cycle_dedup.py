"""Broadcast-set dedup in the batched cycle engine.

A layer's timing depends only on which activations are non-zero (the
broadcast set), never on their values, so ``CycleEngine.run`` simulates each
distinct non-zero mask of a batch once and shares the resulting
:class:`CycleStats` among every item with that mask.  These tests pin:

* exactness — a batched run equals a per-item ``simulate_layer_cycles`` on
  every ``CycleStats`` field;
* the cut itself — rows sharing one mask reach the batched recurrence as a
  single work matrix, so a later refactor cannot silently undo it;
* safety of the sharing — the record is frozen and its ``busy_cycles`` is
  read-only, so one item cannot mutate another item's record.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.engine.adapters as adapters
from repro.compression.pipeline import CompressionConfig, DeepCompressor
from repro.core.config import EIEConfig
from repro.core.cycle_model import (
    CycleStats,
    layer_work_matrices,
    simulate_layer_cycles,
    simulate_layer_cycles_batch,
)
from repro.engine import EngineRegistry

ENGINES = ("cycle",)


def _compress(rows: int, cols: int, num_pes: int, seed: int):
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(rows, cols))
    weights[rng.random((rows, cols)) >= 0.3] = 0.0
    weights[0, 0] = 1.0
    return DeepCompressor(CompressionConfig()).compress(weights, num_pes=num_pes)


def _batch_from_masks(masks: np.ndarray, picks: list[int], seed: int) -> np.ndarray:
    """One row per pick: the picked mask filled with fresh random values."""
    rng = np.random.default_rng(seed)
    chosen = masks[picks]
    values = rng.uniform(0.1, 2.0, size=chosen.shape) * rng.choice([-1.0, 1.0], chosen.shape)
    return np.where(chosen, values, 0.0)


def _assert_matches_per_item(engine_name, layer, config, activations) -> None:
    engine = EngineRegistry.create(engine_name, config)
    result = engine.run(engine.prepare(layer), activations)
    assert len(result.cycles) == activations.shape[0]
    counts, padding = layer_work_matrices(layer)
    for row, ours in zip(activations, result.cycles):
        columns = np.nonzero(row)[0]
        reference = simulate_layer_cycles(
            counts[:, columns],
            config.fifo_depth,
            padding_work=padding[:, columns],
            clock_mhz=config.clock_mhz,
        )
        for field in dataclasses.fields(CycleStats):
            mine, theirs = getattr(ours, field.name), getattr(reference, field.name)
            if isinstance(theirs, np.ndarray):
                assert mine.dtype == theirs.dtype, field.name
                assert np.array_equal(mine, theirs), field.name
            else:
                assert type(mine) is type(theirs), field.name
                assert mine == theirs, field.name


@st.composite
def masked_batches(draw):
    """A random layer plus a batch drawn from a small pool of masks."""
    cols = draw(st.integers(2, 24))
    pool = draw(
        st.lists(st.lists(st.booleans(), min_size=cols, max_size=cols), min_size=1, max_size=4)
    )
    return {
        "rows": draw(st.integers(4, 40)),
        "num_pes": draw(st.sampled_from((1, 2, 4, 8))),
        "fifo_depth": draw(st.sampled_from((1, 2, 8))),
        "layer_seed": draw(st.integers(0, 2**31 - 1)),
        "masks": pool,
        "picks": draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=10)),
        "value_seed": draw(st.integers(0, 2**31 - 1)),
    }


def _case(masks, picks, rows=24, num_pes=4, fifo_depth=4):
    return {
        "rows": rows, "num_pes": num_pes, "fifo_depth": fifo_depth,
        "layer_seed": 3, "masks": masks, "picks": picks, "value_seed": 5,
    }


_A = [True, False, True, True, False, False, True, False, True, True]
_B = [False, True, True, False, True, False, False, True, False, True]
_ZERO = [False] * len(_A)


class TestDedupIsExact:
    @pytest.mark.parametrize("engine_name", ENGINES)
    @settings(max_examples=20, deadline=None)
    @given(case=masked_batches())
    @example(case=_case([_A, _B], [0, 1, 0, 0, 1]))  # duplicate masks
    @example(case=_case([_A], [0, 0]))  # rows that differ only in values
    @example(case=_case([_ZERO, _A], [0, 1, 0]))  # all-zero rows
    @example(case=_case([_A], [0]))  # batch 1
    @example(case=_case([_B], [0] * 16, fifo_depth=1))  # every row one mask
    def test_batched_run_equals_per_item_simulation(self, engine_name, case):
        masks = np.asarray(case["masks"], dtype=bool)
        layer = _compress(case["rows"], masks.shape[1], case["num_pes"], case["layer_seed"])
        config = EIEConfig(num_pes=case["num_pes"], fifo_depth=case["fifo_depth"])
        activations = _batch_from_masks(masks, case["picks"], case["value_seed"])
        _assert_matches_per_item(engine_name, layer, config, activations)


class TestDedupCut:
    @pytest.fixture
    def recorded_batches(self, monkeypatch):
        calls: list[int] = []

        def spy(works, *args, **kwargs):
            calls.append(len(works))
            return simulate_layer_cycles_batch(works, *args, **kwargs)

        monkeypatch.setattr(adapters, "simulate_layer_cycles_batch", spy)
        return calls

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_one_shared_mask_reaches_the_recurrence_once(
        self, engine_name, recorded_batches, compressed_layer, small_config
    ):
        mask = np.zeros((1, compressed_layer.cols), dtype=bool)
        mask[0, ::3] = True
        activations = _batch_from_masks(mask, [0] * 16, seed=1)
        assert len({row.tobytes() for row in activations}) == 16
        engine = EngineRegistry.create(engine_name, small_config)
        result = engine.run(engine.prepare(compressed_layer), activations)
        assert recorded_batches == [1]
        assert len(result.cycles) == 16
        assert all(stats is result.cycles[0] for stats in result.cycles)

    @pytest.mark.parametrize("engine_name", ENGINES)
    def test_distinct_masks_each_reach_the_recurrence(
        self, engine_name, recorded_batches, compressed_layer, small_config
    ):
        masks = np.zeros((16, compressed_layer.cols), dtype=bool)
        for item in range(16):
            masks[item, : item + 1] = True
        activations = _batch_from_masks(masks, list(range(16)), seed=2)
        engine = EngineRegistry.create(engine_name, small_config)
        result = engine.run(engine.prepare(compressed_layer), activations)
        assert recorded_batches == [16]
        assert [stats.broadcasts for stats in result.cycles] == list(range(1, 17))


class TestSharedStatsAreReadOnly:
    def test_single_simulation_busy_cycles_reject_writes(self):
        stats = simulate_layer_cycles(np.array([[1, 2], [3, 0]]), fifo_depth=2)
        with pytest.raises(ValueError):
            stats.busy_cycles[0] = 7
        empty = simulate_layer_cycles(np.zeros((2, 0), dtype=np.int64), fifo_depth=2)
        with pytest.raises(ValueError):
            empty.busy_cycles += 1

    def test_batched_simulation_busy_cycles_reject_writes(self):
        works = [np.array([[1, 2], [3, 0]]), np.zeros((2, 0), dtype=np.int64)]
        for stats in simulate_layer_cycles_batch(works, fifo_depth=2):
            with pytest.raises(ValueError):
                stats.busy_cycles[0] = 7

    def test_engine_shared_record_cannot_leak_between_items(
        self, compressed_layer, small_config
    ):
        mask = np.ones((1, compressed_layer.cols), dtype=bool)
        activations = _batch_from_masks(mask, [0, 0], seed=4)
        engine = EngineRegistry.create("cycle", small_config)
        first, second = engine.run(engine.prepare(compressed_layer), activations).cycles
        before = second.busy_cycles.copy()
        with pytest.raises(ValueError):
            first.busy_cycles[:] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.total_cycles = 0
        assert np.array_equal(second.busy_cycles, before)
