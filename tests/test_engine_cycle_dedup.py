"""Broadcast-set dedup, sibling fusion and idle-lane dropping in the cycle engine.

A layer's timing depends only on which activations are non-zero (the
broadcast set), never on their values, so ``CycleEngine.run`` simulates each
distinct non-zero mask of a batch once and shares the resulting
:class:`CycleStats` among every item with that mask.  Sibling nodes of a
model (same source, same input slice) share those masks too, so
``Session.run_model`` runs each sibling group through one engine call, and
the batched recurrence packs only the PE lanes that have work.  These tests
pin:

* exactness — a batched, fused, lane-dropped run equals a per-node,
  per-item ``simulate_layer_cycles`` over every PE on every ``CycleStats``
  field, and the propagated outputs equal the unfused functional engine's;
* the cuts themselves — rows sharing one mask reach the batched recurrence
  as a single work matrix, a model's sibling gates reach it in one call, and
  a repeated all-columns mask (a dense input) does not reach it again, so a
  later refactor cannot silently undo any of them;
* that the kept all-columns timing follows FIFO-depth and clock changes on
  one session, next to masks that still simulate;
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
from cycle_oracle import assert_stats_identical, cycle_oracle
from repro.compression.pipeline import CompressionConfig, DeepCompressor
from repro.core.config import EIEConfig
from repro.core.cycle_model import simulate_layer_cycles, simulate_layer_cycles_batch
from repro.engine import EngineRegistry, Session
from repro.models import MatVecNode, ModelIR, build_model

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
    for row, ours in zip(activations, result.cycles):
        assert_stats_identical(ours, cycle_oracle(layer, config, row))


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


def _sibling_model(case) -> ModelIR:
    """Sibling nodes on the input, interleaved with siblings on ``s0``'s output.

    Column 0 feeds row 0 alone, so a mask of column 0 by itself leaves every
    PE but PE 0 idle while wider masks give them work.
    """
    if "model" in case:
        name, mode = case["model"]
        return build_model(name, scale=32, params={"mode": mode})
    rng = np.random.default_rng(case["layer_seed"])

    def weights(rows, cols):
        matrix = rng.normal(size=(rows, cols))
        matrix[rng.random((rows, cols)) >= 0.4] = 0.0
        matrix[:, 0] = 0.0
        matrix[0, 0] = 1.0
        return matrix

    cols, rows = len(case["masks"][0]), case["rows"]
    roots = [MatVecNode(f"s{g}", weights(size, cols)) for g, size in enumerate(rows)]
    tails = [MatVecNode(f"t{k}", weights(5 + k, rows[0]), source="s0") for k in range(2)]
    return ModelIR([roots[0], tails[0], *roots[1:], tails[1]], name="siblings")


@st.composite
def sibling_cases(draw):
    """A model with sibling node groups plus a batch from a small mask pool."""
    cols = draw(st.integers(2, 24))
    pool = draw(
        st.lists(st.lists(st.booleans(), min_size=cols, max_size=cols), min_size=1, max_size=3)
    )
    return {
        "rows": draw(st.lists(st.integers(1, 24), min_size=1, max_size=4)),
        "num_pes": draw(st.sampled_from((1, 2, 4, 8))),
        "fifo_depth": draw(st.sampled_from((1, 2, 8, 64))),
        "layer_seed": draw(st.integers(0, 2**31 - 1)),
        "masks": pool,
        "picks": draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8)),
        "value_seed": draw(st.integers(0, 2**31 - 1)),
    }


def _sibling_case(masks, picks, rows=(12, 7, 9), num_pes=4, fifo_depth=4, **extra):
    return {
        "rows": list(rows), "num_pes": num_pes, "fifo_depth": fifo_depth,
        "layer_seed": 11, "masks": masks, "picks": picks, "value_seed": 13, **extra,
    }


_COL0 = [True] + [False] * (len(_A) - 1)
_LSTM_MASKS = [[index % 3 != 0 for index in range(38)], [True] * 38]


class TestSiblingFusionIsExact:
    @settings(max_examples=25, deadline=None)
    @given(case=sibling_cases())
    @example(case=_sibling_case([_ZERO], [0, 0]))  # all-zero inputs: zero-length items
    @example(case=_sibling_case([_A, _B], [0, 1], rows=(2, 3), num_pes=8))  # PEs > rows
    @example(case=_sibling_case([_COL0, _A], [0, 1, 0]))  # PEs 1-3 idle for one mask
    @example(case=_sibling_case([_A], [0]))  # batch 1
    @example(case=_sibling_case([_A, _B], [1, 0, 1], fifo_depth=1))  # the closed form
    @example(case=_sibling_case([_A, _B], [0, 1], fifo_depth=64))  # no backpressure
    @example(case=_sibling_case(_LSTM_MASKS, [0, 1, 0], model=("neuraltalk_lstm", "stacked")))
    @example(case=_sibling_case(_LSTM_MASKS, [1, 0], model=("neuraltalk_lstm", "per_gate")))
    def test_fused_run_equals_per_node_runs(self, case):
        model = _sibling_model(case)
        config = EIEConfig(num_pes=case["num_pes"], fifo_depth=case["fifo_depth"])
        masks = np.asarray(case["masks"], dtype=bool)
        inputs = _batch_from_masks(masks, case["picks"], case["value_seed"])
        session = Session(config=config)
        run = session.run_model("cycle", model, inputs)
        unfused = session.run_model("functional", model, inputs)
        layers = session.compress_model(model, config.num_pes).layers
        for node, record in zip(model, run.nodes):
            node_inputs = model.node_input(node, inputs, run.node_outputs)
            assert len(record.result.cycles) == inputs.shape[0]
            for row, ours in zip(node_inputs, record.result.cycles):
                assert_stats_identical(ours, cycle_oracle(layers[node.name], config, row))
            outputs = run.node_outputs[node.name]
            assert outputs.tobytes() == unfused.node_outputs[node.name].tobytes()


class TestIdleLanesDropExactly:
    @settings(max_examples=40, deadline=None)
    @given(
        num_pes=st.integers(1, 6),
        lengths=st.lists(st.integers(0, 12), min_size=1, max_size=5),
        idle=st.sets(st.integers(0, 5)),
        fifo_depth=st.sampled_from((1, 2, 3, 16)),
        seed=st.integers(0, 2**31 - 1),
    )
    @example(num_pes=3, lengths=[0, 0], idle=set(), fifo_depth=2, seed=0)  # zero-length
    @example(num_pes=4, lengths=[5, 3], idle={0, 1, 2, 3}, fifo_depth=2, seed=0)  # all idle
    def test_batched_recurrence_equals_full_lane_runs(
        self, num_pes, lengths, idle, fifo_depth, seed
    ):
        rng = np.random.default_rng(seed)
        works = [rng.integers(0, 4, size=(num_pes, length)) for length in lengths]
        for work in works:
            work[[pe for pe in idle if pe < num_pes]] = 0
        batched = simulate_layer_cycles_batch(works, fifo_depth)
        for work, ours in zip(works, batched):
            assert_stats_identical(ours, simulate_layer_cycles(work, fifo_depth))


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

    def test_sibling_gates_reach_the_recurrence_once(self, recorded_batches):
        model = build_model("neuraltalk_lstm", scale=32, params={"mode": "per_gate"})
        mask = np.ones((1, model.input_size), dtype=bool)
        run = Session(config=EIEConfig(num_pes=8)).run_model(
            "cycle", model, _batch_from_masks(mask, [0] * 4, seed=6)
        )
        assert len(run.nodes) == 4
        assert recorded_batches == [4]
        assert all(len(record.result.cycles) == 4 for record in run.nodes)


    def test_second_full_broadcast_skips_the_recurrence(self, recorded_batches):
        model = build_model("neuraltalk_lstm", scale=32, params={"mode": "per_gate"})
        session = Session(config=EIEConfig(num_pes=8))
        full = np.ones((1, model.input_size), dtype=bool)
        first = session.run_model("cycle", model, _batch_from_masks(full, [0] * 4, seed=6))
        second = session.run_model("cycle", model, _batch_from_masks(full, [0] * 3, seed=7))
        assert recorded_batches == [4]
        for before, after in zip(first.nodes, second.nodes):
            assert all(stats is before.result.cycles[0] for stats in after.result.cycles)


_STEPS = (  # (fifo_depth, clock_mhz, picks from [full, partial, zero])
    (8, 800.0, [0, 1, 0]),
    (8, 800.0, [1, 0, 2, 0]),  # full-mask hit next to masks that still simulate
    (8, 800.0, [0]),  # a batch of the full mask alone
    (2, 800.0, [0, 1]),  # new depth: the full mask simulates again
    (8, 500.0, [1, 0]),  # new clock, same depth: and again
    (2, 800.0, [0, 2]),
    (8, 800.0, [0, 0, 1]),
)


class TestFullMaskTimingIsExact:
    @pytest.mark.parametrize(
        "case",
        [
            _sibling_case([_A], [0], model=("neuraltalk_lstm", "per_gate")),
            _sibling_case([_A], [0], rows=(12, 7, 9)),
        ],
    )
    def test_one_session_matches_fresh_sessions_and_the_oracle(self, case):
        model = _sibling_model(case)
        cols = model.input_size
        masks = np.array([[True] * cols, [index % 3 != 0 for index in range(cols)], [False] * cols])
        session = Session(config=EIEConfig(num_pes=4))
        layers = session.compress_model(model, 4).layers
        for step, (fifo_depth, clock_mhz, picks) in enumerate(_STEPS):
            config = EIEConfig(num_pes=4, fifo_depth=fifo_depth, clock_mhz=clock_mhz)
            inputs = _batch_from_masks(masks, picks, seed=step)
            ours = session.run_model("cycle", model, inputs, config)
            fresh = Session(config=config).run_model("cycle", model, inputs, config)
            for node, record, reference in zip(model, ours.nodes, fresh.nodes):
                node_inputs = model.node_input(node, inputs, ours.node_outputs)
                for row, mine, theirs in zip(
                    node_inputs, record.result.cycles, reference.result.cycles, strict=True
                ):
                    assert_stats_identical(mine, theirs)
                    assert_stats_identical(mine, cycle_oracle(layers[node.name], config, row))


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
