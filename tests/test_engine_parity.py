"""Engine-adapter parity: the seam must not change a single bit.

Two families of guarantees, mirroring the paper's simulator-versus-golden
validation flow:

* the ``"functional"`` adapter reproduces the per-PE broadcast walk of
  :mod:`functional_oracle` bit-for-bit, and the ``"cycle"`` adapter the
  single-vector recurrence of :mod:`cycle_oracle` (property-tested over
  random sparse layers and activations);
* a batched ``run`` equals a loop of single-vector runs, element-wise.

:class:`TestAlexNetFCScale` repeats the cycle and functional checks on an
AlexNet-FC-sized layer and holds the batched engine to at least 1.5x the
speed of sequential single-vector simulations.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest
from cycle_oracle import assert_stats_identical, cycle_oracle
from functional_oracle import assert_results_identical, oracle_run
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.compression.pipeline import CompressionConfig, DeepCompressor
from repro.core.config import EIEConfig
from repro.engine import EngineRegistry, FunctionalEngine, Session
from repro.errors import SimulationError
from repro.nn.fixed_point import FixedPointFormat
from repro.utils.rng import make_rng

SETTINGS = settings(max_examples=15, deadline=None)


@st.composite
def layer_and_activations(draw):
    """A random compressed layer, its config, and a batch of activations."""
    rows = draw(st.integers(4, 48))
    cols = draw(st.integers(2, 32))
    num_pes = draw(st.sampled_from((1, 2, 4)))
    batch = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    weights = rng.normal(size=(rows, cols))
    weights[rng.random((rows, cols)) >= draw(st.floats(0.05, 0.5))] = 0.0
    weights[rng.integers(0, rows), rng.integers(0, cols)] = 1.0
    layer = DeepCompressor(CompressionConfig()).compress(weights, num_pes=num_pes)
    activations = rng.uniform(0.1, 1.0, size=(batch, cols))
    activations[rng.random((batch, cols)) >= 0.5] = 0.0
    return layer, EIEConfig(num_pes=num_pes), activations


class TestFunctionalParity:
    @SETTINGS
    @given(case=layer_and_activations())
    def test_engine_matches_legacy_bit_for_bit(self, case):
        layer, config, activations = case
        engine = EngineRegistry.create("functional", config)
        result = engine.run(engine.prepare(layer), activations)
        for row, ours in zip(activations, result.functional):
            assert_results_identical(ours, oracle_run(layer, config, row))

    def test_fixture_layer_matches(self, compressed_layer, small_config, dense_activations):
        engine = EngineRegistry.create("functional", small_config)
        result = engine.run(engine.prepare(compressed_layer), dense_activations)
        oracle = oracle_run(compressed_layer, small_config, dense_activations)
        assert_results_identical(result.functional[0], oracle)

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 80),
        cols=st.integers(1, 24),
        num_pes=st.sampled_from((1, 2, 3, 4, 8, 16)),
        weight_density=st.floats(0.02, 1.0),
        activation_density=st.floats(0.0, 1.0),
        batch=st.integers(1, 4),
        signed=st.booleans(),
        duplicate=st.booleans(),
        seed=st.integers(0, 2**31 - 1),
    )
    # An all-zero input broadcasts nothing.
    @example(rows=20, cols=8, num_pes=4, weight_density=0.3, activation_density=0.0,
             batch=2, signed=False, duplicate=False, seed=1)
    # Negative activations.
    @example(rows=20, cols=8, num_pes=4, weight_density=0.3, activation_density=0.8,
             batch=2, signed=True, duplicate=False, seed=2)
    # More PEs than rows: idle PEs own no rows at all.
    @example(rows=3, cols=6, num_pes=16, weight_density=0.5, activation_density=0.8,
             batch=2, signed=False, duplicate=False, seed=3)
    # A zero run longer than 15 stores padding entries.
    @example(rows=80, cols=4, num_pes=1, weight_density=0.02, activation_density=1.0,
             batch=1, signed=False, duplicate=False, seed=4)
    # Dense columns: every (PE, column) slice fills exactly one Spmat read.
    @example(rows=16, cols=4, num_pes=2, weight_density=1.0, activation_density=1.0,
             batch=1, signed=False, duplicate=False, seed=6)
    # A batch whose first and last items are the same vector.
    @example(rows=24, cols=10, num_pes=2, weight_density=0.3, activation_density=0.6,
             batch=3, signed=True, duplicate=True, seed=5)
    def test_vectorized_runs_match_oracle_every_field(
        self, rows, cols, num_pes, weight_density, activation_density, batch, signed,
        duplicate, seed,
    ):
        rng = np.random.default_rng(seed)
        weights = rng.normal(size=(rows, cols))
        weights[rng.random((rows, cols)) >= weight_density] = 0.0
        weights[rows - 1, 0] = 1.0
        layer = DeepCompressor(CompressionConfig()).compress(weights, num_pes=num_pes)
        activations = rng.uniform(0.1, 1.0, size=(batch, cols))
        if signed:
            activations *= rng.choice((-1.0, 1.0), size=(batch, cols))
        activations[rng.random((batch, cols)) >= activation_density] = 0.0
        if duplicate:
            activations[-1] = activations[0]
        config = EIEConfig(num_pes=num_pes)
        for fixed_point in (None, FixedPointFormat(total_bits=16, fraction_bits=8)):
            engine = FunctionalEngine(config, fixed_point=fixed_point)
            prepared = engine.prepare(layer)
            batched = engine.run(prepared, activations)
            for row, ours in zip(activations, batched.functional):
                oracle = oracle_run(layer, config, row, fixed_point=fixed_point)
                assert_results_identical(ours, oracle)
                assert_results_identical(engine.run(prepared, row).functional[0], oracle)


class TestCycleParity:
    @SETTINGS
    @given(case=layer_and_activations())
    def test_engine_matches_legacy_bit_for_bit(self, case):
        layer, config, activations = case
        engine = EngineRegistry.create("cycle", config)
        result = engine.run(engine.prepare(layer), activations)
        for row, ours in zip(activations, result.cycles):
            assert_stats_identical(ours, cycle_oracle(layer, config, row))

    def test_fixture_layer_matches(self, compressed_layer, small_config, dense_activations):
        engine = EngineRegistry.create("cycle", small_config)
        result = engine.run(engine.prepare(compressed_layer), dense_activations)
        assert_stats_identical(
            result.stats, cycle_oracle(compressed_layer, small_config, dense_activations)
        )


class TestBatchedEqualsLoop:
    @SETTINGS
    @given(case=layer_and_activations())
    def test_functional_batch(self, case):
        layer, config, activations = case
        engine = EngineRegistry.create("functional", config)
        prepared = engine.prepare(layer)
        batched = engine.run(prepared, activations)
        assert batched.batch_size == activations.shape[0]
        assert batched.batched
        for index, row in enumerate(activations):
            single = engine.run(prepared, row)
            assert not single.batched
            assert np.array_equal(batched.outputs[index], single.output)
            ours, alone = batched.functional[index], single.functional[0]
            assert np.array_equal(
                ours.pre_activation.view(np.int64), alone.pre_activation.view(np.int64)
            )
            assert ours.counters == alone.counters
            assert np.array_equal(ours.per_pe_entries, alone.per_pe_entries)

    @SETTINGS
    @given(case=layer_and_activations())
    def test_cycle_batch(self, case):
        layer, config, activations = case
        engine = EngineRegistry.create("cycle", config)
        prepared = engine.prepare(layer)
        batched = engine.run(prepared, activations)
        assert len(batched.cycles) == activations.shape[0]
        for index, row in enumerate(activations):
            assert_stats_identical(batched.cycles[index], engine.run(prepared, row).stats)

    def test_all_zero_row_in_batch(self, compressed_layer, small_config):
        # A row with no non-zero activations broadcasts nothing: zero cycles.
        batch = np.zeros((2, compressed_layer.cols))
        batch[0, 3] = 0.5
        engine = EngineRegistry.create("cycle", small_config)
        result = engine.run(engine.prepare(compressed_layer), batch)
        assert result.cycles[0].total_cycles > 0
        assert result.cycles[1].total_cycles == 0
        functional = EngineRegistry.create("functional", small_config)
        outputs = functional.run(functional.prepare(compressed_layer), batch).outputs
        assert np.array_equal(outputs[1], np.zeros(compressed_layer.rows))


class TestNonFiniteActivations:
    @pytest.mark.parametrize("engine_name", ["functional", "cycle"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejected_with_a_typed_error(
        self, engine_name, bad, compressed_layer, small_config, dense_activations
    ):
        engine = EngineRegistry.create(engine_name, small_config)
        prepared = engine.prepare(compressed_layer)
        vector = dense_activations.copy()
        vector[1] = bad
        with pytest.raises(SimulationError, match="finite"):
            engine.run(prepared, vector)
        with pytest.raises(SimulationError, match="finite"):
            engine.run(prepared, np.stack([dense_activations, vector]))


class TestWorkloadPath:
    def test_workload_simulate_goes_through_engine(self, tiny_spec):
        from repro.workloads.generator import WorkloadBuilder

        builder = WorkloadBuilder()
        workload = builder.build(tiny_spec, 4)
        config = EIEConfig(num_pes=4)
        stats = workload.simulate(config)
        engine = EngineRegistry.create("cycle", config)
        assert_stats_identical(stats, engine.run(engine.prepare(workload)).stats)

    def test_workload_prepared_layer_rejects_activations(self, tiny_spec):
        from repro.errors import SimulationError
        from repro.workloads.generator import WorkloadBuilder

        workload = WorkloadBuilder().build(tiny_spec, 4)
        engine = EngineRegistry.create("cycle", EIEConfig(num_pes=4))
        prepared = engine.prepare(workload)
        with pytest.raises(SimulationError):
            engine.run(prepared, np.ones(tiny_spec.cols))


class TestAlexNetFCScale:
    """A 2048 x 2048 layer at Alex-7's densities, 64 PEs, a batch of 64."""

    BATCH = 64

    @pytest.fixture(scope="class")
    def setup(self):
        rng = make_rng(7)
        weights = rng.normal(0.0, 0.1, size=(2048, 2048))
        session = Session(CompressionConfig(target_density=0.09), config=EIEConfig(num_pes=64))
        layer = session.compress(weights, num_pes=64, name="alex7-half")
        batch = rng.uniform(0.1, 1.0, size=(self.BATCH, 2048))
        batch[rng.random((self.BATCH, 2048)) >= 0.35] = 0.0
        return session, layer, batch

    def test_engines_match_cycle_class_and_dense_product(self, setup):
        session, layer, batch = setup
        config = session.default_config
        vector = batch[0]
        cycle_engine = EngineRegistry.create("cycle", config)
        engine_stats = cycle_engine.run(cycle_engine.prepare(layer), vector).stats
        oracle_stats = cycle_oracle(layer, config, vector)
        assert engine_stats.total_cycles == oracle_stats.total_cycles
        assert np.array_equal(engine_stats.busy_cycles, oracle_stats.busy_cycles)
        assert engine_stats.padding_entries == oracle_stats.padding_entries

        functional_engine = EngineRegistry.create("functional", config)
        engine_output = functional_engine.run(functional_engine.prepare(layer), vector).output
        dense_output = np.maximum(layer.dense_weights() @ vector, 0.0)
        assert np.allclose(engine_output, dense_output, rtol=1e-9, atol=1e-12)

    def test_batched_run_equals_sequential_simulations(self, setup):
        session, layer, batch = setup
        sequential = [cycle_oracle(layer, session.default_config, row) for row in batch]
        batched = session.run("cycle", layer, batch)
        assert len(batched.cycles) == self.BATCH
        assert all(
            ours.total_cycles == theirs.total_cycles
            and ours.entries_processed == theirs.entries_processed
            and ours.padding_entries == theirs.padding_entries
            for ours, theirs in zip(batched.cycles, sequential)
        )

    def test_batched_run_is_at_least_1_5x_faster(self, setup):
        """Medians of 5 alternating (64 sequential runs, one batched run) pairs."""
        session, layer, batch = setup
        session.run("cycle", layer, batch[:2])  # warm the prepared-layer cache
        sequential_s, batched_s = [], []
        for _ in range(5):
            start = time.perf_counter()
            for row in batch:
                cycle_oracle(layer, session.default_config, row)
            sequential_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            session.run("cycle", layer, batch)
            batched_s.append(time.perf_counter() - start)
        speedup = statistics.median(sequential_s) / statistics.median(batched_s)
        assert speedup >= 1.5, (
            f"batched cycle simulation is only {speedup:.1f}x faster than "
            f"{self.BATCH} sequential runs (need >= 1.5x)"
        )
