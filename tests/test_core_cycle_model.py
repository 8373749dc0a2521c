"""Tests for the cycle-level performance model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import EIEConfig
from repro.core.cycle_model import simulate_layer_cycles
from repro.engine import Session
from repro.errors import SimulationError


class TestSimulateLayerCycles:
    def test_single_pe_cycles_equal_total_work_plus_pipeline_fill(self):
        work = np.array([[3, 2, 5, 1]])
        stats = simulate_layer_cycles(work, fifo_depth=8)
        # One PE can never go faster than its total work; the broadcast of the
        # first column adds at most one cycle of fill.
        assert work.sum() <= stats.total_cycles <= work.sum() + 1
        assert stats.load_balance_efficiency > 0.9

    def test_balanced_work_is_nearly_perfect(self):
        work = np.full((4, 50), 3)
        stats = simulate_layer_cycles(work, fifo_depth=8)
        assert stats.load_balance_efficiency > 0.95
        assert stats.actual_over_theoretical < 1.1

    def test_total_cycles_bounded_below_by_critical_pe(self):
        rng = np.random.default_rng(0)
        work = rng.integers(0, 6, size=(8, 100))
        stats = simulate_layer_cycles(work, fifo_depth=8)
        assert stats.total_cycles >= work.sum(axis=1).max()
        assert stats.total_cycles >= stats.broadcasts

    def test_deeper_fifo_never_hurts(self):
        rng = np.random.default_rng(1)
        work = rng.poisson(2.0, size=(16, 400))
        cycles = [
            simulate_layer_cycles(work, fifo_depth=depth).total_cycles
            for depth in (1, 2, 4, 8, 32, 256)
        ]
        assert all(later <= earlier for earlier, later in zip(cycles, cycles[1:]))

    def test_fifo_one_suffers_from_load_imbalance(self):
        rng = np.random.default_rng(2)
        work = rng.poisson(2.0, size=(32, 500))
        shallow = simulate_layer_cycles(work, fifo_depth=1)
        deep = simulate_layer_cycles(work, fifo_depth=64)
        assert shallow.load_balance_efficiency < deep.load_balance_efficiency
        assert deep.load_balance_efficiency > 0.85

    def test_theoretical_cycles_and_ratio(self):
        work = np.array([[2, 2], [4, 0]])
        stats = simulate_layer_cycles(work, fifo_depth=8)
        assert stats.theoretical_cycles == pytest.approx(4.0)
        assert stats.actual_over_theoretical >= 1.0

    def test_padding_accounting(self):
        work = np.array([[2, 3], [1, 1]])
        padding = np.array([[1, 0], [0, 1]])
        stats = simulate_layer_cycles(work, fifo_depth=8, padding_work=padding)
        assert stats.padding_entries == 2
        assert stats.real_work_fraction == pytest.approx(1 - 2 / 7)

    def test_empty_workload(self):
        stats = simulate_layer_cycles(np.zeros((4, 0), dtype=int), fifo_depth=8)
        assert stats.total_cycles == 0
        assert stats.broadcasts == 0

    def test_time_conversion(self):
        work = np.full((2, 10), 4)
        stats = simulate_layer_cycles(work, fifo_depth=8, clock_mhz=800.0)
        assert stats.time_s == pytest.approx(stats.total_cycles / 800e6)
        assert stats.theoretical_time_s <= stats.time_s

    def test_performance_record(self):
        work = np.full((2, 10), 4)
        stats = simulate_layer_cycles(work, fifo_depth=8)
        performance = stats.performance(dense_macs=1000)
        assert performance.macs_performed == stats.entries_processed
        assert performance.dense_equivalent_gops > performance.effective_gops

    def test_invalid_inputs_rejected(self):
        with pytest.raises(SimulationError):
            simulate_layer_cycles(np.zeros(4, dtype=int), fifo_depth=8)
        with pytest.raises(SimulationError):
            simulate_layer_cycles(np.array([[-1]]), fifo_depth=8)
        with pytest.raises(SimulationError):
            simulate_layer_cycles(np.array([[1]]), fifo_depth=0)
        with pytest.raises(SimulationError):
            simulate_layer_cycles(np.array([[1]]), fifo_depth=2, padding_work=np.zeros((2, 2)))

    def test_zero_pes_rejected(self):
        # An empty PE axis used to silently report theoretical_cycles = 0.0.
        with pytest.raises(SimulationError, match="at least one PE"):
            simulate_layer_cycles(np.zeros((0, 5), dtype=int), fifo_depth=8)

    def test_non_positive_clock_rejected(self):
        work = np.array([[1, 2]])
        with pytest.raises(SimulationError, match="clock_mhz"):
            simulate_layer_cycles(work, fifo_depth=8, clock_mhz=0.0)
        with pytest.raises(SimulationError, match="clock_mhz"):
            simulate_layer_cycles(work, fifo_depth=8, clock_mhz=-800.0)


class TestCycleAccurateEIE:
    """The cycle-accurate layer run, through ``Session.run("cycle", ...)``."""

    def test_layer_simulation_consistent_with_functional_entries(
        self, compressed_layer, small_config, dense_activations
    ):
        from repro.core.functional import FunctionalEIE

        cycle_stats = Session(config=small_config).run(
            "cycle", compressed_layer, dense_activations
        ).stats
        functional = FunctionalEIE(compressed_layer, small_config).run(dense_activations)
        assert cycle_stats.entries_processed == functional.total_entries_processed
        assert cycle_stats.broadcasts == functional.broadcasts

    def test_padding_entries_bounded_by_storage(
        self, compressed_layer, small_config, dense_activations
    ):
        session = Session(config=small_config)
        stats = session.run("cycle", compressed_layer, dense_activations).stats
        assert 0 <= stats.padding_entries <= compressed_layer.storage.num_padding_zeros

    def test_wrong_activation_length_rejected(self, compressed_layer, small_config):
        with pytest.raises(SimulationError, match="activation length"):
            Session(config=small_config).run(
                "cycle", compressed_layer, np.zeros(compressed_layer.cols + 3)
            )

    def test_pe_mismatch_rejected(self, compressed_layer):
        with pytest.raises(SimulationError, match="interleaved over 4 PEs"):
            Session(config=EIEConfig(num_pes=16)).run(
                "cycle", compressed_layer, np.zeros(compressed_layer.cols)
            )

    def test_work_matrix_entry_point(self, small_config):
        stats = simulate_layer_cycles(np.full((4, 20), 2), fifo_depth=small_config.fifo_depth)
        assert stats.fifo_depth == small_config.fifo_depth
        assert stats.entries_processed == 160
