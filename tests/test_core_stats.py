"""Tests for the statistics containers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.stats import LoadBalanceStats, PerformanceStats


class TestLoadBalanceStats:
    def test_efficiency_definition(self):
        stats = LoadBalanceStats(busy_cycles=np.array([80, 60, 100, 40]), total_cycles=100, num_pes=4)
        assert stats.load_balance_efficiency == pytest.approx(0.7)
        assert stats.worst_pe_utilization == pytest.approx(0.4)
        assert stats.critical_pe_cycles == 100

    def test_stall_cycles(self):
        stats = LoadBalanceStats(busy_cycles=np.array([3, 5]), total_cycles=5, num_pes=2)
        assert stats.stall_cycles.tolist() == [2, 0]

    def test_degenerate_zero_cycles(self):
        stats = LoadBalanceStats(busy_cycles=np.array([0]), total_cycles=0, num_pes=1)
        assert stats.load_balance_efficiency == 1.0


class TestPerformanceStats:
    def test_throughput_metrics(self):
        stats = PerformanceStats(cycles=1000, time_s=1e-5, macs_performed=10_000, dense_macs=100_000)
        assert stats.time_us == pytest.approx(10.0)
        assert stats.frames_per_second == pytest.approx(1e5)
        assert stats.effective_gops == pytest.approx(2.0, rel=0.01)
        assert stats.dense_equivalent_gops == pytest.approx(20.0, rel=0.01)

    def test_dense_equivalent_exceeds_effective(self):
        stats = PerformanceStats(cycles=1, time_s=1e-6, macs_performed=100, dense_macs=3000)
        assert stats.dense_equivalent_gops == pytest.approx(30 * stats.effective_gops)

    def test_zero_time_guarded(self):
        stats = PerformanceStats(cycles=0, time_s=0.0, macs_performed=0, dense_macs=0)
        assert stats.effective_gops == 0.0
        assert stats.frames_per_second == 0.0
