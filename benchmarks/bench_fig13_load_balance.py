"""Figure 13: load-balance efficiency versus number of PEs at FIFO depth 8.

More PEs mean fewer non-zeros per PE per column and therefore more relative
variance between PEs, so the load-balance efficiency degrades with PE count —
the counterpart of Figure 12's improving padding overhead.  Regenerated by
the ``"fig13_load_balance"`` experiment (every sweep point timed by the
registry's ``"cycle"`` engine).
"""

from __future__ import annotations

import pytest

from repro.workloads.benchmarks import BENCHMARK_NAMES

from benchmarks.conftest import series_of, write_result


def test_fig13_load_balance_vs_pes(benchmark, runner, results_dir):
    """Regenerate Figure 13."""
    result = benchmark.pedantic(
        runner.run, args=("fig13_load_balance",), rounds=1, iterations=1
    )
    write_result(results_dir, result)
    series = series_of(result, "num_pes", "load_balance_efficiency")

    for name in BENCHMARK_NAMES:
        efficiencies = series[name]
        # A single PE is perfectly balanced by definition.
        assert efficiencies[1] == pytest.approx(1.0, abs=0.01)
        # Load balance at 256 PEs is worse than at 1 PE for every benchmark.
        assert efficiencies[256] < efficiencies[1]
        assert 0.0 < efficiencies[256] <= 1.0
    # NT-We (600 rows) suffers the most at high PE counts.
    assert series["NT-We"][256] == min(series[name][256] for name in BENCHMARK_NAMES)
