"""Figure 8: load-balance efficiency versus activation FIFO depth.

Sweeps the queue depth from 1 to 256 on all nine full-size benchmarks at 64
PEs through the ``"fig8_fifo_depth"`` experiment and checks the paper's
conclusions: efficiency improves monotonically with depth, a large fraction
of cycles are idle at depth 1, and the marginal gain beyond depth 8 is small
(which is why the paper picks 8).
"""

from __future__ import annotations

from repro.workloads.benchmarks import BENCHMARK_NAMES

from benchmarks.conftest import series_of, write_result


def test_fig8_fifo_depth_sweep(benchmark, runner, results_dir):
    """Regenerate Figure 8."""
    result = benchmark.pedantic(
        runner.run, args=("fig8_fifo_depth",), rounds=1, iterations=1
    )
    write_result(results_dir, result)
    sweep = series_of(result, "fifo_depth", "load_balance_efficiency")

    for name in BENCHMARK_NAMES:
        per_depth = sweep[name]
        depths = sorted(per_depth)
        values = [per_depth[d] for d in depths]
        # Monotone improvement with diminishing returns beyond depth 8.
        assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))
        assert per_depth[256] - per_depth[8] <= (per_depth[8] - per_depth[1]) + 0.05
    # At depth 1 a substantial fraction of cycles are idle on the large layers.
    assert sweep["Alex-6"][1] < 0.85
    # NT-We has the worst load balance (only 600 rows over 64 PEs).
    assert sweep["NT-We"][8] == min(sweep[name][8] for name in BENCHMARK_NAMES)
