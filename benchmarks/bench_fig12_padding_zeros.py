"""Figure 12: real work / total work (padding-zero overhead) versus #PEs.

With more PEs each PE's slice of a column is shorter, so zero runs longer
than 15 (which force padding zeros) become rarer and the fraction of useful
work rises — the effect that offsets the worsening load balance in Figure 13.
Regenerated by the ``"fig12_padding_zeros"`` experiment (a whole-matrix
statistic: no engine runs required).
"""

from __future__ import annotations

from repro.workloads.benchmarks import BENCHMARK_NAMES

from benchmarks.conftest import series_of, write_result


def test_fig12_padding_zero_overhead(benchmark, runner, results_dir):
    """Regenerate Figure 12."""
    result = benchmark.pedantic(
        runner.run, args=("fig12_padding_zeros",), rounds=1, iterations=1
    )
    write_result(results_dir, result)
    series = series_of(result, "num_pes", "real_work_fraction")

    for name in BENCHMARK_NAMES:
        fractions = [series[name][n] for n in sorted(series[name])]
        # Padding overhead shrinks (real work fraction grows) with more PEs.
        assert all(b >= a - 1e-9 for a, b in zip(fractions, fractions[1:]))
        assert 0.0 < fractions[0] <= 1.0
        # With 256 PEs the local columns are so short that padding largely vanishes.
        assert series[name][256] > 0.9
    # The sparsest layers (VGG-6/7 at 4% density) have the most padding at 1 PE.
    sparsest = min(series[name][1] for name in BENCHMARK_NAMES)
    assert min(series["VGG-6"][1], series["VGG-7"][1]) == sparsest
    assert series["VGG-6"][1] < series["Alex-6"][1] < series["Alex-8"][1]
