"""Figure 10: prediction accuracy and multiply energy versus arithmetic precision.

Regenerates the accuracy-proxy / multiplier-energy trade-off for 32-bit
float, 32-bit, 16-bit and 8-bit fixed point through the ``"fig10_precision"``
experiment and checks the paper's conclusions: 16-bit fixed point costs ~5x
less multiply energy than 32-bit fixed point and ~6x less than float while
losing almost no accuracy, whereas 8-bit fixed point collapses.
"""

from __future__ import annotations

from benchmarks.conftest import write_result


def test_fig10_arithmetic_precision(benchmark, runner, results_dir):
    """Regenerate Figure 10."""
    result = benchmark.pedantic(
        runner.run,
        args=("fig10_precision",),
        kwargs={"params": {"num_samples": 512}},
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, result)
    by_precision = {point["precision"]: point for point in result.records}

    float32 = by_precision["float32"]
    int16 = by_precision["int16"]
    int8 = by_precision["int8"]
    # Accuracy: 16-bit is nearly lossless, 8-bit degrades substantially.
    assert float32["accuracy"] - int16["accuracy"] < 0.03
    assert int8["accuracy"] < int16["accuracy"] - 0.05
    # Energy: the ratios quoted in the paper (5x vs int32, ~6.2x vs float32).
    assert by_precision["int32"]["multiply_energy_pj"] / int16["multiply_energy_pj"] > 4.5
    assert float32["multiply_energy_pj"] / int16["multiply_energy_pj"] > 5.5
