"""Figure 9: SRAM width versus read count, read energy and total energy.

Sweeps the Spmat SRAM interface width from 32 to 512 bits on the AlexNet
layers (the paper benchmarks this figure on AlexNet) through the
``"fig9_sram_width"`` experiment and checks the design conclusion: the number
of reads falls and the energy per read rises with width, and the total read
energy is minimised at the 64-bit interface EIE uses.
"""

from __future__ import annotations

from collections import defaultdict

from benchmarks.conftest import write_result

#: The paper benchmarks Figure 9 on the AlexNet layers.
ALEXNET_LAYERS = ("Alex-6", "Alex-7", "Alex-8")


def test_fig9_sram_width_sweep(benchmark, runner, results_dir):
    """Regenerate Figure 9 (both panels)."""
    result = benchmark.pedantic(
        runner.run,
        args=("fig9_sram_width",),
        kwargs={"workloads": ALEXNET_LAYERS},
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, result)
    points = result.records

    combined: dict[int, float] = defaultdict(float)
    for point in points:
        combined[point["width_bits"]] += point["total_energy_nj"]

    # Reads fall monotonically and energy per read rises monotonically with width.
    for layer in ALEXNET_LAYERS:
        layer_points = sorted(
            (p for p in points if p["benchmark"] == layer), key=lambda p: p["width_bits"]
        )
        reads = [p["num_reads"] for p in layer_points]
        energies = [p["energy_per_read_pj"] for p in layer_points]
        assert all(b <= a for a, b in zip(reads, reads[1:]))
        assert all(b > a for a, b in zip(energies, energies[1:]))
    # The total-energy optimum is the 64-bit interface the paper selects.
    assert min(combined, key=combined.get) == 64
