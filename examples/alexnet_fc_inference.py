#!/usr/bin/env python3
"""AlexNet FC-tail inference on EIE versus CPU and GPU baselines.

Reproduces, at a reduced scale that runs in seconds, the scenario of the
paper's introduction: the fully-connected layers FC6-FC8 of a compressed
AlexNet run as a latency-critical (batch-1) workload.  The script

* builds the three-layer FC tail as a whole-network model
  (``repro.models``'s registered ``alexnet_fc`` at Table III densities),
* compresses every node through one ``Session.compress_model`` call,
* runs the whole model on the functional engine (checking against the dense
  reference) and on the cycle engine — one ``Session.run_model`` call each,
  with the measured inter-layer activation sparsity feeding every node,
* and compares per-layer latency and energy against the analytic CPU / GPU /
  mobile-GPU baselines — the same comparison as Figure 6 / Figure 7, plus the
  full-scale Table III layer estimates at the end.

Run with:  python examples/alexnet_fc_inference.py
(set REPRO_EXAMPLE_SCALE to change the size, e.g. 64 for smoke tests)
"""

from __future__ import annotations

import os

import numpy as np

from repro import EIEConfig, Session, build_model
from repro.analysis.report import format_table
from repro.baselines.roofline import RooflinePlatform
from repro.baselines.specs import CPU_CORE_I7_5930K, GPU_TITAN_X, MOBILE_GPU_TEGRA_K1
from repro.hardware.area import chip_energy_j
from repro.workloads.benchmarks import get_benchmark
from repro.workloads.generator import WorkloadBuilder

#: Each dimension of the real AlexNet FC layers is divided by this factor.
SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "16"))
NUM_PES = 64


def run_scaled_network() -> None:
    """Compress the scaled FC tail as one model and run it end to end on EIE."""
    model = build_model("alexnet_fc", scale=SCALE)
    config = EIEConfig(num_pes=NUM_PES)
    session = Session(config=config)
    compressed = session.compress_model(model, num_pes=NUM_PES)

    rng = np.random.default_rng(1)
    # FC6's input comes from a ReLU'd conv layer: ~35% non-zero.
    inputs = rng.uniform(0.1, 1.0, size=model.input_size)
    inputs[rng.random(model.input_size) >= model.input_density] = 0.0

    # One call runs all three layers, propagating the measured activations;
    # the cycle run reuses the compressed model from the session cache.
    functional = session.run_model("functional", model, inputs)
    timing = session.run_model("cycle", model, inputs)

    reference = model.trace(inputs)  # dense float reference on the IR weights
    print(f"Scaled AlexNet FC tail (1/{SCALE:g} per dimension), {NUM_PES} PEs")
    rows = []
    for node_run, cycle_run in zip(functional.nodes, timing.nodes):
        result = node_run.result.functional[0]
        stats = cycle_run.result.cycles[0]
        rows.append(
            [
                node_run.name,
                f"{node_run.layer.cols} -> {node_run.layer.rows}",
                f"{node_run.layer.weight_density:.0%}",
                f"{node_run.input_density:.0%}",
                result.total_entries_processed,
                stats.total_cycles,
                f"{stats.time_s * 1e6:.2f}",
                f"{stats.load_balance_efficiency:.0%}",
            ]
        )
    print(
        format_table(
            ["Layer", "Shape", "Weight%", "Act%", "Entries", "Cycles", "Latency (us)", "Load bal."],
            rows,
        )
    )
    print(f"\nWhole network: {timing.total_cycles} cycles, "
          f"{timing.latency_s * 1e6:.2f} us, {timing.energy_j * 1e6:.3f} uJ")
    output = functional.output
    print(f"Top-5 output neurons: {np.argsort(output)[-5:][::-1].tolist()}")
    # The quantized (4-bit shared weights) output tracks the dense reference.
    error = np.max(np.abs(output - reference.output)) / (np.max(np.abs(reference.output)) or 1.0)
    print(f"Max relative deviation from dense float reference: {error:.1%} "
          "(4-bit weight sharing)")


def compare_against_baselines() -> None:
    """Full-scale Table III AlexNet layers: EIE versus CPU / GPU / mGPU."""
    print("\nFull-scale AlexNet FC layers, batch size 1 (latency-critical):")
    builder = WorkloadBuilder()
    config = EIEConfig(num_pes=NUM_PES)
    platforms = {
        "CPU (i7-5930k)": RooflinePlatform(CPU_CORE_I7_5930K),
        "GPU (Titan X)": RooflinePlatform(GPU_TITAN_X),
        "mGPU (Tegra K1)": RooflinePlatform(MOBILE_GPU_TEGRA_K1),
    }
    rows = []
    for name in ("Alex-6", "Alex-7", "Alex-8"):
        spec = get_benchmark(name)
        workload = builder.build(spec, config.num_pes)
        eie = workload.simulate(config)
        eie_energy = chip_energy_j(config.num_pes, eie.time_s)
        row = [name, f"{eie.time_s * 1e6:.1f}"]
        for platform_name, model in platforms.items():
            dense_time = model.dense_time_s(spec, batch=1)
            row.append(f"{dense_time * 1e6:.0f}")
            row.append(f"{dense_time / eie.time_s:.0f}x")
        row.append(f"{eie_energy * 1e6:.1f}")
        rows.append(row)
    print(
        format_table(
            ["Layer", "EIE (us)",
             "CPU (us)", "speedup", "GPU (us)", "speedup", "mGPU (us)", "speedup",
             "EIE energy (uJ)"],
            rows,
        )
    )


def main() -> None:
    run_scaled_network()
    compare_against_baselines()


if __name__ == "__main__":
    main()
