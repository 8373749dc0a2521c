#!/usr/bin/env python3
"""Quickstart: compress one FC layer and run it on EIE.

This example walks through the whole pipeline on a small synthetic layer:

1. create a sparse weight matrix (magnitude pruning);
2. run Deep Compression (weight sharing + relative-indexed interleaved CSC);
3. run the functional EIE simulator and check it against the dense reference;
4. run the cycle-level model and print latency, throughput and energy
   (EIE's energy is the Table II chip power times the simulated time).

Every step goes through one :class:`repro.Session`, which caches the
compressed layer and each engine's prepared form.

Run with:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro import EIEConfig, Session
from repro.compression import CompressionConfig
from repro.hardware.area import chip_energy_j, chip_power_w


def main() -> None:
    rng = np.random.default_rng(0)

    # A 512 x 1024 FC layer pruned to 10% density, as Deep Compression would.
    rows, cols = 512, 1024
    weights = rng.normal(0.0, 0.1, size=(rows, cols))
    config = EIEConfig(num_pes=16)
    session = Session(CompressionConfig(target_density=0.10), config=config)
    layer = session.compress(weights, num_pes=config.num_pes, name="fc-demo")

    report = layer.storage_report()
    print("=== Deep Compression ===")
    print(f"layer shape               : {layer.rows} x {layer.cols}")
    print(f"weight density            : {layer.weight_density:.1%}")
    print(f"padding-zero fraction     : {layer.padding_fraction:.2%}")
    print(f"compression ratio         : {report['compression_ratio']:.1f}x (fixed 4-bit)")
    print(f"with Huffman coding       : {report['huffman_compression_ratio']:.1f}x")

    # A post-ReLU activation vector: ~35% of the entries are non-zero.
    activations = rng.uniform(0.1, 1.0, size=cols)
    activations[rng.random(cols) >= 0.35] = 0.0

    # Functional simulation, verified against the dense reference.
    result = session.run("functional", layer, activations).functional[0]
    reference = np.maximum(layer.dense_weights() @ activations, 0.0)
    assert np.allclose(result.output, reference), "functional simulation mismatch"
    print("\n=== Functional simulation ===")
    print(f"non-zero activations      : {result.broadcasts} / {cols}")
    print(f"entries processed         : {result.total_entries_processed}")
    print(f"matches dense reference   : True")

    # Performance and energy estimate on the cycle-level model.
    cycles = session.run("cycle", layer, activations).stats
    performance = cycles.performance(layer.dense_weight_count)
    energy_j = chip_energy_j(config.num_pes, cycles.time_s)
    print("\n=== Performance / energy estimate (16 PEs @ 800 MHz) ===")
    print(f"cycles                    : {cycles.total_cycles}")
    print(f"latency                   : {performance.time_us:.2f} us")
    print(f"load-balance efficiency   : {cycles.load_balance_efficiency:.1%}")
    print(f"effective throughput      : {performance.effective_gops:.1f} GOP/s")
    print(f"dense-equivalent          : {performance.dense_equivalent_gops:.1f} GOP/s")
    print(f"energy per inference      : {energy_j * 1e6:.3f} uJ")
    print(f"chip power                : {chip_power_w(config.num_pes) * 1e3:.1f} mW")


if __name__ == "__main__":
    main()
