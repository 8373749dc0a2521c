#!/usr/bin/env python3
"""Batched inference and design sweeps on the unified engine layer.

Demonstrates the :mod:`repro.engine` seam introduced for multi-backend,
batched, cached simulation:

1. compress one FC layer into a :class:`~repro.engine.Session` (the layer is
   compressed once and shared by everything below);
2. run a 64-vector batch through the ``"functional"`` and ``"cycle"``
   backends with a single ``run`` call each, and compare the batched cycle
   path against one ``run`` call per vector;
3. sweep the FIFO depth reusing the one prepared layer (the session's
   prepared-layer cache makes every depth point a pure recurrence run).

Run with:  python examples/engine_batched_inference.py
(set REPRO_EXAMPLE_SCALE to shrink the problem, e.g. 8 for smoke tests)
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import EIEConfig, EngineRegistry, Session
from repro.analysis.report import format_table
from repro.compression import CompressionConfig

_SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "1"))
ROWS = COLS = max(128, int(round(1024 / _SCALE)))
BATCH = max(8, int(round(64 / _SCALE)))
NUM_PES = 32


def main() -> None:
    rng = np.random.default_rng(0)
    config = EIEConfig(num_pes=NUM_PES)
    session = Session(CompressionConfig(target_density=0.10), config=config)

    weights = rng.normal(0.0, 0.1, size=(ROWS, COLS))
    layer = session.compress(weights, num_pes=NUM_PES, name="fc-batched")
    batch = rng.uniform(0.1, 1.0, size=(BATCH, COLS))
    batch[rng.random((BATCH, COLS)) >= 0.35] = 0.0

    print(f"Registered engines: {', '.join(EngineRegistry.names())}")
    print(f"Layer: {ROWS} x {COLS} @ {layer.weight_density:.0%} weights, "
          f"{NUM_PES} PEs, batch {BATCH}\n")

    # -- batched functional inference -------------------------------------------
    functional = session.run("functional", layer, batch)
    reference = np.maximum(layer.dense_weights() @ batch.T, 0.0).T
    print("=== functional engine (batched) ===")
    print(f"outputs                  : {functional.outputs.shape}")
    print(f"matches dense reference  : {np.allclose(functional.outputs, reference)}")

    # -- batched cycle simulation vs sequential ----------------------------------
    session.run("cycle", layer, batch[:2])  # warm the prepared-layer cache
    start = time.perf_counter()
    sequential = [session.run("cycle", layer, row).stats for row in batch]
    sequential_s = time.perf_counter() - start

    start = time.perf_counter()
    batched = session.run("cycle", layer, batch)
    batched_s = time.perf_counter() - start
    assert all(a.total_cycles == b.total_cycles for a, b in zip(batched.cycles, sequential))

    print("\n=== cycle engine: batched vs sequential ===")
    print(f"sequential               : {BATCH / sequential_s:7.0f} inferences/s")
    print(f"batched                  : {BATCH / batched_s:7.0f} inferences/s "
          f"({sequential_s / batched_s:.1f}x)")

    # -- FIFO sweep on one prepared layer ---------------------------------------
    rows = []
    for depth in (1, 2, 4, 8, 16):
        stats = session.run(
            "cycle", layer, batch[0], config=EIEConfig(num_pes=NUM_PES, fifo_depth=depth)
        ).stats
        rows.append([depth, stats.total_cycles, f"{stats.load_balance_efficiency:.1%}"])
    print("\n=== FIFO-depth sweep (prepared layer shared across depths) ===")
    print(format_table(["FIFO depth", "Cycles", "Load balance"], rows))
    info = session.cache_info()
    print(f"cache: {info['layers']['entries']} layer(s) compressed, "
          f"{info['prepared']['entries']} prepared, "
          f"{info['prepared']['hits']} prepared-cache hits")


if __name__ == "__main__":
    main()
