"""Engine throughput: single-vector versus batched inference.

Tracks the performance contract of the :mod:`repro.engine` seam on an
AlexNet-FC-sized layer:

* the ``"cycle"`` engine round-trips the layer with results identical to
  the ``CycleAccurateEIE`` class, and the ``"functional"`` engine's output
  matches the dense product of the decoded weights;
* a batched ``run`` of 64 activation vectors on the cycle engine is at least
  1.5x faster than 64 sequential legacy single-vector simulations, and the
  measured inferences/sec of both paths are recorded in the perf trajectory.

The contract used to be 5x when each sequential legacy run re-extracted the
per-(PE, column) work matrices from the CSC storage; that extraction is now
computed once and cached on the storage itself (so the legacy path got much
faster too), and the remaining batched advantage is the timing recurrence
advancing all 64 items per broadcast block instead of one at a time.
"""

from __future__ import annotations

import time

import numpy as np

from repro.compression.pipeline import CompressionConfig
from repro.core.config import EIEConfig
from repro.core.cycle_model import CycleAccurateEIE
from repro.engine import EngineRegistry, Session
from repro.experiments import ExperimentResult
from repro.utils.rng import make_rng

from benchmarks.conftest import write_result

#: AlexNet-FC-like layer (Alex-7 densities at half scale per dimension).
ROWS, COLS = 2048, 2048
WEIGHT_DENSITY = 0.09
ACTIVATION_DENSITY = 0.35
BATCH = 64
NUM_PES = 64


def _build_layer_and_batch():
    rng = make_rng(7)
    weights = rng.normal(0.0, 0.1, size=(ROWS, COLS))
    session = Session(CompressionConfig(target_density=WEIGHT_DENSITY),
                      config=EIEConfig(num_pes=NUM_PES))
    layer = session.compress(weights, num_pes=NUM_PES, name="alex7-half")
    batch = rng.uniform(0.1, 1.0, size=(BATCH, COLS))
    batch[rng.random((BATCH, COLS)) >= ACTIVATION_DENSITY] = 0.0
    return session, layer, batch


def test_engine_throughput_batched_vs_sequential(benchmark, results_dir):
    """Round-trip parity at scale plus the >= 5x batched-throughput contract."""
    session, layer, batch = _build_layer_and_batch()
    config = session.default_config

    # -- round-trip parity: cycle class, dense functional reference ------------
    vector = batch[0]
    cycle_engine = EngineRegistry.create("cycle", config)
    engine_stats = cycle_engine.run(cycle_engine.prepare(layer), vector).stats
    legacy_stats = CycleAccurateEIE(config).simulate_layer(layer, vector)
    assert engine_stats.total_cycles == legacy_stats.total_cycles
    assert np.array_equal(engine_stats.busy_cycles, legacy_stats.busy_cycles)
    assert engine_stats.padding_entries == legacy_stats.padding_entries

    functional_engine = EngineRegistry.create("functional", config)
    engine_output = functional_engine.run(functional_engine.prepare(layer), vector).output
    dense_output = np.maximum(layer.dense_weights() @ vector, 0.0)
    assert np.allclose(engine_output, dense_output, rtol=1e-9, atol=1e-12)

    # -- throughput: 64 sequential legacy runs vs one batched engine run ------
    legacy = CycleAccurateEIE(config)
    start = time.perf_counter()
    sequential = [legacy.simulate_layer(layer, row) for row in batch]
    sequential_s = time.perf_counter() - start

    session.run("cycle", layer, batch[:2])  # warm the prepared-layer cache
    start = time.perf_counter()
    batched = session.run("cycle", layer, batch)
    batched_s = time.perf_counter() - start

    assert all(
        ours.total_cycles == theirs.total_cycles
        and ours.entries_processed == theirs.entries_processed
        and ours.padding_entries == theirs.padding_entries
        for ours, theirs in zip(batched.cycles, sequential)
    )
    speedup = sequential_s / batched_s
    assert speedup >= 1.5, (
        f"batched cycle simulation is only {speedup:.1f}x faster than "
        f"{BATCH} sequential runs (need >= 1.5x)"
    )

    result = benchmark.pedantic(
        session.run, args=("cycle", layer, batch), rounds=3, iterations=1
    )
    assert len(result.cycles) == BATCH

    perf = ExperimentResult.from_records(
        "engine_throughput",
        [
            {
                "layer": f"{ROWS} x {COLS} @ {WEIGHT_DENSITY:.0%} weights",
                "batch": BATCH,
                "sequential_inferences_per_s": BATCH / sequential_s,
                "batched_inferences_per_s": BATCH / batched_s,
                "speedup": speedup,
            }
        ],
        engine="cycle",
    )
    write_result(results_dir, perf,
                 extra="Contract: batched cycle simulation must be >= 1.5x faster "
                       "than sequential legacy runs (which now reuse the cached "
                       "per-layer work matrices).")
