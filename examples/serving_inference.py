#!/usr/bin/env python3
"""Online serving on the EIE simulator: dynamic batching under open loop.

Demonstrates the :mod:`repro.serve` layer — the async inference service that
fronts a warm :class:`~repro.engine.Session`:

1. start a :class:`~repro.serve.Server` holding a registry model, compressed
   once at startup, with a dynamic-batching policy (coalesce concurrent
   requests up to ``max_batch`` or until ``max_wait_us`` elapses);
2. fire a concurrent burst and show that coalescing changes *when* requests
   run, never *what* they answer: every response is bit-identical to an
   offline batch-1 ``Session.run_model`` call on the same vector;
3. sweep offered load with the open-loop Poisson generator and read the
   p50/p99 latency and sustained throughput at each rate.

Run with:  python examples/serving_inference.py
(set REPRO_EXAMPLE_SCALE to shrink the problem, e.g. 64 for smoke tests)
"""

from __future__ import annotations

import asyncio
import os

import numpy as np

from repro.analysis.report import format_table
from repro.core.config import EIEConfig
from repro.engine.session import Session
from repro.models import build_model, synthetic_model_inputs
from repro.serve import BatchPolicy, Server, run_open_loop

_SCALE = float(os.environ.get("REPRO_EXAMPLE_SCALE", "1"))
MODEL_SCALE = max(8.0, _SCALE)
REQUESTS = max(24, int(round(120 / _SCALE)))
RATES_RPS = (200.0, 400.0, 800.0)
NUM_PES = 16


async def main_async() -> None:
    model = build_model("neuraltalk_lstm", scale=MODEL_SCALE)
    config = EIEConfig(num_pes=NUM_PES)
    policy = BatchPolicy(max_batch=16, max_wait_us=1000.0, queue_depth=256)

    print(f"Model: {model.name} (scale {MODEL_SCALE:g}), "
          f"{model.num_nodes} nodes, {NUM_PES} PEs")
    print(f"Policy: max_batch={policy.max_batch}, "
          f"max_wait={policy.max_wait_us:.0f} us, "
          f"queue_depth={policy.queue_depth}\n")

    async with Server([model], config=config, policy=policy) as server:
        # -- concurrent burst: coalesced, but bit-identical per request -------
        burst = synthetic_model_inputs(model, batch=12, seed=7)
        responses = await asyncio.gather(
            *(server.submit(model.name, vector) for vector in burst)
        )
        offline = Session(config=config)
        references = [
            offline.run_model("cycle", model, burst[i], config)
            for i in range(len(burst))
        ]
        identical = all(
            np.array_equal(resp.output, ref.outputs[0])
            and resp.total_cycles == ref.total_cycles
            for resp, ref in zip(responses, references)
        )
        print("=== concurrent burst of 12 requests ===")
        print(f"batch sizes observed     : "
              f"{sorted({resp.batch_size for resp in responses})}")
        print(f"bit-identical to offline : {identical}")
        assert identical

        # -- open-loop offered-load sweep -------------------------------------
        inputs = synthetic_model_inputs(model, batch=REQUESTS, seed=13)
        rows = []
        for rate in RATES_RPS:
            report = await run_open_loop(
                lambda vector: server.submit(model.name, vector),
                inputs,
                rate_rps=rate,
                seed=int(rate),
            )
            rows.append([
                f"{rate:.0f}",
                f"{report.throughput_rps:.0f}",
                f"{report.p50_ms:.2f}",
                f"{report.p99_ms:.2f}",
                f"{report.mean_batch:.1f}",
                report.rejected,
            ])
        print(f"\n=== open-loop sweep ({REQUESTS} requests per rate) ===")
        print(format_table(
            ["Offered rps", "Served rps", "p50 ms", "p99 ms",
             "Mean batch", "Rejected"],
            rows,
        ))

        stats = server.stats()["models"][model.name]
        print(f"\nserver totals: {stats['served']} served over "
              f"{stats['batches']} batches "
              f"(mean batch {stats['mean_batch']:.1f}, "
              f"{stats['rejected']} rejected)")


if __name__ == "__main__":
    asyncio.run(main_async())
