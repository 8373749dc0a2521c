"""Serving experiments: the load-generator sweep as a tracked artifact.

``serve_latency`` sweeps offered load (requests/second, open-loop Poisson
arrivals) against an in-process :class:`~repro.serve.server.Server` and
records what each rate does to p50/p99 latency, sustained throughput, the
rejection ratio and the mean coalesced batch size — the serving-layer
analogue of fig6's layer sweep, tracked through the same spec → registry →
runner → result machinery.

Wall-clock latencies vary run to run (they time a real event loop), but
arrivals, request vectors and all simulated quantities are deterministic
per seed.  Use ``--set`` for smoke runs, e.g.
``--set params.requests=50 --set "grid.offered_rps=[200]"``.
"""

from __future__ import annotations

import asyncio

from repro.analysis.report import format_table
from repro.compression.pipeline import CompressionConfig
from repro.experiments.registry import Experiment, register_experiment
from repro.experiments.result import ExperimentResult
from repro.experiments.runner import ExperimentContext
from repro.experiments.spec import ExperimentSpec
from repro.models.inputs import synthetic_model_inputs
from repro.models.registry import ModelRegistry
from repro.models.spec import ModelSpec
from repro.serve.loadgen import run_open_loop
from repro.serve.server import BatchPolicy, Server

__all__ = ["SERVE_EXPERIMENTS"]

#: Default offered-load sweep (requests/second).
DEFAULT_RATES = (100.0, 200.0, 400.0, 800.0, 1600.0)


def _serve_latency_point(ctx: ExperimentContext, point: dict) -> dict:
    """One offered-load point: fresh server, open-loop run, flat record.

    Each grid point builds its own server (the model itself is memoized
    across points) so a slow point's queue backlog cannot leak into the
    next rate — every point starts from an idle service.
    """
    params = ctx.params
    spec = ModelSpec(
        model=str(params["model"]),
        scale=None if params.get("scale") is None else float(params["scale"]),
        seed=None if params.get("seed") is None else int(params["seed"]),
    )
    model = ctx.memo(
        ("serve-model", spec.model, spec.scale, spec.seed),
        lambda: ModelRegistry.build(spec),
    )
    requests = int(params["requests"])
    inputs = synthetic_model_inputs(
        model, batch=requests, seed=int(params.get("input_seed", 1))
    )
    policy = BatchPolicy(
        max_batch=int(params["max_batch"]),
        max_wait_us=float(params["max_wait_us"]),
        queue_depth=int(params["queue_depth"]),
    )

    async def drive() -> dict:
        server = Server(
            [model],
            engine=ctx.engine_name,
            config=ctx.base_config,
            compression=ctx.compression
            if ctx.compression != CompressionConfig()
            else None,
            policy=policy,
            store=ctx.session.store,
        )
        async with server:
            report = await run_open_loop(
                lambda vector: server.submit(model.name, vector),
                inputs,
                rate_rps=float(point["offered_rps"]),
                seed=ctx.seed,
            )
        return report.record()

    return asyncio.run(drive())


def _render_serve_latency(result: ExperimentResult) -> str:
    return "Serving latency vs offered load (open-loop Poisson arrivals):\n" + format_table(
        ["Offered (rps)", "Done", "Rej", "Throughput (rps)", "p50 (ms)",
         "p99 (ms)", "Mean batch", "Sim lat (us)"],
        [
            [r["offered_rps"], r["completed"], r["rejected"],
             r["throughput_rps"], r["p50_ms"], r["p99_ms"], r["mean_batch"],
             r["sim_latency_us"]]
            for r in result.records
        ],
    )


SERVE_EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        name="serve_latency",
        description="Open-loop serving sweep: p50/p99 latency and throughput vs offered load",
        spec=ExperimentSpec(
            experiment="serve_latency",
            grid={"offered_rps": DEFAULT_RATES},
            params={
                "model": "neuraltalk_lstm",
                "scale": 16,
                "seed": None,
                "requests": 200,
                "input_seed": 1,
                "max_batch": 16,
                "max_wait_us": 1000.0,
                "queue_depth": 256,
            },
            config={"num_pes": 16},
        ),
        run_point=_serve_latency_point,
        render=_render_serve_latency,
        uses_workloads=False,
    ),
)

for _experiment in SERVE_EXPERIMENTS:
    register_experiment(_experiment)
