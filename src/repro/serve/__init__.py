"""repro.serve: the async EIE inference service.

The fourth seam of the library (after :mod:`repro.engine`,
:mod:`repro.experiments` and :mod:`repro.models`): a long-lived server that
turns concurrent single-vector requests — the EIE paper's latency-sensitive
batch-1 datacenter workload — into the batched ``(batch, n_in)`` path the
cycle engine vectorizes, without changing a single answer bit.

* :class:`Server` / :class:`BatchPolicy` / :class:`ServeResponse` — warm
  :class:`~repro.engine.session.Session`, models pre-compressed at startup,
  per-model dynamic batching with admission control and graceful drain
  (:mod:`repro.serve.server`);
* :func:`run_open_loop` / :func:`run_closed_loop` / :class:`LoadReport`
  — Poisson open-loop and fixed-concurrency closed-loop load
  generation with p50/p99/throughput reporting
  (:mod:`repro.serve.loadgen`);
* :func:`start_daemon` / :class:`AsyncServeClient` — the JSON-lines TCP
  daemon and its client (:mod:`repro.serve.protocol`);
* :class:`FleetSupervisor` / :class:`FleetClient` /
  :class:`CircuitBreaker` / :class:`RestartBackoff` — process-level fault
  tolerance: N supervised daemon workers with heartbeat health checks and
  backoff restarts, plus the failover client with per-worker circuit
  breakers and deadline propagation (:mod:`repro.serve.fleet`);
* :class:`ChaosPlan` / :func:`run_chaos_acceptance` — seeded kill/stall/
  corruption plans proving the fleet's invariants under load
  (:mod:`repro.serve.chaos`).

Typical use::

    import asyncio
    from repro.core.config import EIEConfig
    from repro.serve import Server

    async def main():
        async with Server(["neuraltalk_lstm"], config=EIEConfig(num_pes=16)) as server:
            response = await server.submit("neuraltalk_lstm", vector)
            print(response.batch_size, response.latency_s)

    asyncio.run(main())

``repro serve bench`` drives the open-loop and closed-loop load generators
against an in-process server or a daemon.  See ``docs/ARCHITECTURE.md``
("The serving layer").
"""

from repro.serve.chaos import ChaosEvent, ChaosPlan, run_chaos_acceptance
from repro.serve.fleet import (
    CircuitBreaker,
    FleetClient,
    FleetPolicy,
    FleetSupervisor,
    RestartBackoff,
)
from repro.serve.loadgen import LoadReport, run_closed_loop, run_open_loop
from repro.serve.protocol import AsyncServeClient, start_daemon
from repro.serve.server import BatchPolicy, Server, ServeResponse

__all__ = [
    "AsyncServeClient",
    "BatchPolicy",
    "ChaosEvent",
    "ChaosPlan",
    "CircuitBreaker",
    "FleetClient",
    "FleetPolicy",
    "FleetSupervisor",
    "LoadReport",
    "RestartBackoff",
    "ServeResponse",
    "Server",
    "run_chaos_acceptance",
    "run_closed_loop",
    "run_open_loop",
    "start_daemon",
]
