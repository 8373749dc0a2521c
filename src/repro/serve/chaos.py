"""Chaos harness: seeded fault plans against a running serve fleet.

PR 8 proved the *data plane* with injected SRAM bit flips; this module does
the same for the *control plane*.  A :class:`ChaosPlan` is a deterministic
(seeded) schedule of faults — SIGKILL a worker mid-load, stall a worker's
dispatch loop, corrupt an artifact-store file — executed by
:func:`execute_plan` against a live :class:`~repro.serve.fleet
.FleetSupervisor` while the closed-loop load generator drives a
:class:`~repro.serve.fleet.FleetClient` through it.

:func:`run_chaos_acceptance` is the whole experiment in one call, and its
invariants are the point:

* **zero wrong bits** — every completed response is captured and (by the
  caller) bit-compared against offline ``Session.run_model``;
* **no silent losses** — every non-completed request surfaced as a typed
  retriable error (``completed + rejected + retriable == requests`` and
  ``errors == 0``);
* **bounded recovery** — every killed worker is back and healthy within
  the restart-backoff budget, and no slot burned its crash-loop budget.

Store corruption is deliberately *harmless by construction*: the store
CRC-validates on load and recomputes, so a corrupted artifact may cost a
restarted worker time, never bits.  The harness exists to keep that true.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.errors import ConfigurationError, FleetError
from repro.serve.fleet import FleetClient, FleetPolicy, FleetSupervisor
from repro.serve.loadgen import LoadReport, run_closed_loop
from repro.serve.protocol import AsyncServeClient
from repro.utils.rng import derive_seed, make_rng

__all__ = [
    "ChaosEvent",
    "ChaosPlan",
    "ChaosOutcome",
    "execute_plan",
    "run_chaos_acceptance",
]


@dataclass(frozen=True)
class ChaosEvent:
    """One scheduled fault.

    Attributes:
        at_s: when to fire, seconds after the plan starts.
        kind: ``"kill"`` (SIGKILL the worker process), ``"stall"`` (inject
            per-dispatch latency via the ``chaos`` wire verb) or
            ``"corrupt"`` (overwrite bytes inside one artifact-store file).
        worker: target worker index (ignored for ``corrupt``).
        latency_s / duration_s: stall shape (``stall`` only).
    """

    at_s: float
    kind: str
    worker: int = 0
    latency_s: float = 0.0
    duration_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("kill", "stall", "corrupt"):
            raise ConfigurationError(f"unknown chaos event kind {self.kind!r}")
        if self.at_s < 0:
            raise ConfigurationError(f"event time must be >= 0, got {self.at_s}")


@dataclass(frozen=True)
class ChaosPlan:
    """A seeded, reproducible schedule of :class:`ChaosEvent`.

    Same seed + same shape parameters → the same plan, so a chaos run is a
    *regression test*, not a dice roll.
    """

    events: tuple[ChaosEvent, ...]
    seed: int = 0

    @classmethod
    def generate(
        cls,
        seed: int,
        workers: int,
        duration_s: float,
        kills: int = 2,
        stalls: int = 1,
        corruptions: int = 1,
    ) -> "ChaosPlan":
        """Draw a deterministic plan from the shared RNG helpers.

        Kills land between 10% and 70% of the window so the fleet has load
        in flight when they hit and time to recover before the run ends;
        stalls and corruptions anywhere in the first 80%.
        """
        if workers < 1:
            raise ConfigurationError(f"need >= 1 worker, got {workers}")
        if duration_s <= 0:
            raise ConfigurationError(f"duration_s must be positive, got {duration_s}")
        rng = make_rng(derive_seed(seed, "serve-chaos", workers, kills, stalls))
        events: list[ChaosEvent] = []
        for _ in range(kills):
            events.append(
                ChaosEvent(
                    at_s=float(rng.uniform(0.1, 0.7) * duration_s),
                    kind="kill",
                    worker=int(rng.integers(workers)),
                )
            )
        for _ in range(stalls):
            events.append(
                ChaosEvent(
                    at_s=float(rng.uniform(0.0, 0.8) * duration_s),
                    kind="stall",
                    worker=int(rng.integers(workers)),
                    latency_s=float(rng.uniform(0.02, 0.1)),
                    duration_s=float(rng.uniform(0.3, 1.0)),
                )
            )
        for _ in range(corruptions):
            events.append(
                ChaosEvent(
                    at_s=float(rng.uniform(0.0, 0.8) * duration_s),
                    kind="corrupt",
                )
            )
        return cls(events=tuple(sorted(events, key=lambda e: e.at_s)), seed=seed)

    @property
    def kills(self) -> int:
        return sum(1 for event in self.events if event.kind == "kill")

    def describe(self) -> list[dict[str, Any]]:
        return [
            {
                "at_s": round(event.at_s, 3),
                "kind": event.kind,
                "worker": event.worker,
                "latency_s": event.latency_s,
                "duration_s": event.duration_s,
            }
            for event in self.events
        ]


def _corrupt_store_file(store_root: Path, ordinal: int) -> str | None:
    """Overwrite bytes inside one store artifact; returns the path hit.

    The choice is deterministic per ``ordinal`` given a fixed file set; the
    store's CRC/zip validation must detect the damage on next load and
    recompute — the invariant this fault exists to test.
    """
    files = sorted(
        path
        for pattern in ("layers/*.npz", "models/*.json", "shards/*.json")
        for path in store_root.glob(pattern)
    )
    if not files:
        return None
    target = files[ordinal % len(files)]
    try:
        data = bytearray(target.read_bytes())
        if not data:
            return None
        # Stamp garbage mid-file: enough to break the CRC, cheap to apply.
        middle = len(data) // 2
        for offset in range(min(32, len(data) - middle)):
            data[middle + offset] ^= 0xA5
        target.write_bytes(bytes(data))
    except OSError:
        return None
    return str(target)


async def execute_plan(
    plan: ChaosPlan,
    supervisor: FleetSupervisor,
    store_root: str | Path | None = None,
) -> list[dict[str, Any]]:
    """Fire every event of ``plan`` at its scheduled time; returns a log.

    Stall events talk to the target worker over a one-shot protocol client
    (the workers must run with ``--chaos``); a stall aimed at a worker that
    is down is logged as skipped — the plan stays deterministic, the world
    does not.
    """
    log: list[dict[str, Any]] = []
    start = time.monotonic()
    for ordinal, event in enumerate(plan.events):
        delay = event.at_s - (time.monotonic() - start)
        if delay > 0:
            await asyncio.sleep(delay)
        entry: dict[str, Any] = {"at_s": round(event.at_s, 3), "kind": event.kind}
        if event.kind == "kill":
            index = event.worker % supervisor.workers
            entry["worker"] = index
            entry["pid"] = supervisor.kill_worker(index)
        elif event.kind == "stall":
            index = event.worker % supervisor.workers
            entry["worker"] = index
            entry["latency_s"] = event.latency_s
            endpoint = supervisor.endpoints()[index]
            entry["applied"] = False
            if endpoint is not None:
                try:
                    client = await asyncio.wait_for(
                        AsyncServeClient.connect(*endpoint), timeout=2.0
                    )
                    try:
                        await client.chaos(event.latency_s, event.duration_s)
                        entry["applied"] = True
                    finally:
                        await client.close()
                except Exception as exc:
                    entry["error"] = str(exc)
        elif event.kind == "corrupt":
            if store_root is None:
                entry["applied"] = False
            else:
                entry["path"] = _corrupt_store_file(Path(store_root), ordinal)
                entry["applied"] = entry["path"] is not None
        log.append(entry)
    return log


@dataclass
class ChaosOutcome:
    """Everything one acceptance run produced.

    ``violations`` is empty iff every control-plane invariant held; the
    *data-plane* invariant (zero wrong bits) is checked by the caller
    against ``report.outputs`` because only the caller has the offline
    session to compare with.
    """

    report: LoadReport
    chaos_log: list[dict[str, Any]]
    fleet_stats: dict[str, Any]
    client_stats: dict[str, Any]
    violations: list[str] = field(default_factory=list)

    @property
    def recovered(self) -> bool:
        return all(worker["state"] == "healthy" for worker in self.fleet_stats["workers"])


async def run_chaos_acceptance(
    worker_args: Sequence[str],
    inputs: np.ndarray,
    model: str,
    *,
    workers: int = 3,
    concurrency: int = 8,
    plan: ChaosPlan | None = None,
    policy: FleetPolicy | None = None,
    env: dict[str, str] | None = None,
    store_root: str | Path | None = None,
    client_timeout_s: float = 30.0,
    recovery_timeout_s: float = 30.0,
) -> ChaosOutcome:
    """Run the full chaos experiment: fleet + closed-loop load + fault plan.

    Boots a ``workers``-strong fleet from ``worker_args`` (which must
    include ``--chaos`` for stall events to land), drives every row of
    ``inputs`` through a :class:`FleetClient` under ``concurrency``
    closed-loop workers while ``plan`` executes, then waits for the fleet
    to recover and checks the control-plane invariants.  Outputs are
    captured so the caller can bit-verify them offline.
    """
    supervisor = FleetSupervisor(
        worker_args, workers=workers, policy=policy, env=env
    )
    async with supervisor:
        client = await FleetClient.connect(
            supervisor.endpoints, timeout_s=client_timeout_s
        )
        try:
            chaos_task = (
                asyncio.create_task(execute_plan(plan, supervisor, store_root))
                if plan is not None and plan.events
                else None
            )
            report = await run_closed_loop(
                lambda vector: client.infer(model, vector),
                inputs,
                concurrency=concurrency,
                capture_outputs=True,
            )
            chaos_log = await chaos_task if chaos_task is not None else []
            # Let every restart in flight finish before judging recovery.
            try:
                await supervisor.wait_healthy(timeout_s=recovery_timeout_s)
            except FleetError as exc:
                chaos_log.append({"kind": "recovery_timeout", "error": str(exc)})
            fleet_stats = supervisor.stats()
            client_stats = client.stats()
        finally:
            await client.close()

    violations: list[str] = []
    kills = plan.kills if plan is not None else 0
    accounted = report.completed + report.rejected + report.retriable + report.errors
    if accounted != report.requests:
        violations.append(
            f"request accounting leak: {accounted} accounted != "
            f"{report.requests} issued (a request vanished without a response "
            f"or a typed error)"
        )
    if report.errors:
        violations.append(
            f"{report.errors} request(s) failed with untyped/non-retriable "
            f"errors (every failure must be a typed retriable error)"
        )
    if report.completed == 0:
        violations.append("no request completed — the fleet never served load")
    restarts = fleet_stats["restarts"]
    if restarts < kills:
        violations.append(
            f"only {restarts} restart(s) recorded for {kills} kill(s) — "
            f"a crashed worker was not brought back"
        )
    if fleet_stats["crash_loops"]:
        violations.append(
            f"{fleet_stats['crash_loops']} worker slot(s) exhausted the "
            f"crash-loop budget"
        )
    unhealthy = [
        worker["worker"]
        for worker in fleet_stats["workers"]
        if worker["state"] != "healthy"
    ]
    if unhealthy:
        violations.append(
            f"workers {unhealthy} not healthy after the recovery window"
        )
    return ChaosOutcome(
        report=report,
        chaos_log=chaos_log,
        fleet_stats=fleet_stats,
        client_stats=client_stats,
        violations=violations,
    )
