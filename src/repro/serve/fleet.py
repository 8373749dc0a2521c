"""Fault-tolerant multi-worker serving: supervisor, breakers, failover client.

One ``repro serve`` daemon is a single point of failure: a crash, hang or
slow dispatch takes the whole service down.  This module adds the
control-plane reliability around it, in three pieces that compose but are
testable alone:

* **Pure state machines** — :class:`CircuitBreaker` (closed → open on
  consecutive failures → half-open probe → closed) and
  :class:`RestartBackoff` (exponential restart delays with a crash-loop
  budget).  Both take an injectable ``clock`` so their transition tables
  are tested with a fake clock, no sleeps.
* **:class:`FleetSupervisor`** — spawns N ``repro serve`` daemon worker
  processes (each a full :class:`~repro.serve.server.Server` on its own
  port; a shared :class:`~repro.store.ArtifactStore` makes warm startups
  pure loads), watches each with ``health`` heartbeats over the JSON-lines
  protocol, SIGKILLs wedged workers, and restarts crashed ones with
  exponential backoff until the crash-loop budget is exhausted (then the
  slot is marked failed with a typed :class:`~repro.errors.FleetError`).
* **:class:`FleetClient`** — the fleet-aware client mode: round-robin
  routing across workers, a per-worker circuit breaker, deadline
  propagation (``deadline_s`` in the request envelope, enforced
  server-side so doomed work is shed early) and transparent failover.  An
  accepted request either completes — bit-identical to offline
  ``run_model``, because every worker runs the same deterministic engine —
  or surfaces a typed retriable error.  Nothing is silently lost, and
  because inference is pure, a request re-sent after a worker crash is
  merely idempotent recomputation, never a double-applied effect.

The chaos harness (:mod:`repro.serve.chaos`) drives all three under
deliberate kills, stalls and store corruption, the same way the ECC layer
is verified by injected bit flips.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    DeadlineExceededError,
    FleetError,
    ServeError,
    ServeTimeoutError,
    ServerClosedError,
    ServerOverloadedError,
    WorkerCrashedError,
)
from repro.serve.protocol import AsyncServeClient
from repro.serve.server import ServeResponse
from repro.utils.validation import is_finite_real

__all__ = [
    "CircuitBreaker",
    "FleetClient",
    "FleetPolicy",
    "FleetSupervisor",
    "RestartBackoff",
]

#: The daemon's readiness line; the supervisor parses the bound port from it.
_LISTENING = re.compile(r"listening on (\S+):(\d+)")


# -- pure state machines ----------------------------------------------------------


class CircuitBreaker:
    """Per-worker failure gate: closed → open → half-open → closed.

    Closed, consecutive failures are counted; at ``failure_threshold`` the
    breaker opens and :meth:`allow` refuses requests for ``reset_after_s``.
    After that it half-opens: up to ``half_open_probes`` in-flight probe
    requests are admitted — one success closes the breaker, one failure
    re-opens it for another full ``reset_after_s``.

    ``clock`` is any ``() -> float`` monotonic-seconds callable; tests pass
    a fake so every transition is exercised without sleeping.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_after_s: float = 1.0,
        half_open_probes: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ConfigurationError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if reset_after_s <= 0:
            raise ConfigurationError(
                f"reset_after_s must be positive, got {reset_after_s}"
            )
        if half_open_probes < 1:
            raise ConfigurationError(
                f"half_open_probes must be >= 1, got {half_open_probes}"
            )
        self.failure_threshold = int(failure_threshold)
        self.reset_after_s = float(reset_after_s)
        self.half_open_probes = int(half_open_probes)
        self._clock = clock
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probes_in_flight = 0

    @property
    def state(self) -> str:
        """Current state, advancing open → half-open if the reset elapsed."""
        if self._state == self.OPEN and (
            self._clock() - self._opened_at >= self.reset_after_s
        ):
            self._state = self.HALF_OPEN
            self._probes_in_flight = 0
        return self._state

    @property
    def retry_after_s(self) -> float:
        """Seconds until the breaker will admit a request again (0 if now)."""
        if self.state != self.OPEN:
            return 0.0
        return max(0.0, self.reset_after_s - (self._clock() - self._opened_at))

    def allow(self) -> bool:
        """Whether a request may be routed through this breaker right now.

        In half-open state each ``allow() == True`` admits one probe; call
        :meth:`record_success` or :meth:`record_failure` for every admitted
        request so the probe slot is accounted for.
        """
        state = self.state
        if state == self.CLOSED:
            return True
        if state == self.HALF_OPEN and self._probes_in_flight < self.half_open_probes:
            self._probes_in_flight += 1
            return True
        return False

    def record_success(self) -> None:
        """A routed request completed: close the breaker, forget failures."""
        self._state = self.CLOSED
        self._failures = 0
        self._probes_in_flight = 0

    def record_failure(self) -> None:
        """A routed request failed: count it; trip or re-open the breaker."""
        if self.state == self.HALF_OPEN:
            # The probe failed: straight back to open for a full reset.
            self._trip()
            return
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._state = self.OPEN
        self._opened_at = self._clock()
        self._failures = 0
        self._probes_in_flight = 0


class RestartBackoff:
    """Restart scheduling for one supervised worker slot.

    Each crash doubles the restart delay (``initial_s`` up to ``max_s``).
    A worker that stays up at least ``stable_after_s`` resets the schedule;
    one that keeps dying — more than ``budget`` crashes without ever
    reaching stability — is a crash loop, and :meth:`record_crash` raises
    :class:`FleetError` instead of scheduling another doomed restart.
    """

    def __init__(
        self,
        initial_s: float = 0.1,
        max_s: float = 5.0,
        stable_after_s: float = 10.0,
        budget: int = 5,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if initial_s <= 0 or max_s < initial_s:
            raise ConfigurationError(
                f"need 0 < initial_s <= max_s, got {initial_s}/{max_s}"
            )
        if stable_after_s < 0:
            raise ConfigurationError(
                f"stable_after_s must be >= 0, got {stable_after_s}"
            )
        if budget < 1:
            raise ConfigurationError(f"crash-loop budget must be >= 1, got {budget}")
        self.initial_s = float(initial_s)
        self.max_s = float(max_s)
        self.stable_after_s = float(stable_after_s)
        self.budget = int(budget)
        self._clock = clock
        self._started_at: float | None = None
        self._streak = 0
        self.restarts = 0

    @property
    def streak(self) -> int:
        """Consecutive crashes without an intervening stable run."""
        return self._streak

    @property
    def exhausted(self) -> bool:
        """Whether the crash-loop budget has been spent."""
        return self._streak >= self.budget

    def note_started(self) -> None:
        """The worker (re)started now; stability is measured from here."""
        self._started_at = self._clock()

    def record_crash(self) -> float:
        """Account one crash; return the delay before the next restart.

        Raises:
            FleetError: the slot crashed more than ``budget`` times in a row
                without ever staying up ``stable_after_s`` — restarting
                again would just burn CPU on a doomed worker.
        """
        now = self._clock()
        if (
            self._started_at is not None
            and now - self._started_at >= self.stable_after_s
        ):
            self._streak = 0  # it ran stably before dying: fresh schedule
        if self.exhausted:
            raise FleetError(
                f"crash-loop budget exhausted: {self._streak} consecutive "
                f"crashes without {self.stable_after_s}s of stable uptime"
            )
        delay = min(self.initial_s * (2.0 ** self._streak), self.max_s)
        self._streak += 1
        self.restarts += 1
        return delay


# -- the supervisor ---------------------------------------------------------------


@dataclass(frozen=True)
class FleetPolicy:
    """Supervision knobs shared by every worker slot.

    Attributes:
        heartbeat_s: interval between ``health`` probes per worker.
        heartbeat_timeout_s: per-probe deadline; a probe that misses it
            counts as a missed heartbeat.
        max_missed_heartbeats: consecutive misses before a live process is
            declared wedged and SIGKILLed (then restarted like a crash).
        start_timeout_s: how long a spawned worker may take to print its
            readiness line (startup compresses models, so allow for it).
        drain_timeout_s: how long :meth:`FleetSupervisor.close` waits for a
            SIGTERMed worker to drain before SIGKILLing it.
        restart_initial_s / restart_max_s / stable_after_s /
        crash_loop_budget: the :class:`RestartBackoff` schedule per slot.
    """

    heartbeat_s: float = 0.5
    heartbeat_timeout_s: float = 2.0
    max_missed_heartbeats: int = 3
    start_timeout_s: float = 120.0
    drain_timeout_s: float = 15.0
    restart_initial_s: float = 0.1
    restart_max_s: float = 2.0
    stable_after_s: float = 10.0
    crash_loop_budget: int = 5

    def __post_init__(self) -> None:
        if self.heartbeat_s <= 0 or self.heartbeat_timeout_s <= 0:
            raise ConfigurationError("heartbeat intervals must be positive")
        if self.max_missed_heartbeats < 1:
            raise ConfigurationError("max_missed_heartbeats must be >= 1")
        if self.start_timeout_s <= 0 or self.drain_timeout_s <= 0:
            raise ConfigurationError("start/drain timeouts must be positive")


class _WorkerSlot:
    """One supervised worker: process handle + monitor bookkeeping."""

    def __init__(self, index: int, port: int, backoff: RestartBackoff) -> None:
        self.index = index
        self.requested_port = port  # 0 = fresh ephemeral port per spawn
        self.backoff = backoff
        self.proc: asyncio.subprocess.Process | None = None
        self.waiter: asyncio.Task | None = None
        self.drainer: asyncio.Task | None = None
        self.monitor: asyncio.Task | None = None
        self.client: AsyncServeClient | None = None
        self.host: str | None = None
        self.port: int | None = None
        self.generation = 0
        self.state = "starting"  # starting|healthy|suspect|restarting|failed
        self.missed = 0
        self.last_health: dict[str, Any] | None = None
        self.error: str | None = None
        self.log: deque[str] = deque(maxlen=50)

    @property
    def pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None


class FleetSupervisor:
    """Spawn, watch and restart N ``repro serve`` daemon workers.

    Args:
        worker_args: CLI arguments after ``serve`` that define each worker
            (models, engine, scale, batching policy...).  Every worker gets
            the same arguments, so any worker can answer any request.
        workers: how many daemon processes to run.
        host: listen address workers bind.
        base_port: first worker port; worker *i* gets ``base_port + i``.
            ``0`` gives every spawn a fresh ephemeral port (parsed from the
            daemon's readiness line) — the default, and what in-process
            clients using :meth:`endpoints` as a callable should use.
        policy: heartbeat / restart / drain knobs.
        env: extra environment variables for the workers (e.g. a shared
            ``REPRO_STORE_DIR`` so restarts re-load compressed models
            instead of recompressing them).

    Use as an async context manager::

        async with FleetSupervisor(["--models", "neuraltalk_lstm"], workers=3) as fleet:
            client = await FleetClient.connect(fleet.endpoints)
    """

    def __init__(
        self,
        worker_args: Sequence[str],
        workers: int = 3,
        host: str = "127.0.0.1",
        base_port: int = 0,
        policy: FleetPolicy | None = None,
        env: dict[str, str] | None = None,
    ) -> None:
        if workers < 1:
            raise ConfigurationError(f"a fleet needs >= 1 worker, got {workers}")
        if base_port < 0:
            raise ConfigurationError(f"base_port must be >= 0, got {base_port}")
        self.worker_args = list(worker_args)
        self.host = host
        self.policy = policy or FleetPolicy()
        self.env = dict(env) if env else None
        self._slots = [
            _WorkerSlot(
                index,
                0 if base_port == 0 else base_port + index,
                RestartBackoff(
                    initial_s=self.policy.restart_initial_s,
                    max_s=self.policy.restart_max_s,
                    stable_after_s=self.policy.stable_after_s,
                    budget=self.policy.crash_loop_budget,
                ),
            )
            for index in range(workers)
        ]
        self._closing = False
        self._started = False
        self.counters = {
            "spawns": 0,
            "restarts": 0,
            "wedged_kills": 0,
            "crash_loops": 0,
        }
        self.restart_log: list[dict[str, Any]] = []

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> "FleetSupervisor":
        """Spawn every worker, wait until all are listening, start monitors."""
        if self._started:
            raise FleetError("fleet is already started")
        self._started = True
        try:
            await asyncio.gather(*(self._spawn(slot) for slot in self._slots))
        except BaseException:
            await self.close()
            raise
        for slot in self._slots:
            slot.monitor = asyncio.create_task(
                self._monitor(slot), name=f"repro-fleet-monitor-{slot.index}"
            )
        return self

    async def close(self) -> dict[str, Any]:
        """Stop monitoring, drain workers (SIGTERM, then SIGKILL stragglers)."""
        self._closing = True
        for slot in self._slots:
            if slot.monitor is not None:
                slot.monitor.cancel()
        await asyncio.gather(
            *(slot.monitor for slot in self._slots if slot.monitor),
            return_exceptions=True,
        )
        for slot in self._slots:
            await self._close_client(slot)
        for slot in self._slots:
            if slot.proc is not None and slot.proc.returncode is None:
                try:
                    slot.proc.send_signal(signal.SIGTERM)
                except ProcessLookupError:
                    pass
        for slot in self._slots:
            if slot.proc is None:
                continue
            try:
                await asyncio.wait_for(
                    slot.proc.wait(), timeout=self.policy.drain_timeout_s
                )
            except asyncio.TimeoutError:
                try:
                    slot.proc.kill()
                except ProcessLookupError:
                    pass
                await slot.proc.wait()
            if slot.drainer is not None:
                # The pipe is closed once the process is gone, so the
                # drainer finishes on its own; just collect it.
                await asyncio.gather(slot.drainer, return_exceptions=True)
        return self.stats()

    async def __aenter__(self) -> "FleetSupervisor":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    # -- spawning ----------------------------------------------------------------

    def _command(self, slot: _WorkerSlot) -> list[str]:
        return [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            *self.worker_args,
            "--host",
            self.host,
            "--port",
            str(slot.requested_port),
        ]

    async def _spawn(self, slot: _WorkerSlot) -> None:
        """Start one worker process and wait for its readiness line."""
        environment = os.environ.copy()
        if self.env:
            environment.update(self.env)
        environment.setdefault("PYTHONUNBUFFERED", "1")
        slot.proc = await asyncio.create_subprocess_exec(
            *self._command(slot),
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.STDOUT,
            env=environment,
        )
        self.counters["spawns"] += 1
        slot.generation += 1
        slot.state = "starting"
        slot.missed = 0
        assert slot.proc.stdout is not None
        try:
            await asyncio.wait_for(
                self._await_ready(slot), timeout=self.policy.start_timeout_s
            )
        except asyncio.TimeoutError:
            try:
                slot.proc.kill()
            except ProcessLookupError:
                pass
            await slot.proc.wait()
            raise FleetError(
                f"worker {slot.index} did not report readiness within "
                f"{self.policy.start_timeout_s}s "
                f"(last output: {list(slot.log)[-3:]})",
                worker_id=slot.index,
            ) from None
        slot.backoff.note_started()
        slot.waiter = asyncio.create_task(slot.proc.wait())
        slot.drainer = asyncio.create_task(self._drain_stdout(slot))
        slot.state = "healthy"

    async def _await_ready(self, slot: _WorkerSlot) -> None:
        assert slot.proc is not None and slot.proc.stdout is not None
        while True:
            line = await slot.proc.stdout.readline()
            if not line:
                raise FleetError(
                    f"worker {slot.index} exited during startup "
                    f"(output: {list(slot.log)[-5:]})",
                    worker_id=slot.index,
                )
            text = line.decode(errors="replace").rstrip()
            slot.log.append(text)
            match = _LISTENING.search(text)
            if match:
                slot.host = match.group(1)
                slot.port = int(match.group(2))
                return

    async def _drain_stdout(self, slot: _WorkerSlot) -> None:
        """Keep reading a running worker's output so its pipe never fills."""
        proc = slot.proc
        if proc is None or proc.stdout is None:
            return
        try:
            while True:
                line = await proc.stdout.readline()
                if not line:
                    return
                slot.log.append(line.decode(errors="replace").rstrip())
        except (asyncio.CancelledError, ConnectionResetError):
            pass

    # -- monitoring --------------------------------------------------------------

    async def _monitor(self, slot: _WorkerSlot) -> None:
        """Heartbeat one slot; restart it when it crashes or wedges."""
        try:
            while not self._closing:
                assert slot.waiter is not None
                done, _ = await asyncio.wait(
                    {slot.waiter}, timeout=self.policy.heartbeat_s
                )
                if done:
                    await self._handle_death(
                        slot, f"exited with code {slot.proc.returncode}"
                    )
                    continue
                if await self._heartbeat(slot):
                    slot.missed = 0
                    slot.state = "healthy"
                    continue
                slot.missed += 1
                slot.state = "suspect"
                if slot.missed >= self.policy.max_missed_heartbeats:
                    # A live process that stopped answering is wedged: a
                    # graceful signal may never be seen, so SIGKILL it.
                    self.counters["wedged_kills"] += 1
                    try:
                        slot.proc.kill()
                    except ProcessLookupError:
                        pass
                    await slot.waiter
                    await self._handle_death(
                        slot, f"wedged ({slot.missed} missed heartbeats)"
                    )
        except asyncio.CancelledError:
            pass

    async def _heartbeat(self, slot: _WorkerSlot) -> bool:
        """One ``health`` probe; True when the worker answered in time."""
        try:
            if slot.client is None:
                assert slot.host is not None and slot.port is not None
                slot.client = await asyncio.wait_for(
                    AsyncServeClient.connect(slot.host, slot.port),
                    timeout=self.policy.heartbeat_timeout_s,
                )
            slot.last_health = await slot.client.health(
                timeout_s=self.policy.heartbeat_timeout_s
            )
            return bool(slot.last_health.get("ok"))
        except asyncio.CancelledError:
            raise
        except Exception:
            await self._close_client(slot)
            return False

    async def _close_client(self, slot: _WorkerSlot) -> None:
        if slot.client is not None:
            client, slot.client = slot.client, None
            try:
                await client.close()
            except Exception:
                pass

    async def _handle_death(self, slot: _WorkerSlot, reason: str) -> None:
        """Back off and respawn a dead worker, or fail the slot for good."""
        await self._close_client(slot)
        if slot.drainer is not None:
            await asyncio.gather(slot.drainer, return_exceptions=True)
        if self._closing:
            return
        try:
            delay = slot.backoff.record_crash()
        except FleetError as exc:
            self.counters["crash_loops"] += 1
            slot.state = "failed"
            slot.error = str(exc)
            self.restart_log.append(
                {"worker": slot.index, "reason": reason, "gave_up": True}
            )
            raise asyncio.CancelledError from None
        slot.state = "restarting"
        self.counters["restarts"] += 1
        self.restart_log.append(
            {"worker": slot.index, "reason": reason, "delay_s": delay}
        )
        await asyncio.sleep(delay)
        try:
            await self._spawn(slot)
        except FleetError as exc:
            # Spawn itself failed (e.g. killed again during startup): treat
            # it as another crash on the next loop iteration by synthesizing
            # a finished waiter.
            slot.error = str(exc)
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            future.set_result(None)
            slot.waiter = future

    # -- control & introspection -------------------------------------------------

    def kill_worker(self, index: int, sig: int = signal.SIGKILL) -> int | None:
        """Send ``sig`` (default SIGKILL) to one worker; returns its pid.

        This is the chaos harness's crash injector; the monitor notices the
        death and restarts the worker through the normal backoff path.
        """
        slot = self._slots[index]
        if slot.proc is None or slot.proc.returncode is not None:
            return None
        pid = slot.proc.pid
        try:
            slot.proc.send_signal(sig)
        except ProcessLookupError:
            return None
        return pid

    def endpoints(self) -> list[tuple[str, int] | None]:
        """Current ``(host, port)`` per worker slot (``None`` = failed slot).

        Pass this *method* (not its result) to :class:`FleetClient`: after
        a restart onto a fresh ephemeral port the client re-resolves the
        slot's endpoint instead of hammering the dead one.
        """
        return [
            None
            if slot.state == "failed" or slot.port is None
            else (slot.host or self.host, slot.port)
            for slot in self._slots
        ]

    @property
    def workers(self) -> int:
        return len(self._slots)

    def worker_log(self, index: int) -> list[str]:
        """Recent output lines of one worker (diagnostics)."""
        return list(self._slots[index].log)

    async def wait_healthy(self, timeout_s: float = 30.0) -> None:
        """Block until every non-failed worker answers a health probe.

        Raises:
            FleetError: some worker never became healthy within the budget
                (or every slot failed its crash-loop budget).
        """
        deadline = time.monotonic() + timeout_s
        while True:
            pending = [
                slot
                for slot in self._slots
                if slot.state != "failed" and slot.state != "healthy"
            ]
            alive = [slot for slot in self._slots if slot.state != "failed"]
            if not alive:
                raise FleetError("every worker slot exhausted its crash-loop budget")
            if not pending:
                return
            if time.monotonic() >= deadline:
                raise FleetError(
                    f"workers {[slot.index for slot in pending]} not healthy "
                    f"within {timeout_s}s "
                    f"(states: {[slot.state for slot in pending]})"
                )
            await asyncio.sleep(min(0.05, self.policy.heartbeat_s))

    def stats(self) -> dict[str, Any]:
        """Fleet counters plus a per-worker status table."""
        return {
            **self.counters,
            "workers": [
                {
                    "worker": slot.index,
                    "state": slot.state,
                    "pid": slot.pid,
                    "host": slot.host,
                    "port": slot.port,
                    "generation": slot.generation,
                    "restarts": slot.backoff.restarts,
                    "missed_heartbeats": slot.missed,
                    "error": slot.error,
                    "queue_depth": (slot.last_health or {}).get("queue_depth"),
                    "served": (slot.last_health or {}).get("served"),
                }
                for slot in self._slots
            ],
        }


# -- the failover client ----------------------------------------------------------

#: Transport-level failures that mean "this worker is gone", not "bad request".
_TRANSPORT_ERRORS = (
    ConnectionError,
    OSError,
    asyncio.TimeoutError,
    ServeTimeoutError,
    ServerClosedError,
)


class FleetClient:
    """Route requests across fleet workers with breakers and failover.

    Args:
        endpoints: a list of ``(host, port)`` per worker — or a callable
            returning one (e.g. ``FleetSupervisor.endpoints``), re-resolved
            before every connection attempt so restarted workers on fresh
            ports are picked up transparently.  ``None`` entries are
            permanently failed slots and are skipped.
        timeout_s: per-request wall-clock budget across *all* failover
            attempts.  Also propagated as the request's ``deadline_s`` so
            the server sheds the work if it cannot answer in time.
        max_attempts: distinct worker attempts per request (default: twice
            the worker count).
        failure_threshold / reset_after_s / half_open_probes: the per-worker
            :class:`CircuitBreaker` parameters.
        connect_timeout_s: TCP connect budget per attempt.
        route_window: consecutive requests routed to the same worker before
            round-robin advances (default 1).  Set it to the servers'
            ``max_batch`` when driving closed-loop load so each worker's
            batcher sees full batches instead of a thin slice of every
            wave.

    Failure semantics: a request either returns a :class:`ServeResponse`
    (bit-identical to the offline path) or raises one of the typed
    retriable errors — :class:`ServerOverloadedError`,
    :class:`DeadlineExceededError`, :class:`CircuitOpenError`,
    :class:`WorkerCrashedError`, :class:`ServeTimeoutError`.  Non-retriable
    :class:`ServeError` (unknown model, bad shape) is raised immediately
    without failover — every worker serves the same models, so a second
    opinion cannot help.
    """

    def __init__(
        self,
        endpoints: Sequence[tuple[str, int] | None]
        | Callable[[], Sequence[tuple[str, int] | None]],
        *,
        timeout_s: float | None = 30.0,
        max_attempts: int | None = None,
        failure_threshold: int = 3,
        reset_after_s: float = 1.0,
        half_open_probes: int = 1,
        connect_timeout_s: float = 5.0,
        route_window: int = 1,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        # A NaN budget never runs out; a bool is not a number of seconds.
        if timeout_s is not None and not (is_finite_real(timeout_s) and timeout_s > 0):
            raise ConfigurationError(
                f"timeout_s must be a finite positive number or None, got {timeout_s!r}"
            )
        if route_window < 1:
            raise ConfigurationError(
                f"route_window must be >= 1, got {route_window}"
            )
        self._resolve = endpoints if callable(endpoints) else (lambda: endpoints)
        initial = list(self._resolve())
        if not initial:
            raise ConfigurationError("a fleet client needs at least one endpoint")
        self.timeout_s = timeout_s
        self.max_attempts = (
            int(max_attempts) if max_attempts is not None else 2 * len(initial)
        )
        self.connect_timeout_s = float(connect_timeout_s)
        self._clock = clock
        self._breakers = [
            CircuitBreaker(
                failure_threshold=failure_threshold,
                reset_after_s=reset_after_s,
                half_open_probes=half_open_probes,
                clock=clock,
            )
            for _ in initial
        ]
        self._clients: list[AsyncServeClient | None] = [None] * len(initial)
        self._connected_to: list[tuple[str, int] | None] = [None] * len(initial)
        # Serializes connect/drop per worker: concurrent failovers onto the
        # same slot must not each open a connection and orphan all but one.
        self._conn_locks = [asyncio.Lock() for _ in initial]
        self._rr = 0
        # Route `route_window` consecutive requests to the same worker
        # before advancing: window > 1 keeps a closed-loop burst on one
        # worker long enough for its batcher to coalesce a full batch
        # (pure round-robin spreads every wave thin across the fleet).
        self._route_window = int(route_window)
        self._rr_used = 0
        self.counters = {
            "requests": 0,
            "completed": 0,
            "failovers": 0,
            "breaker_rejections": 0,
        }

    @classmethod
    async def connect(
        cls,
        endpoints: Sequence[tuple[str, int] | None]
        | Callable[[], Sequence[tuple[str, int] | None]],
        **kwargs: Any,
    ) -> "FleetClient":
        """Build a client and verify at least one worker is reachable."""
        client = cls(endpoints, **kwargs)
        await client.models()  # raises (typed) if the whole fleet is down
        return client

    # -- connections -------------------------------------------------------------

    def _endpoint(self, index: int) -> tuple[str, int] | None:
        endpoints = list(self._resolve())
        if index >= len(endpoints):
            return None
        return endpoints[index]

    async def _client_for(self, index: int) -> AsyncServeClient:
        """A live connection to worker ``index``, reconnecting on demand."""
        async with self._conn_locks[index]:
            endpoint = self._endpoint(index)
            if endpoint is None:
                raise WorkerCrashedError(
                    f"worker {index} has no endpoint (slot failed)", worker_id=index
                )
            cached = self._clients[index]
            if cached is not None and self._connected_to[index] == endpoint:
                return cached
            await self._drop_client_locked(index)
            host, port = endpoint
            try:
                client = await asyncio.wait_for(
                    AsyncServeClient.connect(host, port),
                    timeout=self.connect_timeout_s,
                )
            except (ConnectionError, OSError, asyncio.TimeoutError) as exc:
                raise WorkerCrashedError(
                    f"worker {index} unreachable at {host}:{port}: {exc}",
                    worker_id=index,
                ) from exc
            self._clients[index] = client
            self._connected_to[index] = endpoint
            return client

    async def _drop_client(
        self, index: int, only: AsyncServeClient | None = None
    ) -> None:
        """Close and forget worker ``index``'s connection.

        With ``only`` set, drop only if that exact client is still the
        cached one — a concurrent failover may already have reconnected,
        and its fresh connection must survive.
        """
        async with self._conn_locks[index]:
            if only is not None and self._clients[index] is not only:
                return
            await self._drop_client_locked(index)

    async def _drop_client_locked(self, index: int) -> None:
        client, self._clients[index] = self._clients[index], None
        self._connected_to[index] = None
        if client is not None:
            try:
                await client.close()
            except Exception:
                pass

    # -- routing -----------------------------------------------------------------

    def _pick_worker(self, tried: set[int]) -> int | None:
        """Next eligible worker: round robin over closed/half-open breakers,
        staying on the current worker for ``route_window`` requests."""
        count = len(self._breakers)
        for offset in range(count):
            index = (self._rr + offset) % count
            if index in tried or self._endpoint(index) is None:
                continue
            if self._breakers[index].allow():
                if offset > 0:
                    # Forced off the preferred worker (failover, open
                    # breaker, dead slot): restart the window on this one.
                    self._rr = index
                    self._rr_used = 0
                self._rr_used += 1
                if self._rr_used >= self._route_window:
                    self._rr = (index + 1) % count
                    self._rr_used = 0
                return index
        return None

    def _all_open_error(self) -> CircuitOpenError:
        waits = [
            breaker.retry_after_s
            for index, breaker in enumerate(self._breakers)
            if self._endpoint(index) is not None
        ]
        if not waits:
            return CircuitOpenError("every fleet worker slot has failed")
        return CircuitOpenError(
            f"all {len(waits)} worker circuit breakers are open",
            retry_after_s=min(waits),
        )

    async def infer(
        self,
        model: str,
        vector: np.ndarray,
        *,
        timeout_s: float | None = None,
    ) -> ServeResponse:
        """One inference request with transparent failover.

        Routes to the next worker whose breaker admits the request, carries
        the remaining time budget as the wire ``deadline_s``, and on worker
        failure (transport error, timeout, crash mid-request) marks the
        breaker and retries the *unchanged* request on another worker.
        """
        self.counters["requests"] += 1
        budget = self.timeout_s if timeout_s is None else timeout_s
        deadline = None if budget is None else self._clock() + budget
        tried: set[int] = set()
        last_error: Exception | None = None
        for attempt in range(self.max_attempts):
            if len(tried) >= len(self._breakers):
                tried.clear()  # every worker seen once: allow another round
            index = self._pick_worker(tried)
            if index is None:
                self.counters["breaker_rejections"] += 1
                raise last_error if last_error is not None else self._all_open_error()
            tried.add(index)
            breaker = self._breakers[index]
            remaining = None if deadline is None else deadline - self._clock()
            if remaining is not None and remaining <= 0:
                breaker.record_success()  # the worker did nothing wrong
                raise ServeTimeoutError(
                    f"fleet request budget of {budget}s exhausted after "
                    f"{attempt} attempt(s)",
                    timeout_s=budget or 0.0,
                )
            client = None
            try:
                client = await self._client_for(index)
                response = await client.infer(
                    model,
                    vector,
                    timeout_s=remaining,
                    retries=0,
                    deadline_s=remaining,
                )
            except _TRANSPORT_ERRORS as exc:
                breaker.record_failure()
                if client is not None:
                    await self._drop_client(index, only=client)
                self.counters["failovers"] += 1
                last_error = WorkerCrashedError(
                    f"worker {index} failed mid-request: {exc}",
                    worker_id=index,
                    retry_after_s=self._breakers[index].retry_after_s,
                )
                continue
            except WorkerCrashedError as exc:
                breaker.record_failure()
                self.counters["failovers"] += 1
                last_error = exc
                continue
            except (ServerOverloadedError, DeadlineExceededError) as exc:
                # Backpressure / shedding: the worker is healthy, it just
                # cannot take this request — try a sibling without
                # penalizing the breaker.
                breaker.record_success()
                self.counters["failovers"] += 1
                last_error = exc
                continue
            except ServeError:
                # Bad request (unknown model, wrong shape): every worker
                # would answer the same — surface it, close the breaker's
                # probe slot.
                breaker.record_success()
                raise
            breaker.record_success()
            self.counters["completed"] += 1
            return response
        assert last_error is not None
        raise last_error

    # -- fleet-wide queries ------------------------------------------------------

    async def _any_worker(self, op: Callable[[AsyncServeClient], Any]) -> Any:
        """Run a query on the first reachable worker."""
        last_error: Exception | None = None
        for index in range(len(self._breakers)):
            if self._endpoint(index) is None:
                continue
            client = None
            try:
                client = await self._client_for(index)
                return await op(client)
            except _TRANSPORT_ERRORS + (WorkerCrashedError,) as exc:
                if client is not None:
                    await self._drop_client(index, only=client)
                last_error = exc
        raise WorkerCrashedError(
            f"no fleet worker reachable: {last_error}"
        ) from last_error

    async def models(self) -> dict[str, Any]:
        """Model descriptions from any reachable worker (they all match)."""
        return await self._any_worker(lambda client: client.models())

    async def health(self) -> list[dict[str, Any] | None]:
        """Health snapshot per worker (``None`` for unreachable slots)."""
        snapshots: list[dict[str, Any] | None] = []
        for index in range(len(self._breakers)):
            client = None
            try:
                client = await self._client_for(index)
                snapshots.append(await client.health(timeout_s=self.connect_timeout_s))
            except Exception:
                if client is not None:
                    await self._drop_client(index, only=client)
                snapshots.append(None)
        return snapshots

    def stats(self) -> dict[str, Any]:
        """Client counters plus each worker's breaker state."""
        return {
            **self.counters,
            "breakers": [breaker.state for breaker in self._breakers],
        }

    async def close(self) -> None:
        for index in range(len(self._clients)):
            await self._drop_client(index)

    async def __aenter__(self) -> "FleetClient":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()
