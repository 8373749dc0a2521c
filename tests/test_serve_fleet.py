"""Fleet fault tolerance: breakers, backoff, failover client, supervisor.

The state machines (:class:`CircuitBreaker`, :class:`RestartBackoff`) are
tested with a fake clock — every transition, no sleeps.  The failover
client is tested against scripted in-process stub workers so each failure
mode (refused connection, mid-request reset, overload, bad request) is
deterministic.  One integration test spawns real daemon subprocesses and
SIGKILLs one to prove the supervisor's restart path end to end.
"""

from __future__ import annotations

import asyncio
import base64
import json
import signal

import numpy as np
import pytest

from repro.errors import (
    CircuitOpenError,
    ConfigurationError,
    FleetError,
    ServeError,
    ServerOverloadedError,
    WorkerCrashedError,
    is_retriable,
)
from repro.serve import (
    CircuitBreaker,
    FleetClient,
    FleetPolicy,
    FleetSupervisor,
    RestartBackoff,
)


class FakeClock:
    """Injectable monotonic clock: time moves only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCircuitBreaker:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker(clock=FakeClock())
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()
        assert breaker.retry_after_s == 0.0

    def test_opens_after_consecutive_failures(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_after_s=1.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED  # threshold not reached
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.retry_after_s == pytest.approx(1.0)

    def test_success_resets_the_failure_count(self):
        breaker = CircuitBreaker(failure_threshold=3, clock=FakeClock())
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.CLOSED  # never 3 in a row

    def test_half_opens_after_reset_and_limits_probes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, reset_after_s=2.0, half_open_probes=1, clock=clock
        )
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(1.9)
        assert not breaker.allow()
        assert breaker.retry_after_s == pytest.approx(0.1)
        clock.advance(0.1)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the one admitted probe
        assert not breaker.allow()  # probe budget spent

    def test_half_open_probe_success_closes(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_after_s=1.0, clock=clock)
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_half_open_probe_failure_reopens_for_a_full_reset(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_after_s=1.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        breaker.record_failure()  # one probe failure is enough, not threshold
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.retry_after_s == pytest.approx(1.0)
        clock.advance(0.5)
        assert not breaker.allow()

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(reset_after_s=0.0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(half_open_probes=0)


class TestRestartBackoff:
    def test_exponential_schedule_caps_at_max(self):
        backoff = RestartBackoff(
            initial_s=0.1, max_s=0.5, stable_after_s=10.0, budget=10, clock=FakeClock()
        )
        delays = [backoff.record_crash() for _ in range(5)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])
        assert backoff.restarts == 5

    def test_stable_uptime_resets_the_schedule(self):
        clock = FakeClock()
        backoff = RestartBackoff(
            initial_s=0.1, max_s=5.0, stable_after_s=10.0, budget=3, clock=clock
        )
        assert backoff.record_crash() == pytest.approx(0.1)
        assert backoff.record_crash() == pytest.approx(0.2)
        backoff.note_started()
        clock.advance(10.0)  # ran stably before the next death
        assert backoff.record_crash() == pytest.approx(0.1)
        assert backoff.streak == 1

    def test_unstable_uptime_does_not_reset(self):
        clock = FakeClock()
        backoff = RestartBackoff(
            initial_s=0.1, max_s=5.0, stable_after_s=10.0, budget=5, clock=clock
        )
        backoff.record_crash()
        backoff.note_started()
        clock.advance(9.9)  # died just before the stability bar
        assert backoff.record_crash() == pytest.approx(0.2)

    def test_budget_exhaustion_raises_typed_fleet_error(self):
        backoff = RestartBackoff(
            initial_s=0.1, max_s=1.0, stable_after_s=10.0, budget=3, clock=FakeClock()
        )
        for _ in range(3):
            backoff.record_crash()
        assert backoff.exhausted
        with pytest.raises(FleetError, match="crash-loop budget exhausted"):
            backoff.record_crash()

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            RestartBackoff(initial_s=0.0)
        with pytest.raises(ConfigurationError):
            RestartBackoff(initial_s=1.0, max_s=0.5)
        with pytest.raises(ConfigurationError):
            RestartBackoff(budget=0)
        with pytest.raises(ConfigurationError):
            RestartBackoff(stable_after_s=-1.0)


class TestFleetPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FleetPolicy(heartbeat_s=0.0)
        with pytest.raises(ConfigurationError):
            FleetPolicy(max_missed_heartbeats=0)
        with pytest.raises(ConfigurationError):
            FleetPolicy(drain_timeout_s=0.0)


# -- failover client against scripted stub workers --------------------------------


def _reply(request_id, **payload) -> bytes:
    return json.dumps({"id": request_id, **payload}).encode() + b"\n"


def _ok_infer(request_id) -> bytes:
    return _reply(
        request_id,
        ok=True,
        model="m",
        outputs=base64.b64encode(np.array([1.0, 2.0], dtype="<f8").tobytes()).decode(),
        batch_size=1,
        total_cycles=10,
        latency_s=1e-6,
        energy_j=1e-9,
        queue_wait_s=0.0,
        service_s=1e-6,
    )


def _models_reply(request_id) -> bytes:
    return _reply(request_id, ok=True, models={"m": {"input_size": 2}})


def _stub_worker(behavior, received):
    """An asyncio server speaking just enough protocol for the fleet client.

    ``behavior(message) -> bytes | "close"`` scripts the infer response;
    ``models`` is always answered (the connect-time reachability probe).
    """

    async def handler(reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                message = json.loads(line)
                received.append(message)
                if message.get("op") == "models":
                    writer.write(_models_reply(message["id"]))
                    await writer.drain()
                    continue
                action = behavior(message)
                if action == "close":
                    break
                writer.write(action)
                await writer.drain()
        finally:
            writer.close()

    return asyncio.start_server(handler, "127.0.0.1", 0)


async def _dead_endpoint() -> tuple[str, int]:
    """A (host, port) that refuses connections: bind, grab, close."""
    listener = await asyncio.start_server(lambda r, w: None, "127.0.0.1", 0)
    port = listener.sockets[0].getsockname()[1]
    listener.close()
    await listener.wait_closed()
    return ("127.0.0.1", port)


def _run_fleet_scenario(behaviors, scenario, **client_kwargs):
    """Boot one stub worker per behavior and drive ``scenario(client, logs)``.

    A behavior of ``None`` yields a dead endpoint (connection refused).
    """

    async def drive():
        listeners = []
        endpoints: list[tuple[str, int] | None] = []
        logs: list[list[dict]] = []
        for behavior in behaviors:
            received: list[dict] = []
            logs.append(received)
            if behavior is None:
                endpoints.append(await _dead_endpoint())
                continue
            listener = await _stub_worker(behavior, received)
            listeners.append(listener)
            endpoints.append(("127.0.0.1", listener.sockets[0].getsockname()[1]))
        client = FleetClient(endpoints, **client_kwargs)
        try:
            return await scenario(client, logs)
        finally:
            await client.close()
            for listener in listeners:
                listener.close()
                await listener.wait_closed()

    return asyncio.run(drive())


VECTOR = np.asarray([0.5, 0.25])


class TestFleetClientFailover:
    def test_fails_over_from_a_dead_worker(self):
        async def scenario(client, logs):
            response = await client.infer("m", VECTOR, timeout_s=5.0)
            assert response.output.tolist() == [1.0, 2.0]
            return client.stats()

        stats = _run_fleet_scenario(
            [None, lambda message: _ok_infer(message["id"])],
            scenario,
            connect_timeout_s=0.5,
        )
        assert stats["completed"] == 1
        assert stats["failovers"] >= 1

    def test_breaker_opens_after_repeated_transport_failures(self):
        async def scenario(client, logs):
            for _ in range(6):
                response = await client.infer("m", VECTOR, timeout_s=5.0)
                assert response.output.tolist() == [1.0, 2.0]
            return client.stats()

        stats = _run_fleet_scenario(
            [None, lambda message: _ok_infer(message["id"])],
            scenario,
            failure_threshold=3,
            reset_after_s=60.0,
            connect_timeout_s=0.5,
        )
        # Worker 0's breaker tripped after 3 connect failures; later requests
        # route straight to worker 1 without touching the dead slot.
        assert stats["breakers"][0] == CircuitBreaker.OPEN
        assert stats["completed"] == 6
        assert stats["failovers"] == 3

    def test_mid_request_reset_fails_over_and_completes(self):
        async def scenario(client, logs):
            response = await client.infer("m", VECTOR, timeout_s=5.0)
            assert response.output.tolist() == [1.0, 2.0]
            return client.stats()

        stats = _run_fleet_scenario(
            [lambda message: "close", lambda message: _ok_infer(message["id"])],
            scenario,
        )
        assert stats["completed"] == 1
        assert stats["failovers"] == 1

    def test_overload_fails_over_without_breaker_penalty(self):
        async def scenario(client, logs):
            response = await client.infer("m", VECTOR, timeout_s=5.0)
            assert response.output.tolist() == [1.0, 2.0]
            return client.stats()

        stats = _run_fleet_scenario(
            [
                lambda message: _reply(
                    message["id"], ok=False, error="overloaded",
                    message="queue full", retry_after_s=0.01,
                ),
                lambda message: _ok_infer(message["id"]),
            ],
            scenario,
        )
        assert stats["completed"] == 1
        assert stats["failovers"] == 1
        assert stats["breakers"] == [CircuitBreaker.CLOSED, CircuitBreaker.CLOSED]

    def test_bad_request_raises_immediately_without_failover(self):
        async def scenario(client, logs):
            with pytest.raises(ServeError, match="unknown model"):
                await client.infer("m", VECTOR, timeout_s=5.0)
            return client.stats(), [len(log) for log in logs]

        stats, counts = _run_fleet_scenario(
            [
                lambda message: _reply(
                    message["id"], ok=False, error="unknown_model",
                    message="unknown model 'm'",
                ),
                lambda message: _ok_infer(message["id"]),
            ],
            scenario,
        )
        assert stats["failovers"] == 0
        # Worker 1 never saw the infer: a bad request is not failed over.
        assert counts[1] == 0

    def test_whole_fleet_down_raises_typed_retriable_error(self):
        async def scenario(client, logs):
            with pytest.raises((WorkerCrashedError, CircuitOpenError)) as excinfo:
                await client.infer("m", VECTOR, timeout_s=2.0)
            assert is_retriable(excinfo.value)

        _run_fleet_scenario([None, None], scenario, connect_timeout_s=0.3)

    def test_endpoints_callable_is_reresolved(self):
        """A restarted worker on a new port is picked up transparently."""

        async def drive():
            received: list[dict] = []
            listener = await _stub_worker(
                lambda message: _ok_infer(message["id"]), received
            )
            port = listener.sockets[0].getsockname()[1]
            current = [("127.0.0.1", port)]
            client = FleetClient(lambda: current, timeout_s=5.0)
            listeners = [listener]
            try:
                await client.infer("m", VECTOR)
                # "Restart" the worker: new listener, new port, update the
                # endpoint source in place — as FleetSupervisor.endpoints does.
                # The old listener is awaited only after client.close: from
                # Python 3.12.1 wait_closed waits for every open connection.
                listener.close()
                listener = await _stub_worker(
                    lambda message: _ok_infer(message["id"]), received
                )
                listeners.append(listener)
                current[0] = (
                    "127.0.0.1", listener.sockets[0].getsockname()[1]
                )
                response = await client.infer("m", VECTOR)
                assert response.output.tolist() == [1.0, 2.0]
                return client.stats()
            finally:
                await client.close()
                for listener in listeners:
                    listener.close()
                    await listener.wait_closed()

        stats = asyncio.run(drive())
        assert stats["completed"] == 2

    def test_client_validation(self):
        with pytest.raises(ConfigurationError, match="at least one endpoint"):
            FleetClient([])
        for timeout_s in (0.0, float("nan"), float("inf"), True):
            with pytest.raises(ConfigurationError, match="timeout_s"):
                FleetClient([("127.0.0.1", 1)], timeout_s=timeout_s)
        with pytest.raises(ConfigurationError, match="route_window"):
            FleetClient([("127.0.0.1", 1)], route_window=0)

    def test_route_window_blocks_requests_on_one_worker(self):
        """route_window=N keeps N consecutive picks on the same worker so a
        closed-loop burst lands as one coalescible batch, then advances."""
        endpoints = [("h", 1), ("h", 2), ("h", 3)]
        client = FleetClient(endpoints, route_window=2)
        picks = [client._pick_worker(set()) for _ in range(8)]
        assert picks == [0, 0, 1, 1, 2, 2, 0, 0]

        # Default is pure round robin — unchanged behaviour.
        plain = FleetClient(endpoints)
        assert [plain._pick_worker(set()) for _ in range(4)] == [0, 1, 2, 0]

    def test_route_window_restarts_on_failover(self):
        """A failover mid-window moves to the next worker and gives it a
        full window of its own."""
        client = FleetClient([("h", 1), ("h", 2), ("h", 3)], route_window=2)
        assert client._pick_worker(set()) == 0  # one request into worker 0
        assert client._pick_worker({0}) == 1  # failover: 0 already tried
        # The fresh window on worker 1 completes before advancing.
        assert client._pick_worker(set()) == 1
        assert client._pick_worker(set()) == 2


# -- supervisor integration (real subprocess workers) ------------------------------


WORKER_ARGS = [
    "--models", "neuraltalk_lstm", "--scale", "64", "--pes", "4",
    "--engine", "functional",
]


class TestSupervisorIntegration:
    def test_kill_restart_and_serve_through_failover(self, tmp_path):
        """SIGKILL one worker of two: the fleet restarts it within budget and
        the failover client never surfaces an untyped error."""

        async def drive():
            policy = FleetPolicy(
                heartbeat_s=0.2, restart_initial_s=0.1, restart_max_s=0.5,
                stable_after_s=2.0,
            )
            supervisor = FleetSupervisor(
                WORKER_ARGS,
                workers=2,
                policy=policy,
                env={"REPRO_STORE_DIR": str(tmp_path / "store")},
            )
            async with supervisor:
                endpoints = supervisor.endpoints()
                assert all(endpoint is not None for endpoint in endpoints)
                client = await FleetClient.connect(
                    supervisor.endpoints, timeout_s=30.0
                )
                try:
                    from repro.models import build_model

                    size = build_model("neuraltalk_lstm", scale=64).input_size
                    vector = np.linspace(0.1, 1.0, size)
                    first = await client.infer("neuraltalk_lstm", vector)
                    killed_pid = supervisor.kill_worker(0, sig=signal.SIGKILL)
                    assert killed_pid is not None
                    # Keep serving while the slot restarts: every request must
                    # complete (failover) — typed errors only, and none expected
                    # with a healthy sibling.
                    for _ in range(10):
                        response = await client.infer("neuraltalk_lstm", vector)
                        assert np.array_equal(response.output, first.output)
                    await supervisor.wait_healthy(timeout_s=60.0)
                    stats = supervisor.stats()
                    assert stats["restarts"] == 1
                    assert stats["crash_loops"] == 0
                    states = [worker["state"] for worker in stats["workers"]]
                    assert states == ["healthy", "healthy"]
                    # The restarted worker answers on its (possibly new) port.
                    after = await client.infer("neuraltalk_lstm", vector)
                    assert np.array_equal(after.output, first.output)
                finally:
                    await client.close()

        asyncio.run(drive())


class TestErrorTaxonomy:
    """The typed fleet errors carry machine-readable routing fields."""

    def test_retriable_set_covers_the_fleet_errors(self):
        from repro.errors import (
            RETRIABLE_SERVE_ERRORS,
            DeadlineExceededError,
            ServeTimeoutError,
        )

        assert WorkerCrashedError("x") .__class__ in RETRIABLE_SERVE_ERRORS
        for error in (
            WorkerCrashedError("gone", worker_id=2, restarts=1, retry_after_s=0.5),
            CircuitOpenError("open", worker_id=0, retry_after_s=1.0),
            DeadlineExceededError("late", deadline_s=0.1),
            ServeTimeoutError("slow", timeout_s=1.0),
            ServerOverloadedError("full", retry_after_s=0.01),
        ):
            assert is_retriable(error), error

    def test_non_retriable_errors(self):
        from repro.errors import ServeError

        assert not is_retriable(ServeError("bad request"))
        assert not is_retriable(FleetError("supervisor bug"))
        assert not is_retriable(ValueError("not ours"))

    def test_machine_readable_fields(self):
        crashed = WorkerCrashedError(
            "gone", worker_id=3, restarts=2, retry_after_s=0.25
        )
        assert crashed.worker_id == 3
        assert crashed.restarts == 2
        assert crashed.retry_after_s == 0.25
        opened = CircuitOpenError("open", worker_id=1, retry_after_s=0.75)
        assert opened.worker_id == 1
        assert opened.retry_after_s == 0.75
        assert isinstance(opened, FleetError)
        assert isinstance(crashed, FleetError)
