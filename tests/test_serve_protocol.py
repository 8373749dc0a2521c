"""Tests for the JSON-lines TCP protocol: daemon + client round trips.

The wire format must preserve every float bit (vectors cross as base64 of
their little-endian float64 bytes, scalars as JSON numbers written via
``repr``), so a remote client sees exactly the offline ``run_model`` bits
— the CI daemon job leans on this.
"""

from __future__ import annotations

import asyncio
import base64
import json
import os
import re
import signal
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.config import EIEConfig
from repro.engine.session import Session
from repro.errors import (
    ServeError,
    ServeTimeoutError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.models import build_model, synthetic_model_inputs
from repro.serve import AsyncServeClient, BatchPolicy, Server, start_daemon

CONFIG = EIEConfig(num_pes=8)
#: ``neuraltalk_lstm`` at scale 64 (the ``model`` fixture) reads this many floats.
INPUT_SIZE = 18
_MAX = np.finfo(np.float64).max
_TINY = np.finfo(np.float64).smallest_subnormal


@pytest.fixture(scope="module")
def model():
    return build_model("neuraltalk_lstm", scale=64)


def _b64(vector) -> str:
    """A vector as the wire writes it: base64 of little-endian float64 bytes."""
    return base64.b64encode(np.asarray(vector, dtype="<f8").tobytes()).decode()


def _from_b64(field: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(field), dtype="<f8")


def _run(main):
    """``asyncio.run(main)``, failing if any event-loop callback raised.

    The daemon answers requests from future done-callbacks, whose errors
    the loop would otherwise only log.
    """
    errors: list[dict] = []

    async def checked():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context)
        )
        return await main

    result = asyncio.run(checked())
    assert not errors, errors
    return result


def _with_daemon(model, coro_factory, **server_kwargs):
    """Run ``coro_factory(client, server)`` against an ephemeral-port daemon."""

    async def drive():
        server = await Server([model], config=CONFIG, **server_kwargs).start()
        listener = await start_daemon(server)
        port = listener.sockets[0].getsockname()[1]
        client = await AsyncServeClient.connect("127.0.0.1", port)
        try:
            return await coro_factory(client, server)
        finally:
            await client.close()
            listener.close()
            await listener.wait_closed()
            await server.close()

    return _run(drive())


class TestRoundTrip:
    def test_infer_bit_identical_through_the_wire(self, model):
        inputs = synthetic_model_inputs(model, batch=8, seed=13)
        session = Session(config=CONFIG)
        offline = [
            session.run_model("cycle", model, inputs[i], CONFIG) for i in range(8)
        ]

        async def scenario(client, server):
            return await asyncio.gather(
                *(client.infer(model.name, vector) for vector in inputs)
            )

        responses = _with_daemon(
            model, scenario, policy=BatchPolicy(max_batch=4, max_wait_us=20_000)
        )
        assert max(response.batch_size for response in responses) > 1
        for response, reference in zip(responses, offline):
            assert np.array_equal(response.output, reference.outputs[0])
            assert response.total_cycles == reference.total_cycles
            assert response.latency_s == reference.latency_s

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                    min_size=INPUT_SIZE, max_size=INPUT_SIZE))
    @example([-0.0] * INPUT_SIZE)
    @example([_TINY, -_TINY, 2.2250738585072014e-308 / 3, -0.0] * 4 + [_MAX, -_MAX])
    @example([_MAX, -_MAX] * (INPUT_SIZE // 2))
    def test_any_finite_vector_crosses_the_wire_bit_for_bit(self, model, values):
        assert model.input_size == INPUT_SIZE
        vector = np.array(values, dtype=np.float64)
        offline = Session(config=CONFIG).run_model("cycle", model, vector, CONFIG).outputs[0]
        received = []

        async def scenario(client, server):
            enqueue = server.enqueue

            def recording(name, row, **kwargs):
                received.append(np.asarray(row).tobytes())
                return enqueue(name, row, **kwargs)

            server.enqueue = recording
            return await client.infer(model.name, vector)

        response = _with_daemon(model, scenario)
        assert received == [vector.tobytes()]  # the request, bit for bit
        assert response.output.dtype == np.float64
        assert response.output.tobytes() == offline.tobytes()  # and the reply

    def test_models_stats_and_ping(self, model):
        async def scenario(client, server):
            assert await client.ping()
            described = await client.models()
            stats = await client.stats()
            return described, stats

        described, stats = _with_daemon(model, scenario)
        description = described[model.name]
        assert description["input_size"] == model.input_size
        assert description["engine"] == "cycle"
        assert description["num_pes"] == CONFIG.num_pes
        assert description["spec"] is None  # served from a raw IR
        assert stats["models"][model.name]["received"] == 0

    def test_registry_served_model_reports_rebuild_spec(self):
        from repro.models import ModelSpec

        model = build_model("neuraltalk_lstm", scale=64)

        async def scenario(client, server):
            return await client.models()

        async def drive():
            server = await Server(
                [ModelSpec(model="neuraltalk_lstm", scale=64)], config=CONFIG
            ).start()
            listener = await start_daemon(server)
            port = listener.sockets[0].getsockname()[1]
            client = await AsyncServeClient.connect("127.0.0.1", port)
            try:
                return await client.models()
            finally:
                await client.close()
                listener.close()
                await listener.wait_closed()
                await server.close()

        described = _run(drive())
        spec = described[model.name]["spec"]
        assert spec == {
            "model": "neuraltalk_lstm",
            "scale": 64,
            "seed": None,
            "params": {},
        }


class TestErrors:
    def test_unknown_model_maps_to_serve_error(self, model):
        async def scenario(client, server):
            with pytest.raises(ServeError, match="not served"):
                await client.infer("nope", np.zeros(4))

        _with_daemon(model, scenario)

    def test_overload_maps_to_typed_rejection(self, model):
        inputs = synthetic_model_inputs(model, batch=32, seed=3)

        async def scenario(client, server):
            outcomes = await asyncio.gather(
                *(client.infer(model.name, vector) for vector in inputs),
                return_exceptions=True,
            )
            return outcomes

        outcomes = _with_daemon(
            model,
            scenario,
            policy=BatchPolicy(max_batch=1, max_wait_us=0.0, queue_depth=1),
        )
        rejections = [o for o in outcomes if isinstance(o, ServerOverloadedError)]
        assert rejections and all(r.retry_after_s > 0 for r in rejections)

    def test_malformed_json_and_unknown_op_answered_not_fatal(self, model):
        async def scenario(client, server):
            port_reader, port_writer = client._reader, client._writer
            # Ride the same socket below the client: a bad line must get an
            # error response and must not kill the connection.
            port_writer.write(b"this is not json\n")
            await port_writer.drain()
            with pytest.raises(ServeError, match="unknown operation"):
                await client._call({"op": "frobnicate"})
            assert await client.ping()

        _with_daemon(model, scenario)

    def test_json_floats_round_trip_exactly(self):
        values = [0.1, 1 / 3, 1e-300, 123456.789e-12, np.random.default_rng(0).normal()]
        decoded = json.loads(json.dumps(values))
        assert all(a == b for a, b in zip(values, decoded))


class TestProtocolRobustness:
    def test_garbage_mid_session_answered_per_line_not_fatal(self, model):
        async def scenario(client, server):
            host, port = client._writer.get_extra_info("peername")[:2]
            reader, writer = await asyncio.open_connection(host, port)
            try:
                # One healthy request proves the session is live...
                writer.write(b'{"id": 1, "op": "ping"}\n')
                await writer.drain()
                assert json.loads(await reader.readline())["pong"]
                # ...then every flavour of garbage gets a typed error on its
                # own line and must not tear the connection down.
                for line, fragment in (
                    (b"this is not json\n", "bad JSON"),
                    (b"42\n", "JSON object, got int"),
                    (b"[1, 2]\n", "JSON object, got list"),
                    (b'"just a string"\n', "JSON object, got str"),
                    (b'{"id": [7], "op": "ping"}\n', "'id' must be"),
                    (b'{"id": {"k": 1}, "op": "ping"}\n', "'id' must be"),
                    # bool is an int to Python, and json.loads reads these.
                    (b'{"id": true, "op": "ping"}\n', "'id' must be"),
                    (b'{"id": false, "op": "ping"}\n', "'id' must be"),
                    (b'{"id": NaN, "op": "ping"}\n', "'id' must be"),
                    (b'{"id": Infinity, "op": "ping"}\n', "'id' must be"),
                    (b'{"id": -Infinity, "op": "ping"}\n', "'id' must be"),
                ):
                    writer.write(line)
                    await writer.drain()
                    # Strict parsing: a reply must be valid JSON (no bare NaN).
                    payload = json.loads(
                        await reader.readline(), parse_constant=lambda name: pytest.fail(name)
                    )
                    assert payload["ok"] is False
                    assert payload["error"] == "bad_request"
                    assert payload["id"] is None
                    assert fragment in payload["message"]
                # Schema-violating but well-formed: the error echoes the id.
                writer.write(b'{"id": 5, "op": "infer"}\n')
                await writer.drain()
                payload = json.loads(await reader.readline())
                assert payload["id"] == 5
                assert payload["error"] == "bad_request"
                # The *next* request on the same connection still succeeds.
                writer.write(b'{"id": 9, "op": "ping"}\n')
                await writer.drain()
                assert json.loads(await reader.readline()) == {
                    "id": 9, "ok": True, "pong": True,
                }
            finally:
                writer.close()
                await writer.wait_closed()
            # The managed client on its own connection is unaffected.
            assert await client.ping()

        _with_daemon(model, scenario)


    def test_pipelined_lines_then_half_close_each_answered_once(self, model):
        inputs = synthetic_model_inputs(model, batch=64, seed=29)
        session = Session(config=CONFIG)
        offline = [session.run_model("cycle", model, row, CONFIG).outputs[0] for row in inputs]
        lines = [
            json.dumps({"id": i, "op": "infer", "model": model.name, "input": _b64(row)})
            for i, row in enumerate(inputs)
        ]
        lines += ["not json", json.dumps({"id": "p", "op": "ping"}), '{"id": "s", "op": "stats"}']

        async def half_close(host, port, payload):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(payload)
            await writer.drain()
            writer.write_eof()
            # The daemon answers everything in flight, flushes, then closes.
            replies = [json.loads(line) for line in (await reader.read()).splitlines()]
            writer.close()
            await writer.wait_closed()
            return replies

        async def scenario(client, server):
            host, port = client._writer.get_extra_info("peername")[:2]
            # Nothing in flight at EOF: the queued replies still go out.
            assert await half_close(host, port, b'{"id": 1, "op": "ping"}\n') == [
                {"id": 1, "ok": True, "pong": True}
            ]
            return await half_close(host, port, ("\n".join(lines) + "\n").encode())

        replies = _with_daemon(model, scenario)
        ids = [reply["id"] for reply in replies]
        assert sorted(ids, key=str) == sorted([*range(64), None, "p", "s"], key=str)
        by_id = {reply["id"]: reply for reply in replies}
        for i, expected in enumerate(offline):
            assert by_id[i]["ok"] is True
            assert _from_b64(by_id[i]["outputs"]).tobytes() == expected.tobytes()
        assert by_id[None]["error"] == "bad_request"
        assert by_id["p"]["pong"] is True
        assert by_id["s"]["stats"]["models"][model.name]["received"] == 64

    @pytest.mark.parametrize(
        "field, fragment",
        [
            (None, "base64 string"),
            (42, "base64 string"),
            ([0.0] * INPUT_SIZE, "base64 string"),  # the old JSON-list format
            ("AAAA$AAAAAAA", "not valid base64"),
            ("AAAAAAAA8D8", "not valid base64"),  # missing padding
            ("AAAAAAAA8D8é", "not valid base64"),  # not ASCII
            (base64.b64encode(bytes(7)).decode(), "not a whole number"),
            (_b64(np.zeros(INPUT_SIZE - 1)), "one vector of length"),
            (_b64([np.nan] + [0.0] * (INPUT_SIZE - 1)), "non-finite"),
            (_b64([0.0] * (INPUT_SIZE - 1) + [np.inf]), "non-finite"),
        ],
        ids=[
            "null", "number", "json-list", "bad-character", "no-padding", "non-ascii",
            "seven-bytes", "short-vector", "nan", "inf",
        ],
    )
    def test_malformed_input_vector_is_a_bad_request_and_the_connection_serves_on(
        self, model, field, fragment
    ):
        vector = synthetic_model_inputs(model, batch=1, seed=3)[0]
        offline = Session(config=CONFIG).run_model("cycle", model, vector, CONFIG).outputs[0]

        async def scenario(client, server):
            host, port = client._writer.get_extra_info("peername")[:2]
            reader, writer = await asyncio.open_connection(host, port)
            replies = []
            try:
                bad = {"id": "bad", "op": "infer", "model": model.name, "input": field}
                good = {"id": "good", "op": "infer", "model": model.name, "input": _b64(vector)}
                for message in (bad, good):
                    writer.write(json.dumps(message).encode() + b"\n")
                    await writer.drain()
                    replies.append(json.loads(await reader.readline()))
            finally:
                writer.close()
                await writer.wait_closed()
            return replies

        rejected, answered = _with_daemon(model, scenario)
        assert rejected["id"] == "bad"
        assert rejected["ok"] is False and rejected["error"] == "bad_request"
        assert fragment in rejected["message"]
        assert answered["id"] == "good" and answered["ok"] is True
        assert _from_b64(answered["outputs"]).tobytes() == offline.tobytes()

    def test_replies_queued_before_eof_are_written_before_close(self, model):
        from repro.serve.protocol import _handle_connection

        class RecordingWriter:
            """Keeps what is written while open; a closed socket drops writes."""

            def __init__(self):
                self.written, self.closed = b"", False

            def write(self, data):
                if not self.closed:
                    self.written += data

            async def drain(self):
                pass

            def close(self):
                self.closed = True

            async def wait_closed(self):
                pass

        async def scenario(client, server):
            # Lines and EOF are both buffered before the handler first runs,
            # so it reaches EOF without yielding to the loop in between.
            reader = asyncio.StreamReader()
            reader.feed_data(b'{"id": 1, "op": "ping"}\nnot json\n')
            reader.feed_eof()
            writer = RecordingWriter()
            await _handle_connection(server, reader, writer)
            return [json.loads(line) for line in writer.written.splitlines()]

        replies = _with_daemon(model, scenario)
        assert [reply["id"] for reply in replies] == [1, None]

    def test_line_over_the_limit_closes_after_earlier_replies(self, model, monkeypatch):
        import repro.serve.protocol as protocol

        # StreamReader.readline raises ValueError for an over-limit line.
        monkeypatch.setattr(protocol, "_LINE_LIMIT", 4096)

        async def scenario(client, server):
            host, port = client._writer.get_extra_info("peername")[:2]
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"id": 1, "op": "ping"}\n{"id": 2, "pad": "' + b"x" * 8192 + b'"}\n')
            await writer.drain()
            replies = [json.loads(line) for line in (await reader.read()).splitlines()]
            writer.close()
            await writer.wait_closed()
            assert await client.ping()  # other connections are unaffected
            return replies

        assert _with_daemon(model, scenario) == [{"id": 1, "ok": True, "pong": True}]


def _with_stub_server(respond, scenario, **client_kwargs):
    """Drive ``scenario(client)`` against a scripted line-by-line server.

    ``respond(message, count)`` returns the raw bytes to write back for the
    ``count``-th received line (b"" for silence).  Returns every message the
    stub received, so tests can count retry attempts.
    """

    async def drive():
        received: list[dict] = []
        handlers: set[asyncio.Task] = set()

        async def handler(reader, writer):
            handlers.add(asyncio.current_task())
            while True:
                line = await reader.readline()
                if not line:
                    break
                message = json.loads(line)
                received.append(message)
                reply = respond(message, len(received))
                if reply:
                    writer.write(reply)
                    await writer.drain()
            writer.close()

        listener = await asyncio.start_server(handler, "127.0.0.1", 0)
        port = listener.sockets[0].getsockname()[1]
        client = await AsyncServeClient.connect("127.0.0.1", port, **client_kwargs)
        try:
            await scenario(client)
        finally:
            # EOF the stub first so it drains every line already on the wire
            # (retry counts below depend on `received` being complete).
            await client.close()
            if handlers:
                await asyncio.gather(*handlers, return_exceptions=True)
            listener.close()
            await listener.wait_closed()
        return received

    return asyncio.run(drive())


def _ok_infer_reply(request_id):
    return (
        json.dumps(
            {
                "id": request_id, "ok": True, "model": "m", "outputs": _b64([1.0, 2.0]),
                "batch_size": 1, "total_cycles": 10, "latency_s": 1e-6,
                "energy_j": 1e-9, "queue_wait_s": 0.0, "service_s": 1e-6,
            }
        ).encode()
        + b"\n"
    )


def _overloaded_reply(request_id, retry_after_s=0.01):
    return (
        json.dumps(
            {
                "id": request_id, "ok": False, "error": "overloaded",
                "message": "queue full", "retry_after_s": retry_after_s,
            }
        ).encode()
        + b"\n"
    )


class TestClientTimeoutAndRetry:
    def test_timeout_raises_typed_error(self):
        async def scenario(client):
            with pytest.raises(ServeTimeoutError, match="within"):
                await client.ping()
            assert not client._pending  # the abandoned future was reaped

        received = _with_stub_server(
            lambda message, count: b"", scenario, timeout_s=0.05
        )
        assert len(received) == 1  # only infer retries; ping fails fast

    def test_infer_retries_timeouts_then_raises(self):
        async def scenario(client):
            with pytest.raises(ServeTimeoutError):
                await client.infer("m", np.zeros(4))

        received = _with_stub_server(
            lambda message, count: b"",
            scenario,
            timeout_s=0.05, retries=2, backoff_s=0.001,
        )
        assert len(received) == 3  # initial attempt + two retries

    def test_infer_retries_after_overload_and_succeeds(self):
        def respond(message, count):
            if count == 1:
                return _overloaded_reply(message["id"])
            return _ok_infer_reply(message["id"])

        async def scenario(client):
            response = await client.infer("m", np.zeros(4))
            assert np.array_equal(response.output, [1.0, 2.0])

        received = _with_stub_server(respond, scenario, retries=1, backoff_s=0.001)
        assert len(received) == 2

    def test_overload_without_retries_fails_fast(self):
        def respond(message, count):
            return _overloaded_reply(message["id"])

        async def scenario(client):
            with pytest.raises(ServerOverloadedError):
                await client.infer("m", np.zeros(4))

        received = _with_stub_server(respond, scenario)
        assert len(received) == 1

    def test_retries_exhausted_raises_overloaded(self):
        def respond(message, count):
            return _overloaded_reply(message["id"])

        async def scenario(client):
            with pytest.raises(ServerOverloadedError):
                await client.infer("m", np.zeros(4))

        received = _with_stub_server(
            respond, scenario, retries=2, backoff_s=0.001
        )
        assert len(received) == 3

    def test_read_loop_survives_server_garbage(self):
        def respond(message, count):
            # Garbage, a non-object line and an alien id precede the answer.
            return (
                b"not json\n"
                + b"[3]\n"
                + json.dumps({"id": [1, 2], "ok": True}).encode() + b"\n"
                + _ok_infer_reply(message["id"])
            )

        async def scenario(client):
            response = await client.infer("m", np.zeros(4))
            assert np.array_equal(response.output, [1.0, 2.0])

        _with_stub_server(respond, scenario, timeout_s=5.0)

    @pytest.mark.parametrize(
        "outputs",
        [[1.0, 2.0], None, "AAAA$AAA", base64.b64encode(bytes(7)).decode()],
        ids=["json-list", "missing", "bad-character", "seven-bytes"],
    )
    def test_malformed_outputs_raise_a_typed_serve_error(self, outputs):
        def respond(message, count):
            reply = json.loads(_ok_infer_reply(message["id"]))
            reply["outputs"] = outputs
            return json.dumps(reply).encode() + b"\n"

        async def scenario(client):
            with pytest.raises(ServeError, match="'outputs'") as excinfo:
                await client.infer("m", np.zeros(4))
            assert type(excinfo.value) is ServeError
            # The connection is still usable.
            with pytest.raises(ServeError, match="'outputs'"):
                await client.infer("m", np.zeros(4))

        _with_stub_server(respond, scenario, timeout_s=5.0)

    def test_close_after_an_over_limit_reply_line_does_not_raise(self, monkeypatch):
        import repro.serve.protocol as protocol

        # StreamReader.readline raises ValueError for an over-limit line.
        monkeypatch.setattr(protocol, "_LINE_LIMIT", 1024)

        def respond(message, count):
            return json.dumps({"id": message["id"], "pad": "x" * 4096}).encode() + b"\n"

        async def scenario(client):
            with pytest.raises(ServerClosedError):
                await client.ping()
            with pytest.raises(ServerClosedError):
                await client.ping()

        # _with_stub_server awaits client.close(), which must not raise.
        assert len(_with_stub_server(respond, scenario, timeout_s=5.0)) == 1

    def test_infer_refuses_a_matrix(self):
        async def scenario(client):
            with pytest.raises(ServeError, match="one vector"):
                await client.infer("m", np.zeros((2, 4)))

        assert _with_stub_server(lambda message, count: b"", scenario, timeout_s=5.0) == []

    def test_invalid_client_parameters_rejected(self):
        # Validation fires before the reader task spawns, so no event loop
        # (and no real socket) is needed.
        with pytest.raises(ServeError, match="timeout_s"):
            AsyncServeClient(None, None, timeout_s=0.0)
        for timeout_s in (-1.0, float("nan"), float("inf"), True, "5"):
            with pytest.raises(ServeError, match="timeout_s"):
                AsyncServeClient(None, None, timeout_s=timeout_s)
        with pytest.raises(ServeError, match="retries"):
            AsyncServeClient(None, None, retries=-1)
        with pytest.raises(ServeError, match="backoff_s"):
            AsyncServeClient(None, None, backoff_s=-0.1)


    @pytest.mark.parametrize("timeout_s", [0.0, -1.0, float("nan"), float("inf"), True])
    def test_invalid_per_call_timeout_rejected_before_sending(self, timeout_s):
        async def scenario(client):
            with pytest.raises(ServeError, match="timeout_s"):
                await client.infer("m", np.zeros(4), timeout_s=timeout_s)
            with pytest.raises(ServeError, match="timeout_s"):
                await client.health(timeout_s=timeout_s)
            assert not client._pending

        assert _with_stub_server(lambda message, count: b"", scenario) == []


class TestHealthDeadlineAndChaosVerbs:
    def test_health_round_trip(self, model):
        async def scenario(client, server):
            health = await client.health()
            assert health["ok"] is True
            assert health["models"] == [model.name]
            assert health["engine"] == "cycle"
            assert health["queue_depth"] == 0
            assert health["uptime_s"] >= 0.0
            assert health["chaos"] is False
            assert isinstance(health["pid"], int)

        _with_daemon(model, scenario)

    def test_deadline_expiry_maps_to_typed_error_over_the_wire(self, model):
        from repro.errors import DeadlineExceededError

        async def scenario(client, server):
            with pytest.raises(DeadlineExceededError) as excinfo:
                await client.infer(
                    model.name,
                    np.zeros(model.input_size),
                    deadline_s=1e-6,
                    timeout_s=10.0,
                )
            assert excinfo.value.deadline_s == pytest.approx(1e-6)

        # A long batching wait guarantees the tiny deadline expires queued.
        _with_daemon(
            model, scenario, policy=BatchPolicy(max_batch=8, max_wait_us=30_000.0)
        )

    @pytest.mark.parametrize("deadline_s", [-2.0, float("nan"), float("inf"), True])
    def test_invalid_deadline_is_a_bad_request(self, model, deadline_s):
        # json.dumps writes NaN / Infinity, which json.loads reads back.
        async def scenario(client, server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", client._writer.get_extra_info("peername")[1]
            )
            try:
                writer.write(
                    json.dumps(
                        {
                            "id": 1, "op": "infer", "model": model.name,
                            "input": _b64(np.zeros(model.input_size)),
                            "deadline_s": deadline_s,
                        }
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                payload = json.loads(await reader.readline())
                assert payload["ok"] is False
                assert "deadline_s" in payload["message"]
            finally:
                writer.close()
                await writer.wait_closed()

        _with_daemon(model, scenario)

    def test_non_finite_input_is_a_bad_request_and_spares_its_batch(self, model):
        vector = synthetic_model_inputs(model, batch=1, seed=21)[0]
        offline = Session(config=CONFIG).run_model("cycle", model, vector, CONFIG)
        poisoned = vector.copy()
        poisoned[0] = float("nan")

        async def scenario(client, server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", client._writer.get_extra_info("peername")[1]
            )
            try:
                # Both requests reach the daemon inside one batching window.
                writer.write(
                    json.dumps(
                        {"id": 1, "op": "infer", "model": model.name,
                         "input": _b64(poisoned)}
                    ).encode()
                    + b"\n"
                )
                await writer.drain()
                response = await client.infer(model.name, vector)
                payload = json.loads(await reader.readline())
            finally:
                writer.close()
                await writer.wait_closed()
            return payload, response

        payload, response = _with_daemon(
            model, scenario, policy=BatchPolicy(max_batch=8, max_wait_us=30_000.0)
        )
        assert payload["ok"] is False and payload["error"] == "bad_request"
        assert "non-finite" in payload["message"]
        assert np.array_equal(response.output, offline.outputs[0])
        assert response.total_cycles == offline.total_cycles
        assert response.latency_s == offline.latency_s

    def test_chaos_verb_is_gated_by_the_server_flag(self, model):
        async def scenario(client, server):
            with pytest.raises(ServeError, match="chaos injection is disabled"):
                await client.chaos(0.01, 1.0)

        _with_daemon(model, scenario)

    def test_chaos_verb_applies_when_enabled(self, model):
        async def scenario(client, server):
            applied = await client.chaos(0.02, 0.5)
            assert applied == {"latency_s": 0.02, "duration_s": 0.5}

        _with_daemon(model, scenario, chaos=True)

    @pytest.mark.parametrize(
        "latency_s, duration_s",
        [(float("inf"), 1.0), (0.01, float("inf")), (float("nan"), 1.0), (True, 1.0), (0.01, "1")],
    )
    def test_chaos_verb_rejects_non_finite_values(self, model, latency_s, duration_s):
        inputs = synthetic_model_inputs(model, batch=1, seed=5)

        async def scenario(client, server):
            # json.dumps writes inf and NaN as Infinity and NaN; json.loads reads them.
            with pytest.raises(ServeError, match="finite"):
                await client.chaos(latency_s, duration_s)
            # No stall was applied: the next request is answered promptly.
            return await client.infer(model.name, inputs[0], timeout_s=10.0)

        response = _with_daemon(model, scenario, chaos=True)
        assert response.batch_size == 1


class TestErrorPayloadDecoding:
    """The wire error kinds decode back to the exact typed exceptions."""

    def test_fleet_error_kinds_round_trip(self):
        from repro.errors import (
            CircuitOpenError,
            DeadlineExceededError,
            WorkerCrashedError,
        )
        from repro.serve.protocol import _error_from_payload, _error_payload

        cases = [
            DeadlineExceededError("late", deadline_s=0.25),
            CircuitOpenError("open", worker_id=2, retry_after_s=0.5),
            WorkerCrashedError("gone", worker_id=1, restarts=3, retry_after_s=0.1),
            ServerOverloadedError("full", retry_after_s=0.05),
        ]
        for original in cases:
            payload = _error_payload(7, original)
            assert payload["ok"] is False
            decoded = _error_from_payload(payload)
            assert type(decoded) is type(original)
            for attr in ("deadline_s", "worker_id", "restarts", "retry_after_s"):
                if hasattr(original, attr):
                    assert getattr(decoded, attr) == getattr(original, attr)

    def test_unknown_kind_degrades_to_serve_error(self):
        from repro.serve.protocol import _error_from_payload

        decoded = _error_from_payload(
            {"ok": False, "error": "mystery", "message": "weird"}
        )
        assert type(decoded) is ServeError
        assert "weird" in str(decoded)


class TestDaemonProcess:
    """The ``repro serve`` daemon as a real process."""

    def test_sigterm_with_idle_client_drains_without_traceback(self, tmp_path):
        """A connection that sent a request and then sat idle must not turn
        the SIGTERM drain into an asyncio traceback in the daemon's log."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        env["REPRO_STORE_DIR"] = str(tmp_path / "store")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--models", "neuraltalk_lstm",
             "--scale", "32", "--pes", "8", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            banner = daemon.stdout.readline()
            address = re.search(r"listening on ([\d.]+):(\d+)", banner)
            assert address, banner
            with socket.create_connection(
                (address.group(1), int(address.group(2))), timeout=60
            ) as sock:
                sock.sendall(b'{"id": "p", "op": "ping"}\n')
                assert json.loads(sock.makefile("rb").readline())["id"] == "p"
                daemon.send_signal(signal.SIGTERM)
                log = banner + daemon.communicate(timeout=60)[0]
        finally:
            daemon.kill()
        assert daemon.returncode == 0, log
        assert "drained" in log
        assert "Traceback" not in log, log
