"""Newline-delimited-JSON wire protocol for the serving daemon.

One JSON object per line, both directions.  Requests carry a client-chosen
``id`` echoed back in the response, so a connection can keep many inference
requests in flight at once — which is exactly what gives the server's
dynamic batcher something to coalesce.

Operations::

    {"id": 7, "op": "infer", "model": "neuraltalk_lstm", "input": "AAAAAAAA8D8...",
     "deadline_s": 2.5}
    {"id": 8, "op": "models"}
    {"id": 9, "op": "stats"}
    {"id": 10, "op": "health"}
    {"id": 11, "op": "chaos", "latency_s": 0.05, "duration_s": 1.0}
    {"id": 0, "op": "ping"}

``deadline_s`` is a *relative* deadline (seconds from receipt, so no clock
sync between hosts is needed); a request still queued when it expires is
shed with a ``deadline_exceeded`` error instead of being computed.
``health`` is the supervisor's heartbeat verb; ``chaos`` is honoured only
by daemons started with ``--chaos``.

Successful ``infer`` responses mirror :class:`~repro.serve.server
.ServeResponse`; failures are ``{"ok": false, "error": <kind>, ...}`` with
kind ``"overloaded"`` (plus ``retry_after_s``), ``"deadline_exceeded"``,
``"circuit_open"``, ``"worker_crashed"``, ``"closed"`` or
``"bad_request"``, which :class:`AsyncServeClient` maps back onto the
typed :mod:`repro.errors` exceptions.

Vectors (a request's ``input``, a reply's ``outputs``) cross the wire as
one base64 string of their little-endian float64 bytes (``"<f8"``), so
they survive the protocol **bit for bit** by construction — ``-0.0``,
subnormals and the extremes included — at a fraction of the cost of float
text.  An ``input`` that is not a string, is not valid base64 or is not a
whole number of 8-byte values is a ``bad_request``; its length and
finiteness are checked by :meth:`Server.enqueue`.  Scalars (simulated
latencies, energies) stay JSON numbers, which Python writes via ``repr``,
the shortest form that reads back to the same float.  The CI drain and
chaos checks depend on this bit identity.

No request gets its own task: an ``infer`` line is queued inline and a
done-callback writes its reply to an outbox flushed once per event-loop
pass.  The client waits on one future and one ``call_later`` timer.
"""

from __future__ import annotations

import asyncio
import base64
import functools
import json
from typing import Any

import numpy as np

from repro.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    ReproError,
    ServeError,
    ServeTimeoutError,
    ServerClosedError,
    ServerOverloadedError,
    WorkerCrashedError,
)
from repro.serve.server import Server, ServeResponse
from repro.utils.validation import is_finite_real

__all__ = ["start_daemon", "AsyncServeClient"]

#: Generous per-line bound: a paper-scale fc layer's ~4k-float vector is
#: ~44 KB of base64 (8 bytes per float, 4/3 for base64).
_LINE_LIMIT = 2**24


def _encode_vector(vector: np.ndarray) -> str:
    """``vector`` as base64 of its little-endian float64 bytes."""
    return base64.b64encode(vector.astype("<f8", copy=False).tobytes()).decode("ascii")


def _decode_vector(field: Any, name: str) -> np.ndarray:
    """The float64 vector a wire ``field`` holds; :class:`ServeError` if malformed."""
    if not isinstance(field, str):
        raise ServeError(
            f"{name!r} must be a base64 string of little-endian float64 bytes, "
            f"got {type(field).__name__}"
        )
    try:
        raw = base64.b64decode(field, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ServeError(f"{name!r} is not valid base64: {exc}") from None
    if len(raw) % 8:
        raise ServeError(f"{name!r} holds {len(raw)} bytes, not a whole number of float64s")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64)


def _error_payload(request_id: Any, exc: BaseException) -> dict[str, Any]:
    if isinstance(exc, ServerOverloadedError):
        return {
            "id": request_id,
            "ok": False,
            "error": "overloaded",
            "message": str(exc),
            "retry_after_s": exc.retry_after_s,
        }
    if isinstance(exc, DeadlineExceededError):
        return {
            "id": request_id,
            "ok": False,
            "error": "deadline_exceeded",
            "message": str(exc),
            "deadline_s": exc.deadline_s,
        }
    if isinstance(exc, CircuitOpenError):
        return {
            "id": request_id,
            "ok": False,
            "error": "circuit_open",
            "message": str(exc),
            "worker_id": exc.worker_id,
            "retry_after_s": exc.retry_after_s,
        }
    if isinstance(exc, WorkerCrashedError):
        return {
            "id": request_id,
            "ok": False,
            "error": "worker_crashed",
            "message": str(exc),
            "worker_id": exc.worker_id,
            "restarts": exc.restarts,
            "retry_after_s": exc.retry_after_s,
        }
    if isinstance(exc, ServerClosedError):
        return {"id": request_id, "ok": False, "error": "closed", "message": str(exc)}
    return {"id": request_id, "ok": False, "error": "bad_request", "message": str(exc)}


def _error_from_payload(payload: dict[str, Any]) -> ReproError:
    """The inverse of :func:`_error_payload`: wire kind → typed exception."""
    kind = payload.get("error")
    text = payload.get("message", "server error")
    if kind == "overloaded":
        return ServerOverloadedError(
            text, retry_after_s=float(payload.get("retry_after_s", 0.0))
        )
    if kind == "deadline_exceeded":
        return DeadlineExceededError(
            text, deadline_s=float(payload.get("deadline_s", 0.0))
        )
    if kind == "circuit_open":
        return CircuitOpenError(
            text,
            worker_id=payload.get("worker_id"),
            retry_after_s=float(payload.get("retry_after_s", 0.0)),
        )
    if kind == "worker_crashed":
        return WorkerCrashedError(
            text,
            worker_id=payload.get("worker_id"),
            restarts=int(payload.get("restarts", 0)),
            retry_after_s=float(payload.get("retry_after_s", 0.0)),
        )
    if kind == "closed":
        return ServerClosedError(text)
    return ServeError(text)


def _response_payload(request_id: Any, response: ServeResponse) -> dict[str, Any]:
    return {
        "id": request_id, "ok": True, "model": response.model,
        "outputs": _encode_vector(response.output), "batch_size": response.batch_size,
        "total_cycles": response.total_cycles, "latency_s": response.latency_s,
        "energy_j": response.energy_j, "queue_wait_s": response.queue_wait_s,
        "service_s": response.service_s,
    }


def _answer(server: Server, message: dict[str, Any]) -> dict[str, Any] | asyncio.Future:
    """The reply to ``message``, or the future of the infer it queued."""
    request_id = message.get("id")
    op = message.get("op")
    try:
        if op == "infer":
            model = message.get("model")
            if not isinstance(model, str):
                raise ServeError("infer needs a 'model' name")
            # Server.enqueue rejects a wrong length, a non-finite value and a
            # non-finite, boolean or non-positive deadline_s (json.loads
            # accepts NaN and Infinity).
            return server.enqueue(
                model,
                _decode_vector(message.get("input"), "input"),
                deadline_s=message.get("deadline_s"),
            )
        if op == "models":
            return {
                "id": request_id,
                "ok": True,
                "models": {name: server.describe(name) for name in server.models},
            }
        if op == "stats":
            return {"id": request_id, "ok": True, "stats": server.stats()}
        if op == "health":
            return {"id": request_id, "ok": True, "health": server.health()}
        if op == "chaos":
            injected = server.inject_chaos(
                message.get("latency_s", 0.0), message.get("duration_s", 0.0)
            )
            return {"id": request_id, "ok": True, "chaos": injected}
        if op == "ping":
            return {"id": request_id, "ok": True, "pong": True}
        raise ServeError(f"unknown operation {op!r}")
    except Exception as exc:
        return _error_payload(request_id, exc)


def _parse_line(line: bytes) -> str | dict[str, Any]:
    """The message on ``line``, or the reason it is not a valid one."""
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"bad JSON: {exc}"
    if not isinstance(message, dict):
        return f"message must be a JSON object, got {type(message).__name__}"
    request_id = message.get("id")
    # No bool, NaN or Infinity (json.loads reads them): NaN echoes as bad JSON.
    if not (request_id is None or isinstance(request_id, str) or is_finite_real(request_id)):
        return "'id' must be a JSON string, number or null"
    return message


async def _handle_connection(
    server: Server, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    # Many in-flight infers from one connection are what the dynamic batcher
    # coalesces; a batch's replies leave in one write, and EOF waits for all.
    loop = asyncio.get_running_loop()
    outbox: list[bytes] = []
    in_flight: set[asyncio.Future] = set()

    def flush() -> None:
        if outbox:
            writer.write(b"".join(outbox))
            outbox.clear()

    def send(payload: dict[str, Any]) -> None:
        if not outbox:
            loop.call_soon(flush)
        outbox.append(json.dumps(payload).encode() + b"\n")

    def reply(request_id: Any, future: asyncio.Future) -> None:
        in_flight.discard(future)
        exc = future.exception()
        send(_error_payload(request_id, exc) if exc else _response_payload(request_id, future.result()))

    def end_idle(_: asyncio.Future) -> None:
        # A connection left open would block in readline until asyncio.run
        # cancels it, which the stream protocol logs as a traceback.  Reading
        # pauses first: data arriving after the EOF would fail feed_data.
        writer.transport.pause_reading()
        reader.feed_eof()

    server.drained.add_done_callback(end_idle)
    try:
        while True:
            try:
                await writer.drain()
                line = await reader.readline()
            except (ConnectionError, ValueError):  # ValueError: a line over the limit
                break
            if not line:
                break
            if line.isspace():
                continue
            message = _parse_line(line)
            if isinstance(message, str):
                # A malformed line is that *line's* problem, never the
                # connection's: answer it with a typed error and keep reading.
                send(_error_payload(None, ServeError(message)))
                continue
            answer = _answer(server, message)
            if isinstance(answer, dict):
                send(answer)
            else:
                in_flight.add(answer)
                answer.add_done_callback(functools.partial(reply, message.get("id")))
        if in_flight:
            await asyncio.wait(in_flight)
        flush()
    finally:
        server.drained.remove_done_callback(end_idle)
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def start_daemon(
    server: Server, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Expose a started :class:`Server` over TCP; returns the listener.

    ``port=0`` binds an ephemeral port; read it back from
    ``listener.sockets[0].getsockname()``.  Close the listener first, then
    ``await server.close()`` to drain — queued requests are still answered
    on their open connections.
    """
    return await asyncio.start_server(
        functools.partial(_handle_connection, server), host=host, port=port, limit=_LINE_LIMIT
    )


def _check_timeout(timeout_s: float | None) -> None:
    # A NaN timeout would corrupt the event loop's timer heap (call_later).
    if timeout_s is not None and not (is_finite_real(timeout_s) and timeout_s > 0):
        raise ServeError(f"timeout_s must be a finite positive number or None, got {timeout_s!r}")


class AsyncServeClient:
    """Async client for the daemon: many concurrent ``infer`` calls, one socket.

    Each call gets a fresh ``id``; a background reader task resolves the
    matching future when the response line arrives, so ``asyncio.gather``
    over many :meth:`infer` coroutines produces exactly the concurrent
    open-loop traffic the load generator needs.

    Args:
        timeout_s: per-request deadline; ``None`` waits forever.  A request
            that misses it raises :class:`~repro.errors.ServeTimeoutError`
            (its late response, if any, is discarded).
        retries: how many times :meth:`infer` retries after an
            ``overloaded`` rejection or a timeout (other errors never
            retry).  ``0`` keeps the old fail-fast behaviour.
        backoff_s: initial retry delay; doubles per attempt.  An
            ``overloaded`` rejection's ``retry_after_s`` hint is honoured
            when it exceeds the current backoff.
    """

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        timeout_s: float | None = None,
        retries: int = 0,
        backoff_s: float = 0.05,
    ) -> None:
        _check_timeout(timeout_s)
        if retries < 0:
            raise ServeError(f"retries must be >= 0, got {retries}")
        if backoff_s < 0:
            raise ServeError(f"backoff_s must be >= 0, got {backoff_s}")
        self._reader = reader
        self._writer = writer
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self.timeout_s = timeout_s
        self.retries = int(retries)
        self.backoff_s = float(backoff_s)
        self._reader_task = asyncio.create_task(self._read_loop())

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        *,
        timeout_s: float | None = None,
        retries: int = 0,
        backoff_s: float = 0.05,
    ) -> "AsyncServeClient":
        reader, writer = await asyncio.open_connection(host, port, limit=_LINE_LIMIT)
        return cls(
            reader, writer, timeout_s=timeout_s, retries=retries, backoff_s=backoff_s
        )

    async def _read_loop(self) -> None:
        try:
            while True:
                line = await self._reader.readline()
                if not line:
                    break
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if not isinstance(payload, dict):
                    continue
                try:
                    future = self._pending.pop(payload.get("id"), None)
                except TypeError:
                    # Unhashable id (a hostile or buggy server): not ours.
                    continue
                if future is not None and not future.done():
                    future.set_result(payload)
        except (ConnectionError, ValueError, asyncio.CancelledError):
            pass  # ValueError: a line over the limit
        finally:
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ServerClosedError("connection closed before the response")
                    )
            self._pending.clear()

    def _expire(self, request_id: int, timeout: float) -> None:
        future = self._pending.pop(request_id, None)
        if future is not None and not future.done():
            message = f"no response to request {request_id} within {timeout}s"
            future.set_exception(ServeTimeoutError(message, timeout_s=timeout))

    async def _call(
        self, message: dict[str, Any], timeout_s: float | None = None
    ) -> dict[str, Any]:
        if self._reader_task.done():
            raise ServerClosedError("client connection is closed")
        _check_timeout(timeout_s)
        self._next_id += 1
        request_id = self._next_id
        message = {"id": request_id, **message}
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending[request_id] = future
        self._writer.write(json.dumps(message).encode() + b"\n")
        await self._writer.drain()
        timeout = self.timeout_s if timeout_s is None else timeout_s
        # The timer fails the future itself: no wait_for task wraps the wait.
        timer = None if timeout is None else loop.call_later(timeout, self._expire, request_id, timeout)
        try:
            payload = await future
        finally:
            if timer is not None:
                timer.cancel()
        if payload.get("ok"):
            return payload
        raise _error_from_payload(payload)

    async def infer(
        self,
        model: str,
        vector: np.ndarray,
        *,
        timeout_s: float | None = None,
        retries: int | None = None,
        deadline_s: float | None = None,
    ) -> ServeResponse:
        """One inference request; returns a :class:`ServeResponse`.

        ``timeout_s`` / ``retries`` override the client-wide defaults for
        this call.  Retries apply only to ``overloaded`` rejections (waiting
        at least the server's ``retry_after_s`` hint), to server-side
        ``deadline_exceeded`` shedding, and to timeouts, with exponential
        backoff; ``closed`` and ``bad_request`` fail immediately.

        ``deadline_s`` is propagated in the request envelope so the server
        can shed the request if it cannot possibly be answered in time; it
        defaults to the effective ``timeout_s``, which makes the server-side
        deadline match what this client will actually wait.
        """
        vector = np.asarray(vector, dtype=np.float64)
        if vector.ndim != 1:
            raise ServeError(f"infer sends one vector, got shape {vector.shape}")
        message: dict[str, Any] = {
            "op": "infer",
            "model": model,
            "input": _encode_vector(vector),
        }
        effective_deadline = (
            deadline_s
            if deadline_s is not None
            else (self.timeout_s if timeout_s is None else timeout_s)
        )
        if effective_deadline is not None:
            message["deadline_s"] = float(effective_deadline)
        attempts = (self.retries if retries is None else int(retries)) + 1
        delay = self.backoff_s
        payload: dict[str, Any] | None = None
        for attempt in range(attempts):
            try:
                payload = await self._call(message, timeout_s=timeout_s)
                break
            except ServerOverloadedError as exc:
                if attempt == attempts - 1:
                    raise
                await asyncio.sleep(max(exc.retry_after_s, delay))
                delay *= 2
            except (ServeTimeoutError, DeadlineExceededError):
                if attempt == attempts - 1:
                    raise
                await asyncio.sleep(delay)
                delay *= 2
        assert payload is not None
        return ServeResponse(
            model=payload["model"],
            output=_decode_vector(payload.get("outputs"), "outputs"),
            batch_size=int(payload["batch_size"]),
            total_cycles=payload["total_cycles"],
            latency_s=payload["latency_s"],
            energy_j=payload["energy_j"],
            queue_wait_s=float(payload["queue_wait_s"]),
            service_s=float(payload["service_s"]),
        )

    async def models(self) -> dict[str, Any]:
        """Descriptions of every served model (enough to rebuild offline)."""
        return (await self._call({"op": "models"}))["models"]

    async def stats(self) -> dict[str, Any]:
        """The server's live counter snapshot."""
        return (await self._call({"op": "stats"}))["stats"]

    async def health(self, timeout_s: float | None = None) -> dict[str, Any]:
        """The server's liveness snapshot (models, queue depth, uptime)."""
        return (await self._call({"op": "health"}, timeout_s=timeout_s))["health"]

    async def chaos(self, latency_s: float, duration_s: float) -> dict[str, Any]:
        """Ask a ``--chaos`` daemon to stall its dispatches (test harness)."""
        return (
            await self._call(
                {"op": "chaos", "latency_s": latency_s, "duration_s": duration_s}
            )
        )["chaos"]

    async def ping(self) -> bool:
        """Liveness probe."""
        return bool((await self._call({"op": "ping"})).get("pong"))

    async def close(self) -> None:
        """Close the socket and stop the reader task."""
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass

    async def __aenter__(self) -> "AsyncServeClient":
        return self

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()
