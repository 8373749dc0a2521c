"""The async EIE inference server: warm session, dynamic batching, drain.

The EIE paper's deployment story is latency-sensitive batch-1 inference:
each user request is one activation vector.  One vector at a time leaves
the vectorized ``(batch, n_in)`` engine path idle, so :class:`Server`
coalesces concurrent single-vector requests per model — up to ``max_batch``
of them, waiting at most ``max_wait_us`` for stragglers — and dispatches the
stacked matrix through the same ``Session.run_model`` call the offline
experiments use, on a worker thread so the event loop stays free.  Because
model propagation reduces row by row (see
:func:`repro.engine.session._propagate_rows`), the response a request
receives is bit-identical to what an offline batch-1 ``run_model`` call on
the same vector would produce, no matter which requests it was batched
with.

Flow control is explicit: each model has a bounded request queue; when it
is full, :meth:`enqueue` (and :meth:`submit`, which awaits it) raises
:class:`~repro.errors.ServerOverloadedError` carrying a ``retry_after_s``
estimate derived from the queue depth and the smoothed per-request service
time, instead of letting latency grow without bound.  :meth:`close` drains:
queued requests are still served, new ones are rejected with
:class:`~repro.errors.ServerClosedError`.
"""

from __future__ import annotations

import asyncio
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.compression.pipeline import CompressionConfig
from repro.core.config import EIEConfig
from repro.engine.session import Session
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    ServeError,
    ServerClosedError,
    ServerOverloadedError,
)
from repro.hardware.area import chip_energy_j
from repro.utils.validation import is_finite_real

__all__ = ["BatchPolicy", "ServeResponse", "Server"]


@dataclass(frozen=True)
class BatchPolicy:
    """Dynamic-batching knobs, per model.

    Attributes:
        max_batch: largest coalesced batch one dispatch may carry.
        max_wait_us: how long a non-full batch waits for stragglers after
            its first request arrives (0 disables waiting: every dispatch
            carries whatever is already queued).
        queue_depth: bound on requests queued per model; arrivals beyond it
            are rejected with :class:`ServerOverloadedError`.
    """

    max_batch: int = 16
    max_wait_us: float = 1000.0
    queue_depth: int = 256

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait_us < 0:
            raise ConfigurationError(
                f"max_wait_us must be >= 0, got {self.max_wait_us}"
            )
        if self.queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )


@dataclass(frozen=True)
class ServeResponse:
    """One request's answer.

    Attributes:
        model: model that served the request.
        output: the network output vector for this request's input.
        batch_size: how many requests shared the dispatch (observability:
            did batching actually happen?).
        total_cycles: this item's simulated cycles summed over nodes
            (``None`` on engines without timing).
        latency_s: this item's simulated network latency in seconds.
        energy_j: this item's simulated energy in joules.
        queue_wait_s: wall-clock time the request spent queued before its
            batch dispatched.
        service_s: wall-clock time the dispatch took (shared by the batch).
    """

    model: str
    output: np.ndarray
    batch_size: int
    total_cycles: int | None
    latency_s: float | None
    energy_j: float | None
    queue_wait_s: float
    service_s: float


class _PendingRequest:
    __slots__ = ("vector", "future", "enqueued_at", "deadline_s", "deadline_at")

    def __init__(
        self,
        vector: np.ndarray,
        future: asyncio.Future,
        deadline_s: float | None = None,
    ) -> None:
        self.vector = vector
        self.future = future
        self.enqueued_at = time.perf_counter()
        # Kept as sent: deadline_at - enqueued_at rounds to the clock's ulp.
        self.deadline_s = deadline_s
        # Deadlines cross the wire *relative* (seconds from receipt), so two
        # processes never need synchronized clocks; anchor to the local
        # monotonic clock on arrival.
        self.deadline_at = (
            None if deadline_s is None else self.enqueued_at + deadline_s
        )


_SHUTDOWN = object()


class _ModelState:
    """Everything the server holds per served model."""

    def __init__(
        self,
        ir: Any,
        compressed: Any,
        policy: BatchPolicy,
        spec: dict[str, Any] | None = None,
    ) -> None:
        self.ir = ir
        self.compressed = compressed
        self.policy = policy
        self.spec = spec
        self.queue: asyncio.Queue = asyncio.Queue()
        self.batcher: asyncio.Task | None = None
        # EMA of per-request service seconds, seeding retry-after estimates.
        self.ema_item_s = 0.0
        self.stats = {
            "received": 0,
            "served": 0,
            "rejected": 0,
            "expired": 0,
            "errors": 0,
            "batches": 0,
            "max_batch": 0,
            "queue_peak": 0,
        }


class Server:
    """A long-lived in-process EIE inference service.

    Args:
        models: what to serve — registry names, :class:`ModelSpec` instances
            or prebuilt :class:`ModelIR` graphs.  Every model is compressed
            at :meth:`start`, before the first request.
        engine: engine registry name requests run on (default ``"cycle"``).
        config: accelerator configuration (PE count, FIFO depth, clock).
        compression: Deep Compression parameters for startup compression.
        policy: dynamic-batching policy applied to every model.
        store: optional :class:`~repro.store.artifacts.ArtifactStore` so a
            restart re-loads compressed layers instead of recompressing.
        chaos: honour :meth:`inject_chaos` (off by default).

    Use as an async context manager, or call :meth:`start`/:meth:`close`::

        async with Server(["neuraltalk_lstm"], config=EIEConfig(num_pes=16)) as srv:
            response = await srv.submit("neuraltalk_lstm", vector)
    """

    def __init__(
        self,
        models: list[Any],
        engine: str = "cycle",
        config: EIEConfig | None = None,
        compression: CompressionConfig | None = None,
        policy: BatchPolicy | None = None,
        store: Any | None = None,
        chaos: bool = False,
    ) -> None:
        if not models:
            raise ConfigurationError("a server needs at least one model to serve")
        self._model_inputs = list(models)
        self.engine_name = engine
        self.config = config or EIEConfig()
        self.compression = compression or CompressionConfig()
        self.policy = policy or BatchPolicy()
        self.session = Session(
            compression=self.compression, config=self.config, store=store
        )
        self._models: dict[str, _ModelState] = {}
        self._started = False
        self._closing = False
        self._closed = False
        self._started_at: float | None = None
        self._drained: asyncio.Future[None] | None = None
        # Chaos hooks (latency injection) are off unless explicitly enabled:
        # a production daemon must not let a client slow it down.
        self.chaos_enabled = bool(chaos)
        self._chaos_latency_s = 0.0
        self._chaos_until = 0.0
        # run_model dispatches run here so the event loop stays free.
        self._executor = ThreadPoolExecutor(
            max_workers=4, thread_name_prefix="repro-serve-dispatch"
        )

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> "Server":
        """Build + compress every model (off the event loop), start batchers."""
        if self._started:
            raise ServeError("server is already started")
        self._started = True
        self._started_at = time.monotonic()
        loop = asyncio.get_running_loop()
        self._drained = loop.create_future()
        built = await asyncio.gather(
            *(
                loop.run_in_executor(self._executor, self._build_ir, entry)
                for entry in self._model_inputs
            )
        )
        for ir, spec in built:
            if ir.name in self._models:
                raise ConfigurationError(f"duplicate served model {ir.name!r}")
            compressed = await loop.run_in_executor(
                self._executor, self.session.compress_model, ir, self.config.num_pes
            )
            state = _ModelState(ir, compressed, self.policy, spec=spec)
            state.batcher = asyncio.create_task(
                self._batcher_loop(state), name=f"repro-serve-batcher-{ir.name}"
            )
            self._models[ir.name] = state
        return self

    def _build_ir(self, entry: Any) -> tuple[Any, dict[str, Any] | None]:
        """Resolve one ``models`` entry to ``(ModelIR, rebuild spec | None)``.

        The spec (when the entry came through the registry) is exposed via
        :meth:`describe` so a remote benchmark client can rebuild the exact
        same network offline and verify responses bit for bit.
        """
        from repro.models.ir import ModelIR
        from repro.models.registry import ModelRegistry
        from repro.models.spec import ModelSpec

        if isinstance(entry, ModelIR):
            return entry, None
        if isinstance(entry, str):
            entry = ModelSpec(model=entry)
        return ModelRegistry.build(entry), entry.to_dict()

    async def close(self, drain: bool = True) -> dict[str, Any]:
        """Stop the server; returns the final :meth:`stats` snapshot.

        With ``drain=True`` (the default, and what SIGTERM does) every
        already-accepted request is still served before the batchers stop;
        only *new* submissions are rejected.  With ``drain=False`` queued
        requests fail with :class:`ServerClosedError`.
        """
        if self._closed:
            return self.stats()
        self._closing = True
        for state in self._models.values():
            if not drain:
                # Fail queued requests instead of serving them.
                while True:
                    try:
                        pending = state.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if pending is not _SHUTDOWN and not pending.future.done():
                        pending.future.set_exception(
                            ServerClosedError("server closed before the request ran")
                        )
            state.queue.put_nowait(_SHUTDOWN)
        batchers = [
            state.batcher for state in self._models.values() if state.batcher
        ]
        if batchers:
            await asyncio.gather(*batchers)
        self._executor.shutdown(wait=True)
        self._closed = True
        if self._drained is not None:
            self._drained.set_result(None)
        return self.stats()

    async def __aenter__(self) -> "Server":
        return await self.start()

    async def __aexit__(self, *exc: Any) -> None:
        await self.close()

    # -- request path ------------------------------------------------------------

    async def submit(
        self, model: str, vector: np.ndarray, deadline_s: float | None = None
    ) -> ServeResponse:
        """Serve one input vector; resolves when its batch has run (see :meth:`enqueue`)."""
        return await self.enqueue(model, vector, deadline_s=deadline_s)

    def enqueue(
        self, model: str, vector: np.ndarray, deadline_s: float | None = None
    ) -> asyncio.Future:
        """Queue one input vector (every check raises here); the future gets its response.

        ``deadline_s`` is the request's relative deadline: if it expires
        while the request is still queued, the future fails with
        :class:`DeadlineExceededError` *without being computed* — doomed
        work is shed before it wastes a dispatch slot.  It must be a finite,
        positive real number (not a bool): a NaN deadline would never expire.
        """
        if deadline_s is not None and not (is_finite_real(deadline_s) and deadline_s > 0):
            raise ServeError(
                f"deadline_s must be a finite positive number or None, got {deadline_s!r}"
            )
        if self._closing or self._closed:
            raise ServerClosedError("server is shutting down")
        if not self._started:
            raise ServeError("server is not started (use `async with Server(...)`)")
        state = self._models.get(model)
        if state is None:
            raise ServeError(
                f"model {model!r} is not served "
                f"(serving: {', '.join(sorted(self._models))})"
            )
        row = np.ascontiguousarray(np.asarray(vector, dtype=np.float64))
        if row.ndim != 1 or row.shape[0] != state.ir.input_size:
            raise ServeError(
                f"request for {model!r} must be one vector of length "
                f"{state.ir.input_size}, got shape {row.shape}"
            )
        # Checked per request: a NaN or infinity would otherwise fail the
        # whole batch this request joins.
        if not np.isfinite(row).all():
            raise ServeError(f"request for {model!r} has a non-finite input (NaN or infinity)")
        if state.queue.qsize() >= state.policy.queue_depth:
            state.stats["rejected"] += 1
            retry_after = max(state.queue.qsize() * state.ema_item_s, 1e-3)
            raise ServerOverloadedError(
                f"model {model!r} queue is full "
                f"({state.queue.qsize()}/{state.policy.queue_depth})",
                retry_after_s=retry_after,
            )
        state.stats["received"] += 1
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        state.queue.put_nowait(_PendingRequest(row, future, deadline_s=deadline_s))
        state.stats["queue_peak"] = max(state.stats["queue_peak"], state.queue.qsize())
        return future

    async def _batcher_loop(self, state: _ModelState) -> None:
        """Coalesce queued requests into batches and dispatch them."""
        wait_s = state.policy.max_wait_us * 1e-6
        while True:
            first = await state.queue.get()
            if first is _SHUTDOWN:
                return
            batch = [first]
            deadline = time.perf_counter() + wait_s
            shutdown = False
            while len(batch) < state.policy.max_batch:
                try:
                    item = state.queue.get_nowait()
                except asyncio.QueueEmpty:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    try:
                        item = await asyncio.wait_for(state.queue.get(), remaining)
                    except asyncio.TimeoutError:
                        break
                if item is _SHUTDOWN:
                    shutdown = True
                    break
                batch.append(item)
            await self._dispatch(state, batch)
            if shutdown:
                # Serve whatever is still queued (drain), then stop.
                tail: list[_PendingRequest] = []
                while True:
                    try:
                        item = state.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if item is not _SHUTDOWN:
                        tail.append(item)
                for start in range(0, len(tail), state.policy.max_batch):
                    await self._dispatch(
                        state, tail[start : start + state.policy.max_batch]
                    )
                return

    def _shed_expired(
        self, state: _ModelState, batch: list[_PendingRequest]
    ) -> list[_PendingRequest]:
        """Fail queued requests whose deadline passed; return the live rest."""
        now = time.perf_counter()
        live: list[_PendingRequest] = []
        for pending in batch:
            if pending.deadline_at is not None and now >= pending.deadline_at:
                state.stats["expired"] += 1
                if not pending.future.done():
                    pending.future.set_exception(
                        DeadlineExceededError(
                            f"request for {state.ir.name!r} expired after "
                            f"{now - pending.enqueued_at:.3f}s in queue",
                            deadline_s=pending.deadline_s,
                        )
                    )
            else:
                live.append(pending)
        return live

    async def _dispatch(self, state: _ModelState, batch: list[_PendingRequest]) -> None:
        """Run one coalesced batch and resolve its futures."""
        if self.chaos_enabled and self._chaos_latency_s > 0:
            if time.monotonic() < self._chaos_until:
                # Injected stall: the whole dispatch slot sleeps, so queues
                # build up exactly as they would behind a slow worker.
                await asyncio.sleep(self._chaos_latency_s)
            else:
                self._chaos_latency_s = 0.0
        batch = self._shed_expired(state, batch)
        if not batch:
            return
        loop = asyncio.get_running_loop()
        matrix = np.stack([pending.vector for pending in batch])
        started = time.perf_counter()
        try:
            # The batcher awaits this dispatch before it forms the next
            # batch, so at most one batch per model is in flight: a plain
            # run_model call on the executor is the whole dispatch path.
            run = await loop.run_in_executor(
                self._executor,
                self.session.run_model,
                self.engine_name,
                state.compressed,
                matrix,
                self.config,
            )
        except BaseException as exc:
            state.stats["errors"] += len(batch)
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(
                        ServeError(f"dispatch failed for {state.ir.name!r}: {exc}")
                    )
            return
        service_s = time.perf_counter() - started
        ema_item = service_s / len(batch)
        state.ema_item_s = (
            ema_item
            if state.ema_item_s == 0.0
            else 0.8 * state.ema_item_s + 0.2 * ema_item
        )
        state.stats["served"] += len(batch)
        state.stats["batches"] += 1
        state.stats["max_batch"] = max(state.stats["max_batch"], len(batch))

        if run.has_timing:
            per_item_latency = run.per_item_latency_s
            per_item_energy = chip_energy_j(self.config.num_pes, per_item_latency)
            per_item_cycles = np.zeros(len(batch), dtype=np.int64)
            for record in run.nodes:
                per_item_cycles += np.asarray(
                    [stats.total_cycles for stats in record.result.cycles],
                    dtype=np.int64,
                )
        done_at = time.perf_counter()
        for index, pending in enumerate(batch):
            if pending.future.done():
                continue
            if run.has_timing:
                cycles = int(per_item_cycles[index])
                latency = float(per_item_latency[index])
                energy = float(per_item_energy[index])
            else:
                cycles = latency = energy = None
            pending.future.set_result(
                ServeResponse(
                    model=state.ir.name,
                    output=run.outputs[index],
                    batch_size=len(batch),
                    total_cycles=cycles,
                    latency_s=latency,
                    energy_j=energy,
                    queue_wait_s=started - pending.enqueued_at,
                    service_s=done_at - started,
                )
            )

    # -- introspection -----------------------------------------------------------

    def health(self) -> dict[str, Any]:
        """A cheap liveness/readiness snapshot (the ``health`` wire verb).

        Small on purpose: the fleet supervisor polls this every heartbeat
        interval, so it must not touch model state or the dispatch path.
        """
        served = rejected = queued = 0
        for state in self._models.values():
            served += state.stats["served"]
            rejected += state.stats["rejected"]
            queued += state.queue.qsize()
        return {
            "ok": self._started and not self._closing and not self._closed,
            "pid": os.getpid(),
            "models": sorted(self._models),
            "engine": self.engine_name,
            "queue_depth": queued,
            "served": served,
            "rejected": rejected,
            "uptime_s": (
                time.monotonic() - self._started_at
                if self._started_at is not None
                else 0.0
            ),
            "draining": self._closing and not self._closed,
            "chaos": self.chaos_enabled,
        }

    def inject_chaos(self, latency_s: float, duration_s: float) -> dict[str, Any]:
        """Stall every dispatch by ``latency_s`` for the next ``duration_s``.

        Only honoured when the server was built with ``chaos=True`` (the
        daemon's ``--chaos`` flag); the chaos harness uses this to make a
        worker *slow* rather than dead, which is the harder failure for a
        failover client to get right.
        """
        if not self.chaos_enabled:
            raise ServeError("chaos injection is disabled (start with chaos=True)")
        if not all(is_finite_real(value) and value >= 0 for value in (latency_s, duration_s)):
            raise ServeError(
                f"chaos latency_s and duration_s must be finite and >= 0, got {latency_s!r}, {duration_s!r}"
            )
        self._chaos_latency_s = float(latency_s)
        self._chaos_until = time.monotonic() + float(duration_s)
        return {"latency_s": self._chaos_latency_s, "duration_s": float(duration_s)}

    @property
    def drained(self) -> "asyncio.Future[None]":
        """Resolves once :meth:`close` has answered every accepted request.

        The future is created by :meth:`start`.
        """
        return self._drained

    @property
    def models(self) -> list[str]:
        """Names of the served models (available after :meth:`start`)."""
        return sorted(self._models)

    def describe(self, model: str) -> dict[str, Any]:
        """A JSON-friendly description of one served model (protocol payload)."""
        state = self._models.get(model)
        if state is None:
            raise ServeError(f"model {model!r} is not served")
        return {
            "model": model,
            "input_size": state.ir.input_size,
            "output_size": state.ir.output_size,
            "num_nodes": state.ir.num_nodes,
            "engine": self.engine_name,
            "num_pes": self.config.num_pes,
            "fifo_depth": self.config.fifo_depth,
            "spec": state.spec,
            "compression": self.compression.to_dict(),
            "policy": {
                "max_batch": state.policy.max_batch,
                "max_wait_us": state.policy.max_wait_us,
                "queue_depth": state.policy.queue_depth,
            },
        }

    def stats(self) -> dict[str, Any]:
        """Per-model served/rejected/batch counters plus cache info."""
        return {
            "engine": self.engine_name,
            "num_pes": self.config.num_pes,
            "closing": self._closing,
            "models": {
                name: {
                    **state.stats,
                    "queued": state.queue.qsize(),
                    "ema_item_s": state.ema_item_s,
                    "mean_batch": (
                        state.stats["served"] / state.stats["batches"]
                        if state.stats["batches"]
                        else 0.0
                    ),
                }
                for name, state in self._models.items()
            },
        }
