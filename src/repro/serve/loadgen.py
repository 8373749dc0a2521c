"""Open- and closed-loop load generation against a serving endpoint.

Closed-loop clients (send, wait, send) hide queueing: the arrival rate
drops whenever the server slows down, so tail latency looks flat no matter
how overloaded the system is.  Serving systems are instead measured
**open loop**: requests arrive on a Poisson process at a fixed offered
rate whether or not earlier ones finished, and the report shows what the
rate did to p50/p99 latency, throughput and the rejection ratio.

The closed loop still answers a real question — *capacity*: with N users
who each keep exactly one request in flight, what throughput and per-request
latency does the service sustain?  :func:`run_closed_loop` measures that
directly (N workers, next request issued the moment the previous one
completes), which is the number capacity planning wants next to the
open-loop latency-versus-rate curve.

Both generators drive any async ``submit(vector) -> ServeResponse``
callable — the in-process :class:`~repro.serve.server.Server`, or a
:class:`~repro.serve.protocol.AsyncServeClient` talking to a daemon over
TCP — and return a :class:`LoadReport`.  Open-loop arrivals are
deterministic per seed (exponential gaps from the shared RNG helpers) and
closed-loop request order is fixed (row *i* is request *i*), so a sweep
point is reproducible and verifiable bit for bit against the offline path.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

import numpy as np

from repro.errors import (
    RETRIABLE_SERVE_ERRORS,
    ConfigurationError,
    ServerOverloadedError,
)
from repro.utils.rng import derive_seed, make_rng

__all__ = ["LoadReport", "run_closed_loop", "run_open_loop"]


@dataclass
class LoadReport:
    """What one offered-load point did to the service.

    Wall-clock latency percentiles are measured from each request's
    *scheduled arrival* to its completion, so queueing delay (the thing
    offered load actually moves) is included.  ``sim_latency_us`` /
    ``sim_cycles`` aggregate the simulated per-item EIE latencies carried
    in the responses (``None`` on engines without timing).
    """

    offered_rps: float
    requests: int
    completed: int
    rejected: int
    errors: int
    duration_s: float
    latencies_ms: np.ndarray
    batch_sizes: np.ndarray
    sim_latency_us: float | None
    sim_cycles: float | None
    outputs: list[np.ndarray] | None = None
    responses: list[Any] = field(default_factory=list, repr=False)
    #: ``"open"`` (Poisson arrivals) or ``"closed"`` (fixed concurrency).
    mode: str = "open"
    #: Worker count of a closed-loop run (``None`` for open loop).
    concurrency: int | None = None
    #: Requests that failed with a *typed retriable* error other than
    #: overload (timeout, deadline shed, open breaker, crashed worker).
    #: Distinct from ``errors``, which counts unexpected failures — under a
    #: chaos run the invariant is ``errors == 0``.
    retriable: int = 0

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of wall-clock run time."""
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    def _percentile(self, q: float) -> float:
        if self.latencies_ms.size == 0:
            return float("nan")
        return float(np.percentile(self.latencies_ms, q))

    @property
    def p50_ms(self) -> float:
        return self._percentile(50.0)

    @property
    def p99_ms(self) -> float:
        return self._percentile(99.0)

    @property
    def mean_ms(self) -> float:
        return float(self.latencies_ms.mean()) if self.latencies_ms.size else float("nan")

    @property
    def max_ms(self) -> float:
        return float(self.latencies_ms.max()) if self.latencies_ms.size else float("nan")

    @property
    def mean_batch(self) -> float:
        """Average coalesced batch size over completed requests."""
        return float(self.batch_sizes.mean()) if self.batch_sizes.size else 0.0

    def record(self) -> dict[str, Any]:
        """A flat JSON-friendly record (one row of a ``serve bench`` report)."""
        return {
            "mode": self.mode,
            "concurrency": self.concurrency,
            "offered_rps": self.offered_rps,
            "requests": self.requests,
            "completed": self.completed,
            "rejected": self.rejected,
            "retriable": self.retriable,
            "errors": self.errors,
            "duration_s": self.duration_s,
            "throughput_rps": self.throughput_rps,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "mean_ms": self.mean_ms,
            "max_ms": self.max_ms,
            "mean_batch": self.mean_batch,
            "sim_latency_us": self.sim_latency_us,
            "sim_cycles": self.sim_cycles,
        }


def _arrival_offsets(count: int, rate_rps: float, seed: int) -> np.ndarray:
    """Seconds from the start at which each of ``count`` requests arrives.

    Poisson arrivals at ``rate_rps``: exponential gaps drawn from a seed
    derived from ``seed`` and ``count``, the first request at offset 0.
    """
    rng = make_rng(derive_seed(seed, "serve-loadgen", count))
    gaps = rng.exponential(scale=1.0 / rate_rps, size=count)
    gaps[0] = 0.0
    return np.cumsum(gaps)


def _request_matrix(inputs: np.ndarray) -> np.ndarray:
    """``inputs`` as a non-empty ``(requests, n_in)`` float64 matrix."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 2 or inputs.shape[0] == 0:
        raise ConfigurationError(
            f"load generator needs a non-empty (requests, n_in) matrix, "
            f"got shape {inputs.shape}"
        )
    return inputs


class _Tally:
    """Per-response accounting shared by the open and the closed loop."""

    def __init__(
        self,
        submit: Callable[[np.ndarray], Awaitable[Any]],
        inputs: np.ndarray,
        capture_outputs: bool,
    ) -> None:
        self.submit = submit
        self.inputs = inputs
        self.capture_outputs = capture_outputs
        count = inputs.shape[0]
        self.latencies: list[float] = [float("nan")] * count
        self.batch_sizes: list[int] = []
        self.sim_latency: list[float] = []
        self.sim_cycles: list[int] = []
        self.outputs: list[np.ndarray | None] = [None] * count
        self.responses: list[Any] = []
        self.counters = {"completed": 0, "rejected": 0, "retriable": 0, "errors": 0}
        self.start = time.perf_counter()

    async def request(self, index: int, timed_from: float) -> None:
        """Submit row ``index`` and tally the outcome; latency runs from ``timed_from``."""
        try:
            response = await self.submit(self.inputs[index])
        except ServerOverloadedError:
            self.counters["rejected"] += 1
            return
        except RETRIABLE_SERVE_ERRORS:
            self.counters["retriable"] += 1
            return
        except Exception:
            self.counters["errors"] += 1
            return
        self.latencies[index] = (time.perf_counter() - timed_from) * 1e3
        self.counters["completed"] += 1
        self.batch_sizes.append(int(response.batch_size))
        if response.latency_s is not None:
            self.sim_latency.append(float(response.latency_s))
            self.sim_cycles.append(int(response.total_cycles))
        if self.capture_outputs:
            self.outputs[index] = np.asarray(response.output)
        self.responses.append(response)

    def report(
        self, offered_rps: float, mode: str, concurrency: int | None = None
    ) -> LoadReport:
        """The :class:`LoadReport` of everything tallied since construction."""
        duration = time.perf_counter() - self.start
        measured = np.asarray([value for value in self.latencies if value == value])
        return LoadReport(
            offered_rps=offered_rps,
            requests=len(self.latencies),
            completed=self.counters["completed"],
            rejected=self.counters["rejected"],
            errors=self.counters["errors"],
            duration_s=duration,
            latencies_ms=measured,
            batch_sizes=np.asarray(self.batch_sizes, dtype=np.int64),
            sim_latency_us=float(np.mean(self.sim_latency)) * 1e6 if self.sim_latency else None,
            sim_cycles=float(np.mean(self.sim_cycles)) if self.sim_cycles else None,
            outputs=list(self.outputs) if self.capture_outputs else None,
            responses=self.responses,
            mode=mode,
            concurrency=concurrency,
            retriable=self.counters["retriable"],
        )


async def run_open_loop(
    submit: Callable[[np.ndarray], Awaitable[Any]],
    inputs: np.ndarray,
    rate_rps: float,
    seed: int = 0,
    capture_outputs: bool = False,
) -> LoadReport:
    """Fire ``inputs`` at ``submit`` with Poisson arrivals at ``rate_rps``.

    Each row of ``inputs`` is one request; row *i* is request *i* on every
    run with the same seed, so two sweeps (or a served run and an offline
    re-run) see identical vectors in identical order.  Requests are
    scheduled open loop — request *i* launches at its arrival time even if
    earlier requests are still in flight.  :class:`ServerOverloadedError`
    counts as a rejection (that is admission control working, not a bug);
    any other exception counts as an error.

    With ``capture_outputs=True`` the report keeps each completed request's
    output vector (indexed like ``inputs``) for bit-for-bit verification
    against the offline path.
    """
    inputs = _request_matrix(inputs)
    if rate_rps <= 0:
        raise ConfigurationError(f"offered rate must be > 0 rps, got {rate_rps}")
    count = inputs.shape[0]
    arrivals = _arrival_offsets(count, rate_rps, seed)
    tally = _Tally(submit, inputs, capture_outputs)

    async def one_request(index: int) -> None:
        delay = arrivals[index] - (time.perf_counter() - tally.start)
        if delay > 0:
            await asyncio.sleep(delay)
        await tally.request(index, tally.start + arrivals[index])

    await asyncio.gather(*(one_request(index) for index in range(count)))
    return tally.report(float(rate_rps), "open")


async def run_closed_loop(
    submit: Callable[[np.ndarray], Awaitable[Any]],
    inputs: np.ndarray,
    concurrency: int,
    capture_outputs: bool = False,
) -> LoadReport:
    """Drive ``inputs`` through ``submit`` with ``concurrency`` closed loops.

    ``concurrency`` workers each keep exactly one request in flight: a
    worker pulls the next unclaimed row of ``inputs``, awaits its response,
    and immediately issues the next — the classic N-user capacity probe.
    Request *identity* is deterministic (row *i* is request *i*, every row
    submitted exactly once), so with ``capture_outputs=True`` each output is
    bit-comparable to the offline path exactly like the open-loop report;
    which *worker* carries which row depends on completion order and is
    deliberately not part of the contract.

    Latency is measured from the moment a worker issues the request — a
    closed loop never queues behind its own arrivals, so unlike the open
    loop there is no scheduled-arrival backlog to include.
    """
    inputs = _request_matrix(inputs)
    if concurrency < 1:
        raise ConfigurationError(
            f"closed-loop concurrency must be >= 1, got {concurrency}"
        )
    count = inputs.shape[0]
    concurrency = min(int(concurrency), count)
    tally = _Tally(submit, inputs, capture_outputs)
    next_index = iter(range(count))

    async def worker() -> None:
        for index in next_index:  # the shared iterator hands out each row once
            await tally.request(index, time.perf_counter())

    await asyncio.gather(*(worker() for _ in range(concurrency)))
    # No offered rate in a closed loop; see throughput_rps.
    return tally.report(0.0, "closed", concurrency)
