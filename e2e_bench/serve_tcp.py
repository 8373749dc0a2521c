"""``serve_tcp``: a ``repro serve`` daemon driven over TCP.

The daemon serves ``neuraltalk_lstm`` (scale 16, 64 PEs, batches of up to
16) from a store that a first, cold boot filled; set-up time is the median
of the warm boots.  One :class:`AsyncServeClient` connection then runs a
closed loop with 32 requests in flight and an open loop of Poisson arrivals
at 400 requests per second, each in segments (4 closed, 10 open) whose
medians are reported.  Boot times, each segment's throughput and its
latencies are scaled by :mod:`e2e_bench.yardstick`, probed while the daemon
is idle between segments.  After timing, every response is compared bit
for bit with an offline ``Session.run_model`` of the same vector.

The daemon runs in its own process group, is sent SIGTERM and then SIGKILL
on every exit path, and serves from a private store inside the run's scratch
directory.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import queue
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from e2e_bench.common import Context, Outcome, child_env
from e2e_bench.launcher import TRACE_ENV
from e2e_bench.layers import SERVE_TCP, SERVED_NODES, TARGETS
from e2e_bench.stats import percentile, reportable_percentiles, wire_ms
from e2e_bench.tracer import Tracer, missing_calls
from e2e_bench.yardstick import Yardstick

#: end-to-end metric -> (sample it is the median of, what it measures)
END_TO_END = {
    "setup_s": ("boot_s", "daemon start to readiness, warm store"),
    "op_s": ("open_p50_s", "open-loop latency p50 from scheduled arrival"),
    "op2_s": ("open_p90_s", "open-loop latency p90 from scheduled arrival"),
    "rate_per_s": ("closed_rps", "closed-loop completed requests per second"),
    "peak_rss_mb": ("daemon_peak_rss_mb", "daemon process"),
}

MODEL = "neuraltalk_lstm"
SCALE = 16.0
NUM_PES = 64
FIFO_DEPTH = 8
MAX_BATCH = 16
IN_FLIGHT = 2 * MAX_BATCH
OPEN_RATE = 400.0
VECTORS = 256
WARMUP_REQUESTS = 256
WARM_BOOTS = 5
#: Each loop runs as this many segments; its metrics are medians over them.
#: The open loop takes more, shorter ones: a stall of the shared host that
#: lands in one segment moves its p90, and the median passes over it.
CLOSED_SEGMENTS = 4
OPEN_SEGMENTS = 10
REQUEST_TIMEOUT_S = 10.0
BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0

READY = re.compile(r"listening on ([0-9.]+):(\d+)")
DRAINED = re.compile(r"drained \((\d+) served, (\d+) rejected, (\d+) errors\)")


def model_seed(seed: int) -> int:
    return 1000 + seed


class Daemon:
    """One ``repro serve`` subprocess, stopped on exit from its ``with``."""

    def __init__(self, ctx: Context, store_dir: Path, trace_out: Path | None = None) -> None:
        extra = {"REPRO_STORE_DIR": str(store_dir)}
        if trace_out is not None:
            extra[TRACE_ENV] = str(trace_out)
        command = [
            sys.executable, str(ctx.root / "e2e_bench" / "launcher.py"), "serve",
            "--models", MODEL, "--scale", f"{SCALE:g}", "--pes", str(NUM_PES),
            "--fifo-depth", str(FIFO_DEPTH), "--seed", str(model_seed(ctx.seed)),
            "--max-batch", str(MAX_BATCH), "--host", "127.0.0.1", "--port", "0",
        ]
        self.lines: list[str] = []
        self._ready: queue.Queue[int | None] = queue.Queue()
        self._started = time.perf_counter()
        self.proc = subprocess.Popen(
            command,
            cwd=ctx.root,
            env=child_env(ctx, **extra),
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            start_new_session=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.boot_s = 0.0

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self.lines.append(line.rstrip())
            match = READY.search(line)
            if match:
                self._ready.put(int(match.group(2)))
        self._ready.put(None)

    def wait_ready(self) -> int:
        """Block until the readiness line; returns the daemon's port."""
        try:
            port = self._ready.get(timeout=BOOT_TIMEOUT_S)
        except queue.Empty:
            raise RuntimeError(f"daemon not ready within {BOOT_TIMEOUT_S} s") from None
        if port is None:
            raise RuntimeError("daemon exited before it was ready:\n" + "\n".join(self.lines[-20:]))
        self.boot_s = time.perf_counter() - self._started
        return port

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set size (Linux ``VmHWM``) in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> dict[str, int]:
        """SIGTERM, then SIGKILL if it has not drained; returns drain totals."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
                self.proc.wait(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            # Also reached when the run is stopped while waiting above.
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait(timeout=STOP_TIMEOUT_S)
        self._reader.join(timeout=STOP_TIMEOUT_S)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        for line in self.lines:
            match = DRAINED.search(line)
            if match:
                served, rejected, errors = map(int, match.groups())
                return {"served": served, "rejected": rejected, "errors": errors}
        return {}

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


@dataclass
class Reply:
    """One completed request."""

    phase: str
    index: int
    due: float
    sent: float
    received: float
    output: np.ndarray
    total_cycles: int | None
    batch_size: int
    queue_wait_s: float
    service_s: float


class LoadClient:
    """Drives the closed and open loops over one connection."""

    def __init__(self, vectors: np.ndarray, out: Outcome) -> None:
        self.vectors = vectors
        self.out = out
        self.replies: list[Reply] = []
        self.lags: list[float] = []
        self.rejected = 0
        self.timeouts = 0
        self.client = None

    async def _one(self, phase: str, index: int, due: float) -> None:
        from repro.errors import ReproError, ServeTimeoutError, ServerOverloadedError

        sent = time.perf_counter()
        try:
            response = await self.client.infer(MODEL, self.vectors[index], retries=0)
        except ServeTimeoutError:
            self.timeouts += 1
            self.out.tally.fail(f"{phase}: request timed out after {REQUEST_TIMEOUT_S} s")
            return
        except ServerOverloadedError:
            self.rejected += 1
            self.out.tally.fail(f"{phase}: request rejected as overloaded")
            return
        except ReproError as exc:
            self.out.tally.fail(f"{phase}: {type(exc).__name__}: {exc}")
            return
        self.replies.append(
            Reply(
                phase, index, due, sent, time.perf_counter(), response.output,
                response.total_cycles, response.batch_size, response.queue_wait_s,
                response.service_s,
            )
        )

    async def closed_loop(
        self, phase: str, seconds: float | None, requests: int | None = None
    ) -> tuple[float, float]:
        """``IN_FLIGHT`` workers, each sending when its last reply came."""
        counter = itertools.count()
        start = time.perf_counter()
        stop_at = start + seconds if seconds is not None else float("inf")

        async def worker() -> None:
            while time.perf_counter() < stop_at:
                number = next(counter)
                if requests is not None and number >= requests:
                    return
                await self._one(phase, number % len(self.vectors), time.perf_counter())

        await asyncio.gather(*(worker() for _ in range(IN_FLIGHT)))
        return start, stop_at

    async def open_loop(self, phase: str, seconds: float, rate: float, seed: int) -> None:
        """Poisson arrivals at ``rate``; latency counts from the due time."""
        rng = random.Random(seed)
        offsets = []
        offset = rng.expovariate(rate)
        while offset < seconds:
            offsets.append(offset)
            offset += rng.expovariate(rate)
        start = time.perf_counter() + 0.01
        tasks = []
        for number, offset in enumerate(offsets):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.lags.append(time.perf_counter() - due)
            tasks.append(asyncio.create_task(self._one(phase, number % len(self.vectors), due)))
        await asyncio.gather(*tasks)


def completed_rps(replies: list[Reply], phase: str, start: float, stop: float) -> float:
    """Requests of ``phase`` completed per second between ``start`` and ``stop``."""
    done = sum(1 for reply in replies if reply.phase == phase and start <= reply.received < stop)
    return done / (stop - start)


async def drive(
    port: int, load: LoadClient, closed_s: float, open_s: float, seed: int, prefix: str
) -> None:
    """Warm up, then run the closed and the open loop, each in segments."""
    from repro.serve import AsyncServeClient

    out = load.out
    load.client = await AsyncServeClient.connect("127.0.0.1", port, timeout_s=REQUEST_TIMEOUT_S)
    try:
        await load.closed_loop(f"{prefix}warmup", None, requests=WARMUP_REQUESTS)
        yardstick = Yardstick()
        for segment in range(CLOSED_SEGMENTS):
            phase = f"{prefix}closed{segment}"
            start, stop = await load.closed_loop(phase, closed_s / CLOSED_SEGMENTS)
            rps = completed_rps(load.replies, phase, start, stop)
            out.sample(f"{prefix}closed_wall_rps", "1/s", rps)
            out.sample(f"{prefix}closed_rps", "1/s", rps / yardstick.factors().mixed)
        if open_s <= 0:
            return
        yardstick = Yardstick()
        for segment in range(OPEN_SEGMENTS):
            phase = f"{prefix}open{segment}"
            await load.open_loop(
                phase, open_s / OPEN_SEGMENTS, OPEN_RATE, seed * OPEN_SEGMENTS + segment
            )
            latencies = [r.received - r.due for r in load.replies if r.phase == phase]
            factor = yardstick.factors().mixed
            out.sample(f"{prefix}open_wall_p50_s", "s", percentile(latencies, 50))
            out.sample(f"{prefix}open_wall_p90_s", "s", percentile(latencies, 90))
            out.sample(f"{prefix}open_p50_s", "s", percentile(latencies, 50) * factor)
            out.sample(f"{prefix}open_p90_s", "s", percentile(latencies, 90) * factor)
    finally:
        await load.client.close()


def verify(ctx: Context, load: LoadClient, out: Outcome) -> None:
    """Compare every reply with an offline ``run_model`` of its vector."""
    from repro import Session
    from repro.core import EIEConfig
    from repro.models import ModelRegistry, ModelSpec

    model = ModelRegistry.build(ModelSpec(model=MODEL, scale=SCALE, seed=model_seed(ctx.seed)))
    config = EIEConfig(num_pes=NUM_PES, fifo_depth=FIFO_DEPTH)
    session = Session(config=config)
    offline: dict[int, tuple[np.ndarray, int]] = {}
    for reply in load.replies:
        if reply.index not in offline:
            run = session.run_model("cycle", model, load.vectors[reply.index], config)
            offline[reply.index] = (run.outputs[0], run.total_cycles)
        output, cycles = offline[reply.index]
        out.tally.check(
            np.array_equal(reply.output, output) and reply.total_cycles == cycles,
            f"{reply.phase}: response differs from offline run_model",
        )


def run(ctx: Context) -> Outcome:
    from repro.models import ModelRegistry, ModelSpec, synthetic_model_inputs

    out = Outcome()
    model = ModelRegistry.build(ModelSpec(model=MODEL, scale=SCALE, seed=model_seed(ctx.seed)))
    vectors = synthetic_model_inputs(model, batch=VECTORS, seed=ctx.seed)
    store_dir = ctx.work / "serve-store"
    load = LoadClient(vectors, out)
    drains = []

    yardstick = Yardstick()

    def booted(daemon: Daemon, name: str) -> int:
        port = daemon.wait_ready()
        out.sample(f"{name}_wall_s", "s", daemon.boot_s)
        out.sample(f"{name}_s", "s", daemon.boot_s * yardstick.factors().mixed)
        return port

    with Daemon(ctx, store_dir) as cold:
        booted(cold, "cold_boot")
    for _ in range(WARM_BOOTS - 1):
        with Daemon(ctx, store_dir) as warm:
            booted(warm, "boot")

    if not ctx.trace:
        with Daemon(ctx, store_dir) as daemon:
            port = booted(daemon, "boot")
            asyncio.run(drive(port, load, 0.4 * ctx.seconds, 0.6 * ctx.seconds, ctx.seed, ""))
            out.sample("daemon_peak_rss_mb", "MiB", daemon.peak_rss_mb())
            drains.append(daemon.stop())
        opened = [reply for reply in load.replies if reply.phase.startswith("open")]
    else:
        with Daemon(ctx, store_dir) as daemon:
            port = daemon.wait_ready()
            asyncio.run(drive(port, load, 0.25 * ctx.seconds, 0.0, ctx.seed, ""))
            drains.append(daemon.stop())
        trace_file = ctx.work / "daemon-trace.json"
        with Daemon(ctx, store_dir, trace_out=trace_file) as daemon:
            port = daemon.wait_ready()
            began = time.perf_counter()
            asyncio.run(
                drive(port, load, 0.25 * ctx.seconds, 0.5 * ctx.seconds, ctx.seed, "traced_")
            )
            phase_wall = time.perf_counter() - began
            drains.append(daemon.stop())
        tracer = Tracer.from_snapshot(json.loads(trace_file.read_text()))
        opened = [reply for reply in load.replies if reply.phase.startswith("traced_open")]
        closed = [reply for reply in load.replies if reply.phase.startswith("traced_closed")]
        served = sum(1 for reply in load.replies if reply.phase.startswith("traced_"))
        out.per_layer = layer_metrics(tracer, opened, closed, served, load)
        out.per_layer["trace.overhead"] = (
            statistics.median(out.samples["closed_rps"])
            / statistics.median(out.samples["traced_closed_rps"])
            - 1.0
        )
        out.per_layer["trace.coverage"] = tracer.root_s / phase_wall
        out.shares = sorted(
            ((name, entry[2], entry[2] / tracer.root_s) for name, entry in tracer.spans.items()),
            key=lambda row: -row[1],
        )
        for target in missing_calls(tracer, TARGETS, SERVE_TCP):
            out.tally.fail(f"traced daemon recorded no call of {target}")

    verify(ctx, load, out)
    for drain in drains:
        if not drain:
            out.tally.fail("daemon did not report a drain on SIGTERM")
        elif drain["errors"]:
            out.tally.fail(f"daemon reported {drain['errors']} errors")
    lag_ms = [1e3 * lag for lag in load.lags]
    out.notes.append(
        f"open loop: {len(opened)} replies at {OPEN_RATE:g} rps offered; percentiles with >=10 "
        f"samples beyond: "
        + ", ".join(f"p{pct:g}={1e3 * value:.2f} ms" for pct, value in
                    reportable_percentiles([r.received - r.due for r in opened]).items())
        + f"; generator lag median {statistics.median(lag_ms):.3f} ms, max {max(lag_ms):.3f} ms"
    )
    out.notes.append(f"rejected {load.rejected}, timed out {load.timeouts}")
    return out


def layer_metrics(
    tracer: Tracer, opened: list[Reply], closed: list[Reply], served: int, load: LoadClient
) -> dict[str, float]:
    """Per-layer metrics of the traced daemon; times are per served request."""
    per_request = 1.0 / served
    node_engine = {}
    propagate = 0.0
    for node in SERVED_NODES:
        name = f"session.run_node[{node}]"
        calls = tracer.calls(name)
        node_engine[f"serve.node_engine_ms.{node}"] = (
            1e3 * (tracer.total_s(name) - tracer.self_s(name)) / calls if calls else 0.0
        )
        propagate += tracer.self_s(name)
    latencies = [reply.received - reply.due for reply in opened]
    tails = reportable_percentiles(latencies)
    lags = reportable_percentiles(load.lags)
    return {
        "store.load_s": tracer.total_s("store.load"),
        "engine.cycle.prepare_s": tracer.total_s("engine.cycle.prepare") * per_request,
        "engine.cycle.run_s": tracer.total_s("engine.cycle.run") * per_request,
        "session.propagate_s": propagate * per_request,
        "serve.queue_wait_ms": 1e3 * statistics.median(r.queue_wait_s for r in opened),
        "serve.dispatch_ms": 1e3 * statistics.median(r.service_s for r in opened),
        "serve.wire_ms": wire_ms(
            [r.received - r.sent for r in opened],
            [r.queue_wait_s for r in opened],
            [r.service_s for r in opened],
        ),
        "serve.batch_mean_open": statistics.mean(r.batch_size for r in opened),
        "serve.batch_mean_closed": statistics.mean(r.batch_size for r in closed),
        **node_engine,
        "serve.p99_ms": 1e3 * tails.get(99, 0.0),
        "serve.generator_lag_ms": 1e3 * lags.get(99, 0.0),
        "serve.rejected": float(load.rejected),
        "serve.timeouts": float(load.timeouts),
    }
