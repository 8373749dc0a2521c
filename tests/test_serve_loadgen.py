"""Tests for the load generators (open and closed loop)."""

from __future__ import annotations

import asyncio
from dataclasses import dataclass

import numpy as np
import pytest

from repro.core.config import EIEConfig
from repro.errors import ConfigurationError, ServerOverloadedError
from repro.models import build_model, synthetic_model_inputs
from repro.serve import BatchPolicy, Server, run_closed_loop, run_open_loop
from repro.serve.loadgen import _arrival_offsets


@dataclass
class _FakeResponse:
    batch_size: int
    output: np.ndarray
    latency_s: float | None
    total_cycles: int | None


class TestLoadReportMath:
    def _report(self, submit, count=20, rate=1000.0, **kwargs):
        inputs = np.ones((count, 4))
        return asyncio.run(
            run_open_loop(submit, inputs, rate_rps=rate, seed=1, **kwargs)
        )

    def test_counts_and_percentiles_from_fake_service(self):
        async def submit(vector):
            return _FakeResponse(
                batch_size=2, output=vector * 2.0, latency_s=1e-6, total_cycles=100
            )

        report = self._report(submit, capture_outputs=True)
        assert report.requests == 20
        assert report.completed == 20
        assert report.rejected == 0 and report.errors == 0
        assert report.mean_batch == 2.0
        assert report.sim_cycles == 100.0
        assert report.sim_latency_us == pytest.approx(1.0)
        assert report.p50_ms <= report.p99_ms <= report.max_ms
        assert report.throughput_rps > 0
        assert all(np.array_equal(out, np.ones(4) * 2.0) for out in report.outputs)
        record = report.record()
        assert record["completed"] == 20 and record["p99_ms"] >= record["p50_ms"]

    def test_overload_counts_as_rejection_not_error(self):
        calls = {"n": 0}

        async def submit(vector):
            calls["n"] += 1
            if calls["n"] % 2:
                raise ServerOverloadedError("full", retry_after_s=0.01)
            return _FakeResponse(1, vector, None, None)

        report = self._report(submit)
        assert report.rejected == 10
        assert report.completed == 10
        assert report.errors == 0
        assert report.sim_latency_us is None and report.sim_cycles is None

    def test_other_exceptions_count_as_errors(self):
        async def submit(vector):
            raise RuntimeError("boom")

        report = self._report(submit)
        assert report.errors == 20 and report.completed == 0
        assert np.isnan(report.p50_ms)

    def test_input_validation(self):
        async def submit(vector):  # pragma: no cover - never reached
            return None

        with pytest.raises(ConfigurationError, match="matrix"):
            asyncio.run(run_open_loop(submit, np.ones(4), rate_rps=10.0))
        with pytest.raises(ConfigurationError, match="rate"):
            asyncio.run(run_open_loop(submit, np.ones((2, 4)), rate_rps=0.0))

    def test_arrivals_deterministic_per_seed(self):
        first = _arrival_offsets(10, 5000.0, seed=0)
        assert first[0] == 0.0
        assert np.all(np.diff(first) >= 0.0)
        assert np.array_equal(first, _arrival_offsets(10, 5000.0, seed=0))
        assert not np.array_equal(first, _arrival_offsets(10, 5000.0, seed=1))


class TestAgainstRealServer:
    def test_open_loop_against_in_process_server(self):
        model = build_model("neuraltalk_lstm", scale=64)
        inputs = synthetic_model_inputs(model, batch=30, seed=2)
        config = EIEConfig(num_pes=8)

        async def drive():
            async with Server(
                [model],
                config=config,
                policy=BatchPolicy(max_batch=8, max_wait_us=1000.0),
            ) as server:
                return await run_open_loop(
                    lambda vector: server.submit(model.name, vector),
                    inputs,
                    rate_rps=600.0,
                    seed=4,
                    capture_outputs=True,
                )

        report = asyncio.run(drive())
        assert report.completed == 30
        assert report.mean_batch >= 1.0
        assert report.sim_cycles is not None and report.sim_cycles > 0
        assert len(report.outputs) == 30
        assert all(output is not None for output in report.outputs)


class TestClosedLoop:
    def _run(self, submit, count=20, concurrency=4, **kwargs):
        inputs = np.arange(count * 4, dtype=np.float64).reshape(count, 4)
        return asyncio.run(
            run_closed_loop(submit, inputs, concurrency=concurrency, **kwargs)
        )

    def test_every_row_submitted_exactly_once(self):
        seen: list[float] = []

        async def submit(vector):
            seen.append(float(vector[0]))
            return _FakeResponse(1, vector * 2.0, None, None)

        report = self._run(submit, count=20, concurrency=4, capture_outputs=True)
        assert report.requests == 20 and report.completed == 20
        assert report.rejected == 0 and report.errors == 0
        # Each row issued once, whatever the worker interleaving was.
        assert sorted(seen) == [float(i * 4) for i in range(20)]
        # Outputs are indexed by row, not by completion order.
        for index, output in enumerate(report.outputs):
            assert np.array_equal(
                output, np.arange(index * 4, index * 4 + 4, dtype=np.float64) * 2.0
            )

    def test_report_carries_mode_and_concurrency(self):
        async def submit(vector):
            return _FakeResponse(1, vector, None, None)

        report = self._run(submit, concurrency=3)
        assert report.mode == "closed" and report.concurrency == 3
        assert report.offered_rps == 0.0
        record = report.record()
        assert record["mode"] == "closed" and record["concurrency"] == 3

    def test_concurrency_clamped_to_request_count(self):
        async def submit(vector):
            return _FakeResponse(1, vector, None, None)

        report = self._run(submit, count=3, concurrency=64)
        assert report.concurrency == 3 and report.completed == 3

    def test_input_validation(self):
        async def submit(vector):  # pragma: no cover - never reached
            return None

        with pytest.raises(ConfigurationError, match="matrix"):
            asyncio.run(run_closed_loop(submit, np.ones(4), concurrency=2))
        with pytest.raises(ConfigurationError, match="concurrency"):
            asyncio.run(run_closed_loop(submit, np.ones((2, 4)), concurrency=0))

    def test_overload_and_errors_partition_like_open_loop(self):
        calls = {"n": 0}

        async def submit(vector):
            calls["n"] += 1
            if calls["n"] % 4 == 1:
                raise ServerOverloadedError("full", retry_after_s=0.01)
            if calls["n"] % 4 == 2:
                raise RuntimeError("boom")
            return _FakeResponse(1, vector, None, None)

        report = self._run(submit, count=20, concurrency=2)
        assert report.rejected == 5 and report.errors == 5
        assert report.completed == 10
        assert report.completed + report.rejected + report.errors == 20

    def test_parity_with_open_loop_outputs(self):
        """Closed and open loop see identical vectors and produce identical
        outputs for a deterministic service — only the arrival process differs."""

        async def submit(vector):
            return _FakeResponse(1, vector * 3.0 + 1.0, 2e-6, 64)

        inputs = np.linspace(0.0, 1.0, 48).reshape(12, 4)
        closed = asyncio.run(
            run_closed_loop(submit, inputs, concurrency=4, capture_outputs=True)
        )
        open_ = asyncio.run(
            run_open_loop(submit, inputs, rate_rps=5000.0, seed=7, capture_outputs=True)
        )
        assert closed.completed == open_.completed == 12
        for a, b in zip(closed.outputs, open_.outputs):
            assert np.array_equal(a, b)

    def test_closed_loop_against_in_process_server(self):
        model = build_model("neuraltalk_lstm", scale=64)
        inputs = synthetic_model_inputs(model, batch=24, seed=3)
        config = EIEConfig(num_pes=8)

        async def drive():
            async with Server(
                [model],
                config=config,
                policy=BatchPolicy(max_batch=8, max_wait_us=1000.0),
            ) as server:
                return await run_closed_loop(
                    lambda vector: server.submit(model.name, vector),
                    inputs,
                    concurrency=6,
                    capture_outputs=True,
                )

        report = asyncio.run(drive())
        assert report.completed == 24
        assert report.concurrency == 6
        assert report.throughput_rps > 0
        assert all(output is not None for output in report.outputs)


class TestRetriablePartition:
    """Typed retriable failures are a third bucket, separate from overload
    rejections and from unexpected errors — the chaos invariant lives on
    ``errors == 0`` while retriable failures are allowed and bounded."""

    def test_typed_retriable_errors_counted_separately(self):
        from repro.errors import DeadlineExceededError, WorkerCrashedError

        calls = {"n": 0}

        async def submit(vector):
            calls["n"] += 1
            if calls["n"] % 4 == 0:
                raise WorkerCrashedError("gone", worker_id=0)
            if calls["n"] % 4 == 1:
                raise DeadlineExceededError("late", deadline_s=0.01)
            if calls["n"] % 4 == 2:
                raise ServerOverloadedError("full", retry_after_s=0.01)
            return _FakeResponse(
                batch_size=1, output=vector, latency_s=None, total_cycles=0
            )

        inputs = np.ones((20, 4))
        report = asyncio.run(run_closed_loop(submit, inputs, concurrency=2))
        assert report.retriable == 10  # crashed + deadline buckets
        assert report.rejected == 5
        assert report.completed == 5
        assert report.errors == 0
        assert (
            report.completed + report.rejected + report.retriable + report.errors
            == report.requests
        )
        assert report.record()["retriable"] == 10

    def test_unexpected_exception_still_an_error(self):
        async def submit(vector):
            raise RuntimeError("not a typed serve failure")

        inputs = np.ones((6, 4))
        report = asyncio.run(run_closed_loop(submit, inputs, concurrency=2))
        assert report.errors == 6 and report.retriable == 0
