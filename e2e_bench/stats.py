"""Sample summaries and failure accounting for the benchmark's report."""

from __future__ import annotations

import statistics
from collections import Counter
from typing import Sequence

__all__ = ["Tally", "percentile", "reportable_percentiles", "summarize", "wire_ms"]

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL_SAMPLES = 10


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Median, first and third quartile and sample count of ``values``."""
    if not values:
        raise ValueError("no samples to summarize")
    data = [float(value) for value in values]
    if len(data) == 1:
        q1 = q3 = data[0]
    else:
        q1, _, q3 = statistics.quantiles(data, n=4)
    return {"median": statistics.median(data), "q1": q1, "q3": q3, "n": len(data)}


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile of ``values``, linearly interpolated."""
    data = sorted(float(value) for value in values)
    if not data:
        raise ValueError("no samples")
    rank = (len(data) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def reportable_percentiles(
    values: Sequence[float], candidates: Sequence[float] = (50, 90, 99)
) -> dict[float, float]:
    """The candidate percentiles with at least ten samples beyond each."""
    count = len(values)
    return {
        pct: percentile(values, pct)
        for pct in candidates
        if count * (100.0 - pct) / 100.0 >= MIN_TAIL_SAMPLES
    }


def wire_ms(
    client_s: Sequence[float], queue_wait_s: Sequence[float], service_s: Sequence[float]
) -> float:
    """Median time a request spent outside the server's queue and dispatch.

    For each request it is the latency the client saw, from sending to
    receiving, minus the queue wait and dispatch time the server reported in
    the response: JSON coding, sockets and both event loops.
    """
    if not (len(client_s) == len(queue_wait_s) == len(service_s)) or not client_s:
        raise ValueError("need one queue wait and one dispatch time per request")
    return 1e3 * statistics.median(
        client - queue - service
        for client, queue, service in zip(client_s, queue_wait_s, service_s)
    )


class Tally:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] += 1

    def check(self, passed: bool, reason: str) -> bool:
        """Count one operation; it failed unless ``passed``."""
        if passed:
            self.ok()
        else:
            self.fail(reason)
        return passed

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0
