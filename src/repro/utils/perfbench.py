"""Timing helpers for the tracked perf-regression harness.

``benchmarks/perf/bench_perf_hotpaths.py`` uses these to time the
compression / preparation / simulation hot paths, record the trajectory in
``BENCH_hotpaths.json`` at the repository root, and fail CI when a recorded
throughput regresses past a threshold against the committed baseline.

The helpers are deliberately tiny and dependency-free so they can also be
used ad hoc (e.g. from a REPL) when hunting a regression:

* :func:`time_call` — best-of-N wall-clock timing with warmup;
* :class:`BenchResult` — one named measurement with a throughput;
* :func:`merge_results` — read-modify-write of the benchmark JSON, keyed by
  ``<mode>/<name>`` so quick (CI) and paper-scale entries coexist;
* :func:`check_against_baseline` — the regression gate.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Callable, Mapping

__all__ = [
    "BenchResult",
    "time_call",
    "run_benchmark",
    "merge_results",
    "check_against_baseline",
]

#: On-disk schema version of BENCH_hotpaths.json.
SCHEMA_VERSION = 1


def time_call(
    fn: Callable[[], Any], repeats: int = 3, warmup: int = 1
) -> float:
    """Best-of-``repeats`` wall-clock seconds for ``fn()``.

    ``warmup`` extra calls run first (cold caches, lazy imports and allocator
    growth would otherwise pollute the first sample).  Best-of is used rather
    than the mean because timing noise on shared machines is one-sided.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass(frozen=True)
class BenchResult:
    """One named measurement.

    Attributes:
        name: benchmark entry name (e.g. ``"csc_encode"``).
        seconds: best-of wall-clock seconds per call.
        repeats: how many timed calls produced ``seconds``.
        work_items: units of work one call processes (for throughput).
        unit: what a work item is (e.g. ``"dense elements"``).
        params: free-form problem description (sizes, density, PEs, ...).
    """

    name: str
    seconds: float
    repeats: int
    work_items: float
    unit: str
    params: dict = field(default_factory=dict)

    @property
    def throughput(self) -> float:
        """Work items per second (0 if the timer somehow reported 0)."""
        return self.work_items / self.seconds if self.seconds > 0 else 0.0

    def to_dict(self) -> dict:
        """JSON-serialisable form (throughput included for easy reading)."""
        return {
            "name": self.name,
            "seconds": self.seconds,
            "repeats": self.repeats,
            "work_items": self.work_items,
            "unit": self.unit,
            "throughput": self.throughput,
            "params": dict(self.params),
        }


def run_benchmark(
    name: str,
    fn: Callable[[], Any],
    work_items: float,
    unit: str,
    params: Mapping[str, Any] | None = None,
    repeats: int = 3,
    warmup: int = 1,
) -> BenchResult:
    """Time ``fn`` and package the measurement as a :class:`BenchResult`."""
    seconds = time_call(fn, repeats=repeats, warmup=warmup)
    return BenchResult(
        name=name,
        seconds=seconds,
        repeats=repeats,
        work_items=float(work_items),
        unit=unit,
        params=dict(params or {}),
    )


def _load(path: Path) -> dict:
    if path.exists():
        with path.open() as handle:
            data = json.load(handle)
        if data.get("schema") != SCHEMA_VERSION:
            raise ValueError(
                f"{path} has schema {data.get('schema')!r}, expected {SCHEMA_VERSION}"
            )
        return data
    return {"schema": SCHEMA_VERSION, "entries": {}}


def merge_results(
    path: Path | str,
    results: list[BenchResult],
    mode: str,
) -> dict:
    """Merge ``results`` into the benchmark JSON at ``path`` under ``mode``.

    Entries are keyed ``<mode>/<name>`` so the paper-scale trajectory and the
    quick CI entries live side by side; only the freshly measured keys are
    replaced.  Returns the merged document (already written to disk).
    """
    path = Path(path)
    data = _load(path)
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    # Environment facets that change what a throughput number means: the
    # machine and its core count.
    machine = platform.machine() or "unknown"
    cpu_count = os.cpu_count() or 1
    for result in results:
        entry = result.to_dict()
        entry["recorded_at"] = stamp
        entry["machine"] = machine
        entry["cpu_count"] = cpu_count
        data["entries"][f"{mode}/{result.name}"] = entry
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return data


def check_against_baseline(
    results: list[BenchResult],
    baseline_path: Path | str,
    mode: str,
    max_slowdown: float = 2.0,
) -> list[str]:
    """Compare fresh measurements with the committed baseline JSON.

    Returns a list of human-readable failure strings, one per entry whose
    throughput dropped by more than ``max_slowdown`` versus the baseline
    (empty list = no regression).  Entries absent from the baseline are
    skipped — they have no trajectory to regress against yet.
    """
    if max_slowdown <= 1.0:
        raise ValueError(f"max_slowdown must be > 1, got {max_slowdown}")
    baseline_path = Path(baseline_path)
    if not baseline_path.exists():
        return []
    baseline = _load(baseline_path)["entries"]
    failures: list[str] = []
    for result in results:
        recorded = baseline.get(f"{mode}/{result.name}")
        if not recorded:
            continue
        old_throughput = float(recorded.get("throughput", 0.0))
        if old_throughput <= 0.0 or result.throughput <= 0.0:
            continue
        slowdown = old_throughput / result.throughput
        if slowdown > max_slowdown:
            failures.append(
                f"{mode}/{result.name}: throughput {result.throughput:.3e} "
                f"{result.unit}/s is {slowdown:.2f}x slower than the baseline "
                f"{old_throughput:.3e} (limit {max_slowdown:.2f}x)"
            )
    return failures
