"""State shared by the workloads: the run context, its outcome, helpers."""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from e2e_bench.stats import Tally
from e2e_bench.tracer import Tracer
from e2e_bench.yardstick import Yardstick

__all__ = ["Context", "Outcome", "child_env", "probe_setup", "self_peak_rss_mb", "timed_ops"]

#: How often set-up is repeated in a run; ``setup_s`` is the median.
SETUP_REPEATS = 5

@dataclass
class Context:
    """One benchmark run.

    Attributes:
        root: the checkout the benchmark runs in.
        work: scratch directory inside the checkout, removed after the run.
        seed: workload seed.
        seconds: measuring time of the run.
        trace: whether this is the traced run (per-layer metrics).
        tracer: the in-process tracer (installed only when ``trace``).
        write_references: store this seed's outputs as the reference.
    """

    root: Path
    work: Path
    seed: int
    seconds: float
    trace: bool
    tracer: Tracer
    write_references: bool = False


@dataclass
class Outcome:
    """What one workload measured.

    Attributes:
        tally: operations attempted and failed.
        samples: named sample lists printed with median and quartiles; each
            end-to-end metric is the median of one of them.
        units: unit of each name in ``samples``.
        per_layer: value of each per-layer metric the workload exercises
            (traced run).
        shares: ``(span, self seconds, share)`` rows of the traced run.
        notes: extra report lines.
    """

    tally: Tally = field(default_factory=Tally)
    samples: dict[str, list[float]] = field(default_factory=dict)
    units: dict[str, str] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    shares: list[tuple[str, float, float]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def sample(self, name: str, unit: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))
        self.units[name] = unit

    def median(self, name: str) -> float:
        return statistics.median(self.samples[name])


def child_env(ctx: Context, **extra: str) -> dict[str, str]:
    """Environment for a child process: the checkout's sources, its scratch."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ctx.root / "src")
    env["TMPDIR"] = str(ctx.work)
    env["REPRO_STORE_DIR"] = str(ctx.work / "default-store")
    env.update(extra)
    return env


def probe_setup(ctx: Context, out: Outcome, code: str, timeout_s: float = 60.0) -> None:
    """Sample ``setup_s``: scaled wall time of fresh interpreters running ``code``."""
    yardstick = Yardstick()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code],
            cwd=ctx.root,
            env=child_env(ctx),
            check=True,
            timeout=timeout_s,
            stdout=subprocess.DEVNULL,
        )
        wall = time.perf_counter() - start
        out.sample("setup_wall_s", "s", wall)
        out.sample("setup_s", "s", wall * yardstick.factors().mixed)


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_ops(seconds: float, op: Callable[[], None], minimum: int = 2) -> int:
    """Run ``op`` until another one would end past ``seconds``.

    At least ``minimum`` operations run.  The next operation is assumed to
    take as long as the previous one, so a run ends close to ``seconds``.
    Returns the number of operations run.
    """
    start = time.perf_counter()
    count = 0
    last = 0.0
    while count < minimum or (time.perf_counter() - start) + last <= seconds:
        began = time.perf_counter()
        op()
        last = time.perf_counter() - began
        count += 1
    return count
