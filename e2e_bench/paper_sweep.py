"""``paper_sweep``: Figures 6, 8 and 11 at full Table III size.

One operation is one experiment run; one pass runs the three experiments,
each on a fresh serial :class:`ExperimentRunner`, the way three separate
``experiment run`` CLI calls would, so every pass builds its sparsity
patterns again.  Each experiment's time is scaled by
:mod:`e2e_bench.yardstick`.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace

from e2e_bench import references
from e2e_bench.common import Context, Outcome, probe_setup, self_peak_rss_mb, timed_ops
from e2e_bench.layers import PAPER_SWEEP, TARGETS, span_shares
from e2e_bench.tracer import install, missing_calls
from e2e_bench.yardstick import Yardstick

#: end-to-end metric -> (sample it is the median of, what it measures)
END_TO_END = {
    "setup_s": ("setup_s", "fresh interpreter importing repro.experiments"),
    "op_s": ("sweep_s", "one pass of fig6 + fig8 + fig11"),
    "op2_s": ("fig11_scalability_s", "fig11_scalability within a pass"),
    "rate_per_s": ("fig8_points_per_s", "fig8_fifo_depth grid points per second"),
    "peak_rss_mb": ("peak_rss_mb", "benchmark process"),
}

EXPERIMENTS = ("fig6_speedup", "fig8_fifo_depth", "fig11_scalability")
EXPECTED_RECORDS = {"fig6_speedup": 10, "fig8_fifo_depth": 81, "fig11_scalability": 81}


def layer_specs(seed: int) -> list:
    """The nine Table III layers with pattern seeds derived from ``seed``.

    Seed 0 keeps the library's canonical patterns, so its records are the
    ones ``experiment run`` prints.
    """
    from repro.workloads.benchmarks import ALL_BENCHMARKS, BASE_SEED

    return [replace(spec, seed=BASE_SEED + seed) for spec in ALL_BENCHMARKS.values()]


def invariant_errors(name: str, records: list[dict]) -> list[str]:
    """Properties every seed's records must have."""
    errors = []
    if len(records) != EXPECTED_RECORDS[name]:
        errors.append(f"{name}: {len(records)} records, expected {EXPECTED_RECORDS[name]}")
    for record in records:
        if name == "fig6_speedup" and not record["EIE"] > 1.0:
            errors.append(f"{name}: EIE speedup {record['EIE']} <= 1 on {record['benchmark']}")
        if name == "fig8_fifo_depth" and not 0.0 < record["load_balance_efficiency"] <= 1.0:
            errors.append(f"{name}: efficiency out of (0, 1] on {record['benchmark']}")
        one_pe = name == "fig11_scalability" and record["num_pes"] == 1
        if one_pe and record["speedup_vs_1pe"] != 1.0:
            errors.append(f"{name}: 1-PE speedup is not 1 on {record['benchmark']}")
    return errors


def fidelity_notes(records: list[dict]) -> list[str]:
    """Simulated EIE speedups next to the paper's (reported, not gated)."""
    from repro.baselines.reference import PAPER_EIE_SPEEDUPS, PAPER_SPEEDUP_GEOMEAN

    parts = []
    for record in records:
        paper = PAPER_EIE_SPEEDUPS.get(record["benchmark"], PAPER_SPEEDUP_GEOMEAN["EIE"])
        parts.append(f"{record['benchmark']} {record['EIE']:.1f}x/{paper:g}x")
    return ["EIE speedup over CPU dense, simulated/paper: " + ", ".join(parts)]


def run(ctx: Context) -> Outcome:
    from repro.experiments import ExperimentRunner

    out = Outcome()
    probe_setup(ctx, out, "import repro.experiments")
    specs = layer_specs(ctx.seed)
    stored = references.load(PAPER_SWEEP, ctx.seed)
    first: dict[str, list] = {}

    def one_pass(prefix: str) -> None:
        yardstick = Yardstick()
        sweep_s = 0.0
        wall_s = 0.0
        for name in EXPERIMENTS:
            began = time.perf_counter()
            try:
                result = ExperimentRunner(executor="serial").run(name, workloads=specs)
            except Exception as exc:  # a failed operation, counted and reported
                out.tally.fail(f"{name}: {type(exc).__name__}: {exc}")
                continue
            wall = time.perf_counter() - began
            elapsed = wall * yardstick.factors().mixed
            wall_s += wall
            sweep_s += elapsed
            out.sample(f"{prefix}{name}_s", "s", elapsed)
            if name == "fig8_fifo_depth":
                out.sample(f"{prefix}fig8_points_per_s", "1/s", result.metadata["points"] / elapsed)
            ctx.tracer.enabled = False
            records = references.canonical(result.records)
            errors = invariant_errors(name, records)
            first.setdefault(name, records)
            errors += references.compare(records, first[name], f"{name} vs first pass")
            if stored is not None:
                errors += references.compare(records, stored[name], f"{name} vs reference")
            ctx.tracer.enabled = True
            out.tally.check(not errors, "; ".join(errors[:3]))
        out.sample(f"{prefix}sweep_wall_s", "s", wall_s)
        out.sample(f"{prefix}sweep_s", "s", sweep_s)

    if not ctx.trace:
        timed_ops(ctx.seconds, lambda: one_pass(""))
        out.sample("peak_rss_mb", "MiB", self_peak_rss_mb())
    else:
        timed_ops(ctx.seconds / 2, lambda: one_pass(""), minimum=1)
        restore = install(ctx.tracer, TARGETS)
        try:
            passes = timed_ops(ctx.seconds / 2, lambda: one_pass("traced_"), minimum=1)
        finally:
            restore()
        tracer = ctx.tracer
        wall = sum(out.samples["traced_sweep_wall_s"])
        out.per_layer = {
            "workloads.pattern_s": tracer.total_s("workloads.pattern") / passes,
            "workloads.patterns": tracer.calls("workloads.pattern") / passes,
            "compression.entry_counts_s": tracer.total_s("compression.entry_counts") / passes,
            "compression.entry_counts_calls": tracer.calls("compression.entry_counts") / passes,
            "engine.cycle.simulate_s": tracer.total_s("engine.cycle.simulate") / passes,
            "engine.cycle.entries": tracer.counters.get("engine.cycle.entries", 0) / passes,
            "experiments.points": tracer.counters.get("experiments.points", 0) / passes,
            "experiments.self_s": tracer.self_s("experiments.run") / passes,
            "trace.overhead": statistics.median(out.samples["traced_sweep_s"])
            / statistics.median(out.samples["sweep_s"])
            - 1.0,
            "trace.coverage": tracer.root_s / wall,
        }
        out.shares = span_shares(tracer, wall)
        for target in missing_calls(tracer, TARGETS, PAPER_SWEEP):
            out.tally.fail(f"traced run recorded no call of {target}")
    out.notes += fidelity_notes(first.get("fig6_speedup", []))
    if stored is None:
        out.notes.append(
            f"no stored reference for seed {ctx.seed}: checked invariants and determinism"
        )
    if ctx.write_references and out.tally.correct:
        path = references.save(PAPER_SWEEP, ctx.seed, first)
        out.notes.append(f"wrote {path.name}")
    return out
