"""The built-in experiment catalog: every figure, table and ablation.

Each entry point of the paper's evaluation (Figures 6-13, Tables I-V, and
the three design-choice ablations) is registered here as a named declarative
experiment.  The point functions reuse the analysis layer's per-point
primitives (``layer_times``, ``layer_energies``, the table row builders,
``compare_strategies``, ...), and the renderers reproduce the classic
``figure``/``table``/``ablation`` CLI output byte for byte.  Every result is
a flat list of records; there is no other output shape.

Experiment names double as the ``results/<name>.{txt,json}`` file stems used
by the benchmark harness.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.analysis.design_space import (
    DEFAULT_FIFO_DEPTHS,
    DEFAULT_SRAM_WIDTHS,
    FLOAT32_REFERENCE_ACCURACY,
)
from repro.analysis.report import format_table, geometric_mean, render_series
from repro.analysis.scalability import DEFAULT_PE_COUNTS
from repro.analysis.speedup import GEOMEAN_KEY, SPEEDUP_CONFIGS
from repro.baselines.roofline import RooflinePlatform
from repro.baselines.specs import CPU_CORE_I7_5930K, GPU_TITAN_X, MOBILE_GPU_TEGRA_K1
from repro.compression.csc import interleaved_entry_counts
from repro.core.partitioning import compare_strategies
from repro.errors import ConfigurationError
from repro.experiments.registry import Experiment, register_experiment
from repro.experiments.result import ExperimentResult
from repro.experiments.runner import ExperimentContext
from repro.experiments.spec import ExperimentSpec
from repro.hardware.energy import multiply_energy_pj
from repro.hardware.sram import sram_read_energy_pj
from repro.nn.fixed_point import FORMATS
from repro.utils.rng import make_rng
from repro.workloads.benchmarks import BENCHMARK_NAMES

__all__ = ["BUILTIN_EXPERIMENTS"]

_SPEEDUP_CONFIGS = SPEEDUP_CONFIGS
_GEOMEAN_KEY = GEOMEAN_KEY


def _workload_names(result: ExperimentResult) -> list[str]:
    """The run's resolved benchmark names, in execution order."""
    names = result.provenance.get("workloads")
    if names:
        return list(names)
    if result.spec.workloads:
        return list(result.spec.workloads)
    seen: list[str] = []
    for record in result.records:
        name = record.get("benchmark")
        if name is not None and name not in seen:
            seen.append(name)
    return seen


def _series_view(result: ExperimentResult, x_key: str, y_key: str) -> dict:
    series: dict[str, dict] = {}
    for record in result.records:
        series.setdefault(record["benchmark"], {})[record[x_key]] = record[y_key]
    return series


# ---------------------------------------------------------------------------
# Figures 6 and 7: speedup / energy efficiency over CPU dense
# ---------------------------------------------------------------------------


def _fig6_point(ctx: ExperimentContext, point: dict) -> dict:
    from repro.analysis.speedup import layer_times

    times = layer_times(
        ctx.layer_spec(point["benchmark"]),
        ctx.builder,
        ctx.base_config,
        batch=int(ctx.params["batch"]),
    )
    baseline = times["CPU Dense"]
    return {name: baseline / times[name] for name in _SPEEDUP_CONFIGS}


def _fig7_point(ctx: ExperimentContext, point: dict) -> dict:
    from repro.analysis.energy_efficiency import layer_energies

    energies = layer_energies(
        ctx.layer_spec(point["benchmark"]),
        ctx.builder,
        ctx.base_config,
        batch=int(ctx.params["batch"]),
    )
    baseline = energies["CPU Dense"]
    return {name: baseline / energies[name] for name in _SPEEDUP_CONFIGS}


def _geomean_finalize(ctx: ExperimentContext, records: list[dict]) -> list[dict]:
    geomean = {
        name: geometric_mean([record[name] for record in records])
        for name in _SPEEDUP_CONFIGS
    }
    return records + [{"benchmark": _GEOMEAN_KEY, **geomean}]


def _speedup_table_view(result: ExperimentResult) -> dict[str, dict[str, float]]:
    return {
        record["benchmark"]: {name: record[name] for name in _SPEEDUP_CONFIGS}
        for record in result.records
    }


def _render_speedup_like(result: ExperimentResult, title: str) -> str:
    table = _speedup_table_view(result)
    series = {cfg: {b: table[b][cfg] for b in table} for cfg in _SPEEDUP_CONFIGS}
    return title + "\n" + render_series(series, "Benchmark")


# ---------------------------------------------------------------------------
# Figure 8: FIFO depth sweep
# ---------------------------------------------------------------------------


def _fig8_point(ctx: ExperimentContext, point: dict) -> dict:
    depth = int(point["fifo_depth"])
    workload = ctx.workload(point["benchmark"])
    config = ctx.config(fifo_depth=depth)
    stats = ctx.session.run(ctx.engine_name, workload, None, config).stats
    return {"fifo_depth": depth, "load_balance_efficiency": stats.load_balance_efficiency}


def _render_fig8(result: ExperimentResult) -> str:
    return "Load-balance efficiency vs FIFO depth:\n" + render_series(
        _series_view(result, "fifo_depth", "load_balance_efficiency"), "FIFO depth"
    )


# ---------------------------------------------------------------------------
# Figure 9: Spmat SRAM width sweep
# ---------------------------------------------------------------------------


def _fig9_point(ctx: ExperimentContext, point: dict) -> dict:
    width = int(point["width_bits"])
    entry_bits = int(ctx.params["entry_bits"])
    spmat_sram_kb = float(ctx.params["spmat_sram_kb"])
    workload = ctx.workload(point["benchmark"])
    entries_per_read = max(1, width // entry_bits)
    reads = int(np.ceil(workload.work / entries_per_read).sum())
    energy = sram_read_energy_pj(width, spmat_sram_kb)
    return {
        "width_bits": width,
        "num_reads": reads,
        "energy_per_read_pj": energy,
        "total_energy_nj": reads * energy / 1e3,
    }


def _render_fig9(result: ExperimentResult) -> str:
    totals: dict[int, float] = defaultdict(float)
    for record in result.records:
        totals[record["width_bits"]] += record["total_energy_nj"]
    body = format_table(
        ["Layer", "Width", "# reads", "pJ/read", "Total nJ"],
        [
            [
                record["benchmark"],
                record["width_bits"],
                record["num_reads"],
                record["energy_per_read_pj"],
                record["total_energy_nj"],
            ]
            for record in result.records
        ],
    )
    body += "\n\n" + format_table(["Width", "Total energy (nJ)"], sorted(totals.items()))
    return "Spmat SRAM width sweep:\n" + body


# ---------------------------------------------------------------------------
# Figure 10: arithmetic precision study
# ---------------------------------------------------------------------------


def _fig10_point(ctx: ExperimentContext, point: dict) -> dict:
    from repro.analysis.design_space import _build_proxy_classifier, _quantized_forward

    precision = str(point["precision"])
    if precision not in FORMATS:
        raise ConfigurationError(
            f"unknown precision {precision!r}; known precisions: {sorted(FORMATS)}"
        )

    def build_reference():
        rng = make_rng(ctx.seed)
        network = _build_proxy_classifier(
            int(ctx.params["input_size"]),
            int(ctx.params["hidden_size"]),
            int(ctx.params["classes"]),
            rng,
        )
        inputs = rng.normal(0.0, 1.0, size=(int(ctx.params["num_samples"]),
                                            int(ctx.params["input_size"])))
        reference = np.array(
            [int(np.argmax(_quantized_forward(network, sample, None))) for sample in inputs]
        )
        return network, inputs, reference

    network, inputs, reference = ctx.memo("precision-reference", build_reference)
    fmt = FORMATS[precision]
    predictions = np.array(
        [int(np.argmax(_quantized_forward(network, sample, fmt))) for sample in inputs]
    )
    agreement = float(np.mean(predictions == reference))
    return {
        "precision": precision,
        "accuracy": float(ctx.params["reference_accuracy"]) * agreement,
        "agreement_with_float": agreement,
        "multiply_energy_pj": multiply_energy_pj(precision),
    }


def _render_fig10(result: ExperimentResult) -> str:
    return "Arithmetic precision study:\n" + format_table(
        ["Precision", "Accuracy", "Agreement", "Multiply energy (pJ)"],
        [
            [
                record["precision"],
                record["accuracy"],
                record["agreement_with_float"],
                record["multiply_energy_pj"],
            ]
            for record in result.records
        ],
    )


# ---------------------------------------------------------------------------
# Figures 11-13: PE-count scalability sweep
# ---------------------------------------------------------------------------


def _scalability_point(ctx: ExperimentContext, point: dict) -> dict:
    num_pes = int(point["num_pes"])
    workload = ctx.workload(point["benchmark"], num_pes)
    config = ctx.config(num_pes=num_pes)
    stats = ctx.session.run(ctx.engine_name, workload, None, config).stats
    return {
        "num_pes": num_pes,
        "total_cycles": stats.total_cycles,
        "load_balance_efficiency": stats.load_balance_efficiency,
        "real_work_fraction": workload.real_work_fraction,
    }


def _fig11_finalize(ctx: ExperimentContext, records: list[dict]) -> list[dict]:
    baselines: dict[str, int] = {}
    out = []
    for record in records:
        baseline = baselines.setdefault(record["benchmark"], record["total_cycles"])
        cycles = record["total_cycles"]
        out.append({**record, "speedup_vs_1pe": baseline / cycles if cycles else 0.0})
    return out


def _fig12_point(ctx: ExperimentContext, point: dict) -> dict:
    num_pes = int(point["num_pes"])
    workload = ctx.workload(point["benchmark"], num_pes)
    return {"num_pes": num_pes, "real_work_fraction": workload.real_work_fraction}


# ---------------------------------------------------------------------------
# Tables I-V
# ---------------------------------------------------------------------------


def _table1_point(ctx: ExperimentContext, point: dict) -> list[dict]:
    from repro.analysis.tables import table1_rows

    return table1_rows()


def _render_table1(result: ExperimentResult) -> str:
    return format_table(
        ["Operation", "Energy [pJ]", "Relative cost"],
        [[r["operation"], r["energy_pj"], r["relative_cost"]] for r in result.records],
    )


def _table2_point(ctx: ExperimentContext, point: dict) -> list[dict]:
    from repro.analysis.tables import table2_rows

    return table2_rows()


def _render_table2(result: ExperimentResult) -> str:
    return format_table(
        ["Name", "Group", "Power (mW)", "Power (%)", "Area (um2)", "Area (%)"],
        [
            [r["name"], r.get("group", ""), r["power_mw"], r["power_pct"], r["area_um2"],
             r["area_pct"]]
            for r in result.records
        ],
    )


def _table3_point(ctx: ExperimentContext, point: dict) -> list[dict]:
    from repro.analysis.tables import table3_rows

    return table3_rows()


def _render_table3(result: ExperimentResult) -> str:
    return format_table(
        ["Layer", "Size", "Weight%", "Act%", "FLOP%"],
        [
            [r["layer"], r["size"], r["weight_density"], r["activation_density"],
             r["flop_fraction"]]
            for r in result.records
        ],
    )


def _table4_point(ctx: ExperimentContext, point: dict) -> list[dict]:
    layer_spec = ctx.layer_spec(point["benchmark"])
    platforms = {
        "CPU": RooflinePlatform(CPU_CORE_I7_5930K),
        "GPU": RooflinePlatform(GPU_TITAN_X),
        "mGPU": RooflinePlatform(MOBILE_GPU_TEGRA_K1),
    }
    records = []
    for platform_name, model in platforms.items():
        for batch in (1, 64):
            for kernel in ("dense", "sparse"):
                time_s = model.time_s(layer_spec, compressed=(kernel == "sparse"), batch=batch)
                records.append(
                    {"platform": platform_name, "batch": batch, "kernel": kernel,
                     "time_us": time_s * 1e6}
                )
    workload = ctx.workload(point["benchmark"])
    stats = ctx.session.run(ctx.engine_name, workload, None, ctx.base_config).stats
    records.append(
        {"platform": "EIE", "batch": 1, "kernel": "theoretical",
         "time_us": stats.theoretical_time_s * 1e6}
    )
    records.append(
        {"platform": "EIE", "batch": 1, "kernel": "actual", "time_us": stats.time_s * 1e6}
    )
    return records


def _table4_finalize(ctx: ExperimentContext, records: list[dict]) -> list[dict]:
    benchmarks = list(ctx.layer_specs)
    cells = {
        (r["platform"], r["batch"], r["kernel"], r["benchmark"]): r["time_us"] for r in records
    }
    rows: list[dict] = []
    for platform in ("CPU", "GPU", "mGPU"):
        for batch in (1, 64):
            for kernel in ("dense", "sparse"):
                row: dict = {"platform": platform, "batch": batch, "kernel": kernel}
                for name in benchmarks:
                    row[name] = cells[(platform, batch, kernel, name)]
                rows.append(row)
    for kernel in ("theoretical", "actual"):
        row = {"platform": "EIE", "batch": 1, "kernel": kernel}
        for name in benchmarks:
            row[name] = cells[("EIE", 1, kernel, name)]
        rows.append(row)
    return rows


def _render_table4(result: ExperimentResult) -> str:
    benchmarks = _workload_names(result)
    headers = ["Platform", "Batch", "Kernel"] + benchmarks
    return format_table(
        headers,
        [
            [r["platform"], r["batch"], r["kernel"]] + [r[name] for name in benchmarks]
            for r in result.records
        ],
    )


def _table5_point(ctx: ExperimentContext, point: dict) -> list[dict]:
    from repro.analysis.tables import table5_rows

    return table5_rows(builder=ctx.builder)


def _render_table5(result: ExperimentResult) -> str:
    return format_table(
        ["Platform", "Area (mm2)", "Power (W)", "Throughput (fps)", "Energy eff. (frames/J)"],
        [
            [r["platform"], r["area_mm2"], r["power_w"], r["throughput_fps"],
             r["energy_efficiency_fpj"]]
            for r in result.records
        ],
    )


# ---------------------------------------------------------------------------
# Design-choice ablations
# ---------------------------------------------------------------------------


def _index_width_point(ctx: ExperimentContext, point: dict) -> dict:
    bits = int(point["index_bits"])
    layer_spec = ctx.layer_spec(point["benchmark"])
    pattern = ctx.builder.pattern(layer_spec)
    weight_bits = int(ctx.params["weight_bits"])
    pointer_bits = int(ctx.params["pointer_bits"])
    num_pes = ctx.base_config.num_pes
    counts, padding = interleaved_entry_counts(
        pattern.row_indices, pattern.col_ptr, layer_spec.rows, num_pes,
        max_run=2**bits - 1,
    )
    total_entries = int(counts.sum())
    padding_zeros = int(padding.sum())
    storage_bits = total_entries * (weight_bits + bits)
    storage_bits += num_pes * (layer_spec.cols + 1) * pointer_bits
    true_nonzeros = total_entries - padding_zeros
    return {
        "index_bits": bits,
        "true_nonzeros": true_nonzeros,
        "padding_zeros": padding_zeros,
        "storage_bits": storage_bits,
        "padding_fraction": padding_zeros / total_entries if total_entries else 0.0,
        "bits_per_nonzero": storage_bits / true_nonzeros if true_nonzeros else 0.0,
    }


def _render_index_width(result: ExperimentResult) -> str:
    sections = []
    for name in _workload_names(result):
        rows = [r for r in result.records if r["benchmark"] == name]
        sections.append(
            f"Relative-index width ablation ({name}):\n"
            + format_table(
                ["Index bits", "Padding zeros", "Padding fraction", "Bits per non-zero"],
                [[r["index_bits"], r["padding_zeros"], r["padding_fraction"],
                  r["bits_per_nonzero"]] for r in rows],
            )
        )
    return "\n\n".join(sections)


def _codebook_point(ctx: ExperimentContext, point: dict) -> dict:
    from repro.analysis.ablation import codebook_population, codebook_bits_point

    weights, scale = ctx.memo(
        "codebook-population",
        lambda: codebook_population(int(ctx.params["num_weights"]), ctx.seed),
    )
    return codebook_bits_point(weights, scale, int(point["weight_bits"]), ctx.seed)


def _render_codebook(result: ExperimentResult) -> str:
    return "Codebook size ablation:\n" + format_table(
        ["Weight bits", "Entries", "RMS error", "Relative RMS error"],
        [
            [r["weight_bits"], r["codebook_entries"], r["rms_error"], r["relative_rms_error"]]
            for r in result.records
        ],
    )


def _partitioning_point(ctx: ExperimentContext, point: dict) -> list[dict]:
    layer_spec = ctx.layer_spec(point["benchmark"])
    pattern = ctx.builder.pattern(layer_spec)
    activations = ctx.builder.activations(layer_spec)
    results = compare_strategies(
        pattern, activations, ctx.base_config.num_pes, fifo_depth=ctx.base_config.fifo_depth
    )
    return [
        {
            "strategy": name,
            "total_cycles": outcome.total_cycles,
            "compute_cycles": outcome.compute_cycles,
            "communication_cycles": outcome.communication_cycles,
            "broadcast_words": outcome.broadcast_words,
            "reduction_words": outcome.reduction_words,
            "load_balance_efficiency": outcome.load_balance_efficiency,
            "idle_pes": outcome.idle_pes,
        }
        for name, outcome in results.items()
    ]


def _render_partitioning(result: ExperimentResult) -> str:
    num_pes = result.spec.config.get("num_pes", 64)
    sections = []
    for name in _workload_names(result):
        rows = [r for r in result.records if r["benchmark"] == name]
        sections.append(
            f"Workload partitioning ablation ({name}, {num_pes} PEs):\n"
            + format_table(
                ["Strategy", "Total cycles", "Compute", "Communication", "Load balance",
                 "Idle PEs"],
                [[r["strategy"], r["total_cycles"], r["compute_cycles"],
                  r["communication_cycles"], r["load_balance_efficiency"], r["idle_pes"]]
                 for r in rows],
            )
        )
    return "\n\n".join(sections)


# ---------------------------------------------------------------------------
# Registration
# ---------------------------------------------------------------------------

BUILTIN_EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        name="fig6_speedup",
        description="Figure 6: speedup of every platform over CPU dense at batch 1",
        spec=ExperimentSpec(
            experiment="fig6_speedup", workloads=BENCHMARK_NAMES, params={"batch": 1}
        ),
        run_point=_fig6_point,
        finalize=_geomean_finalize,
        render=lambda result: _render_speedup_like(result, "Speedup over CPU dense (batch 1):"),
    ),
    Experiment(
        name="fig7_energy_efficiency",
        description="Figure 7: energy efficiency of every platform over CPU dense at batch 1",
        spec=ExperimentSpec(
            experiment="fig7_energy_efficiency", workloads=BENCHMARK_NAMES, params={"batch": 1}
        ),
        run_point=_fig7_point,
        finalize=_geomean_finalize,
        render=lambda result: _render_speedup_like(
            result, "Energy efficiency over CPU dense (batch 1):"
        ),
    ),
    Experiment(
        name="fig8_fifo_depth",
        description="Figure 8: load-balance efficiency versus activation FIFO depth",
        spec=ExperimentSpec(
            experiment="fig8_fifo_depth",
            workloads=BENCHMARK_NAMES,
            grid={"fifo_depth": DEFAULT_FIFO_DEPTHS},
        ),
        run_point=_fig8_point,
        render=_render_fig8,
    ),
    Experiment(
        name="fig9_sram_width",
        description="Figure 9: Spmat SRAM reads and read energy versus interface width",
        spec=ExperimentSpec(
            experiment="fig9_sram_width",
            workloads=BENCHMARK_NAMES,
            grid={"width_bits": DEFAULT_SRAM_WIDTHS},
            params={"spmat_sram_kb": 128.0, "entry_bits": 8},
        ),
        run_point=_fig9_point,
        render=_render_fig9,
    ),
    Experiment(
        name="fig10_precision",
        description="Figure 10: accuracy proxy and multiply energy per arithmetic precision",
        spec=ExperimentSpec(
            experiment="fig10_precision",
            grid={"precision": ("float32", "int32", "int16", "int8")},
            params={
                "num_samples": 256,
                "input_size": 128,
                "hidden_size": 96,
                "classes": 64,
                "reference_accuracy": FLOAT32_REFERENCE_ACCURACY,
            },
            seed=42,
        ),
        run_point=_fig10_point,
        render=_render_fig10,
        uses_workloads=False,
    ),
    Experiment(
        name="fig11_scalability",
        description="Figure 11: speedup versus number of PEs (1 to 256)",
        spec=ExperimentSpec(
            experiment="fig11_scalability",
            workloads=BENCHMARK_NAMES,
            grid={"num_pes": DEFAULT_PE_COUNTS},
        ),
        run_point=_scalability_point,
        finalize=_fig11_finalize,
        render=lambda result: "Speedup vs number of PEs:\n"
        + render_series(_series_view(result, "num_pes", "speedup_vs_1pe"), "# PEs"),
    ),
    Experiment(
        name="fig12_padding_zeros",
        description="Figure 12: real work / total work (padding overhead) versus number of PEs",
        spec=ExperimentSpec(
            experiment="fig12_padding_zeros",
            workloads=BENCHMARK_NAMES,
            grid={"num_pes": DEFAULT_PE_COUNTS},
        ),
        run_point=_fig12_point,
        render=lambda result: "Real work / total work vs number of PEs:\n"
        + render_series(_series_view(result, "num_pes", "real_work_fraction"), "# PEs"),
    ),
    Experiment(
        name="fig13_load_balance",
        description="Figure 13: load-balance efficiency versus number of PEs",
        spec=ExperimentSpec(
            experiment="fig13_load_balance",
            workloads=BENCHMARK_NAMES,
            grid={"num_pes": DEFAULT_PE_COUNTS},
        ),
        run_point=_scalability_point,
        render=lambda result: "Load balance vs number of PEs:\n"
        + render_series(_series_view(result, "num_pes", "load_balance_efficiency"), "# PEs"),
    ),
    Experiment(
        name="table1_energy",
        description="Table I: energy per operation in a 45 nm process",
        spec=ExperimentSpec(experiment="table1_energy"),
        run_point=_table1_point,
        render=_render_table1,
        uses_workloads=False,
    ),
    Experiment(
        name="table2_area_power",
        description="Table II: power/area of one PE broken down by component and module",
        spec=ExperimentSpec(experiment="table2_area_power"),
        run_point=_table2_point,
        render=_render_table2,
        uses_workloads=False,
    ),
    Experiment(
        name="table3_benchmarks",
        description="Table III: the nine benchmark layers and their sparsity statistics",
        spec=ExperimentSpec(experiment="table3_benchmarks"),
        run_point=_table3_point,
        render=_render_table3,
        uses_workloads=False,
    ),
    Experiment(
        name="table4_wallclock",
        description="Table IV: per-frame wall-clock time for every platform and kernel",
        spec=ExperimentSpec(experiment="table4_wallclock", workloads=BENCHMARK_NAMES),
        run_point=_table4_point,
        finalize=_table4_finalize,
        render=_render_table4,
    ),
    Experiment(
        name="table5_platforms",
        description="Table V: platform comparison on AlexNet FC7",
        spec=ExperimentSpec(experiment="table5_platforms"),
        run_point=_table5_point,
        render=_render_table5,
        uses_workloads=False,
    ),
    Experiment(
        name="ablation_index_width",
        description="Ablation: relative-index width versus padding zeros and storage",
        spec=ExperimentSpec(
            experiment="ablation_index_width",
            workloads=("Alex-7",),
            grid={"index_bits": (2, 3, 4, 5, 6, 8)},
            params={"weight_bits": 4, "pointer_bits": 16},
        ),
        run_point=_index_width_point,
        render=_render_index_width,
    ),
    Experiment(
        name="ablation_codebook_bits",
        description="Ablation: shared-weight codebook size versus reconstruction error",
        spec=ExperimentSpec(
            experiment="ablation_codebook_bits",
            grid={"weight_bits": (2, 3, 4, 5, 6, 8)},
            params={"num_weights": 20_000},
        ),
        run_point=_codebook_point,
        render=_render_codebook,
        uses_workloads=False,
    ),
    Experiment(
        name="ablation_partitioning",
        description="Ablation: row-interleaved versus column and 2-D workload partitioning",
        spec=ExperimentSpec(experiment="ablation_partitioning", workloads=("Alex-7",)),
        run_point=_partitioning_point,
        render=_render_partitioning,
    ),
)

for _experiment in BUILTIN_EXPERIMENTS:
    register_experiment(_experiment)
