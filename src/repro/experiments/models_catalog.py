"""Model-level experiments: whole networks through the declarative layer.

The layer-level catalog (:mod:`repro.experiments.catalog`) reproduces the
paper's per-layer evaluation; these experiments evaluate whole registered
models (:mod:`repro.models`) through the same spec → registry → runner →
result machinery:

* ``model_storage`` — per-model Deep Compression accounting (aggregate
  storage, compression ratio, Huffman ratio) over every node;
* ``model_speedup`` — whole-network latency/energy on the cycle engine with
  measured inter-layer activation sparsity, versus the dense CPU roofline
  baseline.

Both sweep a ``model`` grid axis over the registered paper networks; pass
``--set 'grid.model=["alexnet_fc"]'`` or ``--set params.scale=64`` to the CLI
for subsets and smoke runs.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.report import format_table
from repro.baselines.roofline import RooflinePlatform
from repro.baselines.specs import CPU_CORE_I7_5930K
from repro.compression.pipeline import CompressionConfig
from repro.engine.session import Session
from repro.experiments.registry import Experiment, register_experiment
from repro.experiments.result import ExperimentResult
from repro.experiments.runner import ExperimentContext
from repro.experiments.spec import ExperimentSpec
from repro.models.inputs import synthetic_model_inputs
from repro.models.ir import ModelIR
from repro.models.registry import ModelRegistry
from repro.models.spec import ModelSpec
from repro.workloads.benchmarks import LayerSpec

__all__ = ["MODEL_EXPERIMENTS"]

#: The registered paper networks every model experiment sweeps by default.
DEFAULT_MODEL_GRID = ("alexnet_fc", "vgg_fc", "neuraltalk_lstm")


def _build_model(ctx: ExperimentContext, name: str) -> ModelIR:
    """Build (and memoize) one registered model under the spec's params."""
    scale = ctx.params.get("scale")
    seed = ctx.params.get("seed")

    def build() -> ModelIR:
        spec = ModelSpec(
            model=name,
            scale=None if scale is None else float(scale),
            seed=None if seed is None else int(seed),
        )
        return ModelRegistry.build(spec)

    return ctx.memo(("model", name, scale, seed), build)


def _model_session(ctx: ExperimentContext) -> Session:
    """The session whose compressor honours the spec's compression overlay.

    The runner's shared session is built with default compression; when the
    spec overlays `compression`, a dedicated (memoized) session carries it —
    otherwise storage/latency numbers would silently ignore the overlay.
    """
    if ctx.compression == CompressionConfig():
        return ctx.session
    return ctx.memo(
        ("model-session", ctx.compression),
        lambda: Session(
            ctx.compression, config=ctx.base_config, store=ctx.session.store
        ),
    )


def _clamped_density(value: float) -> float:
    """Clamp a measured density into LayerSpec's (0, 1] domain."""
    return min(max(float(value), 1e-6), 1.0)


def _model_storage_point(ctx: ExperimentContext, point: dict) -> dict:
    model = _build_model(ctx, str(point["model"]))
    compressed = _model_session(ctx).compress_model(model, ctx.base_config.num_pes)
    report = compressed.storage_report()
    return {
        "nodes": report["num_nodes"],
        "unique_layers": report["num_unique_layers"],
        "parameters": model.num_parameters,
        "dense_kib": report["dense_bits"] / 8192.0,
        "compressed_kib": report["compressed_bits"] / 8192.0,
        "compression_ratio": report["compression_ratio"],
        "huffman_compression_ratio": report["huffman_compression_ratio"],
        "weight_density": report["weight_density"],
    }


def _render_model_storage(result: ExperimentResult) -> str:
    return "Whole-model Deep Compression storage:\n" + format_table(
        ["Model", "Nodes", "Params", "Dense KiB", "Compressed KiB", "Ratio",
         "Huffman ratio", "Weight%"],
        [
            [r["model"], r["nodes"], r["parameters"], r["dense_kib"],
             r["compressed_kib"], r["compression_ratio"],
             r["huffman_compression_ratio"], r["weight_density"]]
            for r in result.records
        ],
    )


def _model_speedup_point(ctx: ExperimentContext, point: dict) -> dict:
    model = _build_model(ctx, str(point["model"]))
    batch = int(ctx.params["batch"])
    inputs = synthetic_model_inputs(
        model, batch=batch, seed=int(ctx.params.get("input_seed", 1))
    )
    run = _model_session(ctx).run_model(ctx.engine_name, model, inputs, ctx.base_config)

    cpu = RooflinePlatform(CPU_CORE_I7_5930K)
    cpu_time_s = 0.0
    for node_run in run.nodes:
        node_spec = LayerSpec(
            name=node_run.name,
            input_size=node_run.layer.cols,
            output_size=node_run.layer.rows,
            weight_density=_clamped_density(node_run.layer.weight_density),
            activation_density=_clamped_density(node_run.input_density),
        )
        cpu_time_s += cpu.dense_time_s(node_spec, batch=batch)
    eie_per_frame_s = run.latency_s / batch
    return {
        "nodes": len(run.nodes),
        "total_cycles": run.total_cycles,
        "latency_us_per_frame": eie_per_frame_s * 1e6,
        "energy_uj_per_frame": run.energy_j / batch * 1e6,
        "cpu_dense_us_per_frame": cpu_time_s * 1e6,
        "speedup_vs_cpu_dense": cpu_time_s / eie_per_frame_s if eie_per_frame_s else 0.0,
        "mean_activation_density": float(
            np.mean([node_run.input_density for node_run in run.nodes])
        ),
    }


def _render_model_speedup(result: ExperimentResult) -> str:
    return "Whole-model EIE latency/energy vs CPU dense:\n" + format_table(
        ["Model", "Nodes", "Cycles", "Latency (us)", "Energy (uJ)",
         "CPU dense (us)", "Speedup", "Act% (mean)"],
        [
            [r["model"], r["nodes"], r["total_cycles"], r["latency_us_per_frame"],
             r["energy_uj_per_frame"], r["cpu_dense_us_per_frame"],
             r["speedup_vs_cpu_dense"], r["mean_activation_density"]]
            for r in result.records
        ],
    )


MODEL_EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        name="model_storage",
        description="Whole-model Deep Compression storage and compression ratios",
        spec=ExperimentSpec(
            experiment="model_storage",
            grid={"model": DEFAULT_MODEL_GRID},
            params={"scale": None, "seed": None},
        ),
        run_point=_model_storage_point,
        render=_render_model_storage,
        uses_workloads=False,
    ),
    Experiment(
        name="model_speedup",
        description="Whole-model latency/energy with measured activation sparsity vs CPU dense",
        spec=ExperimentSpec(
            experiment="model_speedup",
            grid={"model": DEFAULT_MODEL_GRID},
            params={"batch": 1, "scale": None, "seed": None, "input_seed": 1},
        ),
        run_point=_model_speedup_point,
        render=_render_model_speedup,
        uses_workloads=False,
    ),
)

for _experiment in MODEL_EXPERIMENTS:
    register_experiment(_experiment)
