"""What the traced run wraps, and the per-layer metrics it reports.

:data:`TARGETS` names the library functions the traced run times, by layer.
:data:`PER_LAYER` lists every per-layer metric with its unit, the direction
that is better, the end-to-end metric it should move and the workloads that
exercise it.  A workload reports 0 for a metric of a layer it does not use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from e2e_bench.tracer import Target, Tracer

__all__ = ["PER_LAYER", "SHARE_SPAN", "TARGETS", "LayerMetric", "span_shares"]

PAPER_SWEEP = "paper_sweep"
OFFLINE_MODELS = "offline_models"
SERVE_TCP = "serve_tcp"

#: Nodes of the served neuraltalk_lstm model (per-gate lowering).
SERVED_NODES = ("gate_input", "gate_forget", "gate_output", "gate_cell")


def _cycle_entries(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("engine.cycle.entries", sum(stats.entries_processed for stats in result.cycles))


def _functional_entries(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count(
        "engine.functional.entries",
        sum(item.total_entries_processed for item in result.functional),
    )


def _bytes_written(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    if result is not None:
        tracer.count("store.bytes_written", result.stat().st_size)


def _experiment_points(tracer: Tracer, args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("experiments.points", result.metadata["points"])


def _node_name(args: tuple, kwargs: dict) -> str:
    # Session.run_node(self, engine_name, node, layer, inputs, config)
    node = args[2] if len(args) > 2 else kwargs["node"]
    return node.name


TARGETS: tuple[Target, ...] = (
    Target(
        "repro.workloads.synthetic", "generate_sparse_pattern", "workloads.pattern",
        expected=(PAPER_SWEEP,),
    ),
    Target(
        "repro.compression.csc", "interleaved_entry_counts", "compression.entry_counts",
        expected=(PAPER_SWEEP,),
    ),
    Target(
        "repro.compression.quantization", "WeightCodebook.fit", "compression.kmeans",
        expected=(OFFLINE_MODELS,),
    ),
    Target(
        "repro.compression.quantization", "WeightCodebook.quantize", "compression.quantize",
        expected=(OFFLINE_MODELS,),
    ),
    Target(
        "repro.compression.csc", "InterleavedCSC.from_dense", "compression.encode",
        expected=(OFFLINE_MODELS,),
    ),
    Target(
        "repro.compression.pipeline", "CompressedLayer.huffman_storage_bits",
        "compression.huffman", expected=(OFFLINE_MODELS,),
    ),
    Target(
        "repro.store.artifacts", "ArtifactStore.store_layer", "store.write",
        after=_bytes_written, expected=(OFFLINE_MODELS,),
    ),
    Target(
        "repro.store.artifacts", "ArtifactStore.store_json", "store.write",
        after=_bytes_written,
    ),
    Target(
        "repro.store.artifacts", "ArtifactStore.load_layer_by_key", "store.load",
        expected=(SERVE_TCP,),
    ),
    Target("repro.store.artifacts", "ArtifactStore.load_json", "store.load"),
    Target(
        "repro.core.cycle_model", "simulate_layer_cycles", "engine.cycle.simulate",
        expected=(PAPER_SWEEP,),
    ),
    Target("repro.core.cycle_model", "simulate_layer_cycles_batch", "engine.cycle.simulate"),
    Target(
        "repro.engine.adapters", "CycleEngine.prepare", "engine.cycle.prepare",
        expected=(PAPER_SWEEP, OFFLINE_MODELS, SERVE_TCP),
    ),
    Target(
        "repro.engine.adapters", "CycleEngine.run", "engine.cycle.run",
        after=_cycle_entries, expected=(PAPER_SWEEP, OFFLINE_MODELS, SERVE_TCP),
    ),
    Target(
        "repro.engine.adapters", "FunctionalEngine.prepare", "engine.functional.prepare",
        expected=(OFFLINE_MODELS,),
    ),
    Target(
        "repro.engine.adapters", "FunctionalEngine.run", "engine.functional.run",
        after=_functional_entries, expected=(OFFLINE_MODELS,),
    ),
    Target(
        "repro.engine.session", "Session.run_node", "session.run_node",
        suffix=_node_name, expected=(OFFLINE_MODELS, SERVE_TCP),
    ),
    Target(
        "repro.experiments.runner", "ExperimentRunner.run", "experiments.run",
        after=_experiment_points, expected=(PAPER_SWEEP,),
    ),
)


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str
    workloads: tuple[str, ...]


def _metric(name: str, unit: str, better: str, moves: str, *workloads: str) -> LayerMetric:
    return LayerMetric(name, unit, better, moves, workloads)


_PS, _OM, _ST = PAPER_SWEEP, OFFLINE_MODELS, SERVE_TCP

#: Times and counts are per operation: a sweep pass on paper_sweep, one
#: compress-and-run of the model set on offline_models, one served request
#: on serve_tcp (milliseconds there are per request or per dispatch).
PER_LAYER: tuple[LayerMetric, ...] = (
    _metric("workloads.pattern_s", "s", "lower", "op_s", _PS),
    _metric("workloads.patterns", "count", "lower", "op_s", _PS),
    _metric("compression.entry_counts_s", "s", "lower", "op_s", _PS),
    _metric("compression.entry_counts_calls", "count", "lower", "op_s", _PS),
    _metric("compression.kmeans_s", "s", "lower", "op_s", _OM),
    _metric("compression.quantize_s", "s", "lower", "op_s", _OM),
    _metric("compression.encode_s", "s", "lower", "op_s", _OM),
    _metric("compression.huffman_s", "s", "lower", "op_s", _OM),
    _metric("store.write_s", "s", "lower", "op_s", _OM),
    _metric("store.bytes_written", "bytes", "lower", "op_s", _OM),
    _metric("store.load_s", "s", "lower", "setup_s", _ST),
    _metric("engine.cycle.simulate_s", "s", "lower", "op_s", _PS),
    _metric("engine.cycle.entries", "count", "lower", "op_s", _PS, _OM),
    _metric("engine.cycle.prepare_s", "s", "lower", "rate_per_s", _OM, _ST),
    _metric("engine.cycle.run_s", "s", "lower", "rate_per_s", _OM, _ST),
    _metric("engine.functional.prepare_s", "s", "lower", "op2_s", _OM),
    _metric("engine.functional.run_s", "s", "lower", "op2_s", _OM),
    _metric("engine.functional.entries", "count", "lower", "op2_s", _OM),
    _metric("engine.functional.ns_per_entry", "ns", "lower", "op2_s", _OM),
    _metric("session.propagate_s", "s", "lower", "rate_per_s", _OM, _ST),
    _metric("experiments.points", "count", "higher", "op_s", _PS),
    _metric("experiments.self_s", "s", "lower", "op_s", _PS),
    _metric("models.build_s", "s", "lower", "setup_s", _OM),
    _metric("serve.queue_wait_ms", "ms", "lower", "op_s", _ST),
    _metric("serve.dispatch_ms", "ms", "lower", "op_s", _ST),
    _metric("serve.wire_ms", "ms", "lower", "rate_per_s", _ST),
    _metric("serve.batch_mean_open", "count", "higher", "op_s", _ST),
    _metric("serve.batch_mean_closed", "count", "higher", "rate_per_s", _ST),
    *(
        _metric(f"serve.node_engine_ms.{node}", "ms", "lower", "rate_per_s", _ST)
        for node in SERVED_NODES
    ),
    _metric("serve.p99_ms", "ms", "lower", "none", _ST),
    _metric("serve.generator_lag_ms", "ms", "lower", "none", _ST),
    _metric("serve.rejected", "count", "lower", "none", _ST),
    _metric("serve.timeouts", "count", "lower", "none", _ST),
    _metric("trace.overhead", "ratio", "lower", "none", _PS, _OM, _ST),
    _metric("trace.coverage", "ratio", "higher", "none", _PS, _OM, _ST),
)


#: Per-layer time metric -> the span whose self-time share is printed beside it.
SHARE_SPAN = {
    "workloads.pattern_s": "workloads.pattern",
    "compression.entry_counts_s": "compression.entry_counts",
    "compression.kmeans_s": "compression.kmeans",
    "compression.quantize_s": "compression.quantize",
    "compression.encode_s": "compression.encode",
    "compression.huffman_s": "compression.huffman",
    "store.write_s": "store.write",
    "store.load_s": "store.load",
    "engine.cycle.simulate_s": "engine.cycle.simulate",
    "engine.cycle.prepare_s": "engine.cycle.prepare",
    "engine.cycle.run_s": "engine.cycle.run",
    "engine.functional.prepare_s": "engine.functional.prepare",
    "engine.functional.run_s": "engine.functional.run",
    "session.propagate_s": "session.run_node",
    "experiments.self_s": "experiments.run",
}


def span_shares(tracer: Tracer, denominator_s: float) -> list[tuple[str, float, float]]:
    """``(span, self seconds, share of denominator)``, largest first."""
    rows = [
        (name, entry[2], entry[2] / denominator_s if denominator_s > 0 else 0.0)
        for name, entry in tracer.spans.items()
    ]
    return sorted(rows, key=lambda row: -row[1])
