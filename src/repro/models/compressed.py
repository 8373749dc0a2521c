"""Whole-model results: compressed models and model run records.

:class:`CompressedModel` is what :meth:`Session.compress_model
<repro.engine.session.Session.compress_model>` returns — one
:class:`~repro.compression.pipeline.CompressedLayer` per IR node (deduplicated
through the session's fingerprint-keyed layer cache) plus aggregate storage
accounting.  :class:`ModelRunResult` is what :meth:`Session.run_model
<repro.engine.session.Session.run_model>` returns — the per-node
:class:`~repro.engine.base.EngineResult` records, the propagated activation
values whose measured sparsity fed each node's broadcast set, and
whole-network latency/energy totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.compression.pipeline import CompressedLayer
from repro.core.cycle_model import CycleStats
from repro.engine.base import EngineResult
from repro.errors import SimulationError
from repro.hardware.area import chip_energy_j
from repro.models.ir import ModelIR

__all__ = ["CompressedModel", "NodeRun", "ModelRunResult"]


@dataclass
class CompressedModel:
    """A model IR after per-node Deep Compression.

    Attributes:
        model: the source IR (wiring, activations, dense reference).
        num_pes: PE count every node is interleaved over.
        layers: one compressed layer per node, keyed by node name, in node
            order.  Nodes with identical weight matrices share the *same*
            :class:`CompressedLayer` object (session-level deduplication via
            ``weights_fingerprint``).
    """

    model: ModelIR
    num_pes: int
    layers: dict[str, CompressedLayer]

    def __post_init__(self) -> None:
        missing = [node.name for node in self.model if node.name not in self.layers]
        if missing:
            raise SimulationError(f"compressed model is missing layers for nodes: {missing}")

    @property
    def name(self) -> str:
        """The source model's name."""
        return self.model.name

    def layer(self, node_name: str) -> CompressedLayer:
        """The compressed layer of one node."""
        return self.layers[node_name]

    def __iter__(self):
        for node in self.model:
            yield node, self.layers[node.name]

    def storage_report(self) -> dict[str, Any]:
        """Aggregate storage/compression statistics plus per-node reports.

        Shared layers (deduplicated weights) are counted once in the
        aggregate, the way deployed weights would be stored.
        """
        per_node: list[dict[str, Any]] = []
        seen: set[int] = set()
        dense_bits = 0.0
        compressed_bits = 0.0
        huffman_bits = 0.0
        true_nonzeros = 0
        dense_weights = 0
        for node, layer in self:
            report = layer.storage_report()
            per_node.append({"node": node.name, "shared": id(layer) in seen, **report})
            if id(layer) in seen:
                continue
            seen.add(id(layer))
            dense_bits += report["dense_bits"]
            compressed_bits += report["compressed_bits"]
            huffman_bits += report["huffman_bits"]
            true_nonzeros += layer.num_nonzero_weights
            dense_weights += layer.dense_weight_count
        return {
            "model": self.model.name,
            "num_nodes": self.model.num_nodes,
            "num_unique_layers": len(seen),
            "dense_bits": dense_bits,
            "compressed_bits": compressed_bits,
            "huffman_bits": huffman_bits,
            "compression_ratio": dense_bits / compressed_bits if compressed_bits else float("inf"),
            "huffman_compression_ratio": dense_bits / huffman_bits if huffman_bits else float("inf"),
            "weight_density": true_nonzeros / dense_weights if dense_weights else 0.0,
            "per_node": per_node,
        }


@dataclass
class NodeRun:
    """One node's execution record inside a model run.

    Attributes:
        name: node name.
        layer: the compressed layer the node ran as.
        result: the engine's per-node result (cycles, outputs, counters).
        input_density: measured density of the activation batch fed to the
            node — the whole-model analogue of Table III's Act% column.
        output_density: measured density of the node's propagated outputs
            (what downstream nodes receive).
    """

    name: str
    layer: CompressedLayer
    result: EngineResult
    input_density: float
    output_density: float

    @property
    def stats(self) -> CycleStats:
        """First (or only) cycle-statistics record; errors for value engines."""
        return self.result.stats

    @property
    def total_cycles(self) -> int | None:
        """Cycles summed over the batch, or ``None`` for value-only engines."""
        if not self.result.cycles:
            return None
        return int(sum(stats.total_cycles for stats in self.result.cycles))

    @property
    def latency_s(self) -> float | None:
        """Wall-clock seconds summed over the batch, or ``None``."""
        if not self.result.cycles:
            return None
        return float(sum(stats.time_s for stats in self.result.cycles))


@dataclass
class ModelRunResult:
    """Outcome of running one input batch through a whole model.

    Attributes:
        model_name: name of the executed model.
        engine: registry name of the engine every node ran on.
        num_pes: PE count of the configuration.
        batch_size: number of input vectors executed.
        batched: whether the caller passed a matrix or a single vector.
        nodes: per-node execution records, in node order.
        node_outputs: propagated ``(batch, rows)`` activation values per
            node.  Propagation always uses the *compressed* layer's decoded
            weights plus the node's bias and non-linearity, so the measured
            inter-layer sparsity — and therefore every node's broadcast set
            and timing — is identical on every engine (and matches the
            functional engine's float output for bias-free nodes up to
            float summation order).
        outputs: the last node's propagated outputs (the network output).
    """

    model_name: str
    engine: str
    num_pes: int
    batch_size: int
    batched: bool
    nodes: tuple[NodeRun, ...]
    node_outputs: dict[str, np.ndarray] = field(default_factory=dict)
    outputs: np.ndarray | None = None

    def node(self, name: str) -> NodeRun:
        """Look up one node's run record."""
        for record in self.nodes:
            if record.name == name:
                return record
        raise SimulationError(f"model run has no node {name!r}")

    @property
    def output(self) -> np.ndarray:
        """The first (or only) network output vector."""
        if self.outputs is None:
            raise SimulationError("model run recorded no outputs")
        return self.outputs[0]

    # -- whole-network totals -----------------------------------------------------

    @property
    def has_timing(self) -> bool:
        """Whether every node produced cycle statistics."""
        return all(record.result.cycles for record in self.nodes)

    @property
    def total_cycles(self) -> int:
        """Cycles summed over all nodes and batch items."""
        self._require_timing()
        return int(sum(record.total_cycles for record in self.nodes))

    @property
    def latency_s(self) -> float:
        """Whole-network wall-clock seconds summed over the batch.

        Nodes execute sequentially (each consumes the previous node's
        outputs), so one item's network latency is the sum of its per-node
        latencies and the batch total is the sum over items.
        """
        self._require_timing()
        return float(sum(record.latency_s for record in self.nodes))

    @property
    def per_item_latency_s(self) -> np.ndarray:
        """Per-batch-item network latency in seconds (summed over nodes)."""
        self._require_timing()
        totals = np.zeros(self.batch_size, dtype=np.float64)
        for record in self.nodes:
            totals += np.asarray([stats.time_s for stats in record.result.cycles])
        return totals

    @property
    def energy_j(self) -> float:
        """Batch energy in joules: latency times the chip power for ``num_pes``."""
        return chip_energy_j(self.num_pes, self.latency_s)

    def _require_timing(self) -> None:
        if not self.has_timing:
            raise SimulationError(
                f"engine {self.engine!r} does not model timing; "
                "run the model on the 'cycle' engine for latency/energy totals"
            )

    def summary(self) -> dict[str, Any]:
        """A JSON-friendly whole-run summary (CLI/report payload)."""
        record: dict[str, Any] = {
            "model": self.model_name,
            "engine": self.engine,
            "num_pes": self.num_pes,
            "batch_size": self.batch_size,
            "nodes": [
                {
                    "node": node.name,
                    "shape": [node.layer.rows, node.layer.cols],
                    "weight_density": node.layer.weight_density,
                    "input_density": node.input_density,
                    "output_density": node.output_density,
                    "total_cycles": node.total_cycles,
                    "latency_us": None if node.latency_s is None else node.latency_s * 1e6,
                }
                for node in self.nodes
            ],
        }
        if self.has_timing:
            record["total_cycles"] = self.total_cycles
            record["latency_us"] = self.latency_s * 1e6
            record["energy_uj"] = self.energy_j * 1e6
        return record


def measured_density(values: np.ndarray) -> float:
    """Fraction of non-zero entries of a batch (the measured Act%)."""
    values = np.asarray(values)
    if values.size == 0:
        return 0.0
    return float(np.count_nonzero(values)) / values.size
