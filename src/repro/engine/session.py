"""Sessions: shared compression and preparation caches over the engine seam.

A :class:`Session` is the stateful companion of the stateless engine
registry.  It owns four keyed caches:

* **compressed layers** — keyed by the weight matrix's content fingerprint
  plus the compression parameters, PE count, name and non-linearity, so a
  design-space sweep that revisits the same dense matrix (across FIFO
  depths, clocks or repeated figure scripts) compresses it exactly once;
* **prepared layers** — keyed by the layer's identity and the engine's
  ``prepare_token()``, so e.g. the cycle engine's per-(PE, column) work
  matrices are extracted once per layer and shared by every configuration
  point with the same PE count;
* **engine instances** — keyed by ``(engine name, configuration)``;
* **compressed models** — whole :class:`~repro.models.ir.ModelIR` graphs
  keyed by model fingerprint, PE count and compression parameters, so a
  two-model sweep compresses each network (and, through the layer cache,
  each distinct weight matrix) exactly once.

Typical use::

    session = Session(CompressionConfig(target_density=0.1))
    layer = session.compress(weights, num_pes=64, name="fc6")
    result = session.run("cycle", layer, activation_batch, config=EIEConfig())

Whole networks flow through the same caches::

    model = build_model("neuraltalk_lstm")
    compressed = session.compress_model(model, num_pes=64)
    run = session.run_model("cycle", model, inputs)      # latency/energy totals

``Session.run`` is a convenience wrapping ``engine -> prepare -> run``; the
individual steps remain available for callers that manage sweep loops
themselves.  ``Session.run_model`` executes every node of a model in order,
propagating the *measured* activation values (decoded weights + bias +
non-linearity) from node to node, so each node's broadcast set carries the
real inter-layer sparsity — the whole-network analogue of Table III's Act%
column — identically on every engine.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import replace
from typing import Any

import numpy as np

from repro.compression.pipeline import (
    CompressedLayer,
    CompressionConfig,
    DeepCompressor,
    weights_fingerprint,
)
from repro.core.config import EIEConfig
from repro.engine.base import EngineResult, PreparedLayer, SimulationEngine
from repro.engine.registry import EngineRegistry
from repro.errors import ConfigurationError
from repro.nn.layers import ACTIVATIONS
from repro.utils.validation import require_matrix

__all__ = ["Session"]


def _propagate_rows(
    inputs: np.ndarray, weights_t: np.ndarray, bias: np.ndarray | None, activation: str
) -> np.ndarray:
    """Node propagation computed one row at a time.

    A batched ``inputs @ weights_t`` goes through BLAS dgemm, whose blocked
    summation order differs from the dgemv call a single vector takes — the
    results agree only to ~1 ulp, not bitwise.  Serving coalesces concurrent
    single-vector requests into batches and promises each client the exact
    bits an offline batch-1 ``run_model`` would have produced, so both paths
    must reduce in the same order.  Row slices of a C-contiguous matrix are
    contiguous vectors, so every row here is the same dgemv a batch-1 call
    makes, and batch composition can never change an individual answer.
    """
    pre = np.stack([row @ weights_t for row in np.ascontiguousarray(inputs)])
    if bias is not None:
        pre = pre + bias
    return ACTIVATIONS[activation](pre)


class Session:
    """Shared caches for compressing, preparing and running layers.

    Each cache is a bounded LRU (least recently *used*, not inserted):
    compressed layers and the per-layer prepared state can pin substantial
    memory (entry listings, work matrices), so a long-lived session sweeping
    many distinct layers evicts the coldest entries instead of growing forever.
    Eviction is always safe — it only drops the cache's own reference; a
    subsequent request recompresses/re-prepares.

    Args:
        compression: Deep Compression parameters used by :meth:`compress`.
        config: default accelerator configuration for engine/prepare/run
            calls that do not pass one explicitly.
        registry: the engine registry to resolve backend names against
            (the global :class:`EngineRegistry` by default; injectable for
            tests and custom registries).
        max_layers: compressed layers kept (LRU-evicted beyond this).
        max_prepared: prepared layers kept across all engines.
        max_engines: engine instances kept across all configurations.
        max_models: compressed whole models kept (their per-node layers are
            also pinned by the layer cache while hot).
        store: optional :class:`~repro.store.artifacts.ArtifactStore`; when
            set, :meth:`compress` consults it between the in-process LRU and
            a fresh compression, and publishes every fresh result — so a
            layer is compressed once per machine, not once per process.
    """

    def __init__(
        self,
        compression: CompressionConfig | None = None,
        config: EIEConfig | None = None,
        registry: type[EngineRegistry] = EngineRegistry,
        max_layers: int = 128,
        max_prepared: int = 512,
        max_engines: int = 64,
        max_models: int = 32,
        store: Any | None = None,
    ) -> None:
        if min(max_layers, max_prepared, max_engines, max_models) < 1:
            raise ConfigurationError("session cache bounds must be >= 1")
        self.compressor = DeepCompressor(compression or CompressionConfig())
        self.default_config = config or EIEConfig()
        self.registry = registry
        self.store = store
        self._layer_cache: OrderedDict[tuple, CompressedLayer] = OrderedDict()
        self._prepared_cache: OrderedDict[tuple, PreparedLayer] = OrderedDict()
        self._engine_cache: OrderedDict[tuple, SimulationEngine] = OrderedDict()
        self._model_cache: OrderedDict[tuple, Any] = OrderedDict()
        self._bounds = {
            "layers": max_layers,
            "prepared": max_prepared,
            "engines": max_engines,
            "models": max_models,
        }
        self._hits = {"layers": 0, "prepared": 0, "engines": 0, "models": 0}
        # Guards the LRU bookkeeping (get + move_to_end, put + evict): the
        # experiment runner shares one session across worker threads.
        self._lock = threading.RLock()

    def _cache_get(self, which: str, cache: OrderedDict, key: tuple) -> Any:
        with self._lock:
            value = cache.get(key)
            if value is not None:
                cache.move_to_end(key)
                self._hits[which] += 1
            return value

    def _cache_put(self, which: str, cache: OrderedDict, key: tuple, value: Any) -> None:
        with self._lock:
            cache[key] = value
            while len(cache) > self._bounds[which]:
                cache.popitem(last=False)

    # -- compression -------------------------------------------------------------

    def compress(
        self,
        weights: np.ndarray,
        num_pes: int,
        name: str = "layer",
        activation_name: str = "relu",
    ) -> CompressedLayer:
        """Compress ``weights`` for ``num_pes`` PEs, reusing any cached result.

        The cache key is the content fingerprint of the weights together with
        every parameter that shapes the compressed form, so a hit is exact:
        the same :class:`CompressedLayer` object is returned.  With an
        attached artifact store, an LRU miss first tries the on-disk entry
        for the same fingerprint/config/PE triple (a load instead of a
        compression), and every fresh compression is published back.
        """
        weights = require_matrix("weights", weights)
        return self._compress(
            weights, weights_fingerprint(weights), num_pes, name, activation_name
        )

    def _compress(
        self, weights: np.ndarray, fingerprint: str, num_pes: int, name: str,
        activation_name: str,
    ) -> CompressedLayer:
        """:meth:`compress` for weights whose ``fingerprint`` is already known."""
        key = (fingerprint, int(num_pes), name, activation_name, self.compressor.config)
        cached = self._cache_get("layers", self._layer_cache, key)
        if cached is not None:
            return cached
        layer = None
        if self.store is not None:
            layer = self.store.load_layer(
                fingerprint,
                int(num_pes),
                self.compressor.config,
                name=name,
                activation_name=activation_name,
            )
        if layer is None:
            layer = self.compressor.compress(
                weights, num_pes=int(num_pes), name=name, activation_name=activation_name
            )
            if self.store is not None:
                self.store.store_layer(
                    fingerprint, int(num_pes), self.compressor.config, layer
                )
        self._cache_put("layers", self._layer_cache, key, layer)
        return layer

    # -- engines and preparation ---------------------------------------------------

    def engine(self, name: str, config: EIEConfig | None = None) -> SimulationEngine:
        """A (cached) engine instance for ``name`` and ``config``."""
        config = config or self.default_config
        key = (name, config)
        cached = self._cache_get("engines", self._engine_cache, key)
        if cached is not None:
            return cached
        engine = self.registry.create(name, config)
        self._cache_put("engines", self._engine_cache, key, engine)
        return engine

    def prepare(
        self, name: str, layer: Any, config: EIEConfig | None = None
    ) -> PreparedLayer:
        """Prepare ``layer`` for engine ``name``, reusing compatible results.

        Prepared layers are shared between configurations whose
        ``prepare_token()`` matches — e.g. one ``"cycle"`` preparation serves
        every FIFO depth and clock at the same PE count.
        """
        engine = self.engine(name, config)
        # Keying on id() is safe because the cached PreparedLayer holds a
        # strong reference to the layer (payload/source), so the id cannot
        # be recycled while the entry is alive.
        key = (id(layer), engine.prepare_token())
        cached = self._cache_get("prepared", self._prepared_cache, key)
        if cached is not None:
            return cached
        prepared = engine.prepare(layer)
        self._cache_put("prepared", self._prepared_cache, key, prepared)
        return prepared

    def run(
        self,
        name: str,
        layer: Any,
        activations: np.ndarray | None = None,
        config: EIEConfig | None = None,
    ) -> EngineResult:
        """Convenience: resolve the engine, prepare ``layer`` (cached), run."""
        engine = self.engine(name, config)
        prepared = self.prepare(name, layer, config)
        return engine.run(prepared, activations)

    # -- whole-model operations ------------------------------------------------------

    def compress_model(self, model: Any, num_pes: int) -> Any:
        """Compress every node of a :class:`~repro.models.ir.ModelIR`.

        Returns a :class:`~repro.models.compressed.CompressedModel`.  Nodes
        whose weight matrices have the same content fingerprint (and the same
        non-linearity) share one :class:`CompressedLayer` object, and the
        whole result is cached by ``(model fingerprint, PE count, compression
        parameters)`` so repeated sweeps over the same network compress it
        once.
        """
        # Imported lazily: repro.models sits above the engine layer.
        from repro.models.compressed import CompressedModel
        from repro.models.ir import ModelIR

        if not isinstance(model, ModelIR):
            raise ConfigurationError(
                f"compress_model expects a ModelIR, got {type(model).__name__}"
            )
        if num_pes < 1:
            raise ConfigurationError(f"num_pes must be >= 1, got {num_pes}")
        key = (model.fingerprint(), int(num_pes), self.compressor.config)
        cached = self._cache_get("models", self._model_cache, key)
        if cached is not None:
            return cached
        layers = self._load_model_manifest(model, int(num_pes))
        if layers is None:
            layers = {}
            by_content: dict[tuple[str, str], CompressedLayer] = {}
            layer_keys: dict[str, str] = {}
            for node in model:
                fingerprint = weights_fingerprint(node.weight)
                content = (fingerprint, node.activation)
                layer = by_content.get(content)
                if layer is None:
                    layer = self._compress(
                        node.weight, fingerprint, int(num_pes),
                        f"{model.name}/{node.name}", node.activation,
                    )
                    by_content[content] = layer
                layers[node.name] = layer
                if self.store is not None:
                    layer_keys[node.name] = self.store.layer_key(
                        fingerprint, int(num_pes), self.compressor.config
                    )
            self._store_model_manifest(model, int(num_pes), layer_keys)
        compressed = CompressedModel(model=model, num_pes=int(num_pes), layers=layers)
        self._cache_put("models", self._model_cache, key, compressed)
        return compressed

    def _model_manifest_key(self, model: Any, num_pes: int) -> str:
        from repro.store.artifacts import ArtifactStore

        return ArtifactStore.content_key(
            {
                "artifact": "compressed-model",
                "model": model.fingerprint(),
                "num_pes": int(num_pes),
                "compression": self.compressor.config.to_dict(),
            }
        )

    def _load_model_manifest(self, model: Any, num_pes: int) -> dict | None:
        """Rebuild a whole compressed model from its store manifest, if present.

        A manifest hit skips per-node fingerprinting entirely: the manifest
        records each node's compressed-layer content key, so a warm
        ``compress_model`` is one JSON load plus one layer load per distinct
        weight matrix.  Any missing or corrupt layer entry falls back to the
        full compress path (which republishes both the layers and the
        manifest).
        """
        if self.store is None:
            return None
        manifest = self.store.load_json("models", self._model_manifest_key(model, num_pes))
        if manifest is None:
            return None
        layers: dict[str, Any] = {}
        by_key: dict[str, Any] = {}
        for node in model:
            entry = manifest.get("nodes", {}).get(node.name)
            if not isinstance(entry, str):
                return None
            layer = by_key.get(entry)
            if layer is None:
                layer = self.store.load_layer_by_key(
                    entry,
                    name=f"{model.name}/{node.name}",
                    activation_name=node.activation,
                )
                if layer is None:
                    return None
                by_key[entry] = layer
            layers[node.name] = layer
        return layers

    def _store_model_manifest(
        self, model: Any, num_pes: int, layer_keys: dict[str, str]
    ) -> None:
        if self.store is None or len(layer_keys) == 0:
            return
        self.store.store_json(
            "models",
            self._model_manifest_key(model, num_pes),
            {
                "model": model.name,
                "fingerprint": model.fingerprint(),
                "num_pes": int(num_pes),
                "nodes": dict(layer_keys),
            },
        )

    def run_node(
        self,
        name: str,
        node: Any,
        layer: Any,
        inputs: np.ndarray,
        config: EIEConfig | None = None,
        result: EngineResult | None = None,
    ) -> tuple[Any, np.ndarray]:
        """Run one model node on engine ``name`` and propagate its outputs.

        ``inputs`` is the node's ``(batch, fan_in)`` activation matrix (as
        produced by :meth:`ModelIR.node_input`).  ``result`` is the node's
        engine result when :meth:`run_model` already ran it with its
        siblings; otherwise the node runs here.  Returns ``(NodeRun,
        outputs)`` where ``outputs`` are the measured activations the
        downstream nodes consume.  :meth:`run_model` dispatches every node
        through this method.
        """
        from repro.models.compressed import NodeRun, measured_density

        if result is None:
            result = self.run(name, layer, inputs, config)
        outputs = _propagate_rows(
            inputs, layer.dense_weights().T, node.bias, node.activation
        )
        record = NodeRun(
            name=node.name,
            layer=layer,
            result=result,
            input_density=measured_density(inputs),
            output_density=measured_density(outputs),
        )
        return record, outputs

    def run_model(
        self,
        name: str,
        model: Any,
        activations: np.ndarray,
        config: EIEConfig | None = None,
    ) -> Any:
        """Run a whole model through engine ``name``, node by node.

        ``model`` is a :class:`~repro.models.ir.ModelIR` (compressed through
        the session caches) or an existing
        :class:`~repro.models.compressed.CompressedModel`; ``activations`` is
        one input vector or a ``(batch, input_size)`` matrix.

        Every node executes on the engine with the *measured* activation
        values of its input — the model input for root nodes, the propagated
        outputs of the source node otherwise.  Propagation always uses the
        compressed layer's decoded weights plus the node's bias and
        non-linearity, so the inter-layer sparsity each broadcast set sees is
        identical on every engine, and each node's engine result is exactly
        the layer-at-a-time ``Session.run`` call with the same inputs.  On an
        engine that ``runs_siblings`` (``"cycle"``), nodes with the same
        ``source`` and ``input_slice`` read one input and run as one group,
        with a single engine call, when the first of them is reached.

        Returns a :class:`~repro.models.compressed.ModelRunResult` with
        per-node engine results and, for timing engines, whole-network
        latency/energy totals.
        """
        from repro.models.compressed import CompressedModel, ModelRunResult
        from repro.models.ir import ModelIR

        config = config or self.default_config
        if isinstance(model, CompressedModel):
            if model.num_pes != config.num_pes:
                raise ConfigurationError(
                    f"model is compressed for {model.num_pes} PEs but the "
                    f"configuration has {config.num_pes}"
                )
            compressed = model
        elif isinstance(model, ModelIR):
            compressed = self.compress_model(model, config.num_pes)
        else:
            raise ConfigurationError(
                f"run_model expects a ModelIR or CompressedModel, "
                f"got {type(model).__name__}"
            )
        ir = compressed.model
        activations = np.asarray(activations, dtype=np.float64)
        if activations.ndim == 1:
            matrix, batched = activations[np.newaxis, :], False
        elif activations.ndim == 2:
            matrix, batched = activations, True
        else:
            raise ConfigurationError(
                f"model input must be a vector or (batch, n_in) matrix, "
                f"got shape {activations.shape}"
            )
        if matrix.shape[1] != ir.input_size:
            raise ConfigurationError(
                f"input length {matrix.shape[1]} does not match model "
                f"input size {ir.input_size}"
            )
        if matrix.shape[0] == 0:
            raise ConfigurationError("model input batch must contain at least one vector")

        siblings: dict[tuple, list] = {}
        if self.engine(name, config).runs_siblings:
            for node in ir:
                siblings.setdefault((node.source, node.input_slice), []).append(node)
        node_outputs: dict[str, np.ndarray] = {}
        fused: dict[str, EngineResult] = {}
        records = []
        for node in ir:
            layer = compressed.layers[node.name]
            inputs = ir.node_input(node, matrix, node_outputs)
            group = siblings.get((node.source, node.input_slice), ())
            if group and node.name not in fused:
                fused.update(self._run_siblings(name, group, compressed, inputs, config))
            record, outputs = self.run_node(
                name, node, layer, inputs, config, fused.pop(node.name, None)
            )
            node_outputs[node.name] = outputs
            records.append(record)
        return ModelRunResult(
            model_name=ir.name,
            engine=name,
            num_pes=config.num_pes,
            batch_size=matrix.shape[0],
            batched=batched,
            nodes=tuple(records),
            node_outputs=node_outputs,
            outputs=node_outputs[ir.nodes[-1].name],
        )

    def _run_siblings(
        self, name: str, nodes: list, compressed: Any, inputs: np.ndarray, config: EIEConfig
    ) -> dict[str, EngineResult]:
        """One engine call for ``nodes``, which all read ``inputs``.

        The fused result holds ``batch_size`` cycle records per node, node
        by node; each node gets its own slice.
        """
        prepared = tuple(self.prepare(name, compressed.layers[n.name], config) for n in nodes)
        fused = self.engine(name, config).run(prepared, inputs)
        size = fused.batch_size
        return {
            node.name: replace(fused, cycles=fused.cycles[index * size : (index + 1) * size])
            for index, node in enumerate(nodes)
        }

    # -- introspection -----------------------------------------------------------

    def cache_info(self) -> dict[str, dict]:
        """Entry and hit counts of the four caches (for tests and reports).

        With an attached artifact store the ``"store"`` entry carries its
        hit/miss/store/error/eviction counters — aggregated at the top level
        and broken down per artifact kind (layers / models / shards) under
        ``"by_kind"``; without one it reads all zeros.  The
        ``"engines"`` entry additionally breaks entries down by engine name
        under ``"by_engine"`` — engine-cache keys include the registry name,
        so same-config instances of different backends (``cycle`` versus
        ``functional``) occupy distinct entries and never collide.
        """
        if self.store is not None:
            store_stats = self.store.stats()
        else:
            from repro.store.artifacts import ArtifactStore

            store_stats = ArtifactStore.zero_stats()
        # Snapshot sizes, hit counters and the engine-key breakdown under the
        # lock: a concurrent _cache_put may insert or LRU-evict while we read,
        # and iterating a mutating dict raises RuntimeError.
        with self._lock:
            by_engine: dict[str, int] = {}
            for name, _config in self._engine_cache:
                by_engine[name] = by_engine.get(name, 0) + 1
            sizes = {
                "layers": len(self._layer_cache),
                "prepared": len(self._prepared_cache),
                "engines": len(self._engine_cache),
                "models": len(self._model_cache),
            }
            hits = dict(self._hits)
        return {
            "layers": {"entries": sizes["layers"], "hits": hits["layers"]},
            "prepared": {"entries": sizes["prepared"], "hits": hits["prepared"]},
            "engines": {
                "entries": sizes["engines"],
                "hits": hits["engines"],
                "by_engine": by_engine,
            },
            "models": {"entries": sizes["models"], "hits": hits["models"]},
            "store": store_stats,
        }

    def clear(self) -> None:
        """Drop every cached layer, prepared layer, engine and model."""
        with self._lock:
            self._layer_cache.clear()
            self._prepared_cache.clear()
            self._engine_cache.clear()
            self._model_cache.clear()
            for key in self._hits:
                self._hits[key] = 0
