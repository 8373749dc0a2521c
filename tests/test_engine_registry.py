"""Tests for the engine registry, the engine protocol and the session caches."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.pipeline import CompressionConfig
from repro.core.config import EIEConfig
from repro.engine import (
    CycleEngine,
    EngineRegistry,
    FunctionalEngine,
    Session,
    SimulationEngine,
    register_engine,
)
from repro.errors import ConfigurationError, SimulationError


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert EngineRegistry.names() == ("cycle", "functional")
        assert EngineRegistry.get("functional") is FunctionalEngine
        assert EngineRegistry.get("cycle") is CycleEngine

    def test_create_binds_config(self):
        config = EIEConfig(num_pes=8)
        engine = EngineRegistry.create("cycle", config)
        assert isinstance(engine, CycleEngine)
        assert engine.config is config

    def test_create_uses_default_config(self):
        engine = EngineRegistry.create("functional")
        assert engine.config == EIEConfig()

    def test_unknown_engine_rejected_with_known_names(self):
        with pytest.raises(ConfigurationError, match="cycle"):
            EngineRegistry.get("verilog")

    def test_custom_backend_round_trip(self):
        @register_engine
        class NullEngine(SimulationEngine):
            name = "null-test"

            def prepare(self, layer):
                raise NotImplementedError

            def run(self, prepared, activations=None):
                raise NotImplementedError

        try:
            assert EngineRegistry.get("null-test") is NullEngine
            assert "null-test" in EngineRegistry.names()
        finally:
            EngineRegistry.unregister("null-test")
        assert "null-test" not in EngineRegistry.names()

    def test_nameless_engine_rejected(self):
        class Anonymous(SimulationEngine):
            def prepare(self, layer):
                raise NotImplementedError

            def run(self, prepared, activations=None):
                raise NotImplementedError

        with pytest.raises(ConfigurationError):
            EngineRegistry.register(Anonymous)

    def test_conflicting_registration_rejected(self):
        class Impostor(SimulationEngine):
            name = "cycle"

            def prepare(self, layer):
                raise NotImplementedError

            def run(self, prepared, activations=None):
                raise NotImplementedError

        with pytest.raises(ConfigurationError):
            EngineRegistry.register(Impostor)
        assert EngineRegistry.get("cycle") is CycleEngine


class TestEngineProtocol:
    def test_prepared_layer_records_geometry(self, compressed_layer, small_config):
        prepared = CycleEngine(small_config).prepare(compressed_layer)
        assert prepared.engine == "cycle"
        assert prepared.num_pes == small_config.num_pes
        assert (prepared.rows, prepared.cols) == compressed_layer.shape
        assert prepared.source is compressed_layer

    def test_pe_mismatch_rejected(self, compressed_layer):
        with pytest.raises(SimulationError):
            CycleEngine(EIEConfig(num_pes=16)).prepare(compressed_layer)
        with pytest.raises(SimulationError):
            FunctionalEngine(EIEConfig(num_pes=16)).prepare(compressed_layer)

    def test_foreign_prepared_layer_rejected(self, compressed_layer, small_config):
        prepared = CycleEngine(small_config).prepare(compressed_layer)
        with pytest.raises(SimulationError):
            FunctionalEngine(small_config).run(prepared, np.ones(compressed_layer.cols))

    def test_incompatible_config_rejected_at_run(self, compressed_layer, small_config,
                                                 dense_activations):
        # The functional payload bakes in the full config (access counters
        # depend on the SRAM geometry), so a different width must re-prepare.
        prepared = FunctionalEngine(small_config).prepare(compressed_layer)
        other = FunctionalEngine(EIEConfig(num_pes=small_config.num_pes,
                                           spmat_sram_width_bits=32))
        with pytest.raises(SimulationError, match="incompatible configuration"):
            other.run(prepared, dense_activations)

    def test_cycle_prepared_layer_valid_across_fifo_depths(self, compressed_layer,
                                                           small_config, dense_activations):
        prepared = CycleEngine(small_config).prepare(compressed_layer)
        deep = CycleEngine(EIEConfig(num_pes=small_config.num_pes, fifo_depth=64))
        assert deep.run(prepared, dense_activations).stats.fifo_depth == 64

    def test_wrong_activation_length_rejected(self, compressed_layer, small_config):
        engine = FunctionalEngine(small_config)
        prepared = engine.prepare(compressed_layer)
        with pytest.raises(SimulationError):
            engine.run(prepared, np.ones(compressed_layer.cols + 1))
        with pytest.raises(SimulationError):
            engine.run(prepared, np.ones((2, compressed_layer.cols + 1)))

    def test_empty_batch_rejected(self, compressed_layer, small_config):
        engine = FunctionalEngine(small_config)
        prepared = engine.prepare(compressed_layer)
        with pytest.raises(SimulationError):
            engine.run(prepared, np.empty((0, compressed_layer.cols)))

    def test_cycle_result_has_no_output_values(self, compressed_layer, small_config,
                                               dense_activations):
        engine = CycleEngine(small_config)
        result = engine.run(engine.prepare(compressed_layer), dense_activations)
        assert result.outputs is None
        with pytest.raises(SimulationError):
            _ = result.output

    def test_functional_result_has_no_cycle_stats(self, compressed_layer, small_config,
                                                  dense_activations):
        engine = FunctionalEngine(small_config)
        result = engine.run(engine.prepare(compressed_layer), dense_activations)
        with pytest.raises(SimulationError):
            _ = result.stats


class TestSession:
    def test_compress_is_cached_by_content(self, sparse_weights, small_config):
        session = Session(config=small_config)
        first = session.compress(sparse_weights, num_pes=4)
        second = session.compress(sparse_weights.copy(), num_pes=4)
        assert second is first
        assert session.cache_info()["layers"] == {"entries": 1, "hits": 1}

    def test_compress_key_includes_pe_count_and_name(self, sparse_weights, small_config):
        session = Session(config=small_config)
        base = session.compress(sparse_weights, num_pes=4)
        assert session.compress(sparse_weights, num_pes=2) is not base
        assert session.compress(sparse_weights, num_pes=4, name="other") is not base
        assert session.cache_info()["layers"]["entries"] == 3

    def test_compress_key_includes_values(self, sparse_weights, small_config):
        session = Session(config=small_config)
        base = session.compress(sparse_weights, num_pes=4)
        changed = sparse_weights.copy()
        changed[0, 0] += 1.0
        assert session.compress(changed, num_pes=4) is not base

    def test_prepared_layer_shared_across_fifo_depths(self, sparse_weights):
        session = Session()
        layer = session.compress(sparse_weights, num_pes=4)
        shallow = session.prepare("cycle", layer, EIEConfig(num_pes=4, fifo_depth=1))
        deep = session.prepare("cycle", layer, EIEConfig(num_pes=4, fifo_depth=64))
        assert deep is shallow
        assert session.cache_info()["prepared"]["hits"] == 1

    def test_prepared_layer_not_shared_across_pe_counts(self, sparse_weights):
        session = Session()
        assert session.prepare(
            "cycle", session.compress(sparse_weights, num_pes=4), EIEConfig(num_pes=4)
        ) is not session.prepare(
            "cycle", session.compress(sparse_weights, num_pes=2), EIEConfig(num_pes=2)
        )

    def test_engine_instances_cached_per_config(self, small_config):
        session = Session(config=small_config)
        assert session.engine("cycle") is session.engine("cycle")
        assert session.engine("cycle") is not session.engine("cycle", EIEConfig(num_pes=8))

    def test_session_cache_keys_engines_by_name(self):
        session = Session()
        config = EIEConfig(num_pes=4)
        cycle = session.engine("cycle", config)
        functional = session.engine("functional", config)
        assert cycle is not functional
        info = session.cache_info()["engines"]
        assert info["entries"] == 2
        assert info["by_engine"] == {"cycle": 1, "functional": 1}
        # Same (name, config) -> cache hit, not a third entry.
        assert session.engine("cycle", config) is cycle
        assert session.cache_info()["engines"]["entries"] == 2

    def test_run_convenience_matches_manual_steps(self, sparse_weights, small_config,
                                                  dense_activations):
        session = Session(config=small_config)
        layer = session.compress(sparse_weights, num_pes=small_config.num_pes)
        via_run = session.run("functional", layer, dense_activations)
        engine = session.engine("functional")
        manual = engine.run(session.prepare("functional", layer), dense_activations)
        assert np.array_equal(via_run.outputs, manual.outputs)

    def test_clear_drops_everything(self, sparse_weights, small_config, dense_activations):
        session = Session(config=small_config)
        layer = session.compress(sparse_weights, num_pes=small_config.num_pes)
        session.run("cycle", layer, dense_activations)
        session.clear()
        info = session.cache_info()
        store_stats = info.pop("store")
        engine_stats = info.pop("engines")
        assert engine_stats == {"entries": 0, "hits": 0, "by_engine": {}}
        assert all(cache == {"entries": 0, "hits": 0} for cache in info.values())
        # No artifact store attached: its counters are permanently zero.
        from repro.store.artifacts import ArtifactStore

        assert store_stats == ArtifactStore.zero_stats()

    def test_compression_config_respected(self, rng):
        weights = rng.normal(size=(32, 40))
        session = Session(CompressionConfig(target_density=0.25))
        layer = session.compress(weights, num_pes=4)
        assert layer.weight_density == pytest.approx(0.25, abs=0.02)

    def test_layer_cache_evicts_least_recently_used(self, rng):
        session = Session(max_layers=2)
        matrices = [rng.normal(size=(8, 10)) for _ in range(3)]
        for weights in matrices:
            weights[0, 0] = 1.0
        first = session.compress(matrices[0], num_pes=2)
        session.compress(matrices[1], num_pes=2)
        session.compress(matrices[0], num_pes=2)   # refresh: [1] is now coldest
        session.compress(matrices[2], num_pes=2)   # evicts [1]
        assert session.cache_info()["layers"]["entries"] == 2
        assert session.compress(matrices[0], num_pes=2) is first      # survived
        assert session.compress(matrices[1], num_pes=2) is not None   # recompressed

    def test_prepared_cache_bounded(self, rng, small_config):
        session = Session(config=small_config, max_prepared=1)
        weights = rng.normal(size=(16, 12))
        weights[0, 0] = 1.0
        layer = session.compress(weights, num_pes=small_config.num_pes)
        session.prepare("cycle", layer)
        session.prepare("functional", layer)
        assert session.cache_info()["prepared"]["entries"] == 1

    def test_invalid_cache_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            Session(max_layers=0)
