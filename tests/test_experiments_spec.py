"""Tests for ExperimentSpec: validation, overlays, JSON round-trips."""

from __future__ import annotations

import pytest

from repro.compression.pipeline import CompressionConfig
from repro.core.config import EIEConfig
from repro.errors import ConfigurationError
from repro.experiments import ExperimentSpec


class TestConfigRoundTrips:
    def test_eie_config_to_dict_round_trips(self):
        config = EIEConfig(num_pes=16, fifo_depth=4)
        assert EIEConfig.from_dict(config.to_dict()) == config

    def test_eie_config_partial_overlay_uses_defaults(self):
        config = EIEConfig.from_dict({"num_pes": 8})
        assert config.num_pes == 8
        assert config.fifo_depth == EIEConfig().fifo_depth

    def test_eie_config_rejects_unknown_key_by_name(self):
        with pytest.raises(ConfigurationError, match="no field 'numpes'"):
            EIEConfig.from_dict({"numpes": 8})

    def test_compression_config_round_trips(self):
        config = CompressionConfig(target_density=0.2, index_bits=5, max_run=31)
        assert CompressionConfig.from_dict(config.to_dict()) == config

    def test_compression_config_rejects_unknown_key_by_name(self):
        with pytest.raises(ConfigurationError, match="no field 'densty'"):
            CompressionConfig.from_dict({"densty": 0.1})


class TestSpecValidation:
    def test_requires_experiment_name(self):
        with pytest.raises(ConfigurationError):
            ExperimentSpec(experiment="")

    def test_rejects_bad_config_key_eagerly(self):
        with pytest.raises(ConfigurationError, match="no field 'pes'"):
            ExperimentSpec(experiment="x", config={"pes": 8})

    def test_rejects_bad_compression_key_eagerly(self):
        with pytest.raises(ConfigurationError, match="no field 'density'"):
            ExperimentSpec(experiment="x", compression={"density": 0.1})

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param("repeats", 0, id="repeats-0"),
            pytest.param("repeats", 1.5, id="repeats-float"),
            pytest.param("repeats", True, id="repeats-bool"),
            pytest.param("scale", -1.0, id="scale-neg"),
            pytest.param("scale", "nan", id="scale-str"),
            pytest.param("scale", float("nan"), id="scale-nan"),
            pytest.param("scale", float("inf"), id="scale-inf"),
            pytest.param("scale", True, id="scale-bool"),
            pytest.param("seed", "x", id="seed-str"),
            pytest.param("seed", 1.5, id="seed-float"),
            pytest.param("seed", True, id="seed-bool"),
        ],
    )
    def test_rejects_bad_repeats_and_scale(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ExperimentSpec(experiment="x", **{field: value})

    def test_rejects_empty_grid_axis(self):
        with pytest.raises(ConfigurationError, match="at least one value"):
            ExperimentSpec(experiment="x", grid={"depth": ()})

    def test_scalar_grid_value_becomes_one_point_axis(self):
        spec = ExperimentSpec(experiment="x", grid={"depth": 8})
        assert spec.grid == {"depth": (8,)}

    def test_from_dict_rejects_unknown_field(self):
        with pytest.raises(ConfigurationError, match="no field 'grids'"):
            ExperimentSpec.from_dict({"experiment": "x", "grids": {}})


class TestSpecSerialization:
    def test_json_round_trip_identity(self):
        spec = ExperimentSpec(
            experiment="fig8_fifo_depth",
            engine="cycle",
            config={"num_pes": 16, "clock_mhz": 800.0},
            compression={"index_bits": 4},
            workloads=("Alex-7", "NT-We"),
            scale=64.0,
            grid={"fifo_depth": (1, 8, 32)},
            params={"batch": 1},
            seed=7,
            repeats=2,
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_defaults_round_trip(self):
        spec = ExperimentSpec(experiment="table1_energy")
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_tuple_valued_params_and_config_round_trip(self):
        # Tuples normalise to lists at construction, so JSON round-trips hold
        # for sequence-valued params in custom experiments too.
        spec = ExperimentSpec(experiment="x", params={"opts": (1, 2)})
        assert spec.params == {"opts": [1, 2]}
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_from_json_rejects_invalid_json(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            ExperimentSpec.from_json("{not json")
        with pytest.raises(ConfigurationError, match="must be an object"):
            ExperimentSpec.from_json("[1, 2]")


class TestSpecMergeAndOverrides:
    def test_merged_overlays_mappings_and_keeps_default_scalars(self):
        default = ExperimentSpec(
            experiment="x", grid={"depth": (1, 8)}, params={"batch": 1}, seed=42
        )
        override = ExperimentSpec(experiment="x", grid={"depth": (4,)}, config={"num_pes": 8})
        merged = default.merged(override)
        assert merged.grid == {"depth": (4,)}
        assert merged.config == {"num_pes": 8}
        assert merged.params == {"batch": 1}
        assert merged.seed == 42  # unset scalar keeps the experiment default

    def test_merged_set_scalar_wins(self):
        default = ExperimentSpec(experiment="x", seed=42)
        assert default.merged(ExperimentSpec(experiment="x", seed=0)).seed == 0

    def test_merged_rejects_mismatched_experiment(self):
        with pytest.raises(ConfigurationError, match="cannot merge"):
            ExperimentSpec(experiment="x").merged(ExperimentSpec(experiment="y"))

    def test_with_overrides_dotted_and_scalar_paths(self):
        spec = ExperimentSpec(experiment="x", grid={"depth": (1, 8)})
        spec = spec.with_overrides(
            [("config.num_pes", 16), ("grid.depth", [2, 4]), ("scale", 64), ("workloads", "Alex-6")]
        )
        assert spec.config == {"num_pes": 16}
        assert spec.grid == {"depth": (2, 4)}
        assert spec.scale == 64
        assert spec.workloads == ("Alex-6",)

    def test_with_overrides_rejects_unknown_field_and_group(self):
        spec = ExperimentSpec(experiment="x")
        with pytest.raises(ConfigurationError, match="no field 'bogus'"):
            spec.with_overrides([("bogus", 1)])
        with pytest.raises(ConfigurationError, match="not a mapping field"):
            spec.with_overrides([("bogus.key", 1)])
