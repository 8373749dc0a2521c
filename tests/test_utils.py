"""Tests for repro.utils (deterministic RNG helpers and validation)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.utils import (
    derive_seed,
    make_rng,
    require_between,
    require_in,
    require_matrix,
    require_non_negative,
    require_positive,
    require_power_of_two,
    require_spec_numbers,
    require_vector,
)


class TestMakeRng:
    def test_integer_seed_is_deterministic(self):
        assert make_rng(7).integers(0, 1000, 5).tolist() == make_rng(7).integers(0, 1000, 5).tolist()

    def test_different_seeds_differ(self):
        assert make_rng(1).integers(0, 10**9) != make_rng(2).integers(0, 10**9)

    def test_none_defaults_to_zero(self):
        assert make_rng(None).integers(0, 10**9) == make_rng(0).integers(0, 10**9)

    def test_generator_passthrough(self):
        generator = np.random.default_rng(3)
        assert make_rng(generator) is generator

    def test_negative_seed_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="-1"):
            make_rng(-1)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "Alex-6", "weights") == derive_seed(42, "Alex-6", "weights")

    def test_labels_change_seed(self):
        assert derive_seed(42, "Alex-6") != derive_seed(42, "Alex-7")

    def test_base_changes_seed(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_returns_non_negative_int(self):
        seed = derive_seed(0, "anything")
        assert isinstance(seed, int)
        assert seed >= 0


class TestValidation:
    def test_require_positive_accepts(self):
        assert require_positive("x", 3.5) == 3.5

    def test_require_positive_rejects_zero(self):
        with pytest.raises(ConfigurationError, match="x"):
            require_positive("x", 0)

    def test_require_non_negative(self):
        assert require_non_negative("x", 0) == 0
        with pytest.raises(ConfigurationError):
            require_non_negative("x", -1)

    def test_require_between(self):
        assert require_between("d", 0.5, 0.0, 1.0) == 0.5
        with pytest.raises(ConfigurationError):
            require_between("d", 1.5, 0.0, 1.0)

    def test_require_in(self):
        assert require_in("mode", "a", ("a", "b")) == "a"
        with pytest.raises(ConfigurationError):
            require_in("mode", "c", ("a", "b"))

    def test_require_power_of_two(self):
        assert require_power_of_two("w", 64) == 64
        for bad in (0, -4, 3, 12):
            with pytest.raises(ConfigurationError):
                require_power_of_two("w", bad)

    def test_require_vector(self):
        vector = require_vector("v", [1.0, 2.0, 3.0])
        assert vector.shape == (3,)
        with pytest.raises(ConfigurationError):
            require_vector("v", np.zeros((2, 2)))

    def test_require_matrix(self):
        matrix = require_matrix("m", np.zeros((2, 3)))
        assert matrix.shape == (2, 3)
        with pytest.raises(ConfigurationError):
            require_matrix("m", np.zeros(3))

    def test_require_spec_numbers_accepts_valid_and_unset_values(self):
        require_spec_numbers(None, seed=None)
        require_spec_numbers(0.5, seed=0, repeats=np.int64(3))
        require_spec_numbers(np.float32(64.0), seed=7)

    @pytest.mark.parametrize(
        "scale, integers, match",
        [
            pytest.param(float("nan"), {}, "scale", id="scale-nan"),
            pytest.param(float("inf"), {}, "scale", id="scale-inf"),
            pytest.param(0, {}, "scale", id="scale-zero"),
            pytest.param(True, {}, "scale", id="scale-bool"),
            pytest.param("64", {}, "scale", id="scale-str"),
            pytest.param(None, {"seed": 1.5}, "seed", id="seed-float"),
            pytest.param(None, {"seed": True}, "seed", id="seed-bool"),
            pytest.param(None, {"seed": "7"}, "seed", id="seed-str"),
        ],
    )
    def test_require_spec_numbers_rejects(self, scale, integers, match):
        with pytest.raises(ConfigurationError, match=match):
            require_spec_numbers(scale, **integers)
