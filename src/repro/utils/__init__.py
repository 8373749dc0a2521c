"""Shared utilities: RNG helpers, argument validation, JSON normalisation."""

from repro.utils.rng import derive_seed, make_rng
from repro.utils.serialization import jsonable
from repro.utils.validation import (
    require_between,
    require_in,
    require_matrix,
    require_non_negative,
    require_positive,
    require_power_of_two,
    require_spec_numbers,
    require_vector,
)

__all__ = [
    "derive_seed",
    "jsonable",
    "make_rng",
    "require_between",
    "require_in",
    "require_matrix",
    "require_non_negative",
    "require_positive",
    "require_power_of_two",
    "require_spec_numbers",
    "require_vector",
]
