"""Deterministic random-number helpers.

Every synthetic workload in the library is generated from a
:class:`numpy.random.Generator` seeded through these helpers, so that the
benchmark tables and figures are exactly reproducible from run to run.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["make_rng", "derive_seed"]


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``seed`` may already be a generator (returned unchanged), an integer, or
    ``None`` for a default deterministic seed of 0.  The library never uses
    OS entropy so results are reproducible.  A negative integer raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    seed = 0 if seed is None else int(seed)
    if seed < 0:
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def derive_seed(base: int, *names: object) -> int:
    """Derive a stable child seed from ``base`` and a sequence of labels.

    The derivation hashes the labels with SHA-256 so that, for example, each
    benchmark layer gets an independent but reproducible weight pattern:

    >>> derive_seed(42, "Alex-6", "weights") == derive_seed(42, "Alex-6", "weights")
    True
    >>> derive_seed(42, "Alex-6") != derive_seed(42, "Alex-7")
    True
    """
    digest = hashlib.sha256()
    digest.update(str(int(base)).encode("utf-8"))
    for name in names:
        digest.update(b"/")
        digest.update(str(name).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "little")
