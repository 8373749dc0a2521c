"""Shared fixtures for the test suite.

Unit tests use small matrices and few PEs.  The paper's figure and table
checks run at full Table III scale through one session-scoped
:class:`~repro.experiments.runner.ExperimentRunner` (``paper_runner``), so
the nine benchmark layers' sparsity patterns are built once per session.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import CompressionConfig, DeepCompressor
from repro.core import EIEConfig
from repro.experiments import ExperimentRunner
from repro.workloads import LayerSpec


@pytest.fixture(autouse=True)
def _hermetic_artifact_store(tmp_path_factory, monkeypatch):
    """Point the default artifact store at a per-session temp directory.

    Keeps the suite hermetic: CLI and runner tests that use the implicit
    default store neither read a pre-warmed machine cache nor leave entries
    behind in the user's real ``~/.cache``.
    """
    root = tmp_path_factory.getbasetemp() / "repro-store"
    monkeypatch.setenv("REPRO_STORE_DIR", str(root))


@pytest.fixture(scope="session")
def paper_runner() -> ExperimentRunner:
    """One runner (workload builder + engine session) for every full-scale check."""
    return ExperimentRunner()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic RNG for test data."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_config() -> EIEConfig:
    """A 4-PE accelerator configuration used throughout the unit tests."""
    return EIEConfig(num_pes=4, fifo_depth=8)


@pytest.fixture
def sparse_weights(rng: np.random.Generator) -> np.ndarray:
    """A 48 x 40 weight matrix with ~15% density."""
    weights = rng.normal(0.0, 1.0, size=(48, 40))
    mask = rng.random((48, 40)) < 0.15
    weights = np.where(mask, weights, 0.0)
    weights[0, 0] = 0.5  # guarantee at least one non-zero
    return weights


@pytest.fixture
def compressed_layer(sparse_weights: np.ndarray, small_config: EIEConfig):
    """The sparse_weights fixture run through the Deep Compression pipeline."""
    compressor = DeepCompressor(CompressionConfig())
    return compressor.compress(sparse_weights, num_pes=small_config.num_pes, name="test-layer")


@pytest.fixture
def dense_activations(rng: np.random.Generator) -> np.ndarray:
    """A 40-long activation vector with ~40% non-zeros (post-ReLU style)."""
    values = rng.uniform(0.1, 1.0, size=40)
    mask = rng.random(40) < 0.4
    activations = np.where(mask, values, 0.0)
    activations[3] = 0.7  # guarantee at least one non-zero
    return activations


@pytest.fixture
def tiny_spec() -> LayerSpec:
    """A small benchmark-like layer spec for workload-builder tests."""
    return LayerSpec(
        name="tiny",
        input_size=96,
        output_size=64,
        weight_density=0.12,
        activation_density=0.4,
        description="unit-test layer",
        seed=7,
    )
