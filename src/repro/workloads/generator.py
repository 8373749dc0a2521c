"""Workload construction for the cycle-level simulator.

A :class:`LayerWorkload` packages everything the timing model needs for one
benchmark layer at full Table III scale: the per-(PE, column) entry counts of
the interleaved CSC encoding (including padding zeros), the broadcast order
of the non-zero input activations, and the bookkeeping totals used by the
energy model and the figures.

:class:`WorkloadBuilder` caches the expensive part — the Bernoulli sparsity
pattern of each benchmark — so that the design-space sweeps (varying FIFO
depth, PE count or SRAM width over the same layer) do not regenerate it.
Each cached value is computed once, also when the ``threads`` executor asks
for it from two threads at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.compression.csc import DEFAULT_MAX_RUN, interleaved_entry_counts
from repro.core.config import EIEConfig
from repro.core.cycle_model import CycleStats
from repro.errors import WorkloadError
from repro.utils.parallel import ComputeOnce
from repro.utils.rng import make_rng
from repro.workloads.benchmarks import LayerSpec
from repro.workloads.synthetic import SparsePattern, generate_activations, generate_sparse_pattern

__all__ = ["LayerWorkload", "WorkloadBuilder"]


@dataclass
class LayerWorkload:
    """One benchmark layer prepared for the cycle-level simulator.

    Attributes:
        spec: the benchmark description.
        num_pes: number of PEs the matrix is interleaved over.
        work: shape ``(num_pes, broadcasts)`` — encoded entries each PE must
            process for each broadcast non-zero activation, in broadcast order.
        padding_work: same shape — padding-zero entries among ``work``.
        nonzero_columns: the input-vector indices that are broadcast.
        total_entries: stored entries of the whole matrix (all columns).
        total_padding: padding-zero entries of the whole matrix.
        true_nonzeros: genuine non-zero weights of the whole matrix.
    """

    spec: LayerSpec
    num_pes: int
    work: np.ndarray
    padding_work: np.ndarray
    nonzero_columns: np.ndarray
    total_entries: int
    total_padding: int
    true_nonzeros: int

    @property
    def broadcasts(self) -> int:
        """Number of non-zero activations broadcast."""
        return int(self.nonzero_columns.shape[0])

    @property
    def touched_entries(self) -> int:
        """Entries processed for this input (columns with non-zero activation)."""
        return int(self.work.sum())

    @property
    def real_work_fraction(self) -> float:
        """Useful entries / stored entries for the whole matrix (Figure 12)."""
        if self.total_entries == 0:
            return 1.0
        return 1.0 - self.total_padding / self.total_entries

    @property
    def dense_macs(self) -> int:
        """MACs of the equivalent dense computation."""
        return self.spec.dense_macs

    def per_pe_entries(self) -> np.ndarray:
        """Stored entries per PE for the touched columns."""
        return self.work.sum(axis=1)

    def simulate(self, config: EIEConfig) -> CycleStats:
        """Run the cycle-level timing model for this workload.

        Delegates to the ``"cycle"`` engine of :mod:`repro.engine` (imported
        lazily — the engine adapters accept workloads, so a module-level
        import would be circular).
        """
        from repro.engine import EngineRegistry

        if config.num_pes != self.num_pes:
            raise WorkloadError(
                f"workload was built for {self.num_pes} PEs, configuration has {config.num_pes}"
            )
        engine = EngineRegistry.create("cycle", config)
        return engine.run(engine.prepare(self)).stats


class WorkloadBuilder:
    """Builds (and caches) full-scale benchmark workloads.

    Args:
        max_run: largest zero run representable by the relative index.
    """

    def __init__(self, max_run: int = DEFAULT_MAX_RUN) -> None:
        self.max_run = int(max_run)
        self._patterns: ComputeOnce[SparsePattern] = ComputeOnce()
        self._activations: ComputeOnce[np.ndarray] = ComputeOnce()
        self._workloads: ComputeOnce[LayerWorkload] = ComputeOnce()

    # -- cached primitives ---------------------------------------------------------

    def pattern(self, spec: LayerSpec) -> SparsePattern:
        """The (cached) weight sparsity pattern for ``spec``."""
        return self._patterns.get(
            (spec.name, spec.rows, spec.cols, spec.weight_density),
            lambda: generate_sparse_pattern(
                spec.rows, spec.cols, spec.weight_density, make_rng(spec.weight_seed)
            ),
        )

    def activations(self, spec: LayerSpec) -> np.ndarray:
        """The (cached) input activation vector for ``spec``."""
        return self._activations.get(
            (spec.name, spec.cols, spec.rows, spec.activation_density),
            lambda: generate_activations(
                spec.cols, spec.activation_density, make_rng(spec.activation_seed)
            ),
        )

    def clear_cache(self) -> None:
        """Drop all cached patterns, activation vectors and workloads."""
        self._patterns.clear()
        self._activations.clear()
        self._workloads.clear()

    # -- workload assembly ------------------------------------------------------------

    def build(self, spec: LayerSpec, num_pes: int) -> LayerWorkload:
        """Assemble the cycle-model workload for ``spec`` on ``num_pes`` PEs.

        Results are cached per (layer, PE count) pair: the design-space sweeps
        revisit the same combination many times (e.g. Figures 11 and 13 share
        every point of the PE sweep).
        """
        if num_pes < 1:
            raise WorkloadError(f"num_pes must be >= 1, got {num_pes}")
        cache_key = (
            spec.name, spec.rows, spec.cols, spec.weight_density, spec.activation_density,
            int(num_pes),
        )
        return self._workloads.get(cache_key, lambda: self._assemble(spec, int(num_pes)))

    def _assemble(self, spec: LayerSpec, num_pes: int) -> LayerWorkload:
        pattern = self.pattern(spec)
        activations = self.activations(spec)
        counts, padding = interleaved_entry_counts(
            pattern.row_indices,
            pattern.col_ptr,
            num_rows=spec.rows,
            num_pes=num_pes,
            max_run=self.max_run,
        )
        nonzero_columns = np.nonzero(activations)[0]
        total_entries = int(counts.sum())
        total_padding = int(padding.sum())
        return LayerWorkload(
            spec=spec,
            num_pes=num_pes,
            work=counts[:, nonzero_columns],
            padding_work=padding[:, nonzero_columns],
            nonzero_columns=nonzero_columns,
            total_entries=total_entries,
            total_padding=total_padding,
            true_nonzeros=total_entries - total_padding,
        )
