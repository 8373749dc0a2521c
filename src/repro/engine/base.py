"""The simulation-engine seam: one protocol for every EIE backend.

Two simulators "run a layer on EIE" —
:class:`~repro.core.functional.FunctionalEIE` (bit-exact values) and the
broadcast/FIFO recurrence of :mod:`repro.core.cycle_model` (timing).  This
module defines the single seam they sit behind:

* :class:`SimulationEngine` — ``prepare(layer) -> PreparedLayer`` performs all
  per-layer work (building simulators, extracting work matrices) once, and
  ``run(prepared, activations) -> EngineResult`` executes one or many input
  vectors against the prepared state;
* :class:`PreparedLayer` — the engine-specific prepared form of a layer,
  cacheable across runs and (for the cycle engine) across configuration
  sweep points;
* :class:`EngineResult` — a uniform result record: stacked batch outputs plus
  per-item functional results and/or cycle statistics, depending on what the
  backend models.

``run`` accepts either a single activation vector of length ``n_in`` or a
``(batch, n_in)`` matrix; a batched run is defined to be element-wise
identical to a loop of single-vector runs (the parity test suite enforces
this).  Backends register themselves with
:class:`~repro.engine.registry.EngineRegistry` under a short string key.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, ClassVar

import numpy as np

from repro.core.config import EIEConfig
from repro.core.cycle_model import CycleStats
from repro.core.functional import FunctionalResult
from repro.errors import SimulationError

__all__ = ["PreparedLayer", "EngineResult", "SimulationEngine"]


@dataclass
class PreparedLayer:
    """A layer transformed into one engine's ready-to-run form.

    Attributes:
        engine: registry name of the engine that prepared this layer.
        num_pes: PE count the layer is interleaved/prepared for.
        rows: output size of the layer.
        cols: input size of the layer (length of one activation vector).
        activation_name: non-linearity applied after the M x V.
        payload: engine-specific prepared state (simulator instances, work
            matrices, ...); opaque to callers.
        source: the object that was prepared (``CompressedLayer`` or
            ``LayerWorkload``), kept for re-preparation and diagnostics.
        cache_token: hashable token identifying the preparation inputs the
            payload depends on.  :class:`~repro.engine.session.Session` keys
            its prepared cache on it, and ``run`` rejects a prepared layer
            whose (non-empty) token does not match the engine's own
            ``prepare_token()`` — so state baked in at prepare time (e.g. a
            fixed-point format or SRAM geometry) cannot silently leak into an
            incompatible configuration.  An empty token opts out of the
            check.
    """

    engine: str
    num_pes: int
    rows: int
    cols: int
    activation_name: str
    payload: Any
    source: Any
    cache_token: tuple = ()


@dataclass
class EngineResult:
    """Outcome of running one (possibly batched) input through an engine.

    Attributes:
        engine: registry name of the engine that produced the result.
        batch_size: number of activation vectors executed.
        batched: whether the caller passed a matrix (``True``) or one vector.
        outputs: ``(batch, rows)`` output activations, or ``None`` for
            engines that model timing only (the ``"cycle"`` backend).
        cycles: per-item timing statistics (empty for value-only backends).
        functional: per-item functional results with access counters (empty
            for timing-only backends).
    """

    engine: str
    batch_size: int
    batched: bool
    outputs: np.ndarray | None = None
    cycles: tuple[CycleStats, ...] = ()
    functional: tuple[FunctionalResult, ...] = ()

    @property
    def output(self) -> np.ndarray:
        """The first (or only) output vector; errors on timing-only results."""
        if self.outputs is None:
            raise SimulationError(
                f"engine {self.engine!r} models timing only and produces no output values"
            )
        return self.outputs[0]

    @property
    def stats(self) -> CycleStats:
        """The first (or only) cycle-statistics record."""
        if not self.cycles:
            raise SimulationError(f"engine {self.engine!r} does not model timing")
        return self.cycles[0]


class SimulationEngine(abc.ABC):
    """Base class of every EIE simulation backend.

    Subclasses set the class attribute ``name`` (their registry key) and
    implement :meth:`prepare` and :meth:`run`.  An engine instance is bound to
    one :class:`~repro.core.config.EIEConfig`; sweeps instantiate one engine
    per configuration point and share :class:`PreparedLayer` objects where the
    ``cache_token`` allows.
    """

    #: Registry key of the backend (e.g. ``"functional"``).
    name: ClassVar[str] = ""
    #: Whether ``run`` also takes a tuple of sibling prepared layers that
    #: read one input (see :meth:`CycleEngine.run`); ``Session.run_model``
    #: then runs each group of sibling nodes with one call.
    runs_siblings: ClassVar[bool] = False

    def __init__(self, config: EIEConfig | None = None) -> None:
        self.config = config or EIEConfig()

    @abc.abstractmethod
    def prepare(self, layer: Any) -> PreparedLayer:
        """Do all per-layer work once and return the prepared form."""

    @abc.abstractmethod
    def run(self, prepared: PreparedLayer, activations: np.ndarray | None = None) -> EngineResult:
        """Execute one vector or a ``(batch, n_in)`` matrix of activations."""

    # -- shared helpers ---------------------------------------------------------

    def prepare_token(self) -> tuple:
        """Configuration facets the prepared payload depends on.

        The default is the full configuration (always safe); engines whose
        payload depends on less override this so sessions can share prepared
        layers across sweep points (e.g. the cycle engine's work matrices only
        depend on the PE count, not on FIFO depth or clock).
        """
        return (self.name, self.config)

    def _check_prepared(self, prepared: PreparedLayer) -> None:
        if prepared.engine != self.name:
            raise SimulationError(
                f"prepared layer belongs to engine {prepared.engine!r}, not {self.name!r}"
            )
        if prepared.num_pes != self.config.num_pes:
            raise SimulationError(
                f"prepared layer targets {prepared.num_pes} PEs but the engine "
                f"configuration has {self.config.num_pes}"
            )
        if prepared.cache_token and prepared.cache_token != self.prepare_token():
            raise SimulationError(
                f"prepared layer was built under an incompatible configuration "
                f"(token {prepared.cache_token!r} != {self.prepare_token()!r}); "
                f"re-prepare the layer with this engine"
            )

    def _as_batch(
        self, prepared: PreparedLayer, activations: np.ndarray
    ) -> tuple[np.ndarray, bool]:
        """Normalise ``activations`` to ``(batch, n_in)`` finite float64.

        Returns the matrix and whether the input was already batched.
        """
        activations = np.asarray(activations, dtype=np.float64)
        if activations.ndim == 1:
            matrix, batched = activations[np.newaxis, :], False
        elif activations.ndim == 2:
            matrix, batched = activations, True
        else:
            raise SimulationError(
                f"activations must be a vector or (batch, n_in) matrix, "
                f"got shape {activations.shape}"
            )
        if matrix.shape[1] != prepared.cols:
            raise SimulationError(
                f"activation length {matrix.shape[1]} does not match layer "
                f"input size {prepared.cols}"
            )
        if matrix.shape[0] == 0:
            raise SimulationError("activation batch must contain at least one vector")
        if not np.isfinite(matrix).all():
            raise SimulationError("activations must be finite (got NaN or infinity)")
        return matrix, batched
