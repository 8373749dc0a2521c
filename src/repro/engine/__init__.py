"""repro.engine: the unified simulation-engine layer.

One seam in front of every EIE backend (see ``docs/ARCHITECTURE.md``):

* :class:`SimulationEngine` / :class:`PreparedLayer` / :class:`EngineResult`
  — the two-method protocol every backend implements
  (:mod:`repro.engine.base`);
* :class:`EngineRegistry` — string-keyed backend registry, pre-populated
  with ``"functional"`` and ``"cycle"``
  (:mod:`repro.engine.registry`, :mod:`repro.engine.adapters`);
* :class:`Session` — shared compression / preparation / engine caches so
  sweeps compress and prepare each layer once
  (:mod:`repro.engine.session`).
"""

from repro.engine.adapters import CycleEngine, FunctionalEngine
from repro.engine.base import EngineResult, PreparedLayer, SimulationEngine
from repro.engine.registry import EngineRegistry, register_engine
from repro.engine.session import Session

__all__ = [
    "CycleEngine",
    "EngineRegistry",
    "EngineResult",
    "FunctionalEngine",
    "PreparedLayer",
    "Session",
    "SimulationEngine",
    "register_engine",
]
