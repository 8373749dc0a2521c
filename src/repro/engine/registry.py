"""String-keyed registry of simulation backends.

The registry is the one place new EIE backends plug in: implement a
:class:`~repro.engine.base.SimulationEngine`, decorate it with
:func:`register_engine` (or call :meth:`EngineRegistry.register`), and every
consumer of the seam — ``Session.run``/``run_model``, the CLI ``run`` command
and the analysis sweeps — can select it by name.

The built-in backends are registered when :mod:`repro.engine` is imported:

========== ================================================================
Key        Backend
========== ================================================================
functional bit-exact value simulation (:class:`FunctionalEIE` adapter)
cycle      broadcast/FIFO timing model (:mod:`repro.core.cycle_model` adapter)
========== ================================================================
"""

from __future__ import annotations

from typing import TypeVar

from repro.core.config import EIEConfig
from repro.engine.base import SimulationEngine
from repro.errors import ConfigurationError

__all__ = ["EngineRegistry", "register_engine"]

E = TypeVar("E", bound=type[SimulationEngine])


class EngineRegistry:
    """Maps short string keys (``"functional"``, ``"cycle"``, ...) to engines.

    The class itself is the default global registry; all methods are
    classmethods so callers can write ``EngineRegistry.get("cycle")`` without
    holding an instance.
    """

    _engines: dict[str, type[SimulationEngine]] = {}

    @classmethod
    def register(cls, engine_cls: type[SimulationEngine]) -> type[SimulationEngine]:
        """Register an engine class under its ``name`` attribute."""
        name = getattr(engine_cls, "name", "")
        if not name:
            raise ConfigurationError(
                f"engine class {engine_cls.__name__} must define a non-empty 'name'"
            )
        existing = cls._engines.get(name)
        if existing is not None and existing is not engine_cls:
            raise ConfigurationError(
                f"engine name {name!r} is already registered to {existing.__name__}"
            )
        cls._engines[name] = engine_cls
        return engine_cls

    @classmethod
    def unregister(cls, name: str) -> None:
        """Remove an engine (mainly for tests of custom backends)."""
        cls._engines.pop(name, None)

    @classmethod
    def get(cls, name: str) -> type[SimulationEngine]:
        """The engine class registered under ``name``."""
        try:
            return cls._engines[name]
        except KeyError:
            known = ", ".join(sorted(cls._engines)) or "<none>"
            raise ConfigurationError(
                f"unknown simulation engine {name!r}; registered engines: {known}"
            ) from None

    @classmethod
    def create(cls, name: str, config: EIEConfig | None = None) -> SimulationEngine:
        """Instantiate the engine registered under ``name`` for ``config``."""
        return cls.get(name)(config)

    @classmethod
    def names(cls) -> tuple[str, ...]:
        """All registered engine names, sorted."""
        return tuple(sorted(cls._engines))


def register_engine(engine_cls: E) -> E:
    """Class decorator registering ``engine_cls`` with :class:`EngineRegistry`."""
    EngineRegistry.register(engine_cls)
    return engine_cls
