"""Declarative experiment specifications.

An :class:`ExperimentSpec` is the *data* form of one evaluation run: which
registered experiment to execute, which benchmark workloads to run it on,
which configuration overlay to apply, and which axes to sweep.  Specs are
frozen, JSON-(de)serializable and validated eagerly, so any caller — the CLI,
CI, a test, a future service tier — can submit the same run and a stored
``spec.json`` reproduces it exactly.

The overlay fields reuse the library's own configuration round-trips:
``config`` is applied over :class:`~repro.core.config.EIEConfig` and
``compression`` over :class:`~repro.compression.pipeline.CompressionConfig`
via their ``from_dict``/``to_dict`` methods, which reject unknown keys with a
clear error naming the bad key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping, Sequence

from repro.compression.pipeline import CompressionConfig
from repro.core.config import EIEConfig
from repro.errors import ConfigurationError
from repro.utils.serialization import jsonable as _jsonable
from repro.utils.validation import require_spec_numbers

__all__ = ["ExperimentSpec"]


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative experiment run.

    Attributes:
        experiment: registry name of the experiment (``"fig8_fifo_depth"``,
            ``"table4_wallclock"``, ...).
        engine: registered simulation backend the experiment should use where
            it runs a simulator; ``None`` (the default for *every* scalar
            field, so partial specs merge cleanly over experiment defaults)
            resolves to ``"cycle"`` at run time.
        config: overlay applied over the default :class:`EIEConfig` (e.g.
            ``{"num_pes": 16, "fifo_depth": 4}``); unknown keys are rejected.
        compression: overlay over :class:`CompressionConfig`, same contract.
        workloads: Table III benchmark names to run on, or ``None`` for the
            experiment's default selection.
        scale: optional down-scaling factor applied to the selected
            benchmarks (``LayerSpec.scaled``) — used by tests and CI smoke
            runs to keep full sweeps cheap.
        grid: sweep axes as ``{axis: (value, ...)}``; axes are overlaid onto
            the experiment's default grid and unknown axes are rejected at
            run time.
        params: scalar experiment parameters (e.g. ``{"batch": 1}``),
            overlaid onto the experiment's defaults.
        seed: RNG seed for experiments with stochastic inputs.
        repeats: number of repetitions of every grid point (an extra
            ``repeat`` axis when > 1; useful for custom noisy backends).
    """

    experiment: str
    engine: str | None = None
    config: Mapping[str, Any] = field(default_factory=dict)
    compression: Mapping[str, Any] = field(default_factory=dict)
    workloads: tuple[str, ...] | None = None
    scale: float | None = None
    grid: Mapping[str, tuple] = field(default_factory=dict)
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: int | None = None
    repeats: int | None = None

    def __post_init__(self) -> None:
        if not self.experiment or not isinstance(self.experiment, str):
            raise ConfigurationError("ExperimentSpec.experiment must be a non-empty string")
        if self.engine is not None and (not self.engine or not isinstance(self.engine, str)):
            raise ConfigurationError("ExperimentSpec.engine must be a non-empty string")
        require_spec_numbers(self.scale, seed=self.seed, repeats=self.repeats)
        if self.repeats is not None and self.repeats < 1:
            raise ConfigurationError(f"repeats must be >= 1, got {self.repeats}")
        # Normalise the container fields so equality is representation-independent
        # (JSON round-trips lists; callers pass tuples and numpy scalars).
        object.__setattr__(self, "config", _jsonable(dict(self.config)))
        object.__setattr__(self, "compression", _jsonable(dict(self.compression)))
        if self.workloads is not None:
            object.__setattr__(self, "workloads", tuple(str(name) for name in self.workloads))
        object.__setattr__(
            self,
            "grid",
            {
                str(axis): tuple(values) if isinstance(values, (list, tuple)) else (values,)
                for axis, values in dict(self.grid).items()
            },
        )
        for axis, values in self.grid.items():
            if not values:
                raise ConfigurationError(f"grid axis {axis!r} must have at least one value")
        object.__setattr__(self, "params", _jsonable(dict(self.params)))
        # Validate the overlays eagerly: a typo'd key fails at spec build time.
        self.eie_config()
        self.compression_config()

    # -- overlays ---------------------------------------------------------------

    def eie_config(self, **overrides: Any) -> EIEConfig:
        """The accelerator configuration with this spec's overlay applied."""
        return EIEConfig.from_dict({**self.config, **overrides})

    def compression_config(self) -> CompressionConfig:
        """The compression configuration with this spec's overlay applied."""
        return CompressionConfig.from_dict(dict(self.compression))

    def merged(self, override: "ExperimentSpec | None") -> "ExperimentSpec":
        """Overlay ``override`` onto this (default) spec.

        Mapping fields merge key-wise; scalar fields take the override's
        value whenever it is set (non-``None``) — an unset scalar in a
        partial spec keeps the experiment's default.
        """
        if override is None:
            return self
        if override.experiment != self.experiment:
            raise ConfigurationError(
                f"cannot merge spec for {override.experiment!r} into defaults of "
                f"{self.experiment!r}"
            )
        changes: dict[str, Any] = {
            "config": {**self.config, **override.config},
            "compression": {**self.compression, **override.compression},
            "grid": {**self.grid, **override.grid},
            "params": {**self.params, **override.params},
        }
        if override.workloads is not None:
            changes["workloads"] = override.workloads
        for name in ("engine", "scale", "seed", "repeats"):
            if getattr(override, name) is not None:
                changes[name] = getattr(override, name)
        return replace(self, **changes)

    # -- (de)serialization -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The spec as a plain JSON-serializable dictionary."""
        return {
            "experiment": self.experiment,
            "engine": self.engine,
            "config": _jsonable(self.config),
            "compression": _jsonable(self.compression),
            "workloads": list(self.workloads) if self.workloads is not None else None,
            "scale": self.scale,
            "grid": _jsonable(self.grid),
            "params": _jsonable(self.params),
            "seed": self.seed,
            "repeats": self.repeats,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentSpec":
        """Build a spec from a mapping, rejecting unknown keys by name."""
        known = {spec.name for spec in fields(cls)}
        for key in data:
            if key not in known:
                raise ConfigurationError(
                    f"ExperimentSpec has no field {key!r}; "
                    f"valid fields: {', '.join(sorted(known))}"
                )
        return cls(**dict(data))

    def to_json(self, indent: int | None = 2) -> str:
        """The spec serialized as JSON text."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        """Parse a spec from JSON text produced by :meth:`to_json`."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"experiment spec is not valid JSON: {error}") from error
        if not isinstance(data, dict):
            raise ConfigurationError("experiment spec JSON must be an object")
        return cls.from_dict(data)

    # -- overrides ---------------------------------------------------------------

    def with_overrides(self, assignments: "Sequence[tuple[str, Any]]") -> "ExperimentSpec":
        """Apply ``key=value`` overrides (the CLI's ``--set``) to this spec.

        Keys address either a scalar field (``seed=7``, ``scale=64``,
        ``workloads=Alex-6,NT-We``) or one entry of a mapping field with a
        dotted path (``config.num_pes=16``, ``grid.fifo_depth=[1,8]``,
        ``params.batch=2``).
        """
        data = self.to_dict()
        for key, value in assignments:
            if "." in key:
                group, _, inner = key.partition(".")
                if group not in ("config", "compression", "grid", "params"):
                    raise ConfigurationError(
                        f"cannot set {key!r}: {group!r} is not a mapping field of "
                        "ExperimentSpec (use config./compression./grid./params.)"
                    )
                data[group] = {**data[group], inner: value}
            elif key == "workloads":
                value = [value] if isinstance(value, str) else list(value)
                data[key] = value
            elif key in data:
                data[key] = value
            else:
                raise ConfigurationError(
                    f"ExperimentSpec has no field {key!r}; "
                    f"valid fields: {', '.join(sorted(data))}"
                )
        return ExperimentSpec.from_dict(data)
