"""Deterministic partitioning of an experiment grid into shards.

A :class:`ShardPlan` is a pure function of the merged spec and the shard
count: it re-resolves the experiment exactly like
:meth:`~repro.experiments.runner.ExperimentRunner.resolve` (same workload
resolution, same grid expansion, same point order) and splits the point list
into ``shard_count`` contiguous chunks in spec order with
:func:`shard_ranges` — the partitioner the process executor uses too, so
each shard touches as few distinct layers as possible.  The process executor
clamps its part count to the point count; a plan does **not**: it is
addressed by ``(shard_id, shard_count)`` from independent invocations that
must all agree on the partition, so ``shard_count > len(points)`` simply
yields empty trailing shards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import ShardCoordinateError
from repro.experiments.registry import Experiment
from repro.experiments.runner import ExperimentRunner
from repro.experiments.spec import ExperimentSpec
from repro.store.artifacts import ArtifactStore
from repro.workloads.benchmarks import LayerSpec

__all__ = ["ShardPlan", "plan_shards", "shard_ranges", "validate_coords"]

#: Shard artifact payload format; bumped on any incompatible change.
SHARD_FORMAT = 1


def validate_coords(shard_id: int, shard_count: int) -> None:
    """Reject invalid ``(shard_id, shard_count)`` coordinates.

    Raises:
        ShardCoordinateError: when ``shard_count < 1`` or ``shard_id`` is
            outside ``[0, shard_count)``.
    """
    if shard_count < 1:
        raise ShardCoordinateError(
            f"shard count must be >= 1, got {shard_count}",
            shard_count=shard_count,
        )
    if not 0 <= shard_id < shard_count:
        raise ShardCoordinateError(
            f"shard id must satisfy 0 <= id < {shard_count}, got {shard_id}",
            shard_id=shard_id,
            shard_count=shard_count,
        )


def shard_ranges(count: int, shard_count: int) -> list[range]:
    """Split ``range(count)`` into exactly ``shard_count`` contiguous ranges.

    Sizes differ by at most one, larger chunks first; when ``shard_count``
    exceeds ``count`` the trailing ranges are empty.  Every invocation that
    agrees on ``(count, shard_count)`` gets the identical partition.
    """
    if shard_count < 1:
        raise ShardCoordinateError(
            f"shard count must be >= 1, got {shard_count}", shard_count=shard_count
        )
    base, extra = divmod(count, shard_count)
    bounds = [0]
    for part in range(shard_count):
        bounds.append(bounds[-1] + base + (1 if part < extra else 0))
    return [range(bounds[i], bounds[i + 1]) for i in range(shard_count)]


@dataclass
class ShardPlan:
    """The deterministic partition of one experiment sweep into shards.

    Attributes:
        experiment: the resolved registry experiment.
        spec: the fully merged spec every shard executes against.
        layer_specs: resolved benchmark specs, in workload order.
        points: the expanded grid in execution order (all shards agree).
        shard_count: how many contiguous chunks the points are split into.
    """

    experiment: Experiment
    spec: ExperimentSpec
    layer_specs: "dict[str, LayerSpec]"
    points: list[dict[str, Any]]
    shard_count: int
    _ranges: list[range] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._ranges = shard_ranges(len(self.points), self.shard_count)

    @property
    def ranges(self) -> list[range]:
        """Contiguous point ranges, one per shard id."""
        return list(self._ranges)

    def points_for(self, shard_id: int) -> list[dict[str, Any]]:
        """The grid points shard ``shard_id`` is responsible for."""
        validate_coords(shard_id, self.shard_count)
        return [self.points[index] for index in self._ranges[shard_id]]

    def shard_key(self, shard_id: int) -> str:
        """The content address of one shard's partial-result artifact.

        The key covers everything that shapes the shard's records: the
        experiment, the fully merged spec, the resolved workload selection,
        the shard coordinates and the shard payload format.  Two invocations
        of the same spec at the same coordinates collide on purpose — that
        collision *is* the cross-invocation reuse.
        """
        validate_coords(shard_id, self.shard_count)
        return ArtifactStore.content_key(
            {
                "artifact": "experiment-shard",
                "shard_format": SHARD_FORMAT,
                "experiment": self.experiment.name,
                "spec": self.spec.to_dict(),
                "workloads": list(self.layer_specs),
                "shard_id": int(shard_id),
                "shard_count": int(self.shard_count),
            }
        )

    def keys(self) -> list[str]:
        """Every shard key of the plan, in shard-id order."""
        return [self.shard_key(shard_id) for shard_id in range(self.shard_count)]

    def entry_paths(self, store: ArtifactStore) -> list[Any]:
        """Store entry paths for every shard of the plan (for pinning)."""
        return [store._entry_path("shards", key) for key in self.keys()]

    def describe(self, store: ArtifactStore | None = None) -> list[dict[str, Any]]:
        """One row per shard: coordinates, point range, key, store presence."""
        rows = []
        for shard_id, chunk in enumerate(self._ranges):
            key = self.shard_key(shard_id)
            row: dict[str, Any] = {
                "shard_id": shard_id,
                "start": chunk.start,
                "stop": chunk.stop,
                "points": len(chunk),
                "key": key,
            }
            if store is not None:
                row["present"] = store._entry_path("shards", key).exists()
            rows.append(row)
        return rows


def plan_shards(
    spec_or_name: "str | ExperimentSpec",
    shard_count: int,
    runner: ExperimentRunner | None = None,
    workloads: "Sequence[str | LayerSpec] | None" = None,
    **overrides: Any,
) -> ShardPlan:
    """Build the :class:`ShardPlan` for a spec at a given shard count.

    Uses :meth:`ExperimentRunner.resolve`, so the plan's spec, workloads and
    point order are exactly what a serial :meth:`~ExperimentRunner.run` of
    the same arguments would execute.
    """
    if shard_count < 1:
        raise ShardCoordinateError(
            f"shard count must be >= 1, got {shard_count}", shard_count=shard_count
        )
    runner = runner or ExperimentRunner()
    experiment, spec, layer_specs, points = runner.resolve(
        spec_or_name, workloads=workloads, **overrides
    )
    return ShardPlan(
        experiment=experiment,
        spec=spec,
        layer_specs=layer_specs,
        points=points,
        shard_count=int(shard_count),
    )
