"""Execution of one shard of a planned sweep.

:func:`run_shard` is the worker half of the scale-out flow: it executes one
contiguous chunk of a :class:`~repro.shard.plan.ShardPlan` through a normal
:class:`~repro.experiments.runner.ExperimentRunner` session and publishes
the per-point records as a self-describing ``shards`` artifact in the
shared :class:`~repro.store.ArtifactStore`.  Records are stored
**pre-finalization** — cross-point derivations (speedups, geomeans, Pareto
marking) see the whole sweep only at merge time, which is what keeps the
merged result byte-identical to a serial run.

A shard that is already present in the store is a no-op (the artifact's
content address covers spec + coordinates, so a hit *is* the answer); the
store's shard hit counter is the proof that a re-run recomputed nothing.
While executing, the worker pins the plan's shard artifacts so a
size-budgeted store cannot evict sibling partials mid-sweep.
"""

from __future__ import annotations

from typing import Any

from repro.experiments.runner import ExperimentRunner
from repro.experiments.spec import _jsonable
from repro.shard.plan import SHARD_FORMAT, ShardPlan, validate_coords
from repro.store.artifacts import ArtifactStore

__all__ = ["run_shard", "shard_payload"]


def shard_payload(
    plan: ShardPlan, shard_id: int, per_point: list[list[dict[str, Any]]]
) -> dict[str, Any]:
    """The self-describing artifact payload for one executed shard."""
    chunk = plan.ranges[shard_id]
    return {
        "shard_format": SHARD_FORMAT,
        "experiment": plan.experiment.name,
        "spec": plan.spec.to_dict(),
        "workloads": list(plan.layer_specs),
        "shard_id": int(shard_id),
        "shard_count": int(plan.shard_count),
        "start": chunk.start,
        "stop": chunk.stop,
        "records": _jsonable(per_point),
    }


def run_shard(
    plan: ShardPlan,
    shard_id: int,
    store: ArtifactStore,
    runner: ExperimentRunner | None = None,
    force: bool = False,
) -> dict[str, Any]:
    """Execute one shard of ``plan`` and publish its partial records.

    Returns a summary: the shard ``key``, its point count, and whether the
    records were served from the store (``cached``) or computed now.  With
    ``force`` the shard recomputes and republishes even on a store hit.

    Raises:
        ShardCoordinateError: for coordinates outside the plan.
    """
    validate_coords(shard_id, plan.shard_count)
    key = plan.shard_key(shard_id)
    chunk = plan.ranges[shard_id]
    if not force:
        cached = store.load_json("shards", key)
        if cached is not None:
            return {
                "key": key,
                "shard_id": shard_id,
                "shard_count": plan.shard_count,
                "points": len(chunk),
                "cached": True,
            }
    runner = runner or ExperimentRunner(store=store)
    context = runner.context_for(plan.experiment, plan.spec, plan.layer_specs)
    # Pin every shard of the plan (not just this one) for the duration: a
    # size-budgeted store under concurrent-writer pressure must not evict a
    # sibling's already-published partial while the sweep is in flight.
    with store.pinned(f"shard-{key[:16]}", plan.entry_paths(store)):
        per_point = [context.records_for(point) for point in plan.points_for(shard_id)]
        store.store_json("shards", key, shard_payload(plan, shard_id, per_point))
    return {
        "key": key,
        "shard_id": shard_id,
        "shard_count": plan.shard_count,
        "points": len(chunk),
        "cached": False,
    }
