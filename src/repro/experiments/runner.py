"""Execution of declarative experiment specs.

:class:`ExperimentRunner` turns an :class:`~repro.experiments.spec.ExperimentSpec`
into an :class:`~repro.experiments.result.ExperimentResult`:

1. the spec is merged over the registered experiment's defaults and its grid
   is expanded into an ordered list of run points (workload axis first, then
   the experiment's sweep axes, then ``repeat`` when ``repeats > 1``);
2. shared per-run state — one :class:`~repro.workloads.generator.WorkloadBuilder`
   and one :class:`~repro.engine.session.Session` — deduplicates workload
   construction, compression and engine preparation across all points;
3. points execute on one of three executor backends — ``serial`` (in
   order, one thread), ``threads`` (a thread pool when ``jobs > 1``; the
   heavy numpy kernels release the GIL) or ``processes`` (a
   :class:`~concurrent.futures.ProcessPoolExecutor` that partitions the
   points across worker processes, each with its own session, sharing
   compression work through the on-disk artifact store instead of process
   memory) — and records are always assembled in spec point order, so the
   result is bit-identical at every ``--jobs`` level on every backend;
4. optional cross-point finalization (speedups versus a baseline point,
   geometric means) produces the final uniform records.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import replace
from itertools import product
from typing import Any, Callable, Mapping, Sequence

from repro.core.config import EIEConfig
from repro.engine.session import Session
from repro.errors import ConfigurationError, WorkloadError
from repro.experiments.registry import Experiment, ExperimentRegistry
from repro.experiments.result import ExperimentResult
from repro.experiments.spec import ExperimentSpec
from repro.workloads.benchmarks import LayerSpec, get_benchmark
from repro.workloads.generator import LayerWorkload, WorkloadBuilder

__all__ = [
    "EXECUTORS",
    "ExperimentContext",
    "ExperimentRunner",
    "assemble_result",
    "run_experiment",
]

#: Paper id recorded in every result's provenance.
SOURCE_PAPER = "conf_isca_HanLMPPHD16"

#: Executor backends the runner can place grid points on.
EXECUTORS = ("serial", "threads", "processes")


class ExperimentContext:
    """Shared state one experiment run hands to its point functions.

    The context owns the run's workload builder and engine session (both
    shared across every grid point, so repeated (config, layer) preparation
    is deduplicated), the resolved benchmark :class:`LayerSpec` objects, and
    the merged scalar parameters.
    """

    def __init__(
        self,
        experiment: Experiment,
        spec: ExperimentSpec,
        builder: WorkloadBuilder,
        session: Session,
        layer_specs: "dict[str, LayerSpec]",
    ) -> None:
        self.experiment = experiment
        self.spec = spec
        self.builder = builder
        self.session = session
        self.layer_specs = layer_specs
        self.params = dict(spec.params)
        self.base_config = spec.eie_config()
        self.compression = spec.compression_config()
        self.engine_name = spec.engine or "cycle"
        self.seed = spec.seed if spec.seed is not None else 0
        self._memo: dict[Any, Any] = {}
        self._memo_lock = threading.Lock()

    # -- helpers for point functions -----------------------------------------------

    def config(self, **overrides: Any) -> EIEConfig:
        """The spec's accelerator configuration with per-point overrides."""
        if not overrides:
            return self.base_config
        return self.spec.eie_config(**overrides)

    def layer_spec(self, name: str) -> LayerSpec:
        """The resolved (possibly scaled) benchmark spec for ``name``."""
        try:
            return self.layer_specs[name]
        except KeyError:
            raise WorkloadError(
                f"benchmark {name!r} is not part of this run; "
                f"selected workloads: {sorted(self.layer_specs)}"
            ) from None

    def workload(self, name: str, num_pes: int | None = None) -> LayerWorkload:
        """The (cached) cycle-model workload for one benchmark of the run."""
        num_pes = num_pes if num_pes is not None else self.base_config.num_pes
        return self.builder.build(self.layer_spec(name), int(num_pes))

    def memo(self, key: Any, factory: Callable[[], Any]) -> Any:
        """Compute-once storage for deterministic state shared across points."""
        with self._memo_lock:
            if key not in self._memo:
                self._memo[key] = factory()
            return self._memo[key]

    # -- execution -------------------------------------------------------------------

    def records_for(self, point: dict[str, Any]) -> list[dict[str, Any]]:
        """Execute one grid point and return its records, pre-finalization.

        The experiment's point function may return one record or a list of
        them; each record is prefixed with the point's axis values.  Every
        executor backend and every shard worker runs points through here.
        """
        outcome = self.experiment.run_point(self, point)
        if isinstance(outcome, dict):
            outcome = [outcome]
        return [{**point, **record} for record in outcome]


def _run_points_in_subprocess(payload: dict) -> list[list[dict]]:
    """Process-pool worker: execute one contiguous chunk of grid points.

    Runs in a separate process, so all shared state is rebuilt from the
    picklable payload: the experiment is re-resolved from the registry
    (importing this module populates it), the spec is rehydrated from its
    dictionary form, and the worker gets its own session/builder.  Cross-
    process compression reuse flows through the on-disk artifact store named
    by ``store_root`` — not through memory — which is what makes the process
    backend scale the GIL-holding compression work.  Returns the per-point
    record lists in chunk order; the parent reassembles them in spec order.
    """
    experiment = ExperimentRegistry.get(payload["experiment"])
    spec = ExperimentSpec.from_dict(payload["spec"])
    layer_specs = {layer.name: layer for layer in payload["layer_specs"]}
    store = None
    if payload["store_root"] is not None:
        from repro.store import ArtifactStore

        store = ArtifactStore(payload["store_root"])
    context = ExperimentContext(
        experiment,
        spec,
        WorkloadBuilder(),
        Session(store=store),
        layer_specs,
    )
    return [context.records_for(point) for point in payload["points"]]


def assemble_result(
    context: ExperimentContext,
    points: Sequence[dict[str, Any]],
    per_point: Sequence[Sequence[dict[str, Any]]],
    layer_specs: Mapping[str, Any],
    jobs: int = 1,
    executor: str = "serial",
    duration_s: float = 0.0,
) -> ExperimentResult:
    """Assemble per-point record lists into the final :class:`ExperimentResult`.

    This is the single place the result's records, metadata and provenance
    are shaped — :meth:`ExperimentRunner.run` and
    :func:`repro.shard.merge_shards` both end here, which is what makes a
    merged sharded sweep byte-identical to a serial run: finalization runs
    over the full flattened record list (never per shard), and the
    serialized metadata/provenance depend only on the spec and the points.
    """
    experiment = context.experiment
    spec = context.spec
    records = [record for point_records in per_point for record in point_records]
    if experiment.finalize is not None:
        records = experiment.finalize(context, records)

    from repro import __version__

    return ExperimentResult(
        experiment=experiment.name,
        spec=spec,
        records=records,
        metadata={
            "points": len(points),
            "jobs": jobs,
            "executor": executor,
            "duration_s": duration_s,
            "axes": [axis for axis in points[0]] if points and points[0] else [],
            "engine": context.engine_name,
        },
        provenance={
            "spec": spec.to_dict(),
            "workloads": list(layer_specs),
            "version": __version__,
            "paper": SOURCE_PAPER,
        },
    )


class ExperimentRunner:
    """Expands a spec's grid into points and executes them through one session.

    Args:
        jobs: default concurrency (``1`` = serial; ``N > 1`` runs points on a
            worker pool).  Per-call ``jobs`` overrides this.
        builder: workload builder shared across runs (one is created if not
            given); inject the benchmark harness's session-scoped builder to
            share its pattern cache.
        session: engine session shared across runs (one per runner if not
            given; when ``store`` is set and no session is given, the created
            session is attached to the store).
        registry: the experiment registry to resolve names against.
        executor: default backend for multi-job runs — ``"threads"`` (one
            shared session, numpy kernels release the GIL), ``"processes"``
            (grid points partitioned across worker processes, compression
            shared through the artifact store) or ``"serial"`` (ignore
            ``jobs`` and run in order).  Per-call ``executor`` overrides it.
        store: optional :class:`~repro.store.artifacts.ArtifactStore` shared
            by the runner's session and every process-pool worker.
    """

    def __init__(
        self,
        jobs: int = 1,
        builder: WorkloadBuilder | None = None,
        session: Session | None = None,
        registry: type[ExperimentRegistry] = ExperimentRegistry,
        executor: str = "threads",
        store: Any | None = None,
    ) -> None:
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        if executor not in EXECUTORS:
            raise ConfigurationError(
                f"unknown executor {executor!r}; expected one of {', '.join(EXECUTORS)}"
            )
        self.jobs = jobs
        self.executor = executor
        self.store = store
        self.builder = builder or WorkloadBuilder()
        self.session = session or Session(store=store)
        self.registry = registry

    # -- spec assembly -----------------------------------------------------------

    def _merge_spec(
        self,
        spec_or_name: "str | ExperimentSpec",
        overrides: Mapping[str, Any],
    ) -> tuple[Experiment, ExperimentSpec]:
        if isinstance(spec_or_name, ExperimentSpec):
            experiment = self.registry.get(spec_or_name.experiment)
            spec = experiment.spec.merged(spec_or_name)
        else:
            experiment = self.registry.get(spec_or_name)
            spec = experiment.spec
        changes: dict[str, Any] = {}
        for name in ("config", "compression", "grid", "params"):
            value = overrides.get(name)
            if value:
                if name == "config" and isinstance(value, EIEConfig):
                    value = value.to_dict()
                changes[name] = {**getattr(spec, name), **dict(value)}
        for name in ("engine", "seed", "scale", "repeats"):
            if overrides.get(name) is not None:
                changes[name] = overrides[name]
        if changes:
            spec = ExperimentSpec.from_dict({**spec.to_dict(), **changes})
        unknown_axes = set(spec.grid) - set(experiment.spec.grid)
        if unknown_axes:
            known = ", ".join(sorted(experiment.spec.grid)) or "<none>"
            raise ConfigurationError(
                f"experiment {experiment.name!r} has no grid axis "
                f"{', '.join(sorted(map(repr, unknown_axes)))}; known axes: {known}"
            )
        unknown_params = set(spec.params) - set(experiment.spec.params)
        if unknown_params:
            known = ", ".join(sorted(experiment.spec.params)) or "<none>"
            raise ConfigurationError(
                f"experiment {experiment.name!r} has no parameter "
                f"{', '.join(sorted(map(repr, unknown_params)))}; known parameters: {known}"
            )
        return experiment, spec

    def _resolve_workloads(
        self,
        experiment: Experiment,
        spec: ExperimentSpec,
        workloads: "Sequence[str | LayerSpec] | None",
    ) -> tuple[ExperimentSpec, dict[str, LayerSpec]]:
        if not experiment.uses_workloads:
            return spec, {}
        selection: Sequence[str | LayerSpec]
        if workloads is not None:
            selection = list(workloads)
            # Record the selection on the spec so provenance stays faithful.
            spec_names = tuple(
                entry.name if isinstance(entry, LayerSpec) else str(entry)
                for entry in selection
            )
            spec = replace(spec, workloads=spec_names)
        elif spec.workloads is not None:
            selection = list(spec.workloads)
        else:
            raise ConfigurationError(
                f"experiment {experiment.name!r} needs a workload selection"
            )
        resolved: dict[str, LayerSpec] = {}
        for entry in selection:
            if isinstance(entry, LayerSpec):
                layer_spec = entry
            else:
                layer_spec = get_benchmark(str(entry))
                if spec.scale is not None:
                    layer_spec = layer_spec.scaled(spec.scale)
            resolved[layer_spec.name] = layer_spec
        if not resolved:
            raise ConfigurationError(
                f"experiment {experiment.name!r} needs at least one workload"
            )
        return spec, resolved

    @staticmethod
    def _expand_points(
        experiment: Experiment, spec: ExperimentSpec, workload_names: Sequence[str]
    ) -> list[dict[str, Any]]:
        axes: list[tuple[str, tuple]] = []
        if experiment.uses_workloads:
            axes.append(("benchmark", tuple(workload_names)))
        for axis in experiment.spec.grid:  # default grid fixes the axis order
            axes.append((axis, spec.grid[axis]))
        repeats = spec.repeats or 1
        if repeats > 1:
            axes.append(("repeat", tuple(range(repeats))))
        if not axes:
            return [{}]
        names = [axis for axis, _ in axes]
        return [
            dict(zip(names, values)) for values in product(*(values for _, values in axes))
        ]

    def resolve(
        self,
        spec_or_name: "str | ExperimentSpec",
        workloads: "Sequence[str | LayerSpec] | None" = None,
        **overrides: Any,
    ) -> tuple[Experiment, ExperimentSpec, "dict[str, LayerSpec]", list[dict[str, Any]]]:
        """Resolve a run without executing it.

        Returns the registered experiment, the fully merged spec, the
        resolved workload specs, and the expanded point list in execution
        order — exactly the state :meth:`run` would execute.  The sharded
        executor plans partitions against this, so a shard worker and a
        serial run agree on point identity and order by construction.
        """
        experiment, spec = self._merge_spec(spec_or_name, overrides)
        spec, layer_specs = self._resolve_workloads(experiment, spec, workloads)
        points = self._expand_points(experiment, spec, list(layer_specs))
        return experiment, spec, layer_specs, points

    def context_for(
        self, experiment: Experiment, spec: ExperimentSpec, layer_specs: "dict[str, LayerSpec]"
    ) -> ExperimentContext:
        """An :class:`ExperimentContext` over this runner's shared session."""
        return ExperimentContext(experiment, spec, self.builder, self.session, layer_specs)

    # -- execution ---------------------------------------------------------------

    def run(
        self,
        spec_or_name: "str | ExperimentSpec",
        jobs: int | None = None,
        workloads: "Sequence[str | LayerSpec] | None" = None,
        config: "Mapping[str, Any] | EIEConfig | None" = None,
        compression: Mapping[str, Any] | None = None,
        grid: Mapping[str, Sequence[Any]] | None = None,
        params: Mapping[str, Any] | None = None,
        engine: str | None = None,
        seed: int | None = None,
        scale: float | None = None,
        repeats: int | None = None,
        executor: str | None = None,
    ) -> ExperimentResult:
        """Execute an experiment (by name or spec) and return its result.

        Keyword overrides are overlaid onto the experiment's default spec;
        ``workloads`` additionally accepts explicit :class:`LayerSpec`
        objects (scaled test layers) that a JSON spec cannot express.
        ``executor`` picks the backend for this run (``serial`` / ``threads``
        / ``processes``); records are bit-identical across all of them.
        """
        jobs = self.jobs if jobs is None else jobs
        if jobs < 1:
            raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
        executor = self.executor if executor is None else executor
        if executor not in EXECUTORS:
            raise ConfigurationError(
                f"unknown executor {executor!r}; expected one of {', '.join(EXECUTORS)}"
            )
        experiment, spec, layer_specs, points = self.resolve(
            spec_or_name,
            workloads=workloads,
            config=config,
            compression=compression,
            grid=grid,
            params=params,
            engine=engine,
            seed=seed,
            scale=scale,
            repeats=repeats,
        )
        context = self.context_for(experiment, spec, layer_specs)

        started = time.perf_counter()
        if executor == "serial" or jobs == 1 or len(points) <= 1:
            per_point = [context.records_for(point) for point in points]
        elif executor == "processes":
            # Local import: repro.shard.plan imports this module.
            from repro.shard.plan import shard_ranges

            # Contiguous chunks keep each worker on as few distinct layers
            # as possible (the grid leads with the benchmark axis).
            chunks = shard_ranges(len(points), max(1, min(jobs, len(points))))
            # Workers share whichever store this runner's session uses —
            # whether it was passed as store= or came attached to an
            # injected session.
            store = self.store if self.store is not None else getattr(self.session, "store", None)
            payloads = [
                {
                    "experiment": experiment.name,
                    "spec": spec.to_dict(),
                    "layer_specs": list(layer_specs.values()),
                    "points": [points[index] for index in chunk],
                    "store_root": str(store.root) if store is not None else None,
                }
                for chunk in chunks
            ]
            with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
                per_chunk = list(pool.map(_run_points_in_subprocess, payloads))
            per_point = [chunk_records for chunk in per_chunk for chunk_records in chunk]
        else:
            with ThreadPoolExecutor(max_workers=min(jobs, len(points))) as pool:
                per_point = list(pool.map(context.records_for, points))
        return assemble_result(
            context,
            points,
            per_point,
            layer_specs,
            jobs=jobs,
            executor=executor,
            duration_s=time.perf_counter() - started,
        )


def run_experiment(
    spec_or_name: "str | ExperimentSpec",
    jobs: int = 1,
    builder: WorkloadBuilder | None = None,
    session: Session | None = None,
    executor: str = "threads",
    store: Any | None = None,
    **overrides: Any,
) -> ExperimentResult:
    """One-shot convenience: build a runner, execute, return the result."""
    runner = ExperimentRunner(
        jobs=jobs, builder=builder, session=session, executor=executor, store=store
    )
    return runner.run(spec_or_name, **overrides)
