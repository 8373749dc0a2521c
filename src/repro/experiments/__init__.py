"""repro.experiments: the declarative experiment layer.

Experiments are *data*, not code: an
:class:`~repro.experiments.spec.ExperimentSpec` describes one evaluation run
(configuration overlay, workload selection, sweep grid, engine, seed), the
string-keyed :class:`~repro.experiments.registry.ExperimentRegistry` names
every figure/table/ablation of the paper, and the
:class:`~repro.experiments.runner.ExperimentRunner` expands a spec into grid
points, executes them (optionally concurrently) through one shared
:class:`~repro.engine.session.Session` and
:class:`~repro.workloads.generator.WorkloadBuilder`, and returns a uniform
:class:`~repro.experiments.result.ExperimentResult` (records + metadata +
provenance) that renders to the paper's table text or JSON files under
``results/``.

Typical use::

    from repro.experiments import run_experiment

    result = run_experiment("fig8_fifo_depth", jobs=4, workloads=("Alex-7",))
    print(result.to_table())
    result.write("results")

See ``docs/ARCHITECTURE.md`` for the spec -> registry -> runner -> result
layering and how to register your own experiment.
"""

from repro.experiments.catalog import BUILTIN_EXPERIMENTS
from repro.experiments.dse_catalog import DSE_EXPERIMENTS
from repro.experiments.models_catalog import MODEL_EXPERIMENTS
from repro.experiments.registry import Experiment, ExperimentRegistry, register_experiment
from repro.experiments.reliability_catalog import RELIABILITY_EXPERIMENTS
from repro.experiments.result import ExperimentResult
from repro.experiments.runner import ExperimentContext, ExperimentRunner, run_experiment
from repro.experiments.spec import ExperimentSpec

__all__ = [
    "BUILTIN_EXPERIMENTS",
    "DSE_EXPERIMENTS",
    "MODEL_EXPERIMENTS",
    "RELIABILITY_EXPERIMENTS",
    "Experiment",
    "ExperimentContext",
    "ExperimentRegistry",
    "ExperimentResult",
    "ExperimentRunner",
    "ExperimentSpec",
    "register_experiment",
    "run_experiment",
]
