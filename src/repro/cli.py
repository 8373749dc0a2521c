"""Command-line interface: one spec-driven entry point for the whole evaluation.

Every table, figure and ablation of the paper is a registered experiment of
:mod:`repro.experiments`; the classic ``table``/``figure``/``ablation``
commands are thin aliases that build the corresponding spec, and the
``experiment`` command exposes the registry directly::

    python -m repro.cli table 1                        # Table I
    python -m repro.cli table 4 --pes 64               # Table IV on 64 PEs
    python -m repro.cli figure 8                       # Figure 8 FIFO-depth sweep
    python -m repro.cli figure 11 --benchmarks Alex-6 NT-We
    python -m repro.cli ablation partitioning --benchmarks Alex-7
    python -m repro.cli summary                        # headline configuration
    python -m repro.cli run --engine cycle --rows 256 --cols 512 --batch 8

    python -m repro.cli engine list                    # registered simulation engines
    python -m repro.cli experiment list
    python -m repro.cli experiment describe fig8_fifo_depth
    python -m repro.cli experiment run fig8_fifo_depth --jobs 4
    python -m repro.cli experiment run --spec spec.json --results-dir results
    python -m repro.cli experiment run fig11_scalability \
        --set scale=64 --set "grid.num_pes=[1,8]" --set workloads=Alex-7

Figures 6-13 and Tables IV-V generate the full-size Table III workloads, so
the first invocation in a process takes tens of seconds; pass ``--scale N``
(or ``--set scale=N``) to run proportionally smaller layers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.report import format_table
from repro.compression.pipeline import CompressionConfig
from repro.core.config import EIEConfig
from repro.engine import EngineRegistry, Session
from repro.errors import ReproError
from repro.experiments import ExperimentRegistry, ExperimentRunner, ExperimentSpec
from repro.experiments.runner import EXECUTORS
from repro.store import ArtifactStore, default_store_root, maybe_default_store, store_enabled
from repro.models import ModelIR, ModelRegistry, ModelSpec, synthetic_model_inputs
from repro.hardware.area import chip_area_mm2, chip_power_w
from repro.utils.rng import make_rng
from repro.workloads.benchmarks import BENCHMARK_NAMES

__all__ = ["main", "build_parser"]

#: Legacy command aliases onto the experiment registry.
TABLE_EXPERIMENTS = {
    1: "table1_energy",
    2: "table2_area_power",
    3: "table3_benchmarks",
    4: "table4_wallclock",
    5: "table5_platforms",
}
FIGURE_EXPERIMENTS = {
    6: "fig6_speedup",
    7: "fig7_energy_efficiency",
    8: "fig8_fifo_depth",
    9: "fig9_sram_width",
    10: "fig10_precision",
    11: "fig11_scalability",
    12: "fig12_padding_zeros",
    13: "fig13_load_balance",
}
ABLATION_EXPERIMENTS = {
    "index-width": "ablation_index_width",
    "codebook-bits": "ablation_codebook_bits",
    "partitioning": "ablation_partitioning",
}

def _subcommands(parser: argparse.ArgumentParser) -> tuple[str, ...]:
    """The parser's top-level command names (for the unknown-command hint)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return tuple(action.choices)
    return ()


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``repro-eie`` command."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pes", type=int, default=64, help="number of processing elements")
    common.add_argument("--fifo-depth", type=int, default=8, help="activation FIFO depth")
    common.add_argument(
        "--benchmarks",
        nargs="+",
        default=list(BENCHMARK_NAMES),
        choices=list(BENCHMARK_NAMES),
        help="subset of Table III benchmarks to run",
    )
    common.add_argument(
        "--scale", type=float, default=None,
        help="down-scale the benchmark layers by this factor (fast smoke runs)",
    )
    parser = argparse.ArgumentParser(
        prog="repro-eie",
        description="Regenerate the tables, figures and ablations of the EIE paper.",
    )
    from repro import __version__

    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    engine_parser = subparsers.add_parser(
        "engine", help="inspect the registered simulation backends"
    )
    engine_sub = engine_parser.add_subparsers(dest="engine_command", required=True)
    engine_sub.add_parser("list", help="list every registered engine")

    table_parser = subparsers.add_parser("table", parents=[common], help="regenerate Table I-V")
    table_parser.add_argument("number", type=int, choices=(1, 2, 3, 4, 5))

    figure_parser = subparsers.add_parser("figure", parents=[common], help="regenerate Figure 6-13")
    figure_parser.add_argument("number", type=int, choices=tuple(range(6, 14)))

    ablation_parser = subparsers.add_parser(
        "ablation", parents=[common], help="run a design-choice ablation"
    )
    ablation_parser.add_argument(
        "which", choices=("index-width", "codebook-bits", "partitioning")
    )

    subparsers.add_parser(
        "summary", parents=[common], help="print the accelerator's headline characteristics"
    )

    run_parser = subparsers.add_parser(
        "run", parents=[common],
        help="compress a synthetic layer and run it through a simulation engine",
    )
    run_parser.add_argument(
        "--engine", choices=EngineRegistry.names(), default="functional",
        help="registered simulation backend to run",
    )
    run_parser.add_argument("--rows", type=int, default=64, help="layer output size")
    run_parser.add_argument("--cols", type=int, default=128, help="layer input size")
    run_parser.add_argument(
        "--density", type=float, default=0.10, help="weight density after pruning"
    )
    run_parser.add_argument(
        "--activation-density", type=float, default=0.35,
        help="density of the input activation vectors",
    )
    run_parser.add_argument("--batch", type=int, default=1, help="number of input vectors")
    run_parser.add_argument("--seed", type=int, default=0, help="RNG seed for the synthetic data")
    run_parser.add_argument(
        "--no-store", action="store_true",
        help="do not consult or populate the on-disk artifact store",
    )

    experiment_parser = subparsers.add_parser(
        "experiment", help="list, describe or run declarative experiments"
    )
    experiment_sub = experiment_parser.add_subparsers(dest="experiment_command", required=True)
    experiment_sub.add_parser("list", help="list every registered experiment")
    describe_parser = experiment_sub.add_parser(
        "describe", help="show one experiment's description and default spec"
    )
    describe_parser.add_argument("name", help="registered experiment name")
    exp_run_parser = experiment_sub.add_parser(
        "run", help="run one experiment from its name or a JSON spec file"
    )
    exp_run_parser.add_argument(
        "name", nargs="?", default=None, help="registered experiment name"
    )
    exp_run_parser.add_argument(
        "--spec", type=str, default=None, metavar="FILE",
        help="JSON spec file (see 'experiment describe' for the shape)",
    )
    exp_run_parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override one spec field (e.g. scale=64, config.num_pes=16, "
             "grid.fifo_depth=[1,8], workloads=Alex-6,NT-We)",
    )
    exp_run_parser.add_argument(
        "--jobs", type=int, default=1, help="run grid points on N workers"
    )
    exp_run_parser.add_argument(
        "--executor", choices=EXECUTORS, default="threads",
        help="worker backend for --jobs > 1: threads share one session and its patterns; "
             "processes rebuild both in every worker and share compression through the "
             "artifact store (on 2 cores: 36%% slower on full-scale fig11_scalability, "
             "13%% faster on dse_pareto); results are bit-identical on every backend",
    )
    exp_run_parser.add_argument(
        "--no-store", action="store_true",
        help="do not consult or populate the on-disk artifact store",
    )
    exp_run_parser.add_argument(
        "--results-dir", type=str, default=None, metavar="DIR",
        help="also write <experiment>.txt and <experiment>.json under DIR",
    )
    exp_run_parser.add_argument(
        "--shard-id", type=int, default=None, metavar="I",
        help="run only shard I of a --shard-count partition and publish its "
             "partial records to the artifact store (requires the store)",
    )
    exp_run_parser.add_argument(
        "--shard-count", type=int, default=None, metavar="N",
        help="partition the expanded grid into N contiguous shards "
             "(used with --shard-id; 'experiment merge' reassembles them)",
    )
    exp_merge_parser = experiment_sub.add_parser(
        "merge", help="merge a sharded run's partial records into the full result"
    )
    exp_merge_parser.add_argument(
        "name", nargs="?", default=None, help="registered experiment name"
    )
    exp_merge_parser.add_argument(
        "--spec", type=str, default=None, metavar="FILE",
        help="JSON spec file (must match the one the shards ran)",
    )
    exp_merge_parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override one spec field (must match the shard invocations)",
    )
    exp_merge_parser.add_argument(
        "--shard-count", type=int, required=True, metavar="N",
        help="the partition size the shards were run with",
    )
    exp_merge_parser.add_argument(
        "--no-recompute", action="store_true",
        help="fail (exit 2) on missing shards instead of recomputing them "
             "in this process",
    )
    exp_merge_parser.add_argument(
        "--results-dir", type=str, default=None, metavar="DIR",
        help="also write <experiment>.txt and <experiment>.json under DIR",
    )

    shard_parser = subparsers.add_parser(
        "shard", help="inspect a sharded sweep's partition and store status"
    )
    shard_sub = shard_parser.add_subparsers(dest="shard_command", required=True)
    shard_common = argparse.ArgumentParser(add_help=False)
    shard_common.add_argument(
        "name", nargs="?", default=None, help="registered experiment name"
    )
    shard_common.add_argument(
        "--spec", type=str, default=None, metavar="FILE",
        help="JSON spec file (see 'experiment describe' for the shape)",
    )
    shard_common.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override one spec field (must match the shard invocations)",
    )
    shard_common.add_argument(
        "--shard-count", type=int, required=True, metavar="N",
        help="partition size to plan against",
    )
    shard_sub.add_parser(
        "plan", parents=[shard_common],
        help="show the deterministic partition: each shard's point range and key",
    )
    shard_sub.add_parser(
        "status", parents=[shard_common],
        help="show which shards of the partition exist in the artifact store",
    )

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the on-disk compression artifact store"
    )
    cache_sub = cache_parser.add_subparsers(dest="cache_command", required=True)
    cache_common = argparse.ArgumentParser(add_help=False)
    cache_common.add_argument(
        "--dir", type=str, default=None, metavar="DIR",
        help="store directory (default: $REPRO_STORE_DIR or the user cache)",
    )
    cache_sub.add_parser(
        "info", parents=[cache_common],
        help="show the store location, entry count, size and process stats",
    )
    cache_sub.add_parser(
        "clear", parents=[cache_common], help="delete every store entry"
    )
    cache_sweep_parser = cache_sub.add_parser(
        "sweep", parents=[cache_common],
        help="delete abandoned .tmp files left by crashed writers",
    )
    cache_sweep_parser.add_argument(
        "--max-age", type=float, default=None, metavar="SECONDS",
        help="sweep temp files older than this (default: 3600)",
    )

    model_parser = subparsers.add_parser(
        "model", help="list, describe, compress or run whole-network models"
    )
    model_sub = model_parser.add_subparsers(dest="model_command", required=True)
    model_sub.add_parser("list", help="list every registered model")
    model_describe_parser = model_sub.add_parser(
        "describe", help="show one model's description, default spec and lowered nodes"
    )
    model_describe_parser.add_argument("name", help="registered model name")

    model_common = argparse.ArgumentParser(add_help=False)
    model_common.add_argument(
        "name", nargs="?", default=None, help="registered model name"
    )
    model_common.add_argument(
        "--npz", type=str, default=None, metavar="FILE",
        help="import the model from a .npz state dict instead of the registry",
    )
    model_common.add_argument(
        "--scale", type=float, default=None,
        help="down-scale the network dimensions by this factor (1 = paper size)",
    )
    model_common.add_argument("--seed", type=int, default=None, help="builder RNG seed")
    model_common.add_argument(
        "--param", dest="model_params", action="append", default=[], metavar="KEY=VALUE",
        help="builder parameter override (e.g. mode=stacked for the LSTM)",
    )
    model_common.add_argument(
        "--pes", type=int, default=64, help="number of processing elements"
    )
    model_common.add_argument(
        "--density", type=float, default=None,
        help="prune every node to this weight density before compression "
             "(default: keep each matrix's existing sparsity)",
    )
    model_common.add_argument(
        "--no-store", action="store_true",
        help="do not consult or populate the on-disk artifact store",
    )

    model_sub.add_parser(
        "compress", parents=[model_common],
        help="run Deep Compression on every node and report the storage totals",
    )
    model_run_parser = model_sub.add_parser(
        "run", parents=[model_common],
        help="run a whole model through a simulation engine with measured "
             "inter-layer activation sparsity",
    )
    model_run_parser.add_argument(
        "--engine", choices=EngineRegistry.names(), default="cycle",
        help="registered simulation backend to run every node on",
    )
    model_run_parser.add_argument(
        "--fifo-depth", type=int, default=8, help="activation FIFO depth"
    )
    model_run_parser.add_argument(
        "--batch", type=int, default=1, help="number of input vectors"
    )
    model_run_parser.add_argument(
        "--input-seed", type=int, default=1, help="RNG seed for the synthetic inputs"
    )
    model_run_parser.add_argument(
        "--input-density", type=float, default=None,
        help="density of the synthetic input vectors "
             "(default: the model's expected Act%%)",
    )

    serve_common = argparse.ArgumentParser(add_help=False)
    serve_common.add_argument(
        "--models", nargs="+", default=["neuraltalk_lstm"], metavar="NAME",
        help="registered models to serve",
    )
    serve_common.add_argument(
        "--engine", choices=EngineRegistry.names(), default="cycle",
        help="registered simulation backend requests run on",
    )
    serve_common.add_argument(
        "--scale", type=float, default=None,
        help="down-scale the served networks by this factor (1 = paper size)",
    )
    serve_common.add_argument("--seed", type=int, default=None, help="model builder RNG seed")
    serve_common.add_argument(
        "--pes", type=int, default=16, help="number of processing elements"
    )
    serve_common.add_argument(
        "--fifo-depth", type=int, default=8, help="activation FIFO depth"
    )
    serve_common.add_argument(
        "--density", type=float, default=None,
        help="prune every node to this weight density before compression",
    )
    serve_common.add_argument(
        "--max-batch", type=int, default=16,
        help="largest coalesced request batch per dispatch",
    )
    serve_common.add_argument(
        "--max-wait-us", type=float, default=1000.0,
        help="how long a non-full batch waits for stragglers (microseconds)",
    )
    serve_common.add_argument(
        "--queue-depth", type=int, default=256,
        help="per-model queue bound; arrivals beyond it are rejected",
    )
    serve_common.add_argument(
        "--no-store", action="store_true",
        help="do not consult or populate the on-disk artifact store",
    )

    serve_parser = subparsers.add_parser(
        "serve", parents=[serve_common],
        help="run the async inference daemon (or `serve bench` to load-test one)",
    )
    serve_parser.add_argument(
        "--host", type=str, default="127.0.0.1", help="daemon listen address"
    )
    serve_parser.add_argument(
        "--port", type=int, default=0,
        help="daemon listen port (0 = pick an ephemeral port and print it)",
    )
    serve_parser.add_argument(
        "--chaos", action="store_true",
        help="honour 'chaos' protocol requests (latency injection for the "
             "chaos harness; never enable on a real deployment)",
    )
    serve_sub = serve_parser.add_subparsers(dest="serve_command", required=False)
    serve_bench_parser = serve_sub.add_parser(
        "bench", parents=[serve_common],
        help="drive the open-loop load generator against a daemon or an "
             "in-process server",
    )
    serve_bench_parser.add_argument(
        "--connect", type=str, default=None, metavar="HOST:PORT",
        help="benchmark a running daemon instead of an in-process server",
    )
    serve_bench_parser.add_argument(
        "--model", type=str, default=None,
        help="which served model to drive (default: the only/first one)",
    )
    serve_bench_parser.add_argument(
        "--rate", nargs="+", type=float, default=[400.0], metavar="RPS",
        help="offered load sweep, requests/second (open-loop Poisson arrivals)",
    )
    serve_bench_parser.add_argument(
        "--requests", type=int, default=200, help="requests per offered-load point"
    )
    serve_bench_parser.add_argument(
        "--arrival-seed", type=int, default=0, help="RNG seed for the arrival process"
    )
    serve_bench_parser.add_argument(
        "--input-seed", type=int, default=1, help="RNG seed for the request vectors"
    )
    serve_bench_parser.add_argument(
        "--closed-loop", type=int, default=None, metavar="N",
        help="closed-loop mode: N workers each keep one request in flight "
             "(the capacity probe; --rate is ignored)",
    )
    serve_bench_parser.add_argument(
        "--verify", action="store_true",
        help="after the sweep, re-run every request through the offline "
             "Session.run_model path and require bit-identical outputs",
    )

    serve_status_parser = serve_sub.add_parser(
        "status", help="health-probe a running daemon (models, queue, uptime)"
    )
    serve_status_parser.add_argument(
        "--connect", type=str, required=True, metavar="HOST:PORT",
        help="daemon to probe",
    )

    serve_fleet_parser = serve_sub.add_parser(
        "fleet", parents=[serve_common],
        help="run a supervised multi-worker daemon fleet (heartbeats, "
             "backoff restarts, crash-loop budget)",
    )
    serve_fleet_parser.add_argument(
        "--workers", type=int, default=3, help="daemon worker processes"
    )
    serve_fleet_parser.add_argument(
        "--host", type=str, default="127.0.0.1", help="worker listen address"
    )
    serve_fleet_parser.add_argument(
        "--port", type=int, default=0,
        help="first worker port, worker i gets port+i "
             "(0 = fresh ephemeral ports)",
    )
    serve_fleet_parser.add_argument(
        "--chaos", action="store_true",
        help="start every worker with chaos hooks enabled (test fleets only)",
    )

    serve_chaos_parser = serve_sub.add_parser(
        "chaos", parents=[serve_common],
        help="chaos acceptance run: a worker fleet under closed-loop load "
             "with a seeded kill/stall/corruption plan and bit verification",
    )
    serve_chaos_parser.add_argument(
        "--workers", type=int, default=3, help="fleet worker processes"
    )
    serve_chaos_parser.add_argument(
        "--requests", type=int, default=300, help="closed-loop requests to issue"
    )
    serve_chaos_parser.add_argument(
        "--closed-loop", type=int, default=8, metavar="N",
        help="closed-loop concurrency (N in-flight requests)",
    )
    serve_chaos_parser.add_argument(
        "--input-seed", type=int, default=1, help="RNG seed for request vectors"
    )
    serve_chaos_parser.add_argument(
        "--chaos-seed", type=int, default=0, help="RNG seed for the fault plan"
    )
    serve_chaos_parser.add_argument(
        "--duration", type=float, default=6.0,
        help="fault-plan window in seconds (events are scheduled inside it)",
    )
    serve_chaos_parser.add_argument(
        "--kills", type=int, default=2, help="SIGKILL events in the plan"
    )
    serve_chaos_parser.add_argument(
        "--stalls", type=int, default=1, help="latency-injection events in the plan"
    )
    serve_chaos_parser.add_argument(
        "--corruptions", type=int, default=1,
        help="artifact-store corruption events in the plan",
    )
    serve_chaos_parser.add_argument(
        "--verify", action="store_true",
        help="bit-compare every completed response against the offline "
             "Session.run_model path",
    )
    serve_chaos_parser.add_argument(
        "--compare-single", action="store_true",
        help="also run the same load chaos-free against the fleet and "
             "against one worker, requiring fleet throughput >= "
             "--min-speedup x single",
    )
    serve_chaos_parser.add_argument(
        "--min-speedup", type=float, default=1.0,
        help="required fleet/single throughput ratio for --compare-single",
    )
    return parser


def _config(args: argparse.Namespace) -> dict[str, object]:
    return {"num_pes": args.pes, "fifo_depth": args.fifo_depth}


def _store_for(args: argparse.Namespace) -> "ArtifactStore | None":
    """The artifact store a CLI invocation should use (or ``None``).

    Disabled by the command's ``--no-store`` flag or the ``REPRO_STORE=0``
    environment gate; otherwise the machine-wide default store, so repeated
    CLI invocations share one Deep Compression pass per distinct layer.
    """
    if getattr(args, "no_store", False):
        return None
    return maybe_default_store()


def _runner(jobs: int = 1, executor: str = "threads", store: "ArtifactStore | None" = None) -> ExperimentRunner:
    return ExperimentRunner(jobs=jobs, executor=executor, store=store)


def _note_scale_ignored(args: argparse.Namespace, name: str) -> None:
    if args.scale is not None:
        print(
            f"repro-eie: note: --scale has no effect on {name} "
            "(its workload selection is fixed)",
            file=sys.stderr,
        )


def _run_table(args: argparse.Namespace) -> str:
    name = TABLE_EXPERIMENTS[args.number]
    kwargs: dict[str, object] = {}
    if args.number == 4:
        kwargs = {"workloads": args.benchmarks, "config": _config(args), "scale": args.scale}
    else:
        _note_scale_ignored(args, name)
    return _runner().run(name, **kwargs).to_table()


def _run_figure(args: argparse.Namespace) -> str:
    name = FIGURE_EXPERIMENTS[args.number]
    kwargs: dict[str, object] = {}
    if args.number != 10:
        kwargs = {"workloads": args.benchmarks, "config": _config(args), "scale": args.scale}
    else:
        _note_scale_ignored(args, name)
    return _runner().run(name, **kwargs).to_table()


def _run_ablation(args: argparse.Namespace) -> str:
    name = ABLATION_EXPERIMENTS[args.which]
    kwargs: dict[str, object] = {}
    if args.which != "codebook-bits":
        kwargs = {
            "workloads": (args.benchmarks[0],),
            "config": _config(args),
            "scale": args.scale,
        }
    else:
        _note_scale_ignored(args, name)
    return _runner().run(name, **kwargs).to_table()


def _parse_override(
    assignment: str, context: str = "experiment run: --set"
) -> tuple[str, object]:
    """Parse one ``--set``/``--param`` ``key=value`` assignment.

    Values are read as JSON where possible (numbers, lists, booleans,
    quoted strings); a bare comma-separated value becomes a list and
    anything else stays a string.  ``context`` names the command and flag in
    the error message.
    """
    key, separator, raw = assignment.partition("=")
    key = key.strip()
    if not separator or not key:
        raise SystemExit(f"{context} expects KEY=VALUE, got {assignment!r}")

    def parse_scalar(text: str) -> object:
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            return text

    raw = raw.strip()
    try:
        value: object = json.loads(raw)
    except json.JSONDecodeError:
        # Not JSON: a bare comma-separated value becomes a list, anything
        # else stays a string.  (A JSON-quoted string keeps its commas.)
        if "," in raw:
            value = [parse_scalar(part.strip()) for part in raw.split(",")]
        else:
            value = raw
    return key, value


def _experiment_spec_from_args(
    args: argparse.Namespace, command: str
) -> ExperimentSpec:
    """Resolve the merged spec an experiment subcommand names.

    Shared by ``experiment run``, ``experiment merge`` and ``shard
    plan/status`` — the sharded flow depends on every invocation resolving
    the identical spec from the identical arguments.
    """
    if args.spec is not None:
        spec = ExperimentSpec.from_json(Path(args.spec).read_text())
        if args.name is not None and args.name != spec.experiment:
            raise SystemExit(
                f"experiment {command}: name {args.name!r} does not match the "
                f"spec file's experiment {spec.experiment!r}"
            )
    elif args.name is not None:
        spec = ExperimentSpec(experiment=args.name)
    else:
        raise SystemExit(f"experiment {command}: give an experiment name or --spec FILE")
    experiment = ExperimentRegistry.get(spec.experiment)
    spec = experiment.spec.merged(spec)
    if args.overrides:
        spec = spec.with_overrides([_parse_override(entry) for entry in args.overrides])
    return spec


def _shard_store(context: str) -> "ArtifactStore":
    """The store a sharded subcommand requires (typed error when disabled)."""
    from repro.errors import ShardError

    store = maybe_default_store()
    if store is None:
        raise ShardError(
            f"{context} needs the artifact store to exchange partial results "
            f"(it is disabled; unset REPRO_STORE=0 or set REPRO_STORE_DIR)"
        )
    return store


def _run_experiment_shard(args: argparse.Namespace, spec: ExperimentSpec) -> str:
    """``experiment run --shard-id I --shard-count N``: run one partition."""
    from repro.errors import ShardCoordinateError
    from repro.shard import plan_shards, run_shard, validate_coords

    if args.shard_id is None or args.shard_count is None:
        raise ShardCoordinateError(
            "experiment run: --shard-id and --shard-count go together "
            "(give both or neither)"
        )
    validate_coords(args.shard_id, args.shard_count)
    store = _shard_store("experiment run --shard-id")
    runner = _runner(jobs=args.jobs, executor=args.executor, store=store)
    plan = plan_shards(spec, args.shard_count, runner=runner)
    summary = run_shard(plan, args.shard_id, store, runner=runner)
    origin = "store (already published)" if summary["cached"] else "this run"
    return (
        f"shard {summary['shard_id']}/{summary['shard_count']} of "
        f"{plan.experiment.name}: {summary['points']} of {len(plan.points)} "
        f"points from {origin}\nkey {summary['key']}\n"
        f"merge with: repro experiment merge {plan.experiment.name} "
        f"--shard-count {summary['shard_count']}"
    )


def _run_experiment_merge(args: argparse.Namespace) -> str:
    """``experiment merge``: reassemble shard artifacts into the full result."""
    from repro.shard import merge_shards, plan_shards

    spec = _experiment_spec_from_args(args, "merge")
    store = _shard_store("experiment merge")
    runner = _runner(store=store)
    plan = plan_shards(spec, args.shard_count, runner=runner)
    result = merge_shards(plan, store, runner=runner, recompute=not args.no_recompute)
    if args.results_dir:
        txt_path, json_path = result.write(args.results_dir)
        print(f"wrote {txt_path} and {json_path}", file=sys.stderr)
    stats = store.stats()["by_kind"]["shards"]
    print(
        f"{result.experiment}: merged {plan.shard_count} shards, "
        f"{result.metadata['points']} points "
        f"(store: {stats['hits']} shard hits, {stats['stores']} recomputed)",
        file=sys.stderr,
    )
    return result.to_table()


def _run_shard_command(args: argparse.Namespace) -> str:
    """``shard plan``/``shard status``: inspect a partition and its store state."""
    from repro.shard import plan_shards

    spec = _experiment_spec_from_args(args, args.shard_command)
    store = _shard_store(f"shard {args.shard_command}")
    plan = plan_shards(spec, args.shard_count, runner=_runner(store=store))
    rows = plan.describe(store)
    if args.shard_command == "plan":
        return (
            f"{plan.experiment.name}: {len(plan.points)} points over "
            f"{plan.shard_count} shards\n"
            + format_table(
                ["Shard", "Points", "Range", "Key", "In store"],
                [
                    [r["shard_id"], r["points"], f"[{r['start']}, {r['stop']})",
                     r["key"][:16], "yes" if r["present"] else "no"]
                    for r in rows
                ],
            )
        )
    present = sum(1 for r in rows if r["present"])
    missing = [r["shard_id"] for r in rows if not r["present"]]
    status = (
        f"{plan.experiment.name}: {present}/{plan.shard_count} shards in "
        f"{store.root}"
    )
    if missing:
        status += f"\nmissing shard ids: {', '.join(map(str, missing))}"
    else:
        status += "\nall shards present; 'experiment merge' will be pure loads"
    return status


def _run_experiment_command(args: argparse.Namespace) -> str:
    if args.experiment_command == "list":
        rows = [
            [name, ExperimentRegistry.get(name).description]
            for name in ExperimentRegistry.names()
        ]
        return format_table(["Experiment", "Description"], rows)
    if args.experiment_command == "describe":
        return json.dumps(ExperimentRegistry.describe(args.name), indent=2)
    if args.experiment_command == "merge":
        return _run_experiment_merge(args)

    spec = _experiment_spec_from_args(args, "run")
    if args.shard_id is not None or args.shard_count is not None:
        return _run_experiment_shard(args, spec)
    result = _runner(
        jobs=args.jobs, executor=args.executor, store=_store_for(args)
    ).run(spec)
    if args.results_dir:
        txt_path, json_path = result.write(args.results_dir)
        print(f"wrote {txt_path} and {json_path}", file=sys.stderr)
    print(
        f"{result.experiment}: {result.metadata['points']} points, "
        f"jobs={result.metadata['jobs']} ({result.metadata['executor']}), "
        f"{result.metadata['duration_s']:.2f}s",
        file=sys.stderr,
    )
    return result.to_table()


def _resolve_model(args: argparse.Namespace) -> ModelIR:
    """Build the model a ``model compress``/``model run`` invocation names.

    Either a registered model (with optional ``--scale``/``--seed``/
    ``--param`` overlays onto its default spec) or an imported ``.npz``
    state dict (``--npz``).
    """
    if args.npz is not None:
        if args.name is not None:
            raise SystemExit(
                "model: give a registered model name or --npz FILE, not both"
            )
        if args.scale is not None or args.seed is not None or args.model_params:
            raise SystemExit(
                "model: --scale/--seed/--param describe a registry build and "
                "have no effect on an imported --npz model"
            )
        return ModelIR.from_npz(args.npz)
    if args.name is None:
        raise SystemExit("model: give a registered model name or --npz FILE")
    params = dict(
        _parse_override(entry, context="model: --param") for entry in args.model_params
    )
    spec = ModelSpec(model=args.name, scale=args.scale, seed=args.seed, params=params)
    return ModelRegistry.build(spec)


def _model_session(args: argparse.Namespace, config: EIEConfig) -> Session:
    compression = CompressionConfig(target_density=args.density)
    return Session(compression, config=config, store=_store_for(args))


def _run_cache_command(args: argparse.Namespace) -> str:
    from repro.store.artifacts import _default_budget

    root = args.dir if args.dir else default_store_root()
    store = ArtifactStore(root, size_budget_bytes=_default_budget())
    if args.cache_command == "clear":
        removed = store.clear()
        return f"removed {removed} artifact store entr{'y' if removed == 1 else 'ies'} from {store.root}"
    if args.cache_command == "sweep":
        swept = store.sweep_stale_tmp(max_age_s=args.max_age)
        return f"swept {swept} stale temp file{'' if swept == 1 else 's'} from {store.root}"
    description = store.describe()
    lifetime = description["lifetime"]
    budget = description["size_budget_bytes"]
    rows = [
        ["Store root", description["root"]],
        ["Entries", description["entries"]],
        ["Size (KiB)", f"{description['size_bytes'] / 1024.0:.1f}"],
        ["Size budget (KiB)", "none" if budget is None else f"{budget / 1024.0:.1f}"],
        ["Payload format", description["format"]],
        ["Enabled (REPRO_STORE)", store_enabled()],
        ["Stored (lifetime)", lifetime["stored_entries"]],
        ["Corrupt (lifetime)", lifetime["corrupt_entries"]],
        ["Swept tmp (lifetime)", lifetime["swept_tmp_files"]],
        ["Evicted (lifetime)", lifetime["evicted_entries"]],
    ]
    kind_rows = [
        [kind, info["entries"], f"{info['size_bytes'] / 1024.0:.1f}",
         description["by_kind"][kind]["hits"], description["by_kind"][kind]["misses"],
         description["by_kind"][kind]["evictions"]]
        for kind, info in description["kinds"].items()
    ]
    return (
        "Compression artifact store:\n"
        + format_table(["Field", "Value"], rows)
        + "\n\nPer artifact kind (this process):\n"
        + format_table(
            ["Kind", "Entries", "KiB", "Hits", "Misses", "Evicted"], kind_rows
        )
    )


def _run_model_command(args: argparse.Namespace) -> str:
    import numpy as np

    if args.model_command == "list":
        rows = [
            [name, ModelRegistry.get(name).description]
            for name in ModelRegistry.names()
        ]
        return format_table(["Model", "Description"], rows)
    if args.model_command == "describe":
        return json.dumps(ModelRegistry.describe(args.name), indent=2)

    model = _resolve_model(args)
    if args.pes < 1:
        raise SystemExit("model: --pes must be >= 1")
    if args.density is not None and not 0.0 < args.density <= 1.0:
        raise SystemExit("model: --density must be in (0, 1]")

    if args.model_command == "compress":
        session = _model_session(args, EIEConfig(num_pes=args.pes))
        compressed = session.compress_model(model, num_pes=args.pes)
        report = compressed.storage_report()
        node_rows = [
            [entry["node"], "shared" if entry["shared"] else "",
             f"{entry['weight_density']:.1%}", entry["compression_ratio"],
             entry["huffman_compression_ratio"], f"{entry['padding_fraction']:.2%}"]
            for entry in report["per_node"]
        ]
        summary_rows = [
            ["Model", report["model"]],
            ["Nodes (unique layers)", f"{report['num_nodes']} ({report['num_unique_layers']})"],
            ["Parameters", model.num_parameters],
            ["Dense storage (KiB)", report["dense_bits"] / 8192.0],
            ["Compressed storage (KiB)", report["compressed_bits"] / 8192.0],
            ["Compression ratio", report["compression_ratio"]],
            ["With Huffman coding", report["huffman_compression_ratio"]],
            ["Weight density", f"{report['weight_density']:.1%}"],
        ]
        return (
            f"Deep Compression ({args.pes} PEs):\n"
            + format_table(["Field", "Value"], summary_rows)
            + "\n\n"
            + format_table(
                ["Node", "Dedup", "Weight%", "Ratio", "Huffman", "Padding"], node_rows
            )
        )

    # model run
    if args.batch < 1:
        raise SystemExit("model run: --batch must be >= 1")
    config = EIEConfig(num_pes=args.pes, fifo_depth=args.fifo_depth)
    session = _model_session(args, config)
    inputs = synthetic_model_inputs(
        model, batch=args.batch, seed=args.input_seed, density=args.input_density
    )
    run = session.run_model(args.engine, model, inputs, config)

    node_rows = []
    for node_run in run.nodes:
        row = [
            node_run.name,
            f"{node_run.layer.rows} x {node_run.layer.cols}",
            f"{node_run.layer.weight_density:.1%}",
            f"{node_run.input_density:.1%}",
        ]
        if node_run.result.cycles:
            row += [node_run.total_cycles, f"{node_run.latency_s * 1e6:.2f}"]
        else:
            broadcasts = sum(f.broadcasts for f in node_run.result.functional) or "-"
            row += [broadcasts, "-"]
        node_rows.append(row)
    header = f"Model run ({run.model_name} on {args.engine}, {args.pes} PEs, batch {run.batch_size}):\n"
    body = format_table(
        ["Node", "Shape", "Weight%", "Act%", "Cycles" if run.has_timing else "Broadcasts",
         "Latency (us)"],
        node_rows,
    )
    totals: list[list[object]] = [["Output size", run.outputs.shape[-1]]]
    if run.has_timing:
        totals += [
            ["Total cycles", run.total_cycles],
            ["Latency (us, batch total)", f"{run.latency_s * 1e6:.2f}"],
            ["Latency (us, per frame)", f"{run.latency_s / run.batch_size * 1e6:.2f}"],
            ["Energy (uJ, batch total)", f"{run.energy_j * 1e6:.3f}"],
        ]
    last = run.nodes[-1]
    if last.result.outputs is not None:
        bias = model.nodes[-1].bias
        if bias is None or not np.count_nonzero(bias):
            matches = bool(np.allclose(last.result.outputs, run.outputs))
            totals.append(["Matches decoded dense reference", matches])
    return header + body + "\n\n" + format_table(["Field", "Value"], totals)


def _run_engine(args: argparse.Namespace) -> str:
    """Compress one synthetic layer and run it through the selected engine.

    This is the CLI face of the :mod:`repro.engine` seam (and the CI smoke
    test): a Bernoulli-sparse layer is compressed once into the session
    cache, prepared once, and the whole activation batch is executed with a
    single ``run`` call.
    """
    import numpy as np

    if args.rows < 1 or args.cols < 1 or args.batch < 1:
        raise SystemExit("run: --rows, --cols and --batch must be >= 1")
    if not 0.0 < args.density <= 1.0:
        raise SystemExit("run: --density must be in (0, 1]")
    if not 0.0 < args.activation_density <= 1.0:
        raise SystemExit("run: --activation-density must be in (0, 1]")
    config = EIEConfig(num_pes=args.pes, fifo_depth=args.fifo_depth)
    rng = make_rng(args.seed)
    weights = rng.normal(0.0, 0.1, size=(args.rows, args.cols))
    session = Session(
        CompressionConfig(target_density=args.density),
        config=config,
        store=_store_for(args),
    )
    layer = session.compress(weights, num_pes=config.num_pes, name="cli-synthetic")
    activations = rng.uniform(0.1, 1.0, size=(args.batch, args.cols))
    activations[rng.random((args.batch, args.cols)) >= args.activation_density] = 0.0
    result = session.run(args.engine, layer, activations)

    rows: list[list[object]] = [
        ["Engine", args.engine],
        ["Layer", f"{layer.rows} x {layer.cols} ({layer.weight_density:.1%} dense)"],
        ["PEs / FIFO depth", f"{config.num_pes} / {config.fifo_depth}"],
        ["Batch", result.batch_size],
    ]
    if result.outputs is not None:
        reference = np.maximum(layer.dense_weights() @ activations.T, 0.0).T
        rows.append(["Output shape", "x".join(str(s) for s in result.outputs.shape)])
        rows.append(["Matches dense reference", bool(np.allclose(result.outputs, reference))])
    if result.functional:
        rows.append(["Broadcasts (mean)",
                     sum(f.broadcasts for f in result.functional) / len(result.functional)])
        rows.append(["Entries processed (total)",
                     sum(f.total_entries_processed for f in result.functional)])
    if result.cycles:
        total = sum(stats.total_cycles for stats in result.cycles)
        rows.append(["Cycles (total)", total])
        rows.append(["Latency (us, total)", f"{sum(s.time_s for s in result.cycles) * 1e6:.2f}"])
        rows.append(["Load balance (first item)",
                     f"{result.cycles[0].load_balance_efficiency:.1%}"])
    return f"Engine run ({args.engine}):\n" + format_table(["Field", "Value"], rows)


def _run_engine_command(args: argparse.Namespace) -> str:
    """``engine list``: every registered engine name, one per line."""
    return "Registered simulation engines:\n" + "\n".join(EngineRegistry.names())


def _build_serve_server(args: argparse.Namespace):
    """Construct (not start) a :class:`repro.serve.Server` from CLI flags."""
    from repro.serve import BatchPolicy, Server

    if args.pes < 1:
        raise SystemExit("serve: --pes must be >= 1")
    if args.density is not None and not 0.0 < args.density <= 1.0:
        raise SystemExit("serve: --density must be in (0, 1]")
    specs = [
        ModelSpec(model=name, scale=args.scale, seed=args.seed)
        for name in args.models
    ]
    return Server(
        specs,
        engine=args.engine,
        config=EIEConfig(num_pes=args.pes, fifo_depth=args.fifo_depth),
        compression=CompressionConfig(target_density=args.density),
        policy=BatchPolicy(
            max_batch=args.max_batch,
            max_wait_us=args.max_wait_us,
            queue_depth=args.queue_depth,
        ),
        store=_store_for(args),
        chaos=getattr(args, "chaos", False),
    )


def _run_serve_daemon(args: argparse.Namespace) -> str:
    """``serve``: the long-lived TCP daemon with graceful SIGTERM drain."""
    import asyncio
    import signal

    from repro.serve import start_daemon

    async def daemon() -> str:
        server = await _build_serve_server(args).start()
        listener = await start_daemon(server, host=args.host, port=args.port)
        host, port = listener.sockets[0].getsockname()[:2]
        print(
            f"repro-serve: listening on {host}:{port} "
            f"(models: {', '.join(server.models)}; engine {server.engine_name}, "
            f"{server.config.num_pes} PEs)",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        # Drain: stop accepting connections, serve everything already
        # queued, then report.  In-flight responses flush on their open
        # connections before the process exits.  The drain comes before
        # wait_closed: from Python 3.12.1 that waits for every connection,
        # and an idle one ends only when Server.drained feeds it an EOF.
        print("repro-serve: draining...", flush=True)
        listener.close()
        stats = await server.close(drain=True)
        await listener.wait_closed()
        await asyncio.sleep(0.1)  # let connection tasks flush final responses
        totals = {
            key: sum(model[key] for model in stats["models"].values())
            for key in ("received", "served", "rejected", "errors")
        }
        return (
            f"repro-serve: drained ({totals['served']} served, "
            f"{totals['rejected']} rejected, {totals['errors']} errors)"
        )

    return asyncio.run(daemon())


def _serve_bench_offline_verify(
    model: ModelIR,
    session: Session,
    engine: str,
    config: EIEConfig,
    inputs,
    reports,
) -> str:
    """Bit-compare every served output with the offline batch-1 path."""
    import numpy as np

    checked = mismatched = 0
    reference: dict[int, object] = {}
    for report in reports:
        if report.outputs is None:
            continue
        for index, served in enumerate(report.outputs):
            if served is None:
                continue  # rejected/errored request: nothing to compare
            if index not in reference:
                reference[index] = session.run_model(
                    engine, model, inputs[index], config
                ).outputs[0]
            checked += 1
            if not np.array_equal(served, reference[index]):
                mismatched += 1
    if checked == 0:
        raise SystemExit("serve bench: --verify had no completed requests to check")
    if mismatched:
        raise SystemExit(
            f"serve bench: VERIFY FAILED — {mismatched}/{checked} responses "
            "differ from the offline Session.run_model path"
        )
    return f"verify: {checked} responses bit-identical to the offline run_model path"


def _run_serve_bench(args: argparse.Namespace) -> str:
    """``serve bench``: load sweep against a daemon or in-process server.

    Open-loop rate sweep by default; ``--closed-loop N`` runs one
    fixed-concurrency capacity probe instead.
    """
    import asyncio

    from repro.serve import AsyncServeClient, run_closed_loop, run_open_loop

    if args.requests < 1:
        raise SystemExit("serve bench: --requests must be >= 1")
    if args.closed_loop is not None and args.closed_loop < 1:
        raise SystemExit("serve bench: --closed-loop must be >= 1")

    async def drive(submit, inputs) -> list:
        """One report per sweep point: rates open loop, or one closed loop."""
        if args.closed_loop is not None:
            return [
                await run_closed_loop(
                    submit,
                    inputs,
                    concurrency=args.closed_loop,
                    capture_outputs=args.verify,
                )
            ]
        return [
            await run_open_loop(
                submit,
                inputs,
                rate_rps=rate,
                seed=args.arrival_seed,
                capture_outputs=args.verify,
            )
            for rate in args.rate
        ]

    async def bench_remote() -> tuple[list, str | None]:
        host, port = _parse_connect(args.connect, "serve bench")
        client = await AsyncServeClient.connect(host, port)
        try:
            described = await client.models()
            name = args.model or sorted(described)[0]
            if name not in described:
                raise SystemExit(
                    f"serve bench: daemon does not serve {name!r} "
                    f"(serving: {', '.join(sorted(described))})"
                )
            description = described[name]
            if args.verify and description.get("spec") is None:
                raise SystemExit(
                    "serve bench: --verify needs a registry-built model "
                    "(the daemon served a raw IR with no rebuild spec)"
                )
            model = (
                ModelRegistry.build(ModelSpec.from_dict(description["spec"]))
                if description.get("spec") is not None
                else None
            )
            config = EIEConfig(
                num_pes=description["num_pes"], fifo_depth=description["fifo_depth"]
            )
            inputs = _serve_bench_inputs(args, model, description)
            reports = await drive(lambda vector: client.infer(name, vector), inputs)
            verdict = None
            if args.verify:
                session = Session(
                    CompressionConfig.from_dict(description["compression"]),
                    config=config,
                )
                verdict = _serve_bench_offline_verify(
                    model, session, description["engine"], config, inputs, reports
                )
            return reports, verdict
        finally:
            await client.close()

    async def bench_local() -> tuple[list, str | None]:
        server = _build_serve_server(args)
        async with server:
            name = args.model or server.models[0]
            if name not in server.models:
                raise SystemExit(
                    f"serve bench: server does not serve {name!r} "
                    f"(serving: {', '.join(server.models)})"
                )
            description = server.describe(name)
            model = ModelRegistry.build(ModelSpec.from_dict(description["spec"]))
            inputs = _serve_bench_inputs(args, model, description)
            reports = await drive(lambda vector: server.submit(name, vector), inputs)
        verdict = None
        if args.verify:
            config = EIEConfig(num_pes=args.pes, fifo_depth=args.fifo_depth)
            session = Session(
                CompressionConfig(target_density=args.density), config=config
            )
            verdict = _serve_bench_offline_verify(
                model, session, args.engine, config, inputs, reports
            )
        return reports, verdict

    reports, verdict = asyncio.run(
        bench_remote() if args.connect else bench_local()
    )
    records = [report.record() for report in reports]
    if args.closed_loop is not None:
        rows = [
            [r["concurrency"], r["completed"], r["rejected"], r["errors"],
             f"{r['throughput_rps']:.1f}", f"{r['p50_ms']:.3f}", f"{r['p99_ms']:.3f}",
             f"{r['mean_batch']:.2f}"]
            for r in records
        ]
        output = "Closed-loop serving benchmark:\n" + format_table(
            ["Workers", "Done", "Rej", "Err", "Throughput (rps)",
             "p50 (ms)", "p99 (ms)", "Mean batch"],
            rows,
        )
    else:
        rows = [
            [r["offered_rps"], r["completed"], r["rejected"], r["errors"],
             f"{r['throughput_rps']:.1f}", f"{r['p50_ms']:.3f}", f"{r['p99_ms']:.3f}",
             f"{r['mean_batch']:.2f}"]
            for r in records
        ]
        output = "Open-loop serving benchmark:\n" + format_table(
            ["Offered (rps)", "Done", "Rej", "Err", "Throughput (rps)",
             "p50 (ms)", "p99 (ms)", "Mean batch"],
            rows,
        )
    if verdict:
        output += f"\n\n{verdict}"
    return output


def _serve_bench_inputs(args: argparse.Namespace, model, description):
    """The deterministic request matrix for one bench run."""
    if model is not None:
        return synthetic_model_inputs(
            model, batch=args.requests, seed=args.input_seed
        )
    # No rebuild spec (raw IR daemon): dense uniform vectors still exercise
    # the service, they just cannot be verified offline.
    rng = make_rng(args.input_seed)
    return rng.uniform(0.1, 1.0, size=(args.requests, description["input_size"]))


def _parse_connect(text: str, what: str) -> tuple[str, int]:
    host, _, port_text = text.rpartition(":")
    if not host or not port_text.isdecimal() or not 1 <= int(port_text) <= 65535:
        raise SystemExit(f"{what}: --connect expects HOST:PORT with a port in 1-65535")
    return host, int(port_text)


def _serve_worker_args(args: argparse.Namespace, chaos: bool = False) -> list[str]:
    """Rebuild the daemon argument vector one fleet worker should run with.

    The supervisor spawns ``python -m repro.cli serve <these args> --host
    H --port P``, so every ``serve_common`` flag the operator passed to
    ``serve fleet`` / ``serve chaos`` must round-trip through here.
    """
    worker = [
        "--models", *args.models,
        "--engine", args.engine,
        "--pes", str(args.pes),
        "--fifo-depth", str(args.fifo_depth),
        "--max-batch", str(args.max_batch),
        "--max-wait-us", str(args.max_wait_us),
        "--queue-depth", str(args.queue_depth),
    ]
    if args.scale is not None:
        worker += ["--scale", str(args.scale)]
    if args.seed is not None:
        worker += ["--seed", str(args.seed)]
    if args.density is not None:
        worker += ["--density", str(args.density)]
    if args.no_store:
        worker.append("--no-store")
    if chaos or getattr(args, "chaos", False):
        worker.append("--chaos")
    return worker


def _run_serve_status(args: argparse.Namespace) -> str:
    """``serve status``: one-shot health probe of a running daemon."""
    import asyncio

    from repro.serve import AsyncServeClient

    host, port = _parse_connect(args.connect, "serve status")

    async def probe() -> dict:
        client = await AsyncServeClient.connect(host, port)
        try:
            return await client.health()
        finally:
            await client.close()

    health = asyncio.run(probe())
    rows = [
        ["Endpoint", f"{host}:{port}"],
        ["PID", str(health["pid"])],
        ["Engine", health["engine"]],
        ["Models", ", ".join(health["models"])],
        ["Queue depth", health["queue_depth"]],
        ["Served", health["served"]],
        ["Rejected", health["rejected"]],
        ["Uptime (s)", f"{health['uptime_s']:.1f}"],
        ["Draining", health["draining"]],
        ["Chaos hooks", health["chaos"]],
    ]
    return "repro-serve status:\n" + format_table(["Field", "Value"], rows)


def _run_serve_fleet(args: argparse.Namespace) -> str:
    """``serve fleet``: a supervised multi-worker daemon fleet."""
    import asyncio
    import signal

    from repro.serve import FleetSupervisor

    if args.workers < 1:
        raise SystemExit("serve fleet: --workers must be >= 1")

    async def fleet() -> str:
        supervisor = FleetSupervisor(
            _serve_worker_args(args),
            workers=args.workers,
            host=args.host,
            base_port=args.port,
        )
        await supervisor.start()
        for index, endpoint in enumerate(supervisor.endpoints()):
            host, port = endpoint
            print(f"repro-fleet: worker {index} listening on {host}:{port}", flush=True)
        print(
            f"repro-fleet: {args.workers} workers up "
            f"(models: {', '.join(args.models)}; engine {args.engine})",
            flush=True,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        print("repro-fleet: draining...", flush=True)
        stats = await supervisor.close()
        return (
            f"repro-fleet: drained ({stats['restarts']} restarts, "
            f"{stats['wedged_kills']} wedged kills, "
            f"{stats['crash_loops']} crash loops)"
        )

    return asyncio.run(fleet())


def _run_serve_chaos(args: argparse.Namespace) -> str:
    """``serve chaos``: the fleet chaos acceptance run.

    Boots a worker fleet, drives a closed-loop load through the failover
    client while the seeded fault plan kills/stalls/corrupts, then asserts
    the resilience invariants (and, with ``--verify``, zero wrong bits).
    Exits non-zero on any violation so CI can gate on it.
    """
    import asyncio

    from repro.serve import ChaosPlan, FleetPolicy
    from repro.serve.chaos import run_chaos_acceptance

    if args.workers < 1:
        raise SystemExit("serve chaos: --workers must be >= 1")
    if args.requests < 1:
        raise SystemExit("serve chaos: --requests must be >= 1")

    spec = ModelSpec(model=args.models[0], scale=args.scale, seed=args.seed)
    model = ModelRegistry.build(spec)
    inputs = synthetic_model_inputs(model, batch=args.requests, seed=args.input_seed)
    plan = ChaosPlan.generate(
        seed=args.chaos_seed,
        workers=args.workers,
        duration_s=args.duration,
        kills=args.kills,
        stalls=args.stalls,
        corruptions=args.corruptions,
    )
    store_root = None if args.no_store or not store_enabled() else default_store_root()
    # Snappy restarts: a chaos run wants recovery measured in hundreds of
    # milliseconds, not the production-friendly defaults.
    policy = FleetPolicy(
        heartbeat_s=0.3,
        restart_initial_s=0.2,
        restart_max_s=2.0,
        stable_after_s=5.0,
    )
    outcome = asyncio.run(
        run_chaos_acceptance(
            _serve_worker_args(args, chaos=True),
            inputs,
            args.models[0],
            workers=args.workers,
            concurrency=args.closed_loop,
            plan=plan,
            policy=policy,
            store_root=store_root,
        )
    )

    lines = ["Chaos plan:"]
    lines.append(format_table(
        ["t (s)", "Fault", "Worker", "Applied"],
        [
            [entry["at_s"], entry["kind"], entry.get("worker", "-"),
             entry.get("applied", True)]
            for entry in outcome.chaos_log
        ],
    ))
    record = outcome.report.record()
    lines.append("\nLoad under chaos:")
    lines.append(format_table(
        ["Requests", "Done", "Rej", "Retriable", "Err", "Throughput (rps)", "p99 (ms)"],
        [[record["requests"], record["completed"], record["rejected"],
          record["retriable"], record["errors"],
          f"{record['throughput_rps']:.1f}", f"{record['p99_ms']:.3f}"]],
    ))
    stats = outcome.fleet_stats
    lines.append(
        f"\nfleet: {stats['restarts']} restarts for {plan.kills} kills, "
        f"{stats['wedged_kills']} wedged kills, "
        f"{outcome.client_stats['failovers']} client failovers"
    )

    if args.verify:
        config = EIEConfig(num_pes=args.pes, fifo_depth=args.fifo_depth)
        session = Session(
            CompressionConfig(target_density=args.density), config=config
        )
        try:
            verdict = _serve_bench_offline_verify(
                model, session, args.engine, config, inputs, [outcome.report]
            )
        except SystemExit as exc:
            raise SystemExit(f"serve chaos: {exc}") from None
        lines.append(verdict + " (0 verification mismatches)")

    if args.compare_single:
        lines.append(_serve_chaos_compare_single(args, inputs))

    if outcome.violations:
        print("\n".join(lines), flush=True)
        raise SystemExit(
            "serve chaos: INVARIANT VIOLATIONS\n  - "
            + "\n  - ".join(outcome.violations)
        )
    lines.append("chaos: RECOVERED — all workers healthy, invariants held")
    return "\n".join(lines)


def _serve_chaos_compare_single(args: argparse.Namespace, inputs) -> str:
    """Fault-free throughput gate: an N-worker fleet must beat one worker."""
    import asyncio

    from repro.serve import FleetClient, FleetSupervisor, run_closed_loop

    # Both sides get the same total concurrency, sized so every worker in
    # the *fleet* run sees `--closed-loop` concurrent requests — otherwise
    # round-robin dilutes each worker's batches and the comparison measures
    # batching efficiency, not scale-out.
    concurrency = args.closed_loop * args.workers

    async def measure(workers: int) -> float:
        supervisor = FleetSupervisor(_serve_worker_args(args), workers=workers)
        async with supervisor:
            client = await FleetClient.connect(
                supervisor.endpoints, route_window=args.max_batch
            )
            try:
                report = await run_closed_loop(
                    lambda vector: client.infer(args.models[0], vector),
                    inputs,
                    concurrency=concurrency,
                )
            finally:
                await client.close()
        if report.completed != report.requests:
            raise SystemExit(
                f"serve chaos: fault-free comparison run lost requests "
                f"({report.completed}/{report.requests} completed)"
            )
        return report.throughput_rps

    fleet_rps = asyncio.run(measure(args.workers))
    single_rps = asyncio.run(measure(1))
    ratio = fleet_rps / single_rps if single_rps > 0 else float("inf")
    line = (
        f"throughput: fleet({args.workers}) {fleet_rps:.1f} rps vs "
        f"single {single_rps:.1f} rps ({ratio:.2f}x)"
    )
    if ratio < args.min_speedup:
        raise SystemExit(
            f"serve chaos: {line} — below the required {args.min_speedup:.2f}x"
        )
    return line


def _run_serve_command(args: argparse.Namespace) -> str:
    serve_command = getattr(args, "serve_command", None)
    if serve_command == "bench":
        return _run_serve_bench(args)
    if serve_command == "status":
        return _run_serve_status(args)
    if serve_command == "fleet":
        return _run_serve_fleet(args)
    if serve_command == "chaos":
        return _run_serve_chaos(args)
    return _run_serve_daemon(args)


def _run_summary(args: argparse.Namespace) -> str:
    config = EIEConfig(num_pes=args.pes, fifo_depth=args.fifo_depth)
    rows = [
        ["Processing elements", config.num_pes],
        ["Clock (MHz)", config.clock_mhz],
        ["FIFO depth", config.fifo_depth],
        ["Spmat SRAM width (bits)", config.spmat_sram_width_bits],
        ["Weights per PE (capacity)", config.weights_per_pe_capacity],
        ["Peak GOP/s (compressed)", config.peak_gops],
        ["Chip area (mm2)", chip_area_mm2(config.num_pes)],
        ["Chip power (W)", chip_power_w(config.num_pes)],
    ]
    return "EIE configuration summary:\n" + format_table(["Parameter", "Value"], rows)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro.cli`` / the ``repro-eie`` script."""
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    commands = _subcommands(parser)
    if argv and not argv[0].startswith("-") and argv[0] not in commands:
        print(
            f"repro-eie: unknown command {argv[0]!r} "
            f"(expected one of: {', '.join(commands)})",
            file=sys.stderr,
        )
        return 2
    args = parser.parse_args(argv)
    try:
        if args.command == "table":
            output = _run_table(args)
        elif args.command == "figure":
            output = _run_figure(args)
        elif args.command == "ablation":
            output = _run_ablation(args)
        elif args.command == "run":
            output = _run_engine(args)
        elif args.command == "experiment":
            output = _run_experiment_command(args)
        elif args.command == "shard":
            output = _run_shard_command(args)
        elif args.command == "cache":
            output = _run_cache_command(args)
        elif args.command == "model":
            output = _run_model_command(args)
        elif args.command == "engine":
            output = _run_engine_command(args)
        elif args.command == "serve":
            output = _run_serve_command(args)
        else:
            output = _run_summary(args)
    except (ReproError, OSError) as error:
        print(f"repro-eie: {error}", file=sys.stderr)
        return 2
    try:
        print(output)
    except BrokenPipeError:
        # Downstream closed early (e.g. `| grep -q` / `| head`): the command
        # itself succeeded, and a traceback on stdout teardown helps nobody.
        # Point fd 1 at devnull so the interpreter's exit flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in examples
    sys.exit(main())
