"""``offline_models``: compress and run the paper's three networks offline.

One operation compresses ``alexnet_fc``, ``vgg_fc`` and ``neuraltalk_lstm``
(scale 4, 64 PEs) cold into a fresh artifact store and reads their storage
reports, as ``model compress`` does; prepares every layer for both engines;
then runs a fixed batch of each model through ``Session.run_model`` on the
``functional`` and on the ``cycle`` engine.  Each phase's time is scaled by
:mod:`e2e_bench.yardstick`; the interpreter-bound functional engine by its
``python`` probe.
"""

from __future__ import annotations

import shutil
import statistics
import time

import numpy as np

from e2e_bench import references
from e2e_bench.common import Context, Outcome, probe_setup, self_peak_rss_mb, timed_ops
from e2e_bench.layers import OFFLINE_MODELS, TARGETS, span_shares
from e2e_bench.tracer import install, missing_calls
from e2e_bench.yardstick import Yardstick

#: end-to-end metric -> (sample it is the median of, what it measures)
END_TO_END = {
    "setup_s": ("setup_s", "fresh interpreter importing repro and building the models"),
    "op_s": ("compress_s", "cold compression of the model set into a fresh store"),
    "op2_s": ("functional_s_per_item", "functional engine seconds per item"),
    "rate_per_s": ("cycle_items_per_s", "cycle engine items per second"),
    "peak_rss_mb": ("peak_rss_mb", "benchmark process"),
}

MODELS = ("alexnet_fc", "vgg_fc", "neuraltalk_lstm")
SCALE = 4.0
NUM_PES = 64
FUNCTIONAL_BATCH = 1
CYCLE_BATCH = 16
#: Functional outputs must match the numpy product of the decoded weights.
REL_TOL = 1e-9
STORAGE_BITS = ("dense_bits", "compressed_bits", "huffman_bits")

BUILD_CODE = (
    "from repro.models import ModelRegistry, ModelSpec\n"
    "for name in {models!r}:\n"
    "    ModelRegistry.build(ModelSpec(model=name, scale={scale!r}, seed={seed!r}))\n"
)


def model_seed(seed: int) -> int:
    return 1000 + seed


def build_models(seed: int) -> list:
    from repro.models import ModelRegistry, ModelSpec

    return [
        ModelRegistry.build(ModelSpec(model=name, scale=SCALE, seed=model_seed(seed)))
        for name in MODELS
    ]


def functional_errors(model, compressed, inputs: np.ndarray, run) -> list[str]:
    """Compare every node's pre-activation with ``inputs @ W_decoded.T``."""
    errors = []
    for node in model.nodes:
        layer = compressed.layers[node.name]
        node_inputs = model.node_input(node, inputs, run.node_outputs)
        expected = node_inputs @ layer.dense_weights().T
        actual = np.stack([item.pre_activation for item in run.node(node.name).result.functional])
        scale = float(np.max(np.abs(expected))) if expected.size else 0.0
        if not np.allclose(actual, expected, rtol=REL_TOL, atol=REL_TOL * scale):
            errors.append(f"{model.name}/{node.name}: functional output differs from numpy")
    return errors


def per_item_cycles(run) -> list[int]:
    totals = np.zeros(run.batch_size, dtype=np.int64)
    for record in run.nodes:
        totals += np.asarray([stats.total_cycles for stats in record.result.cycles])
    return [int(value) for value in totals]


def run(ctx: Context) -> Outcome:
    from repro import Session
    from repro.core import EIEConfig
    from repro.models import synthetic_model_inputs
    from repro.store import ArtifactStore

    out = Outcome()
    probe_setup(
        ctx, out, BUILD_CODE.format(models=MODELS, scale=SCALE, seed=model_seed(ctx.seed))
    )
    build_started = time.perf_counter()
    models = build_models(ctx.seed)
    out.sample("models_build_s", "s", time.perf_counter() - build_started)
    config = EIEConfig(num_pes=NUM_PES)
    cycle_inputs = [
        synthetic_model_inputs(model, batch=CYCLE_BATCH, seed=ctx.seed) for model in models
    ]
    functional_inputs = [batch[:FUNCTIONAL_BATCH] for batch in cycle_inputs]
    stored = references.load(OFFLINE_MODELS, ctx.seed)
    first: dict[str, dict] = {}
    op_index = [0]

    def operation(prefix: str) -> None:
        op_index[0] += 1
        store_dir = ctx.work / f"store-{op_index[0]}"
        session = Session(config=config, store=ArtifactStore(store_dir))
        yardstick = Yardstick()
        wall = {}
        try:
            began = time.perf_counter()
            compressed = [session.compress_model(model, NUM_PES) for model in models]
            reports = [cm.storage_report() for cm in compressed]
            wall["compress"] = time.perf_counter() - began
            out.sample(f"{prefix}compress_s", "s", wall["compress"] * yardstick.factors().mixed)

            began = time.perf_counter()
            for cm in compressed:
                for layer in {id(layer): layer for layer in cm.layers.values()}.values():
                    session.prepare("functional", layer, config)
                    session.prepare("cycle", layer, config)
            wall["prepare"] = time.perf_counter() - began
            out.sample(f"{prefix}prepare_s", "s", wall["prepare"] * yardstick.factors().mixed)

            began = time.perf_counter()
            functional = [
                session.run_model("functional", cm, x, config)
                for cm, x in zip(compressed, functional_inputs)
            ]
            wall["functional"] = time.perf_counter() - began
            out.sample(
                f"{prefix}functional_s_per_item", "s",
                wall["functional"] * yardstick.factors().python
                / (FUNCTIONAL_BATCH * len(models)),
            )

            began = time.perf_counter()
            cycle = [
                session.run_model("cycle", cm, x, config)
                for cm, x in zip(compressed, cycle_inputs)
            ]
            wall["cycle"] = time.perf_counter() - began
            out.sample(
                f"{prefix}cycle_items_per_s", "1/s",
                CYCLE_BATCH * len(models) / (wall["cycle"] * yardstick.factors().mixed),
            )
            out.sample(f"{prefix}op_wall_s", "s", sum(wall.values()))
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

        ctx.tracer.enabled = False
        for model, cm, x, report, f_run, c_run in zip(
            models, compressed, functional_inputs, reports, functional, cycle
        ):
            observed = references.canonical(
                {
                    "cycles_per_item": per_item_cycles(c_run),
                    "storage_bits": {key: report[key] for key in STORAGE_BITS},
                }
            )
            first.setdefault(model.name, observed)
            errors = functional_errors(model, cm, x, f_run)
            out.tally.check(not errors, "; ".join(errors[:3]))
            for part in ("cycles_per_item", "storage_bits"):
                errors = references.compare(
                    observed[part], first[model.name][part], f"{model.name}.{part} vs first op"
                )
                if stored is not None:
                    errors += references.compare(
                        observed[part],
                        stored[model.name][part],
                        f"{model.name}.{part} vs reference",
                    )
                out.tally.check(not errors, "; ".join(errors[:3]))
        ctx.tracer.enabled = True

    # Process-wide first-use costs (lazy imports, allocator growth) land in
    # an untimed operation; every timed one still compresses into an empty
    # store.  Its outputs are checked like the others.
    operation("warmup_")
    if not ctx.trace:
        timed_ops(ctx.seconds, lambda: operation(""))
        out.sample("peak_rss_mb", "MiB", self_peak_rss_mb())
    else:
        timed_ops(ctx.seconds / 2, lambda: operation(""), minimum=1)
        restore = install(ctx.tracer, TARGETS)
        try:
            ops = timed_ops(ctx.seconds / 2, lambda: operation("traced_"), minimum=1)
        finally:
            restore()
        tracer = ctx.tracer
        wall = sum(out.samples["traced_op_wall_s"])
        functional_entries = tracer.counters.get("engine.functional.entries", 0)
        run_node = sum(
            entry[2] for name, entry in tracer.spans.items() if name.startswith("session.run_node")
        )
        out.per_layer = {
            "compression.kmeans_s": tracer.total_s("compression.kmeans") / ops,
            "compression.quantize_s": tracer.total_s("compression.quantize") / ops,
            "compression.encode_s": tracer.total_s("compression.encode") / ops,
            "compression.huffman_s": tracer.total_s("compression.huffman") / ops,
            "store.write_s": tracer.total_s("store.write") / ops,
            "store.bytes_written": tracer.counters.get("store.bytes_written", 0) / ops,
            "engine.cycle.entries": tracer.counters.get("engine.cycle.entries", 0) / ops,
            "engine.cycle.prepare_s": tracer.total_s("engine.cycle.prepare") / ops,
            "engine.cycle.run_s": tracer.total_s("engine.cycle.run") / ops,
            "engine.functional.prepare_s": tracer.total_s("engine.functional.prepare") / ops,
            "engine.functional.run_s": tracer.total_s("engine.functional.run") / ops,
            "engine.functional.entries": functional_entries / ops,
            "engine.functional.ns_per_entry": (
                1e9 * tracer.total_s("engine.functional.run") / functional_entries
                if functional_entries
                else 0.0
            ),
            "session.propagate_s": run_node / ops,
            "models.build_s": out.median("models_build_s"),
            "trace.overhead": statistics.median(out.samples["traced_op_wall_s"])
            / statistics.median(out.samples["op_wall_s"])
            - 1.0,
            "trace.coverage": tracer.root_s / wall,
        }
        out.shares = span_shares(tracer, wall)
        for target in missing_calls(tracer, TARGETS, OFFLINE_MODELS):
            out.tally.fail(f"traced run recorded no call of {target}")
    if stored is None:
        out.notes.append(
            f"no stored reference for seed {ctx.seed}: checked numpy oracle and determinism"
        )
    if ctx.write_references and out.tally.correct:
        path = references.save(OFFLINE_MODELS, ctx.seed, first)
        out.notes.append(f"wrote {path.name}")
    return out
