"""Reliability experiments: the BER x ECC x model degradation Pareto.

``reliability_pareto`` sweeps a bit-error-rate grid against the three ECC
schemes (:mod:`repro.reliability.ecc`) over registered paper networks, runs
each faulted model through the unmodified engine path
(:func:`~repro.reliability.harness.run_degradation`) and records the three
Pareto axes together: accuracy retained (output divergence, top-1
agreement), storage paid (raw versus ECC-protected bits) and read energy
paid (the per-read ECC factor).  Every point derives its fault seed from
``(spec seed, model, scheme, ber)``, so a fixed spec reproduces
byte-identical records on every executor.

Smoke runs: ``--set 'grid.model=["neuraltalk_lstm"]'`` and
``--set params.scale=32`` shrink the grid to CI size.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.experiments.models_catalog import _build_model, _model_session
from repro.experiments.registry import Experiment, register_experiment
from repro.experiments.result import ExperimentResult
from repro.experiments.runner import ExperimentContext
from repro.experiments.spec import ExperimentSpec
from repro.hardware.sram import ecc_read_energy_factor, ecc_storage_factor
from repro.models.compressed import CompressedModel
from repro.models.inputs import synthetic_model_inputs
from repro.reliability.faults import FaultConfig
from repro.reliability.harness import run_degradation
from repro.utils.rng import derive_seed

__all__ = ["RELIABILITY_EXPERIMENTS"]

#: Default sweep: the two extreme paper networks (largest FC stack and the
#: LSTM), four decades of BER and all three protection schemes.
DEFAULT_RELIABILITY_MODELS = ("alexnet_fc", "neuraltalk_lstm")
DEFAULT_BER_GRID = (0.0, 1e-5, 1e-4, 1e-3)
DEFAULT_SCHEME_GRID = ("none", "parity", "secded")


def _compressed_model(ctx: ExperimentContext, name: str) -> CompressedModel:
    """Compress (and memoize) one model — shared across the BER/scheme axes.

    Every memoized dependency is resolved *before* entering the memo, so no
    factory holds one key's lock while it waits for another's.
    """
    model = _build_model(ctx, name)
    session = _model_session(ctx)
    return ctx.memo(
        ("reliability-compressed", name),
        lambda: session.compress_model(model, ctx.base_config.num_pes),
    )


def _golden_run(ctx: ExperimentContext, name: str):
    """Run (and memoize) the unfaulted model — the divergence reference."""
    model = _build_model(ctx, name)
    compressed = _compressed_model(ctx, name)
    session = _model_session(ctx)

    def run():
        inputs = synthetic_model_inputs(
            model,
            batch=int(ctx.params["batch"]),
            seed=int(ctx.params.get("input_seed", 1)),
        )
        run_result = session.run_model(
            ctx.engine_name, compressed, inputs, ctx.base_config
        )
        return inputs, run_result

    return ctx.memo(("reliability-golden", name, ctx.engine_name), run)


def _reliability_point(ctx: ExperimentContext, point: dict) -> dict:
    name = str(point["model"])
    ber = float(point["ber"])
    scheme = str(point["scheme"])
    compressed = _compressed_model(ctx, name)
    inputs, golden = _golden_run(ctx, name)
    fault = FaultConfig(
        ber=ber,
        scheme=scheme,
        seed=derive_seed(ctx.seed, "reliability-pareto", name, scheme, repr(ber)),
    )
    outcome = run_degradation(
        _model_session(ctx),
        ctx.engine_name,
        compressed,
        inputs,
        fault,
        config=ctx.base_config,
        golden_run=golden,
    )
    counters = outcome.injection.counters
    raw_bits = compressed.storage_report()["compressed_bits"]
    return {
        # -- accuracy axis ----------------------------------------------------
        "output_rmse": outcome.metrics["output_rmse"],
        "output_relative_error": outcome.metrics["output_relative_error"],
        "top1_agreement": outcome.metrics["top1_agreement"],
        "bit_identical": outcome.metrics["bit_identical"],
        # -- what the SRAM saw ------------------------------------------------
        "flips": counters["flips"],
        "data_flips": counters["data_flips"],
        "corrected_words": counters["corrected_words"],
        "detected_words": counters["detected_words"],
        "silent_words": counters["silent_words"],
        "multi_flip_words": counters["multi_flip_words"],
        # -- storage axis -----------------------------------------------------
        "storage_kib": raw_bits / 8192.0,
        "protected_kib": counters["stored_bits"] / 8192.0,
        "storage_factor": ecc_storage_factor(scheme),
        # -- energy axis ------------------------------------------------------
        "read_energy_factor": ecc_read_energy_factor(scheme),
    }


def _render_reliability(result: ExperimentResult) -> str:
    return "Reliability Pareto (accuracy vs storage vs read energy):\n" + format_table(
        ["Model", "BER", "Scheme", "Rel err", "Top-1 agree", "Identical",
         "Flips", "Silent", "Corrected", "Stored KiB", "Storage x", "Read-E x"],
        [
            [r["model"], r["ber"], r["scheme"], r["output_relative_error"],
             r["top1_agreement"], r["bit_identical"], r["flips"],
             r["silent_words"], r["corrected_words"], r["protected_kib"],
             r["storage_factor"], r["read_energy_factor"]]
            for r in result.records
        ],
    )


RELIABILITY_EXPERIMENTS: tuple[Experiment, ...] = (
    Experiment(
        name="reliability_pareto",
        description="Accuracy/storage/energy Pareto of ECC schemes under SRAM bit faults",
        spec=ExperimentSpec(
            experiment="reliability_pareto",
            grid={
                "model": DEFAULT_RELIABILITY_MODELS,
                "ber": DEFAULT_BER_GRID,
                "scheme": DEFAULT_SCHEME_GRID,
            },
            params={"scale": 64, "seed": None, "batch": 4, "input_seed": 1},
            engine="functional",
        ),
        run_point=_reliability_point,
        render=_render_reliability,
        uses_workloads=False,
    ),
)

for _experiment in RELIABILITY_EXPERIMENTS:
    register_experiment(_experiment)
