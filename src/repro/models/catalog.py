"""The built-in model catalog: the paper's networks at Table III densities.

Three models are registered when :mod:`repro.models` is imported:

=================  ==========================================================
Key                Network
=================  ==========================================================
alexnet_fc         AlexNet FC6 -> FC7 -> FC8 tail (9% / 9% / 25% weights)
vgg_fc             VGG-16 FC6 -> FC7 -> FC8 tail (4% / 4% / 23% weights)
neuraltalk_lstm    NeuralTalk LSTM step, per-gate or stacked lowering (10%)
=================  ==========================================================

Every builder honours the spec's ``scale`` (each dimension divided by it, so
``scale=1`` is the paper's full size) and ``seed``; the LSTM additionally
takes ``params={"mode": "per_gate" | "stacked"}``.  The default scales keep
CLI runs interactive; the synthetic weights follow the Table III densities
so compression ratios, padding behaviour and load balance stay
representative.
"""

from __future__ import annotations

from repro.models.ir import ModelIR
from repro.models.registry import RegisteredModel, register_model
from repro.models.spec import ModelSpec
from repro.workloads.benchmarks import ALL_BENCHMARKS
from repro.workloads.models import (
    build_alexnet_fc_network,
    build_neuraltalk_lstm,
    build_vgg_fc_network,
)

__all__ = ["BUILTIN_MODELS"]


def _build_alexnet(spec: ModelSpec) -> ModelIR:
    model = build_alexnet_fc_network(scale=float(spec.scale), seed=spec.seed)
    model.metadata["spec"] = spec.to_dict()
    return model


def _build_vgg(spec: ModelSpec) -> ModelIR:
    model = build_vgg_fc_network(scale=float(spec.scale), seed=spec.seed)
    model.metadata["spec"] = spec.to_dict()
    return model


def _build_neuraltalk(spec: ModelSpec) -> ModelIR:
    cell = build_neuraltalk_lstm(scale=float(spec.scale), seed=int(spec.seed))
    model = ModelIR.from_lstm(
        cell,
        mode=str(spec.params.get("mode", "per_gate")),
        name="neuraltalk_lstm",
        input_density=ALL_BENCHMARKS["NT-LSTM"].activation_density,
    )
    model.metadata["spec"] = spec.to_dict()
    return model


BUILTIN_MODELS: tuple[RegisteredModel, ...] = (
    RegisteredModel(
        name="alexnet_fc",
        description="AlexNet FC6-FC8 tail at Table III densities (9%/9%/25% weights)",
        # seed=None keeps the benchmarks' canonical patterns; an explicit
        # --seed re-derives every layer's synthetic weights from it.
        spec=ModelSpec(model="alexnet_fc", scale=32.0),
        build=_build_alexnet,
    ),
    RegisteredModel(
        name="vgg_fc",
        description="VGG-16 FC6-FC8 tail at Table III densities (4%/4%/23% weights)",
        spec=ModelSpec(model="vgg_fc", scale=32.0),
        build=_build_vgg,
    ),
    RegisteredModel(
        name="neuraltalk_lstm",
        description="NeuralTalk LSTM step (10% gate weights; per-gate or stacked lowering)",
        spec=ModelSpec(
            model="neuraltalk_lstm", scale=8.0, seed=7, params={"mode": "per_gate"}
        ),
        build=_build_neuraltalk,
    ),
)

for _model in BUILTIN_MODELS:
    register_model(_model)
