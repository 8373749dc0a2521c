"""repro.models: the whole-network model layer.

The third seam of the library (after :mod:`repro.engine` and
:mod:`repro.experiments`): a canonical model IR plus registry that lowers any
supported network — FC tails, LSTM gate stacks, convolutions via im2col,
imported ``.npz`` state dicts — to an ordered graph of matrix-vector nodes
the compression pipeline and every simulation engine already understand.

* :class:`ModelIR` / :class:`MatVecNode` — the IR and its lowering
  constructors (``from_lstm`` / ``from_conv`` / ``from_npz``)
  (:mod:`repro.models.ir`);
* :class:`ModelSpec` — frozen, JSON-round-tripping build description,
  mirroring :class:`~repro.experiments.spec.ExperimentSpec`
  (:mod:`repro.models.spec`);
* :class:`ModelRegistry` — string-keyed registry pre-populated with the
  paper's networks (``alexnet_fc``, ``vgg_fc``, ``neuraltalk_lstm``) at
  Table III densities (:mod:`repro.models.registry`,
  :mod:`repro.models.catalog`);
* :class:`CompressedModel` / :class:`ModelRunResult` — what
  ``Session.compress_model`` and ``Session.run_model`` return
  (:mod:`repro.models.compressed`).

Typical use::

    from repro import Session
    from repro.models import build_model

    model = build_model("neuraltalk_lstm", scale=16)
    session = Session()
    compressed = session.compress_model(model, num_pes=16)
    result = session.run_model("cycle", model, inputs)
    print(result.latency_s, result.energy_j)

See ``docs/ARCHITECTURE.md`` ("The model layer") for the lowering rules and
a worked "import your own .npz" example.
"""

from repro.models.catalog import BUILTIN_MODELS
from repro.models.compressed import CompressedModel, ModelRunResult, NodeRun
from repro.models.inputs import synthetic_model_inputs
from repro.models.ir import INPUT, MatVecNode, ModelIR, ModelTrace, conv_activation_batch
from repro.models.registry import (
    ModelRegistry,
    RegisteredModel,
    build_model,
    register_model,
)
from repro.models.spec import ModelSpec

__all__ = [
    "BUILTIN_MODELS",
    "CompressedModel",
    "INPUT",
    "MatVecNode",
    "ModelIR",
    "ModelRegistry",
    "ModelRunResult",
    "ModelSpec",
    "ModelTrace",
    "NodeRun",
    "RegisteredModel",
    "build_model",
    "conv_activation_batch",
    "register_model",
    "synthetic_model_inputs",
]
