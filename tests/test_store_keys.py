"""Pinned store keys: entries written by earlier versions must stay warm.

The artifact store addresses a compressed layer by ``weights_fingerprint``
(through ``ArtifactStore.layer_key``) and a compressed model's manifest by
``ModelIR.fingerprint``.  Their digests are fixed here as literal hex
values; a change that alters any of them would silently turn every existing
store cold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression.pipeline import CompressionConfig, weights_fingerprint
from repro.models import build_model
from repro.models.ir import MatVecNode, ModelIR
from repro.store.artifacts import ArtifactStore

BASE = (np.arange(12.0) - 5.5).reshape(3, 4) / 4.0

WEIGHT_DIGESTS = {
    "c_order": (BASE, "fce9fa411a038fe4adead44c45ac23e24db8c0f458102dad5c5faeda71793678"),
    "fortran": (
        np.asfortranarray(BASE),
        "fce9fa411a038fe4adead44c45ac23e24db8c0f458102dad5c5faeda71793678",
    ),
    "strided": (
        (np.arange(48.0).reshape(6, 8) - 20.0)[::2, 1::3],
        "c4b230200193ebbb68929799929e57924aa4581f0504b9b0ab6efafd924b7d8a",
    ),
    "float32": (
        BASE.astype(np.float32),
        "3818c6ca49730dfdf1cd358348ec7e579ddf0cb2f7c7494d985c0fd8b570ea4f",
    ),
    "empty_0x3": (
        np.zeros((0, 3)),
        "e6e09ef728a8c1dc913ab6e3d6af50b8fede44260ddefbc2969efcd3e894f91a",
    ),
    "bool": (BASE > 0, "60831eb4ed7c337183f54b788055a1f65f0efb2991319942b84d78074b0a3af1"),
    "int64": (
        np.arange(12).reshape(3, 4),
        "2dbaee24e99866f445e3be4af710f8075e4fd7ee175d377b4a901f55288c507b",
    ),
}


@pytest.mark.parametrize("case", sorted(WEIGHT_DIGESTS))
def test_weights_fingerprint_pinned(case):
    weights, digest = WEIGHT_DIGESTS[case]
    assert weights_fingerprint(weights) == digest


def test_read_only_weights_hash_like_writeable_ones():
    frozen = BASE.copy()
    frozen.setflags(write=False)
    assert weights_fingerprint(frozen) == WEIGHT_DIGESTS["c_order"][1]


def test_layer_key_pinned():
    key = ArtifactStore.layer_key(weights_fingerprint(BASE), 4, CompressionConfig())
    assert key == "8e48006a65efa955d7a9781959eb861ca5a41fc7606e8fc9d727643a4c907e65"


def test_model_fingerprint_pinned():
    model = ModelIR(
        [
            MatVecNode(
                name="fc0", weight=np.asfortranarray(BASE), bias=np.array([0.5, -1.0, 2.0])
            ),
            MatVecNode(name="fc1", weight=BASE[:, :3].T, activation="identity", source="fc0"),
        ],
        name="pinned",
    )
    assert model.fingerprint() == (
        "853aaa650f76f070b97d25bf9723b0a2dce9f8c0ab12509547833b50998686f3"
    )


#: Registry builds of the paper's networks; the builders must keep emitting
#: the same weight bytes, names and wiring, or every stored model goes cold.
REGISTRY_DIGESTS = {
    "alexnet_fc": (
        ("alexnet_fc", {"scale": 64}),
        "984f058836d53b5ad1352b1cf64bd3ce9f2fafd99019583e4ff2fbf3c9669223",
    ),
    "vgg_fc": (
        ("vgg_fc", {"scale": 64}),
        "5c04ce17d6dd5f9b3d13d0246f06a9595839c19d80d81c4496b96ac12e0ea040",
    ),
    "alexnet_fc_seed3": (
        ("alexnet_fc", {"scale": 64, "seed": 3}),
        "39079f0bf9d6f7560122ad9ae5aff8872ff5a35ab451cf4172412c14779b8237",
    ),
    "neuraltalk_lstm_per_gate": (
        ("neuraltalk_lstm", {"scale": 16, "params": {"mode": "per_gate"}}),
        "4a1c9369700ca4fe2cb9d2cd13e2a29395e4ffa871182d8708c50003082ea66f",
    ),
    "neuraltalk_lstm_stacked": (
        ("neuraltalk_lstm", {"scale": 16, "params": {"mode": "stacked"}}),
        "37a161d6f8d363e68b1dff9231a4066f8ba41b04de318dbe0e08f81947a28bc6",
    ),
}


@pytest.mark.parametrize("case", sorted(REGISTRY_DIGESTS))
def test_registry_model_fingerprint_pinned(case):
    (name, overrides), digest = REGISTRY_DIGESTS[case]
    assert build_model(name, **overrides).fingerprint() == digest
