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
