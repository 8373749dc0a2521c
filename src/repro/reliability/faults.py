"""Seeded SRAM fault injection over the packed compressed-layer image.

The fault model flips bits in the *storage representation* of a
:class:`~repro.compression.pipeline.CompressedLayer` — the same three
regions the EIE PE SRAMs hold:

* ``spmat`` — the interleaved entry stream: per entry, ``index_bits`` bits
  of codebook index followed by ``index_bits`` bits of zero-run, PE by PE
  in storage order;
* ``ptr`` — the per-PE column pointer arrays at ``pointer_bits`` per entry;
* ``codebook`` — the shared-weight table at 16-bit fixed point per entry.
  Entry 0 is the decoder's hardwired zero (it never leaves the lookup
  logic), so only entries ``1..`` are SRAM-resident and faultable.

Each region is packed into 64-bit SRAM words protected by the configured
ECC scheme (:mod:`repro.reliability.ecc`); flips are sampled over the full
stored image *including check bits* at the configured bit-error rate, so
protected configurations expose more raw bits to upsets — exactly the
trade the Pareto experiment prices.  Detected-uncorrectable words are
modeled as reloaded from the off-chip golden copy (EIE's weights always
have a DRAM master copy); corrected words are restored in place; silent
corruptions pass through to the stored image.

A faulted image may violate the CSC invariants (runs past ``max_run``,
non-monotone pointers, columns overrunning the PE's row space).  The
injector interprets it the way the hardware would — field values are
masked to their bit width, pointers clamped and monotonicized, entries
that walk off the end of a column dropped — decodes the implied dense
index matrix, and re-encodes it canonically, so the faulted layer is a
*valid* :class:`CompressedLayer` that runs through the unmodified
``Session.run_model`` path.  When every sampled flip is corrected (or none
is sampled), the **original layer object** is returned, which makes the
BER-0 and the SECDED single-flip-per-word paths bit-identical to the
golden run by construction.

Everything is deterministic: the per-region RNG is derived from the fault
seed, the layer's name/shape and the region label via
:func:`~repro.utils.rng.derive_seed`, so a fixed ``(seed, ber, scheme)``
reproduces the same faults in any process, under any executor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.compression.csc import InterleavedCSC, _group_positions
from repro.compression.pipeline import CompressedLayer
from repro.compression.quantization import WeightCodebook
from repro.errors import ConfigurationError
from repro.reliability.ecc import (
    ECC_DATA_BITS,
    ECC_SCHEMES,
    SECDED_CHECK_POSITIONS,
    SECDED_DATA_POSITIONS,
    ecc_check_bits,
    secded_decode,
    secded_encode,
)
from repro.utils.rng import derive_seed, make_rng

__all__ = [
    "FaultConfig",
    "LayerFaultInjection",
    "ModelFaultInjection",
    "REGIONS",
    "inject_layer_faults",
    "inject_model_faults",
]

#: The storage regions of one compressed layer, in injection order.
REGIONS = ("spmat", "ptr", "codebook")

#: Fixed-point width of one stored codebook entry (EIE's 16-bit weights).
CODEBOOK_ENTRY_BITS = 16

#: Full-scale magnitude of the signed fixed-point codebook encoding.
_CODEBOOK_FULL_SCALE = 32767


@dataclass(frozen=True)
class FaultConfig:
    """Parameters of one fault-injection run.

    Attributes:
        ber: bit-error rate — the probability that any one stored bit
            (data or check) is flipped.
        scheme: ECC protection (``"none"``, ``"parity"`` or ``"secded"``).
        seed: base seed; per-(layer, region) streams are derived from it.
        pointer_bits: stored width of one column-pointer entry.
    """

    ber: float
    scheme: str = "none"
    seed: int = 0
    pointer_bits: int = 16

    def __post_init__(self) -> None:
        if not 0.0 <= self.ber < 1.0:
            raise ConfigurationError(f"ber must be in [0, 1), got {self.ber}")
        if self.scheme not in ECC_SCHEMES:
            raise ConfigurationError(
                f"unknown ECC scheme {self.scheme!r}; "
                f"expected one of {', '.join(ECC_SCHEMES)}"
            )
        if self.pointer_bits < 1:
            raise ConfigurationError(
                f"pointer_bits must be >= 1, got {self.pointer_bits}"
            )


def _zero_counters() -> dict[str, int]:
    return {
        "stored_bits": 0,
        "flips": 0,
        "data_flips": 0,
        "faulted_words": 0,
        "multi_flip_words": 0,
        "corrected_words": 0,
        "detected_words": 0,
        "silent_words": 0,
    }


def _merge_counters(total: dict[str, int], part: dict[str, int]) -> None:
    for key, value in part.items():
        total[key] += value


@dataclass
class LayerFaultInjection:
    """One layer's injection outcome.

    Attributes:
        layer: the faulted layer (the *original object* when no flip
            survived correction — bit-identity for free).
        counters: aggregate fault statistics over all regions.
        regions: the same counters broken down per storage region.
        changed: whether any data bit of the stored image changed.
    """

    layer: CompressedLayer
    counters: dict[str, int]
    regions: dict[str, dict[str, int]]

    @property
    def changed(self) -> bool:
        return self.counters["data_flips"] > 0


@dataclass
class ModelFaultInjection:
    """A whole model's injection outcome (one entry per unique layer)."""

    model: Any
    counters: dict[str, int]
    layers: dict[str, LayerFaultInjection] = field(default_factory=dict)

    @property
    def changed(self) -> bool:
        return self.counters["data_flips"] > 0


# -- bit packing ---------------------------------------------------------------


def _pack_fields(values: np.ndarray, width: int) -> np.ndarray:
    """Pack integer fields into a flat 0/1 bit array (little-endian fields)."""
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return np.zeros(0, dtype=np.uint8)
    shifts = np.arange(width, dtype=np.int64)
    return ((values[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)

def _unpack_fields(bits: np.ndarray, width: int) -> np.ndarray:
    """Inverse of :func:`_pack_fields`."""
    if bits.size == 0:
        return np.zeros(0, dtype=np.int64)
    weights = np.left_shift(np.int64(1), np.arange(width, dtype=np.int64))
    return bits.reshape(-1, width).astype(np.int64) @ weights


def _word_data(bits: np.ndarray, word: int) -> int:
    """The 64-bit data value of ``word`` (trailing filler reads as zero)."""
    start = word * ECC_DATA_BITS
    segment = bits[start : start + ECC_DATA_BITS]
    value = 0
    for offset in range(segment.shape[0]):
        value |= int(segment[offset]) << offset
    return value


# -- per-region fault application ----------------------------------------------


def _fault_region_bits(
    bits: np.ndarray, config: FaultConfig, rng: np.random.Generator
) -> tuple[np.ndarray, dict[str, int]]:
    """Sample and apply faults to one region's data-bit image.

    Returns ``(bits, counters)``; ``bits`` is the input array (unchanged
    object) when no data flip survives the ECC scheme.
    """
    counters = _zero_counters()
    data_bits = int(bits.shape[0])
    check_bits = ecc_check_bits(config.scheme)
    span = ECC_DATA_BITS + check_bits
    num_words = math.ceil(data_bits / ECC_DATA_BITS)
    stored_bits = num_words * span
    counters["stored_bits"] = stored_bits
    if stored_bits == 0 or config.ber == 0.0:
        return bits, counters
    flips = int(rng.binomial(stored_bits, config.ber))
    counters["flips"] = flips
    if flips == 0:
        return bits, counters
    positions = np.sort(rng.choice(stored_bits, size=flips, replace=False))
    words = positions // span
    offsets = positions % span

    applied: list[int] = []
    for word in np.unique(words):
        word_offsets = offsets[words == word].tolist()
        counters["faulted_words"] += 1
        if len(word_offsets) > 1:
            counters["multi_flip_words"] += 1
        data_offsets = _decide_word_fate(
            int(word), word_offsets, bits, config.scheme, counters
        )
        base = int(word) * ECC_DATA_BITS
        applied.extend(
            base + offset for offset in data_offsets if base + offset < data_bits
        )

    if not applied:
        return bits, counters
    counters["data_flips"] = len(applied)
    faulted = bits.copy()
    faulted[np.asarray(applied, dtype=np.int64)] ^= 1
    return faulted, counters


def _decide_word_fate(
    word: int,
    word_offsets: list[int],
    bits: np.ndarray,
    scheme: str,
    counters: dict[str, int],
) -> list[int]:
    """ECC outcome for one faulted word: the data-bit offsets to flip.

    An empty list means the word survives intact (corrected in place or
    reloaded from the golden copy after detection).
    """
    if scheme == "none":
        return word_offsets

    if scheme == "parity":
        if len(word_offsets) % 2 == 1:
            counters["detected_words"] += 1
            return []
        data_offsets = [off for off in word_offsets if off < ECC_DATA_BITS]
        if data_offsets:
            counters["silent_words"] += 1
        return data_offsets

    # secded: run the faulted codeword through the real decoder.
    golden = _word_data(bits, word)
    codeword = secded_encode(golden)
    for offset in word_offsets:
        if offset < ECC_DATA_BITS:
            codeword ^= 1 << SECDED_DATA_POSITIONS[offset]
        else:
            codeword ^= 1 << SECDED_CHECK_POSITIONS[offset - ECC_DATA_BITS]
    outcome = secded_decode(codeword)
    if outcome.status == "detected":
        counters["detected_words"] += 1
        return []
    difference = outcome.data ^ golden
    if difference == 0:
        counters["corrected_words"] += 1
        return []
    # 3+-flip alias: the decoder was fooled (possibly miscorrecting a
    # healthy bit) — honest silent corruption.
    counters["silent_words"] += 1
    return [offset for offset in range(ECC_DATA_BITS) if (difference >> offset) & 1]


# -- layer packing and reconstruction ------------------------------------------


def _spmat_fields(layer: CompressedLayer) -> np.ndarray:
    """The spmat entry stream as alternating (index, run) integer fields."""
    values, runs = layer.storage.streams()
    fields = np.empty(2 * values.size, dtype=np.int64)
    fields[0::2] = values.astype(np.int64)
    fields[1::2] = runs
    return fields


def _ptr_fields(layer: CompressedLayer) -> np.ndarray:
    """The pointer region as one flat field array (per-PE col_ptr concat)."""
    return np.concatenate([matrix.col_ptr for matrix in layer.storage.per_pe])


def _codebook_quantized(codebook: WeightCodebook) -> tuple[np.ndarray, float]:
    """16-bit two's-complement image of entries ``1..`` and its scale."""
    stored = codebook.centroids[1:]
    scale = float(np.max(np.abs(stored))) if stored.size else 0.0
    if scale == 0.0:
        scale = 1.0
    quantized = np.round(stored / scale * _CODEBOOK_FULL_SCALE).astype(np.int64)
    return quantized & 0xFFFF, scale


def _codebook_dequantize(field_value: int, scale: float) -> float:
    signed = field_value - 0x10000 if field_value >= 0x8000 else field_value
    return signed * scale / _CODEBOOK_FULL_SCALE


def _rebuild_storage(
    layer: CompressedLayer,
    spmat_bits: np.ndarray,
    ptr_bits: np.ndarray,
    config: FaultConfig,
) -> InterleavedCSC:
    """Reinterpret the (faulted) spmat/ptr image as a canonical encoding."""
    storage = layer.storage
    index_bits = layer.codebook.index_bits
    max_run = storage.per_pe[0].max_run if storage.per_pe else 15
    max_index = layer.codebook.size - 1
    fields = _unpack_fields(spmat_bits, index_bits)
    pointers = _unpack_fields(ptr_bits, config.pointer_bits)

    # The PE slices form one entry stream and one pointer region.
    entries = storage.entries_per_pe()
    total = int(entries.sum())
    values = np.minimum(fields[0 : 2 * total : 2], max_index)
    runs = np.minimum(fields[1 : 2 * total : 2], max_run)
    col_ptrs = pointers[: storage.num_pes * (storage.num_cols + 1)]
    col_ptrs = np.clip(col_ptrs.reshape(storage.num_pes, -1), 0, entries[:, np.newaxis])
    # Hardware-style tolerance: clamp into range, force monotone, pin
    # the endpoints the controller derives from the entry count.
    np.maximum.accumulate(col_ptrs, axis=1, out=col_ptrs)
    col_ptrs[:, 0] = 0
    col_ptrs[:, -1] = entries
    np.maximum.accumulate(col_ptrs, axis=1, out=col_ptrs)
    starts = np.cumsum(entries) - entries
    group_ptr = np.append((col_ptrs[:, :-1] + starts[:, np.newaxis]).ravel(), total)
    local_rows = _group_positions(runs, group_ptr)
    pes, columns = np.divmod(
        np.repeat(np.arange(group_ptr.size - 1), np.diff(group_ptr)), storage.num_cols
    )
    # An entry decoded past its PE's row space is dropped, not an error:
    # the hardware would simply stream past the end of the column.
    rows = local_rows * storage.num_pes + pes
    keep = rows < storage.num_rows
    dense_indices = np.zeros((storage.num_rows, storage.num_cols), dtype=np.int64)
    dense_indices[rows[keep], columns[keep]] = values[keep]
    return InterleavedCSC.from_dense(
        dense_indices.astype(np.float64), num_pes=storage.num_pes, max_run=max_run
    )


def inject_layer_faults(
    layer: CompressedLayer, config: FaultConfig
) -> LayerFaultInjection:
    """Inject SRAM faults into one layer's stored image.

    Deterministic in ``(config, layer name, layer shape)``.  Returns the
    original layer object when no data bit changes.
    """
    region_counters: dict[str, dict[str, int]] = {}
    totals = _zero_counters()

    limit = 1 << config.pointer_bits
    for matrix in layer.storage.per_pe:
        if matrix.num_entries >= limit:
            raise ConfigurationError(
                f"layer {layer.name!r} stores {matrix.num_entries} entries in "
                f"one PE, which does not fit {config.pointer_bits}-bit pointers"
            )

    spmat_bits = _pack_fields(_spmat_fields(layer), layer.codebook.index_bits)
    ptr_bits = _pack_fields(_ptr_fields(layer), config.pointer_bits)
    quantized, scale = _codebook_quantized(layer.codebook)
    codebook_bits = _pack_fields(quantized, CODEBOOK_ENTRY_BITS)

    faulted = {}
    for region, bits in (
        ("spmat", spmat_bits),
        ("ptr", ptr_bits),
        ("codebook", codebook_bits),
    ):
        rng = make_rng(
            derive_seed(config.seed, "sram-fault", layer.name, *layer.shape, region)
        )
        faulted[region], counters = _fault_region_bits(bits, config, rng)
        region_counters[region] = counters
        _merge_counters(totals, counters)

    if totals["data_flips"] == 0:
        return LayerFaultInjection(
            layer=layer, counters=totals, regions=region_counters
        )

    codebook = layer.codebook
    if region_counters["codebook"]["data_flips"]:
        new_quantized = _unpack_fields(faulted["codebook"], CODEBOOK_ENTRY_BITS)
        centroids = codebook.centroids.copy()
        for entry in np.flatnonzero(new_quantized != quantized):
            centroids[entry + 1] = _codebook_dequantize(int(new_quantized[entry]), scale)
        codebook = WeightCodebook(centroids=centroids, index_bits=codebook.index_bits)

    storage = layer.storage
    if (
        region_counters["spmat"]["data_flips"]
        or region_counters["ptr"]["data_flips"]
    ):
        storage = _rebuild_storage(layer, faulted["spmat"], faulted["ptr"], config)

    faulted_layer = CompressedLayer(
        name=layer.name,
        shape=layer.shape,
        codebook=codebook,
        storage=storage,
        num_pes=layer.num_pes,
        activation_name=layer.activation_name,
        metadata=dict(layer.metadata),
    )
    return LayerFaultInjection(
        layer=faulted_layer, counters=totals, regions=region_counters
    )


def inject_model_faults(compressed: Any, config: FaultConfig) -> ModelFaultInjection:
    """Inject faults into every unique layer of a compressed model.

    Nodes sharing one :class:`CompressedLayer` object keep sharing the
    faulted object (the SRAM image is stored once).  Returns a new
    :class:`~repro.models.compressed.CompressedModel` wired to the faulted
    layers; the original model is untouched.
    """
    from repro.models.compressed import CompressedModel

    if not isinstance(compressed, CompressedModel):
        raise ConfigurationError(
            f"inject_model_faults expects a CompressedModel, "
            f"got {type(compressed).__name__}"
        )
    totals = _zero_counters()
    per_layer: dict[str, LayerFaultInjection] = {}
    replacement: dict[int, CompressedLayer] = {}
    layers: dict[str, CompressedLayer] = {}
    for node in compressed.model:
        original = compressed.layers[node.name]
        if id(original) not in replacement:
            injection = inject_layer_faults(original, config)
            replacement[id(original)] = injection.layer
            per_layer[original.name] = injection
            _merge_counters(totals, injection.counters)
        layers[node.name] = replacement[id(original)]
    faulted_model = CompressedModel(
        model=compressed.model, num_pes=compressed.num_pes, layers=layers
    )
    return ModelFaultInjection(model=faulted_model, counters=totals, layers=per_layer)
