"""Content-addressed on-disk store for compression and experiment artifacts.

Deep Compression dominates the wall-clock of every whole-model flow, and its
output depends only on three things: the dense weight matrix (captured by
:func:`~repro.compression.pipeline.weights_fingerprint`), the
:class:`~repro.compression.pipeline.CompressionConfig`, and the PE count the
result is interleaved over.  The :class:`ArtifactStore` keys one file per
distinct triple, so a layer is compressed **once per machine** instead of
once per process: every later
:meth:`~repro.engine.session.Session.compress` — across experiment runs, CLI
invocations, process-pool workers and CI steps — becomes a load.

The store holds three artifact *kinds*, each in its own subdirectory:

* ``layers`` — per-layer compression output (codebook + per-PE CSC streams),
  the original and still the hottest kind;
* ``models`` — whole compressed-model manifests: the per-node layer keys of
  one :class:`~repro.models.ir.ModelIR` at one PE count, so a warm
  ``compress_model`` is pure loads;
* ``shards`` — partial experiment results written by
  :mod:`repro.shard` workers (one JSON record set per ``(spec, shard_id,
  shard_count)``), merged back into full results byte-identically.

Guarantees:

* **Bit-identical round trips.**  Layer payloads are the exact codebook and
  per-PE CSC streams; loading rebuilds the layer through the *validating*
  constructors, so ``storage_bits``, ``to_dense`` and the per-PE streams are
  equal to the freshly compressed layer's.  JSON artifacts carry a CRC over
  their payload so silent value corruption is detected on load.
* **Never half-loaded.**  Writes go to a temporary file in the kind
  directory and are published with one atomic :func:`os.replace`; readers can
  never observe a partially written entry.  Corrupt or truncated entries
  (zip CRC failures, invalid stream invariants, key/format mismatches) are
  detected on load, counted in :meth:`ArtifactStore.stats`, deleted, and
  reported as a miss — the caller recomputes and overwrites.
* **Concurrency-safe.**  Multiple processes may load and store the same key
  simultaneously; last-writer-wins on identical content is harmless because
  entries are content-addressed.
* **Bounded (optionally).**  With a ``size_budget_bytes`` the store evicts
  least-recently-used entries (loads refresh recency) after each publish
  until it fits the budget.  Eviction is atomic per entry, counted per kind
  and in the machine-lifetime counters, and never touches entries referenced
  by an in-flight pin manifest (:meth:`ArtifactStore.pinned`) — a sharded
  sweep pins its partials so a concurrent writer cannot evict them mid-merge.

The store root defaults to ``$REPRO_STORE_DIR``, falling back to
``$XDG_CACHE_HOME/repro-eie/artifacts`` (``~/.cache/repro-eie/artifacts``).
Setting ``REPRO_STORE=0`` disables the default store everywhere it is wired
up implicitly (the CLI and the experiment runner); explicitly constructed
stores are unaffected.  ``REPRO_STORE_BUDGET_BYTES`` applies a size budget to
the implicit default store.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import time
import zlib
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from repro.compression.csc import CSCMatrix, InterleavedCSC, _rows_owned_by
from repro.compression.pipeline import CompressedLayer, CompressionConfig
from repro.compression.quantization import WeightCodebook
from repro.errors import ConfigurationError

__all__ = [
    "ArtifactStore",
    "default_store_root",
    "maybe_default_store",
    "store_enabled",
]

#: On-disk payload format; bumped on any incompatible serialization change.
FORMAT_VERSION = 1

#: Environment variable overriding the default store root directory.
ENV_ROOT = "REPRO_STORE_DIR"

#: Environment variable disabling the implicit default store (``0``/``false``).
ENV_ENABLED = "REPRO_STORE"

#: Environment variable applying a size budget (bytes) to the default store.
ENV_BUDGET = "REPRO_STORE_BUDGET_BYTES"


def default_store_root() -> Path:
    """The machine-wide store root (``$REPRO_STORE_DIR`` or the user cache)."""
    override = os.environ.get(ENV_ROOT)
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro-eie" / "artifacts"


def store_enabled() -> bool:
    """Whether the implicit default store is enabled (``REPRO_STORE`` gate)."""
    return os.environ.get(ENV_ENABLED, "1").strip().lower() not in (
        "0", "false", "off", "no",
    )


def _default_budget() -> int | None:
    raw = os.environ.get(ENV_BUDGET, "").strip()
    if not raw:
        return None
    try:
        budget = int(raw)
    except ValueError:
        return None
    return budget if budget > 0 else None


def maybe_default_store() -> "ArtifactStore | None":
    """The default :class:`ArtifactStore`, or ``None`` when disabled."""
    if not store_enabled():
        return None
    return ArtifactStore(default_store_root(), size_budget_bytes=_default_budget())


def _records_crc(records: Any) -> int:
    """CRC32 over the canonical JSON form of a record payload."""
    return zlib.crc32(json.dumps(records, sort_keys=True).encode())


class ArtifactStore:
    """A content-addressed cache of compression and experiment artifacts.

    Args:
        root: store directory (created lazily on the first write).
        size_budget_bytes: optional cap on the total bytes of published
            entries; exceeding it after a publish evicts least-recently-used
            unpinned entries until the store fits.
    """

    #: Artifact kinds, each stored under ``<root>/<kind>/``.
    KINDS = ("layers", "models", "shards")

    #: File suffix per kind (array bundles vs JSON records).
    _SUFFIX = {"layers": ".npz", "models": ".json", "shards": ".json"}

    #: Per-kind counter names tracked by :meth:`stats`.
    COUNTERS = ("hits", "misses", "stores", "errors", "evictions")

    def __init__(self, root: Path | str, size_budget_bytes: int | None = None) -> None:
        if size_budget_bytes is not None and size_budget_bytes < 1:
            raise ConfigurationError(
                f"size_budget_bytes must be >= 1, got {size_budget_bytes}"
            )
        self.root = Path(root)
        self.size_budget_bytes = size_budget_bytes
        self._stats = {
            kind: dict.fromkeys(self.COUNTERS, 0) for kind in self.KINDS
        }
        self._swept = False

    # -- keys ------------------------------------------------------------------

    @staticmethod
    def layer_key(
        fingerprint: str, num_pes: int, config: CompressionConfig
    ) -> str:
        """Content address of one compressed layer.

        The key covers exactly the inputs that shape the compressed form:
        the dense matrix's content fingerprint, the PE count, the full
        compression configuration, and the payload format version (so a
        format bump invalidates every old entry instead of misreading it).
        The layer's *name* and *activation* are presentation metadata and
        deliberately excluded — they are reapplied by the loader.
        """
        if num_pes < 1:
            raise ConfigurationError(f"num_pes must be >= 1, got {num_pes}")
        payload = json.dumps(
            {
                "fingerprint": fingerprint,
                "num_pes": int(num_pes),
                "config": config.to_dict(),
                "format": FORMAT_VERSION,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    @staticmethod
    def content_key(payload: dict) -> str:
        """Content address of an arbitrary JSON-serializable key payload.

        The format version is folded in so a payload-format bump invalidates
        every old entry of every kind instead of misreading it.
        """
        text = json.dumps({**payload, "format": FORMAT_VERSION}, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()

    def _kind_dir(self, kind: str) -> Path:
        if kind not in self.KINDS:
            raise ConfigurationError(
                f"unknown artifact kind {kind!r}; expected one of {', '.join(self.KINDS)}"
            )
        return self.root / kind

    def _entry_path(self, kind: str, key: str) -> Path:
        return self._kind_dir(kind) / f"{key}{self._SUFFIX[kind]}"

    def _layer_path(self, key: str) -> Path:
        return self._entry_path("layers", key)

    # -- counters --------------------------------------------------------------

    def _count(self, kind: str, counter: str, delta: int = 1) -> None:
        self._stats[kind][counter] += delta

    def _touch(self, path: Path) -> None:
        """Refresh an entry's recency for the LRU eviction order."""
        try:
            os.utime(path, None)
        except OSError:
            pass

    # -- atomic publish --------------------------------------------------------

    def _publish_bytes(self, kind: str, key: str, payload: bytes) -> Path:
        """Atomically publish raw bytes under ``<kind>/<key>``; may raise OSError."""
        if not self._swept:
            # One opportunistic pass per handle: the first write is the
            # natural moment to collect .tmp files orphaned by crashed
            # writers (a sweep on every store would just churn the directory).
            self._swept = True
            self.sweep_stale_tmp()
        path = self._entry_path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            dir=path.parent, prefix=f".{key[:16]}.", suffix=".tmp", delete=False
        )
        try:
            with handle:
                handle.write(payload)
            os.replace(handle.name, path)
        except BaseException:
            Path(handle.name).unlink(missing_ok=True)
            raise
        self._count(kind, "stores")
        self._bump_lifetime(stored_entries=1)
        self.evict_to_budget()
        return path

    # -- JSON artifacts (models, shards) ---------------------------------------

    def store_json(self, kind: str, key: str, payload: dict) -> Path | None:
        """Publish a JSON artifact under its content address (atomic, CRC'd).

        The stored document wraps ``payload`` with the format version, its
        own key (so a misplaced file is rejected on load) and a CRC32 over
        the payload.  Best-effort like every publish: an unwritable root is
        counted under ``errors`` and reported as ``None``.
        """
        document = {
            "format": FORMAT_VERSION,
            "key": key,
            "payload": payload,
            "crc": _records_crc(payload),
        }
        try:
            # No sort_keys: the payload's insertion order is part of the
            # contract (shard records must round-trip byte-identically); the
            # CRC is computed over the canonical sorted form either way.
            return self._publish_bytes(
                kind, key, (json.dumps(document) + "\n").encode()
            )
        except OSError:
            self._count(kind, "errors")
            return None

    def load_json(self, kind: str, key: str) -> dict | None:
        """Load a JSON artifact, or ``None`` on miss/corruption.

        Any unreadable, unparsable, foreign-keyed or CRC-mismatched entry is
        treated as corrupt: counted under ``errors``, deleted, and reported
        as a miss — the caller recomputes that artifact only.
        """
        path = self._entry_path(kind, key)
        if not path.exists():
            self._count(kind, "misses")
            return None
        try:
            document = json.loads(path.read_text())
            if not isinstance(document, dict):
                raise ValueError("not a JSON object")
            if document.get("format") != FORMAT_VERSION or document.get("key") != key:
                raise ValueError("stale or foreign key")
            payload = document["payload"]
            if _records_crc(payload) != document.get("crc"):
                raise ValueError("payload CRC mismatch")
        except Exception:
            self._count(kind, "errors")
            self._count(kind, "misses")
            self._bump_lifetime(corrupt_entries=1)
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass  # read-only filesystem: leave the corrupt entry in place
            return None
        self._count(kind, "hits")
        self._touch(path)
        return payload

    # -- layer store / load ----------------------------------------------------

    def store_layer(
        self,
        fingerprint: str,
        num_pes: int,
        config: CompressionConfig,
        layer: CompressedLayer,
    ) -> Path | None:
        """Serialize ``layer`` under its content address (atomic publish).

        Publishing is best-effort: the store is a cache, so an unwritable
        root, a full disk or a concurrently swept temp file must never take
        down the computation that produced the layer.  Any ``OSError`` is
        counted under ``errors`` and reported as ``None``; the caller keeps
        its freshly compressed layer either way.
        """
        key = self.layer_key(fingerprint, num_pes, config)
        try:
            return self._publish_layer(key, fingerprint, num_pes, config, layer)
        except OSError:
            self._count("layers", "errors")
            return None

    def _publish_layer(
        self,
        key: str,
        fingerprint: str,
        num_pes: int,
        config: CompressionConfig,
        layer: CompressedLayer,
    ) -> Path:
        per_pe = layer.storage.per_pe
        values, runs = layer.storage.streams()
        # The value stream holds codebook indices (integral, small); the run
        # stream is bounded by max_run.  Both downcast losslessly to uint16
        # in every real configuration, which keeps entries compact — float64
        # is the fallback for exotic configs, flagged by the saved dtype.
        if values.size == 0 or (
            layer.codebook.size <= 2**16
            and np.array_equal(values, values.astype(np.uint16))
        ):
            values = values.astype(np.uint16)
        if layer.storage.per_pe and max(m.max_run for m in per_pe) < 2**16:
            runs = runs.astype(np.uint16)
        col_ptrs = (
            np.stack([matrix.col_ptr for matrix in per_pe])
            if per_pe
            else np.zeros((0, layer.cols + 1), dtype=np.int64)
        )
        entries_per_pe = np.asarray(
            [matrix.num_entries for matrix in per_pe], dtype=np.int64
        )
        meta = {
            "format": FORMAT_VERSION,
            "key": key,
            "fingerprint": fingerprint,
            "num_pes": int(num_pes),
            "shape": [int(layer.rows), int(layer.cols)],
            "max_run": int(per_pe[0].max_run) if per_pe else int(config.max_run),
            "index_bits": int(layer.codebook.index_bits),
            "config": config.to_dict(),
            "metadata": dict(layer.metadata),
        }

        import io

        buffer = io.BytesIO()
        # Uncompressed: the streams are already downcast to compact
        # dtypes, and a warm hit must stay a fast mmap-friendly read
        # (zlib would cost seconds on a paper-scale layer).
        np.savez(
            buffer,
            meta=np.frombuffer(
                json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
            ),
            centroids=layer.codebook.centroids,
            values=values,
            runs=runs,
            col_ptrs=col_ptrs,
            entries_per_pe=entries_per_pe,
        )
        return self._publish_bytes("layers", key, buffer.getvalue())

    def load_layer(
        self,
        fingerprint: str,
        num_pes: int,
        config: CompressionConfig,
        name: str = "layer",
        activation_name: str = "relu",
    ) -> CompressedLayer | None:
        """Load a layer by content address, or ``None`` on miss/corruption.

        The payload is rebuilt through the validating
        :class:`~repro.compression.csc.CSCMatrix` /
        :class:`~repro.compression.csc.InterleavedCSC` /
        :class:`CompressedLayer` constructors, so any logically inconsistent
        entry (as well as any unreadable archive) is treated as corrupt:
        counted under ``errors``, deleted, and reported as a miss.
        """
        key = self.layer_key(fingerprint, num_pes, config)
        return self.load_layer_by_key(key, name=name, activation_name=activation_name)

    def load_layer_by_key(
        self, key: str, name: str = "layer", activation_name: str = "relu"
    ) -> CompressedLayer | None:
        """Load a layer directly by its content key (manifest-driven loads)."""
        path = self._layer_path(key)
        if not path.exists():
            self._count("layers", "misses")
            return None
        try:
            layer = self._read_layer(path, key, name, activation_name)
        except Exception:
            self._count("layers", "errors")
            self._count("layers", "misses")
            self._bump_lifetime(corrupt_entries=1)
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass  # read-only filesystem: leave the corrupt entry in place
            return None
        self._count("layers", "hits")
        self._touch(path)
        return layer

    def _read_layer(
        self, path: Path, key: str, name: str, activation_name: str
    ) -> CompressedLayer:
        with np.load(path) as archive:
            meta = json.loads(bytes(archive["meta"]).decode())
            if meta.get("format") != FORMAT_VERSION or meta.get("key") != key:
                raise ValueError(f"store entry {path.name} has a stale or foreign key")
            centroids = np.asarray(archive["centroids"], dtype=np.float64)
            values = np.asarray(archive["values"], dtype=np.float64)
            runs = np.asarray(archive["runs"], dtype=np.int64)
            col_ptrs = np.asarray(archive["col_ptrs"], dtype=np.int64)
            entries_per_pe = np.asarray(archive["entries_per_pe"], dtype=np.int64)
        num_pes = int(meta["num_pes"])
        rows, cols = (int(side) for side in meta["shape"])
        max_run = int(meta["max_run"])
        if entries_per_pe.shape[0] != num_pes or col_ptrs.shape[0] != num_pes:
            raise ValueError(f"store entry {path.name} has inconsistent PE counts")
        if int(entries_per_pe.sum()) != values.shape[0]:
            raise ValueError(f"store entry {path.name} has truncated streams")
        boundaries = np.zeros(num_pes + 1, dtype=np.int64)
        np.cumsum(entries_per_pe, out=boundaries[1:])
        per_pe = [
            CSCMatrix(
                values=values[boundaries[pe]:boundaries[pe + 1]],
                runs=runs[boundaries[pe]:boundaries[pe + 1]],
                col_ptr=col_ptrs[pe],
                num_rows=_rows_owned_by(pe, rows, num_pes),
                num_cols=cols,
                max_run=max_run,
            )
            for pe in range(num_pes)
        ]
        storage = InterleavedCSC(
            per_pe=per_pe, num_rows=rows, num_cols=cols, num_pes=num_pes
        )
        codebook = WeightCodebook(
            centroids=centroids, index_bits=int(meta["index_bits"])
        )
        return CompressedLayer(
            name=name,
            shape=(rows, cols),
            codebook=codebook,
            storage=storage,
            num_pes=num_pes,
            activation_name=activation_name,
            metadata=dict(meta.get("metadata", {})),
        )

    # -- pin manifests ---------------------------------------------------------

    #: Pin manifests older than this are presumed abandoned and ignored.
    PIN_TTL_SECONDS = 3600.0

    def _pins_dir(self) -> Path:
        return self.root / "pins"

    def pin(self, name: str, paths: Iterable[Path | str]) -> Path | None:
        """Write an in-flight manifest protecting ``paths`` from eviction.

        ``name`` identifies the manifest (one per sharded run or merge);
        ``paths`` are store entry paths (absolute or root-relative).  Pins
        are advisory and time-bounded (:data:`PIN_TTL_SECONDS`): a crashed
        pinner cannot exempt entries from eviction forever.
        """
        relative = []
        for path in paths:
            path = Path(path)
            if path.is_absolute():
                try:
                    path = path.relative_to(self.root)
                except ValueError:
                    raise ConfigurationError(
                        f"pinned path {path} is outside the store root {self.root}"
                    ) from None
            relative.append(path.as_posix())
        document = {"created": time.time(), "paths": sorted(relative)}
        target = self._pins_dir() / f"{name}.json"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                dir=target.parent, prefix=f".{name}.", suffix=".tmp",
                delete=False, mode="w",
            )
            with handle:
                json.dump(document, handle, sort_keys=True)
            os.replace(handle.name, target)
        except OSError:
            return None
        return target

    def unpin(self, name: str) -> None:
        """Remove the pin manifest ``name`` (missing manifests are fine)."""
        try:
            (self._pins_dir() / f"{name}.json").unlink(missing_ok=True)
        except OSError:
            pass

    @contextlib.contextmanager
    def pinned(self, name: str, paths: Iterable[Path | str]) -> Iterator[None]:
        """Context manager: pin ``paths`` for the duration of the block."""
        self.pin(name, paths)
        try:
            yield
        finally:
            self.unpin(name)

    def pinned_paths(self) -> set[Path]:
        """Absolute paths protected by live (non-expired) pin manifests."""
        pins = self._pins_dir()
        if not pins.is_dir():
            return set()
        protected: set[Path] = set()
        now = time.time()
        for manifest in pins.glob("*.json"):
            try:
                document = json.loads(manifest.read_text())
                created = float(document.get("created", 0.0))
                paths = document.get("paths", [])
            except (OSError, ValueError):
                continue
            if now - created > self.PIN_TTL_SECONDS:
                continue
            for entry in paths:
                if isinstance(entry, str):
                    protected.add(self.root / entry)
        return protected

    # -- eviction --------------------------------------------------------------

    def evict_to_budget(self, budget_bytes: int | None = None) -> int:
        """Evict least-recently-used unpinned entries down to the budget.

        Returns how many entries were removed.  A ``None`` budget (and no
        configured ``size_budget_bytes``) is a no-op.  Recency is the entry
        file's mtime — every load refreshes it — so the oldest *unused*
        entries go first; pinned entries (and entries that vanish
        concurrently) are skipped.  Each unlink is atomic and counted, so a
        reader that already opened the file keeps its snapshot and a
        concurrent loader sees a clean miss.
        """
        budget = self.size_budget_bytes if budget_bytes is None else budget_bytes
        if budget is None:
            return 0
        entries: list[tuple[float, Path, int, str]] = []
        total = 0
        for kind in self.KINDS:
            directory = self.root / kind
            if not directory.is_dir():
                continue
            for path in directory.glob(f"*{self._SUFFIX[kind]}"):
                try:
                    stat = path.stat()
                except OSError:
                    continue
                entries.append((stat.st_mtime, path, stat.st_size, kind))
                total += stat.st_size
        if total <= budget:
            return 0
        pinned = self.pinned_paths()
        removed = 0
        for _mtime, path, size, kind in sorted(entries, key=lambda e: (e[0], str(e[1]))):
            if total <= budget:
                break
            if path in pinned:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
            self._count(kind, "evictions")
        if removed:
            self._bump_lifetime(evicted_entries=removed)
        return removed

    # -- maintenance / introspection -------------------------------------------

    def entries(self, kind: str | None = None) -> list[Path]:
        """Paths of every published store entry (optionally of one kind)."""
        kinds = self.KINDS if kind is None else (kind,)
        found: list[Path] = []
        for which in kinds:
            directory = self._kind_dir(which)
            if directory.is_dir():
                found.extend(directory.glob(f"*{self._SUFFIX[which]}"))
        return sorted(found)

    def size_bytes(self) -> int:
        """Total bytes held by published entries."""
        total = 0
        for path in self.entries():
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

    #: Temp files younger than this are presumed in-flight and left alone.
    STALE_TMP_SECONDS = 3600.0

    #: Lifetime counter names persisted in ``<root>/counters.json``.
    LIFETIME_COUNTERS = (
        "stored_entries", "corrupt_entries", "swept_tmp_files", "evicted_entries",
    )

    def sweep_stale_tmp(self, max_age_s: float | None = None) -> int:
        """Delete abandoned ``.tmp`` files; returns how many were removed.

        Temp files are only swept when they are clearly abandoned (older
        than ``max_age_s``, default :data:`STALE_TMP_SECONDS`): a fresh
        ``.tmp`` may belong to a writer mid-publish in another process, and
        deleting it would make that writer's atomic rename fail.  Expired
        pin manifests are collected on the same pass.  Runs opportunistically
        on each handle's first publish and on demand via ``repro cache
        sweep``.
        """
        max_age = self.STALE_TMP_SECONDS if max_age_s is None else float(max_age_s)
        removed = 0
        now = time.time()
        for kind in self.KINDS:
            directory = self.root / kind
            if not directory.is_dir():
                continue
            for path in directory.iterdir():
                if path.suffix != ".tmp":
                    continue
                try:
                    abandoned = now - path.stat().st_mtime > max_age
                except OSError:
                    continue
                if abandoned:
                    try:
                        path.unlink(missing_ok=True)
                    except OSError:
                        continue
                    removed += 1
        pins = self._pins_dir()
        if pins.is_dir():
            for manifest in pins.iterdir():
                try:
                    expired = now - manifest.stat().st_mtime > self.PIN_TTL_SECONDS
                except OSError:
                    continue
                if expired or manifest.suffix == ".tmp":
                    try:
                        manifest.unlink(missing_ok=True)
                    except OSError:
                        continue
        if removed:
            self._bump_lifetime(swept_tmp_files=removed)
        return removed

    def clear(self, kind: str | None = None) -> int:
        """Delete every entry (and stale temp files); returns entries removed."""
        removed = 0
        for path in self.entries(kind):
            path.unlink(missing_ok=True)
            removed += 1
        self.sweep_stale_tmp()
        return removed

    def stats(self) -> dict[str, Any]:
        """Counters for this process's store handle.

        The aggregate ``hits``/``misses``/``stores``/``errors``/``evictions``
        keys sum over every artifact kind; ``by_kind`` breaks the same
        counters down per kind (layers vs models vs shards), so
        a sharded run can show *where* the store saved work.
        """
        aggregate = dict.fromkeys(self.COUNTERS, 0)
        for counters in self._stats.values():
            for name, value in counters.items():
                aggregate[name] += value
        aggregate["by_kind"] = {
            kind: dict(counters) for kind, counters in self._stats.items()
        }
        return aggregate

    @classmethod
    def zero_stats(cls) -> dict[str, Any]:
        """The all-zero shape of :meth:`stats` (sessions without a store)."""
        zero = dict.fromkeys(cls.COUNTERS, 0)
        zero["by_kind"] = {
            kind: dict.fromkeys(cls.COUNTERS, 0) for kind in cls.KINDS
        }
        return zero

    def _bump_lifetime(self, **deltas: int) -> None:
        """Best-effort read-modify-write of the persistent counters.

        The counters are diagnostics, not bookkeeping the cache depends on:
        a concurrent bump may be lost and an unwritable root is ignored, but
        the file itself is always published atomically so it never reads as
        half-written JSON.
        """
        path = self.root / "counters.json"
        counters = self.lifetime_counters()
        for name, delta in deltas.items():
            counters[name] = counters.get(name, 0) + int(delta)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            handle = tempfile.NamedTemporaryFile(
                dir=self.root, prefix=".counters.", suffix=".json",
                delete=False, mode="w",
            )
            with handle:
                json.dump(counters, handle, sort_keys=True)
            os.replace(handle.name, path)
        except OSError:
            pass

    def lifetime_counters(self) -> dict[str, int]:
        """Machine-lifetime counters persisted across processes.

        ``stored_entries`` counts every publish (first computations and
        post-corruption recomputes alike), ``corrupt_entries`` every entry
        rejected and deleted on load, ``swept_tmp_files`` every orphaned
        temp file collected, ``evicted_entries`` every entry removed by the
        size-budget LRU policy.
        """
        counters = dict.fromkeys(self.LIFETIME_COUNTERS, 0)
        try:
            data = json.loads((self.root / "counters.json").read_text())
        except (OSError, ValueError):
            return counters
        if isinstance(data, dict):
            for name, value in data.items():
                if isinstance(value, int):
                    counters[name] = value
        return counters

    def describe(self) -> dict[str, Any]:
        """A JSON-friendly summary (CLI ``cache info``)."""
        by_kind = {}
        total_entries = 0
        total_bytes = 0
        for kind in self.KINDS:
            paths = self.entries(kind)
            size = 0
            for path in paths:
                try:
                    size += path.stat().st_size
                except OSError:
                    continue
            by_kind[kind] = {"entries": len(paths), "size_bytes": size}
            total_entries += len(paths)
            total_bytes += size
        return {
            "root": str(self.root),
            "entries": total_entries,
            "size_bytes": total_bytes,
            "size_budget_bytes": self.size_budget_bytes,
            "kinds": by_kind,
            "format": FORMAT_VERSION,
            **self.stats(),
            "lifetime": self.lifetime_counters(),
        }
