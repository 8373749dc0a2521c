"""The thread helpers of ``repro.utils.parallel`` and the kernels they split.

Tier-1's pinned digests run at ``scale=64``, below the split floors, so these
tests drive each kernel's private body with several parts on small inputs and
hold it bit for bit to the one-part body and to the entry-count oracle.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from entry_counts_oracle import oracle_entry_counts

from repro.compression import csc
from repro.compression.csc import interleaved_entry_counts
from repro.errors import EncodingError
from repro.utils import parallel
from repro.workloads import synthetic
from repro.workloads.benchmarks import ALL_BENCHMARKS
from repro.workloads.synthetic import generate_sparse_pattern

PARTS = (1, 2, 3, 7)

#: (rows, cols, column_block): cols not a multiple of the block, cols below
#: one block, a single row, and an exact multiple.
SHAPES = [(37, 1000, 64), (5, 70, 256), (1, 999, 16), (300, 512, 32)]


def _generator(kind: type, seed: int = 3) -> np.random.Generator:
    """A generator of bit generator ``kind`` holding a buffered 32-bit half."""
    rng = np.random.Generator(kind(seed))
    rng.integers(0, 2**31, dtype=np.int32)
    return rng


def _next_draws(rng: np.random.Generator) -> tuple[list[int], list[float]]:
    """What a generator draws next: int32 values use any buffered half first."""
    return rng.integers(0, 2**31, size=3, dtype=np.int32).tolist(), rng.random(3).tolist()


def _count_parts(monkeypatch, module) -> list[int]:
    """Record how many parts each of ``module``'s ``run_parts`` calls gets."""
    calls: list[int] = []

    def counting(parts):
        calls.append(len(parts))
        return parallel.run_parts(parts)

    monkeypatch.setattr(module, "run_parts", counting)
    return calls


class TestRunParts:
    def test_results_come_back_in_order(self):
        assert parallel.run_parts([lambda i=i: i * i for i in range(7)]) == [
            i * i for i in range(7)
        ]

    def test_one_part_runs_on_the_calling_thread(self):
        assert parallel.run_parts([threading.get_ident]) == [threading.get_ident()]

    def test_no_thread_outlives_the_call(self):
        before = threading.active_count()
        parallel.run_parts([threading.get_ident, threading.get_ident])
        assert threading.active_count() == before

    def test_a_part_error_propagates(self):
        def fail():
            raise EncodingError("part failed")

        with pytest.raises(EncodingError, match="part failed"):
            parallel.run_parts([lambda: 1, fail])

    def test_split_needs_the_floor_and_two_cpus(self, monkeypatch):
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        assert parallel.split_parts(99, 100) == 1
        assert parallel.split_parts(100, 100) == 2
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
        assert parallel.split_parts(100, 100) == 1


    def test_table3_layers_that_split(self, monkeypatch):
        # Every Table III pattern draw splits; every layer's entry counts
        # split except NT-We's (~245k expected non-zeros, below 2**18).
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        draws = {
            name: parallel.split_parts(spec.rows * spec.cols, synthetic._SPLIT_DRAWS)
            for name, spec in ALL_BENCHMARKS.items()
        }
        entries = {
            name: parallel.split_parts(
                round(spec.rows * spec.cols * spec.weight_density), csc._SPLIT_ENTRIES
            )
            for name, spec in ALL_BENCHMARKS.items()
        }
        assert set(draws.values()) == {2}
        assert [name for name, parts in entries.items() if parts == 1] == ["NT-We"]


class TestComputeOnce:
    def test_concurrent_callers_of_one_key_compute_it_once(self):
        cache: parallel.ComputeOnce[int] = parallel.ComputeOnce()
        calls = []
        started = threading.Barrier(4)

        def caller():
            started.wait()
            return cache.get("key", lambda: calls.append(1) or len(calls))

        with ThreadPoolExecutor(max_workers=4) as pool:
            values = [future.result() for future in [pool.submit(caller) for _ in range(4)]]
        assert values == [1, 1, 1, 1]
        assert calls == [1]

    def test_none_is_cached_and_clear_forgets(self):
        cache: parallel.ComputeOnce[None] = parallel.ComputeOnce()
        calls = []
        assert cache.get("key", lambda: calls.append(1)) is None
        assert cache.get("key", lambda: calls.append(1)) is None
        assert calls == [1]
        cache.clear()
        cache.get("key", lambda: calls.append(1))
        assert calls == [1, 1]

    def test_a_factory_may_ask_for_another_key(self):
        cache: parallel.ComputeOnce[int] = parallel.ComputeOnce()
        assert cache.get("outer", lambda: cache.get("inner", lambda: 2) + 1) == 3
        assert cache.get("inner", lambda: 0) == 2


class TestSplitPattern:
    @pytest.mark.parametrize(("rows", "cols", "column_block"), SHAPES)
    @pytest.mark.parametrize("kind", [np.random.PCG64, np.random.PCG64DXSM])
    @pytest.mark.parametrize("parts", PARTS)
    def test_parts_match_one_part(self, rows, cols, column_block, kind, parts):
        serial_rng = _generator(kind)
        expected = synthetic._sample_pattern(rows, cols, 0.3, serial_rng, column_block, 1)
        rng = _generator(kind)
        actual = synthetic._sample_pattern(rows, cols, 0.3, rng, column_block, parts)
        assert actual.row_indices.dtype == expected.row_indices.dtype == np.int16
        assert np.array_equal(actual.row_indices, expected.row_indices)
        assert np.array_equal(actual.col_ptr, expected.col_ptr)
        # The caller's generator ends where the serial loop left it, with
        # its buffered 32-bit half still pending.
        assert _next_draws(rng) == _next_draws(serial_rng)

    def test_one_part_is_the_public_generator(self):
        expected = generate_sparse_pattern(37, 1000, 0.3, rng=5, column_block=64)
        actual = synthetic._sample_pattern(
            37, 1000, 0.3, np.random.default_rng(5), 64, 1
        )
        assert np.array_equal(actual.row_indices, expected.row_indices)
        assert np.array_equal(actual.col_ptr, expected.col_ptr)

    @pytest.mark.parametrize(
        ("kind", "expected_parts"),
        [(np.random.PCG64, 3), (np.random.MT19937, 1), (np.random.Philox, 1)],
    )
    def test_only_the_pcg64_family_splits(self, monkeypatch, kind, expected_parts):
        calls = _count_parts(monkeypatch, synthetic)
        serial_rng = _generator(kind)
        expected = synthetic._sample_pattern(37, 1000, 0.3, serial_rng, 64, 1)
        rng = _generator(kind)
        actual = synthetic._sample_pattern(37, 1000, 0.3, rng, 64, 3)
        assert calls == [1, expected_parts]
        assert np.array_equal(actual.row_indices, expected.row_indices)
        assert np.array_equal(actual.col_ptr, expected.col_ptr)
        assert _next_draws(rng) == _next_draws(serial_rng)

    def test_public_generator_splits_above_the_floor(self, monkeypatch):
        expected = generate_sparse_pattern(37, 1000, 0.3, rng=5, column_block=64)
        calls = _count_parts(monkeypatch, synthetic)
        monkeypatch.setattr(synthetic, "_SPLIT_DRAWS", 1)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        actual = generate_sparse_pattern(37, 1000, 0.3, rng=5, column_block=64)
        assert calls == [2]
        assert np.array_equal(actual.row_indices, expected.row_indices)
        assert np.array_equal(actual.col_ptr, expected.col_ptr)


def _csc_of(mask: np.ndarray, dtype: type) -> tuple[np.ndarray, np.ndarray]:
    """``(row_indices, col_ptr)`` of a dense ``(rows, cols)`` boolean mask."""
    _, rows = np.nonzero(mask.T)
    col_ptr = np.zeros(mask.shape[1] + 1, dtype=np.int64)
    np.cumsum(mask.sum(axis=0), out=col_ptr[1:])
    return rows.astype(dtype), col_ptr


class TestSplitEntryCounts:
    @pytest.mark.parametrize(("rows", "cols"), [(37, 1000), (300, 70), (1, 999), (120, 17)])
    @pytest.mark.parametrize("num_pes", [1, 3, 7, 8, 64])
    @pytest.mark.parametrize("max_run", [1, 15])
    @pytest.mark.parametrize("dtype", [np.int16, np.int64])
    def test_parts_match_the_oracle(self, rows, cols, num_pes, max_run, dtype):
        mask = np.random.default_rng(rows * cols).random((rows, cols)) < 0.2
        row_indices, col_ptr = _csc_of(mask, dtype)
        expected = oracle_entry_counts(row_indices, col_ptr, rows, num_pes, max_run)
        for parts in PARTS:
            actual = csc._entry_counts(row_indices, col_ptr, rows, num_pes, max_run, parts)
            for got, want in zip(actual, expected, strict=True):
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("parts", PARTS)
    def test_empty_and_lopsided_columns(self, parts):
        # Empty columns at the ends and one column holding most entries, so
        # some parts get no entries at all.
        mask = np.zeros((200, 9), dtype=bool)
        mask[:, 4] = True
        mask[::7, 6] = True
        row_indices, col_ptr = _csc_of(mask, np.int16)
        expected = oracle_entry_counts(row_indices, col_ptr, 200, 5, 3)
        actual = csc._entry_counts(row_indices, col_ptr, 200, 5, 3, parts)
        for got, want in zip(actual, expected, strict=True):
            assert np.array_equal(got, want)

    def test_public_counts_split_above_the_floor(self, monkeypatch):
        mask = np.random.default_rng(1).random((300, 70)) < 0.2
        row_indices, col_ptr = _csc_of(mask, np.int16)
        expected = interleaved_entry_counts(row_indices, col_ptr, 300, 7)
        calls = _count_parts(monkeypatch, csc)
        monkeypatch.setattr(csc, "_SPLIT_ENTRIES", 1)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: 2)
        actual = interleaved_entry_counts(row_indices, col_ptr, 300, 7)
        assert calls == [2]
        for got, want in zip(actual, expected, strict=True):
            assert np.array_equal(got, want)
