"""Thread-safety stress tests for the Session LRU caches.

The serving layer reads ``cache_info()`` (stats endpoint) while dispatch
threads churn the engine/prepared caches.  The pre-fix
``cache_info`` iterated ``_engine_cache`` without the session lock, which
dies with ``RuntimeError``/``KeyError`` as soon as a concurrent
``_cache_put`` inserts or LRU-evicts mid-iteration — reproducibly within
~100ms of churn.  These tests pin the fixed behaviour: snapshots taken
under the lock are always self-consistent, whatever the interleaving.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.compression.pipeline import CompressionConfig
from repro.core.config import EIEConfig
from repro.engine.session import Session
from repro.utils.rng import make_rng

#: Per-thread loop count: large enough that an unlocked cache_info reliably
#: hits a mid-iteration mutation, small enough to keep the suite fast.
ITERATIONS = 300


def _run_threads(workers, observers):
    """Start churn + observer threads, collect exceptions from all of them."""
    failures: list[BaseException] = []
    barrier = threading.Barrier(len(workers) + len(observers))
    stop = threading.Event()

    def wrap(fn, *args):
        def runner():
            barrier.wait()
            try:
                fn(*args)
            except BaseException as exc:  # surfaced via the failures list
                failures.append(exc)
                stop.set()

        return threading.Thread(target=runner)

    worker_threads = [wrap(fn, *args) for fn, *args in workers]
    observer_threads = [wrap(fn, stop, *args) for fn, *args in observers]
    for thread in worker_threads + observer_threads:
        thread.start()
    for thread in worker_threads:
        thread.join()
    stop.set()
    for thread in observer_threads:
        thread.join()
    if failures:
        raise failures[0]


class TestCacheInfoUnderChurn:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        num_threads=st.integers(min_value=2, max_value=4),
        distinct_keys=st.integers(min_value=6, max_value=12),
        bound=st.integers(min_value=2, max_value=4),
    )
    def test_engine_cache_snapshots_stay_consistent(
        self, num_threads, distinct_keys, bound
    ):
        """cache_info during insert/evict churn never tears or crashes."""
        session = Session(max_engines=bound)

        def churn(offset: int) -> None:
            for i in range(ITERATIONS):
                fifo_depth = 1 + ((i + offset) % distinct_keys)
                session.engine(
                    "functional", EIEConfig(num_pes=4, fifo_depth=fifo_depth)
                )

        def observe(stop: threading.Event) -> None:
            while not stop.is_set():
                info = session.cache_info()["engines"]
                assert 0 <= info["entries"] <= bound
                assert sum(info["by_engine"].values()) == info["entries"]
                assert info["hits"] >= 0

        _run_threads(
            workers=[(churn, tid) for tid in range(num_threads)],
            observers=[(observe,), (observe,)],
        )
        # distinct_keys > bound, so the cache ends exactly at its bound and
        # every surviving entry belongs to the one engine name used.
        final = session.cache_info()["engines"]
        assert final["entries"] == bound
        assert final["by_engine"] == {"functional": bound}

    def test_counters_account_for_every_call_single_engine_key(self):
        """With one hot key, hits = calls - 1 exactly, even across threads."""
        session = Session()
        config = EIEConfig(num_pes=4)
        num_threads, calls_each = 4, ITERATIONS

        def churn() -> None:
            for _ in range(calls_each):
                session.engine("functional", config)

        _run_threads(workers=[(churn,) for _ in range(num_threads)], observers=[])
        info = session.cache_info()["engines"]
        assert info["entries"] == 1
        # Exactly one thread paid the miss; creation is serialized by the
        # session lock only around the cache put, so at worst a handful of
        # threads race the first miss — hits can be short by at most
        # (num_threads - 1), never more.
        total_calls = num_threads * calls_each
        assert total_calls - num_threads <= info["hits"] <= total_calls - 1


class TestBatchedRunsUnderChurn:
    def test_concurrent_batched_runs_with_stats_reader(self):
        """The serving pattern: batched run() workers + a stats poller."""
        rng = make_rng(5)
        weights = rng.normal(0.0, 0.1, size=(24, 36))
        config = EIEConfig(num_pes=4)
        session = Session(
            CompressionConfig(target_density=0.2), config=config, max_prepared=2
        )
        layer = session.compress(weights, num_pes=4, name="stress")
        activations = rng.uniform(0.1, 1.0, size=(3, 36))
        reference = session.run("cycle", layer, activations, config).outputs

        def churn(offset: int) -> None:
            for i in range(60):
                # Alternate fifo depths so prepared/engine entries churn
                # (max_prepared=2 forces evictions) while outputs must stay
                # bit-identical to the single-threaded reference.
                run_config = EIEConfig(num_pes=4, fifo_depth=1 + ((i + offset) % 4))
                result = session.run("cycle", layer, activations, run_config)
                assert np.array_equal(result.outputs, reference)

        def observe(stop: threading.Event) -> None:
            while not stop.is_set():
                info = session.cache_info()
                assert info["prepared"]["entries"] <= 2
                assert info["layers"]["entries"] == 1

        _run_threads(
            workers=[(churn, tid) for tid in range(4)],
            observers=[(observe,)],
        )
