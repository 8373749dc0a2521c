"""Thread helpers: split one numpy kernel over two threads, compute values once.

The two dominant full-scale kernels — Bernoulli pattern sampling and
interleaved-CSC entry counting — split into parts whose outputs land in
disjoint places, and numpy releases the GIL inside the large array
operations, so the parts of one call run on both cores at once.  Each call
starts and joins its own pool: no thread outlives the call, so a process
executor that forks later never forks a live worker thread.  Each kernel
passes its own measured split floor, the size below which a second thread
costs more than it saves.

:class:`ComputeOnce` is the compute-once cache that the workload builder
and the experiment context share under the ``threads`` executor.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Generic, Hashable, Sequence, TypeVar

__all__ = ["ComputeOnce", "split_parts", "run_parts"]

T = TypeVar("T")


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def split_parts(size: int, floor: int) -> int:
    """How many parts a kernel of ``size`` draws or entries should run as.

    Two when ``size`` reaches the kernel's ``floor`` and this process may
    run on more than one CPU, else one.
    """
    return 2 if size >= floor and _usable_cpus() > 1 else 1


def run_parts(parts: Sequence[Callable[[], T]]) -> list[T]:
    """Run ``parts`` on two threads and return their results in order.

    The calling thread runs the first part while a per-call pool of one
    worker thread runs the rest, so the work spreads over two threads and
    only one extra malloc arena ever holds a part's temporaries.  A single
    part runs inline.
    """
    if len(parts) == 1:
        return [parts[0]()]
    with ThreadPoolExecutor(max_workers=1) as pool:
        futures = [pool.submit(part) for part in parts[1:]]
        first = parts[0]()
        return [first, *(future.result() for future in futures)]


class ComputeOnce(Generic[T]):
    """A cache whose value for each key is computed once, also under threads.

    Concurrent callers of one missing key wait for the first to compute it;
    different keys compute in parallel, so two threads building different
    layers do not queue behind one lock.  A factory may ask for other keys,
    but not, directly or through others, for its own.
    """

    def __init__(self) -> None:
        self._values: dict[Hashable, T] = {}
        self._key_locks: dict[Hashable, threading.Lock] = {}
        self._lock = threading.Lock()

    def get(self, key: Hashable, factory: Callable[[], T]) -> T:
        """The value of ``key``, computed by ``factory`` the first time."""
        with self._lock:
            key_lock = self._key_locks.setdefault(key, threading.Lock())
        with key_lock:
            if key not in self._values:
                self._values[key] = factory()
            return self._values[key]

    def clear(self) -> None:
        """Forget every value."""
        with self._lock:
            self._values.clear()
            self._key_locks.clear()
