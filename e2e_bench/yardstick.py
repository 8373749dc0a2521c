"""Scaling wall times to a machine of fixed speed.

The hosts this benchmark runs on share their cores with other tenants, and
their speed drifts by tens of percent over minutes.  That drift, not the
program, dominated the spread between runs.  :class:`Yardstick` times two
fixed probes that use no ``repro`` code right before and right after each
timed interval:

* ``python``: an interpreter loop around numpy calls on a few values, the
  kind of work the functional engine's per-PE walk does;
* ``numpy``: a sort, a histogram and a gather over two million values, and
  a freshly allocated array, the memory-bound kind of work the array code
  does.

A timing is reported as its wall time multiplied by ``nominal / probe``:
the seconds it would take on a machine where the probes take their
:data:`NOMINAL_PYTHON_S` and :data:`NOMINAL_NUMPY_S`.  ``mixed`` scales by
both probes together and suits everything but interpreter-bound work.
Since the probes never run ``repro`` code, a faster program reads faster
however the host's speed moves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

__all__ = ["NOMINAL_NUMPY_S", "NOMINAL_PYTHON_S", "Factors", "Yardstick"]

#: Probe times of the machine every timing is scaled to: about what they
#: take on the 2-core x86 host the benchmark was tuned on.
NOMINAL_PYTHON_S = 0.035
NOMINAL_NUMPY_S = 0.065

_PYTHON_LOOP = 5_000
_NUMPY_VALUES = 2_000_000


@dataclass(frozen=True)
class Factors:
    """Multipliers from wall time to nominal time for one interval."""

    python: float
    mixed: float


class Yardstick:
    """Probes the host's speed around consecutive timed intervals."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.random(_NUMPY_VALUES)
        self._indices = rng.integers(0, _NUMPY_VALUES, _NUMPY_VALUES)
        self._last = self._probe()

    def _probe(self) -> tuple[float, float]:
        small = self._values[:8]
        positions = self._indices[:8] % 4
        accumulators = np.zeros(4)
        start = time.perf_counter()
        for value in range(_PYTHON_LOOP):
            np.add.at(accumulators, positions, small * value)
            np.cumsum(small)
            int(np.count_nonzero(small))
        python_s = time.perf_counter() - start
        start = time.perf_counter()
        np.sort(self._values)
        np.bincount(self._indices)
        self._values[self._indices].sum()
        np.ones(2 * _NUMPY_VALUES).sum()
        return python_s, time.perf_counter() - start

    def factors(self) -> Factors:
        """Factors for the interval since the previous call (or creation)."""
        now = self._probe()
        python_s = (self._last[0] + now[0]) / 2.0
        numpy_s = (self._last[1] + now[1]) / 2.0
        self._last = now
        return Factors(
            python=NOMINAL_PYTHON_S / python_s,
            mixed=(NOMINAL_PYTHON_S + NOMINAL_NUMPY_S) / (python_s + numpy_s),
        )
