"""Scalability study: Figures 11, 12 and 13.

The ``"fig11_scalability"``, ``"fig12_padding_zeros"`` and
``"fig13_load_balance"`` experiments of :mod:`repro.experiments` sweep the
number of PEs from 1 to 256 (FIFO depth 8) per benchmark:

* Figure 11 — speedup relative to a single PE (near-linear except NT-We,
  whose 600 rows spread too thinly over many PEs);
* Figure 12 — real work / total work: padding zeros *decrease* with more PEs
  because each PE's local column slice gets shorter, so zero runs longer than
  15 become rarer;
* Figure 13 — load-balance efficiency: more PEs means fewer entries per PE
  per column and therefore more variance, i.e. worse balance.
"""

from __future__ import annotations

__all__ = ["DEFAULT_PE_COUNTS"]

#: PE counts swept in Figures 11-13.
DEFAULT_PE_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128, 256)
