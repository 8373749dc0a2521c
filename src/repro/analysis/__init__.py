"""Analysis layer: the per-point primitives behind every table and figure.

Each figure, table and ablation of the evaluation is a registered experiment
of :mod:`repro.experiments` that returns uniform records; this package holds
the pieces those experiments compute with:

* :mod:`repro.analysis.speedup` — Figure 6 per-layer platform times.
* :mod:`repro.analysis.energy_efficiency` — Figure 7 per-layer energies.
* :mod:`repro.analysis.design_space` — the Figure 8-10 sweep ranges and the
  Figure 10 precision proxy model.
* :mod:`repro.analysis.scalability` — the Figure 11-13 PE counts.
* :mod:`repro.analysis.ablation` — the codebook-size ablation's population
  and per-point fit.
* :mod:`repro.analysis.tables` — Tables I-V row builders.
* :mod:`repro.analysis.report` — plain-text rendering helpers used by the
  benchmark harness and the examples.
"""

from repro.analysis.energy_efficiency import layer_energies
from repro.analysis.report import format_table, geometric_mean, render_series
from repro.analysis.speedup import SPEEDUP_CONFIGS, layer_times
from repro.analysis.tables import (
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
)

__all__ = [
    "SPEEDUP_CONFIGS",
    "format_table",
    "geometric_mean",
    "layer_energies",
    "layer_times",
    "render_series",
    "table1_rows",
    "table2_rows",
    "table3_rows",
    "table4_rows",
    "table5_rows",
]
