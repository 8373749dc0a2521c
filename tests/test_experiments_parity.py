"""Parity tests: registered experiments against independent references.

A direct engine-level recomputation guards the Figure 8 records, the table
experiments must return exactly the rows of the ``repro.analysis.tables``
row builders, and the CLI's classic ``figure``/``table``/``ablation``
commands must print byte-identical output to ``experiment run <name>``.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core.config import EIEConfig
from repro.engine import EngineRegistry
from repro.experiments import run_experiment
from repro.workloads.benchmarks import scaled_benchmarks
from repro.workloads.generator import WorkloadBuilder

SCALE = 64.0


@pytest.fixture(scope="module")
def builder() -> WorkloadBuilder:
    return WorkloadBuilder()


@pytest.fixture(scope="module")
def subset():
    specs = scaled_benchmarks(SCALE)
    return [specs["Alex-7"], specs["NT-We"]]


class TestLegacyFunctionParity:
    """The experiments agree exactly with independent recomputations."""

    def test_fifo_depth_against_direct_engine_runs(self, builder, subset):
        """Independent recomputation: the experiment cannot drift silently."""
        result = run_experiment(
            "fig8_fifo_depth", builder=builder, workloads=subset,
            grid={"fifo_depth": (1, 8)}, config={"num_pes": 16},
        )
        for record in result.records:
            spec = next(s for s in subset if s.name == record["benchmark"])
            workload = builder.build(spec, 16)
            config = EIEConfig(num_pes=16, fifo_depth=record["fifo_depth"])
            engine = EngineRegistry.create("cycle", config)
            stats = engine.run(engine.prepare(workload)).stats
            assert record["load_balance_efficiency"] == stats.load_balance_efficiency

    def test_tables_match_legacy_row_builders(self):
        # Table V is exercised at full scale by the benchmark harness only
        # (its AlexNet-FC7 workload is too heavy for the unit suite).
        from repro.analysis.tables import table1_rows, table2_rows, table3_rows

        assert run_experiment("table1_energy").records == table1_rows()
        assert run_experiment("table2_area_power").records == table2_rows()
        assert run_experiment("table3_benchmarks").records == table3_rows()

    def test_table4_matches_legacy_rows(self, builder, subset):
        from repro.analysis.tables import table4_rows

        config = EIEConfig(num_pes=16)
        legacy = table4_rows(subset, builder=builder, eie_config=config)
        result = run_experiment(
            "table4_wallclock", builder=builder, workloads=subset, config={"num_pes": 16}
        )
        assert result.records == legacy


class TestCliParity:
    """`repro figure/table/ablation` and `repro experiment run` print the same bytes."""

    def _capture(self, capsys, argv) -> str:
        assert main(argv) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize(
        "legacy_argv, experiment_argv",
        [
            (
                ["figure", "8", "--scale", "64", "--benchmarks", "Alex-7", "--pes", "16"],
                ["experiment", "run", "fig8_fifo_depth", "--set", "scale=64",
                 "--set", "workloads=Alex-7", "--set", "config.num_pes=16"],
            ),
            (
                ["figure", "12", "--scale", "64", "--benchmarks", "Alex-7"],
                ["experiment", "run", "fig12_padding_zeros", "--set", "scale=64",
                 "--set", "workloads=Alex-7"],
            ),
            (["table", "1"], ["experiment", "run", "table1_energy"]),
            (["table", "2"], ["experiment", "run", "table2_area_power"]),
            (["table", "3"], ["experiment", "run", "table3_benchmarks"]),
            (
                ["ablation", "index-width", "--scale", "64", "--benchmarks", "Alex-7",
                 "--pes", "16"],
                ["experiment", "run", "ablation_index_width", "--set", "scale=64",
                 "--set", "workloads=Alex-7", "--set", "config.num_pes=16"],
            ),
        ],
    )
    def test_legacy_command_equals_experiment_run(self, capsys, legacy_argv, experiment_argv):
        legacy_output = self._capture(capsys, legacy_argv)
        experiment_output = self._capture(capsys, experiment_argv)
        assert experiment_output == legacy_output
