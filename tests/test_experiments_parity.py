"""Parity tests: registered experiments against independent references.

A direct engine-level recomputation guards the Figure 8 records, the table
experiments must return exactly the rows of the ``repro.analysis.tables``
row builders, the Figure 6/7 and Table IV/V results and every experiment
that counts interleaved-CSC entries are pinned as literal digests, and the
CLI's classic ``figure``/``table``/``ablation`` commands must print
byte-identical output to ``experiment run <name>``.
"""

from __future__ import annotations

import hashlib

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
        # Table V is checked at full scale in test_baselines.py
        # (TestFullScaleTables4And5), not against a legacy row builder.
        from repro.analysis.tables import table1_rows, table2_rows, table3_rows

        assert run_experiment("table1_energy").records == table1_rows()
        assert run_experiment("table2_area_power").records == table2_rows()
        assert run_experiment("table3_benchmarks").records == table3_rows()


#: sha256 of ``to_json()`` at ``scale=64`` (default configuration).  The
#: provenance carries the package version, so a version bump re-pins these.
RESULT_DIGESTS = {
    "ablation_index_width": "8c611ed374e92d63ef387487ede2fed5b1cba60fd8517cbcfca0fba172380f02",
    "ablation_partitioning": "29ca8fe4129eaeee5ea0b5c56a458ed3cff56eba56a932152714a3f22aa18507",
    "fig6_speedup": "589c57172c40ac108082403ed21eeeccea336262686d0c93ce8ab1a94b22e0f5",
    "fig7_energy_efficiency": "c2d8530e53ab4156eb3423e8670cb0bb226fca0e4ebbdd1debf49ef002f93c10",
    "fig8_fifo_depth": "c4b59332f38c1f52e042eefd79412a377ce2da87812eceed5a70d4eb12145af6",
    "fig11_scalability": "0d46f780d0e4bb32842cd6f9604dd26f2c67243ce289fb480a327b0320994577",
    "fig12_padding_zeros": "0ea0a2335b1487a319bfb1a34ac775a475a9470902fa5b0c79bb6ce778c42c21",
    "fig13_load_balance": "aaf3d19a8b13d6fe6c375065f24cf2bddb9bdd318d94f62f0a500293ebab951b",
    "table4_wallclock": "3ea8919537fac7d585f72ce73d20cae3e7b89b18261c3bb3eb204541d5510fc0",
    "table5_platforms": "2aa89154ae3c4f074d348e4bc48c3077ebbb33af5e1190fb9b1b73065e0ac003",
}


@pytest.mark.parametrize("name", sorted(RESULT_DIGESTS))
def test_result_digest_pinned(name):
    """The paper results are bit-stable: any drift in a record changes the digest."""
    result = run_experiment(name, scale=64)
    assert hashlib.sha256(result.to_json().encode()).hexdigest() == RESULT_DIGESTS[name]


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
