"""Tests for the experiment registry, runner, concurrency and result files."""

from __future__ import annotations

import json

import pytest

from repro.engine.session import Session
from repro.errors import ConfigurationError
from repro.experiments import (
    Experiment,
    ExperimentRegistry,
    ExperimentResult,
    ExperimentRunner,
    ExperimentSpec,
    register_experiment,
    run_experiment,
)
from repro.workloads.benchmarks import scaled_benchmarks
from repro.workloads.generator import WorkloadBuilder

#: 64x-smaller layers: same densities, fast sweeps.
SCALE = 64.0


@pytest.fixture(scope="module")
def builder() -> WorkloadBuilder:
    return WorkloadBuilder()


@pytest.fixture(scope="module")
def subset():
    specs = scaled_benchmarks(SCALE)
    return [specs["Alex-7"], specs["NT-We"]]


class TestRegistry:
    def test_all_paper_entry_points_are_registered(self):
        names = ExperimentRegistry.names()
        expected = {
            "fig6_speedup", "fig7_energy_efficiency", "fig8_fifo_depth", "fig9_sram_width",
            "fig10_precision", "fig11_scalability", "fig12_padding_zeros",
            "fig13_load_balance", "table1_energy", "table2_area_power", "table3_benchmarks",
            "table4_wallclock", "table5_platforms", "ablation_index_width",
            "ablation_codebook_bits", "ablation_partitioning",
        }
        assert expected <= set(names)

    def test_unknown_experiment_names_are_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown experiment"):
            ExperimentRegistry.get("fig99_nonexistent")

    def test_describe_reports_axes_and_default_spec(self):
        description = ExperimentRegistry.describe("fig8_fifo_depth")
        assert description["axes"] == ["fifo_depth"]
        assert description["default_spec"]["experiment"] == "fig8_fifo_depth"
        assert description["uses_workloads"] is True

    def test_custom_experiment_registration_and_unregistration(self):
        experiment = Experiment(
            name="custom_test_experiment",
            description="one record per point",
            spec=ExperimentSpec(experiment="custom_test_experiment", grid={"x": (1, 2, 3)}),
            run_point=lambda ctx, point: {"doubled": 2 * point["x"]},
            uses_workloads=False,
        )
        register_experiment(experiment)
        try:
            result = run_experiment("custom_test_experiment")
            assert [r["doubled"] for r in result.records] == [2, 4, 6]
            assert [r["x"] for r in result.records] == [1, 2, 3]
        finally:
            ExperimentRegistry.unregister("custom_test_experiment")

    def test_duplicate_registration_is_rejected(self):
        experiment = ExperimentRegistry.get("table1_energy")
        clone = Experiment(
            name="table1_energy",
            description="clone",
            spec=ExperimentSpec(experiment="table1_energy"),
            run_point=lambda ctx, point: [],
            uses_workloads=False,
        )
        with pytest.raises(ConfigurationError, match="already registered"):
            register_experiment(clone)
        assert ExperimentRegistry.get("table1_energy") is experiment


class TestRunnerValidation:
    def test_unknown_grid_axis_is_rejected(self, builder, subset):
        runner = ExperimentRunner(builder=builder)
        with pytest.raises(ConfigurationError, match="no grid axis"):
            runner.run("fig8_fifo_depth", workloads=subset, grid={"depth": (1,)})

    def test_unknown_param_is_rejected(self, builder, subset):
        runner = ExperimentRunner(builder=builder)
        with pytest.raises(ConfigurationError, match="no parameter"):
            runner.run("fig6_speedup", workloads=subset, params={"batches": 2})

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(jobs=0)

    def test_unknown_benchmark_name_is_rejected(self, builder):
        runner = ExperimentRunner(builder=builder)
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError):
            runner.run("fig8_fifo_depth", workloads=("Alex-99",))

    def test_unknown_precision_is_rejected(self):
        with pytest.raises(ConfigurationError, match=r"'int4'.*\['float32', 'int16'"):
            run_experiment("fig10_precision", grid={"precision": ("int4",)})


class TestRunnerExecution:
    def test_records_carry_point_axes_and_provenance(self, builder, subset):
        result = run_experiment(
            "fig8_fifo_depth", builder=builder, workloads=subset,
            grid={"fifo_depth": (1, 8)}, config={"num_pes": 16},
        )
        assert result.metadata["points"] == 4
        assert result.metadata["axes"] == ["benchmark", "fifo_depth"]
        assert {record["benchmark"] for record in result.records} == {
            "Alex-7-x64", "NT-We-x64"
        }
        assert result.provenance["paper"] == "conf_isca_HanLMPPHD16"
        assert result.provenance["spec"]["grid"]["fifo_depth"] == [1, 8]

    def test_jobs4_is_bit_identical_to_jobs1_with_shared_session(self, builder, subset):
        session = Session()
        runner = ExperimentRunner(builder=builder, session=session)
        kwargs = dict(
            workloads=subset, grid={"fifo_depth": (1, 2, 4, 8)}, config={"num_pes": 16}
        )
        serial = runner.run("fig8_fifo_depth", jobs=1, **kwargs)
        parallel = runner.run("fig8_fifo_depth", jobs=4, **kwargs)
        assert parallel.records == serial.records
        assert parallel.to_table() == serial.to_table()
        # One shared session: the cycle engine's preparation (which depends
        # only on the PE count) is reused across every depth point and run.
        assert session.cache_info()["prepared"]["hits"] > 0

    def test_repeats_add_a_repeat_axis(self, builder, subset):
        result = run_experiment(
            "fig8_fifo_depth", builder=builder, workloads=subset[:1],
            grid={"fifo_depth": (8,)}, config={"num_pes": 16}, repeats=2,
        )
        assert [record["repeat"] for record in result.records] == [0, 1]

    def test_spec_object_and_kwargs_agree(self, builder, subset):
        spec = ExperimentSpec(
            experiment="fig9_sram_width",
            grid={"width_bits": (32, 64)},
            config={"num_pes": 16},
            workloads=("Alex-7", "NT-We"),
            scale=SCALE,
        )
        by_spec = run_experiment(spec, builder=builder)
        by_kwargs = run_experiment(
            "fig9_sram_width", builder=builder, workloads=subset,
            grid={"width_bits": (32, 64)}, config={"num_pes": 16},
        )
        assert by_spec.records == by_kwargs.records


class TestResult:
    @pytest.fixture(scope="class")
    def result(self, builder, subset):
        return run_experiment(
            "fig8_fifo_depth", builder=builder, workloads=subset,
            grid={"fifo_depth": (1, 8)}, config={"num_pes": 16},
        )

    def test_to_table_matches_registered_render(self, result):
        assert result.to_table().startswith("Load-balance efficiency vs FIFO depth:")

    def test_to_dict_is_json_serializable(self, result):
        text = result.to_json()
        data = json.loads(text)
        assert data["experiment"] == "fig8_fifo_depth"
        assert len(data["records"]) == 4

    def test_write_emits_txt_and_json_with_shared_stem(self, result, tmp_path):
        txt_path, json_path = result.write(tmp_path)
        assert txt_path.name == "fig8_fifo_depth.txt"
        assert json_path.name == "fig8_fifo_depth.json"
        assert txt_path.read_text().startswith("Load-balance efficiency")
        stored = json.loads(json_path.read_text())
        assert stored["provenance"]["spec"]["experiment"] == "fig8_fifo_depth"

    def test_write_appends_extra_text(self, result, tmp_path):
        txt_path, _ = result.write(tmp_path, extra="versus the paper: ok")
        assert txt_path.read_text().rstrip().endswith("versus the paper: ok")

    def test_adhoc_results_fall_back_to_generic_table(self, tmp_path):
        adhoc = ExperimentResult.from_records(
            "adhoc_perf", [{"metric": "speedup", "value": 5.0}], note="n"
        )
        table = adhoc.to_table()
        assert "metric" in table and "speedup" in table
        txt_path, json_path = adhoc.write(tmp_path)
        assert txt_path.name == "adhoc_perf.txt" and json_path.exists()
