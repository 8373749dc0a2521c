"""Process-executor parity: byte-identical results, store-shared compression."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments import ExperimentRunner, run_experiment
from repro.experiments.runner import EXECUTORS
from repro.store import ArtifactStore
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


class TestExecutorValidation:
    def test_unknown_executor_rejected_at_construction(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            ExperimentRunner(executor="cluster")

    def test_unknown_executor_rejected_at_run(self, builder, subset):
        runner = ExperimentRunner(builder=builder)
        with pytest.raises(ConfigurationError, match="unknown executor"):
            runner.run("fig8_fifo_depth", workloads=subset, executor="gpu")

    def test_executor_names_are_stable(self):
        assert EXECUTORS == ("serial", "threads", "processes")


class TestProcessParity:
    def _kwargs(self, subset):
        return dict(
            workloads=subset,
            grid={"fifo_depth": (1, 4, 8)},
            config={"num_pes": 16},
        )

    def test_processes_bit_identical_to_serial(self, builder, subset):
        runner = ExperimentRunner(builder=builder)
        serial = runner.run(
            "fig8_fifo_depth", executor="serial", jobs=4, **self._kwargs(subset)
        )
        processes = runner.run(
            "fig8_fifo_depth", executor="processes", jobs=3, **self._kwargs(subset)
        )
        assert processes.records == serial.records
        assert processes.to_table() == serial.to_table()
        assert serial.metadata["executor"] == "serial"
        assert processes.metadata["executor"] == "processes"

    def test_written_results_are_byte_identical(self, tmp_path, builder, subset):
        runner = ExperimentRunner(builder=builder)
        serial = runner.run(
            "fig8_fifo_depth", executor="serial", **self._kwargs(subset)
        )
        processes = runner.run(
            "fig8_fifo_depth", executor="processes", jobs=4, **self._kwargs(subset)
        )
        serial_txt, serial_json = serial.write(tmp_path / "serial")
        processes_txt, processes_json = processes.write(tmp_path / "processes")
        assert serial_txt.read_bytes() == processes_txt.read_bytes()
        assert serial_json.read_bytes() == processes_json.read_bytes()

    def test_volatile_metadata_not_serialized(self, builder, subset):
        result = run_experiment(
            "fig8_fifo_depth", builder=builder, workloads=subset,
            grid={"fifo_depth": (8,)}, config={"num_pes": 16},
        )
        payload = json.loads(result.to_json())
        assert "duration_s" not in payload["metadata"]
        assert "jobs" not in payload["metadata"]
        assert "executor" not in payload["metadata"]
        # They remain available on the in-memory result for reporting.
        assert "duration_s" in result.metadata

    def test_finalized_experiment_matches_across_executors(self, builder, subset):
        # fig6 finalizes with cross-point speedups versus a baseline point.
        runner = ExperimentRunner(builder=builder)
        serial = runner.run(
            "fig6_speedup", executor="serial", workloads=subset,
            config={"num_pes": 16},
        )
        processes = runner.run(
            "fig6_speedup", executor="processes", jobs=2, workloads=subset,
            config={"num_pes": 16},
        )
        assert processes.records == serial.records


class TestStoreSharedCompression:
    def test_cold_then_warm_model_storage_run(self, tmp_path, builder):
        store_root = tmp_path / "store"
        kwargs = dict(
            grid={"model": ("alexnet_fc",)},
            params={"scale": 64},
        )
        cold_runner = ExperimentRunner(
            builder=builder, store=ArtifactStore(store_root)
        )
        cold = cold_runner.run("model_storage", **kwargs)
        cold_stats = cold_runner.session.cache_info()["store"]
        assert cold_stats["stores"] > 0
        assert cold_stats["hits"] == 0

        warm_runner = ExperimentRunner(
            builder=builder, store=ArtifactStore(store_root)
        )
        warm = warm_runner.run("model_storage", **kwargs)
        warm_stats = warm_runner.session.cache_info()["store"]
        assert warm_stats["hits"] > 0
        assert warm_stats["stores"] == 0
        assert warm.records == cold.records

    def test_process_workers_populate_the_shared_store(self, tmp_path, builder):
        store = ArtifactStore(tmp_path / "store")
        runner = ExperimentRunner(builder=builder, store=store)
        result = runner.run(
            "model_storage",
            executor="processes",
            jobs=2,
            grid={"model": ("alexnet_fc", "neuraltalk_lstm")},
            params={"scale": 64},
        )
        assert len(result.records) == 2
        # Workers published their layers into the shared on-disk store...
        assert len(store.entries()) > 0
        # ...so a fresh serial run over the same grid is pure loads.
        warm_runner = ExperimentRunner(
            builder=WorkloadBuilder(), store=ArtifactStore(tmp_path / "store")
        )
        warm = warm_runner.run(
            "model_storage",
            grid={"model": ("alexnet_fc", "neuraltalk_lstm")},
            params={"scale": 64},
        )
        stats = warm_runner.session.cache_info()["store"]
        assert stats["hits"] > 0
        assert stats["stores"] == 0
        assert warm.records == result.records


class TestSessionStoreFallback:
    def test_workers_inherit_an_injected_sessions_store(self, tmp_path, builder):
        from repro.engine.session import Session

        store = ArtifactStore(tmp_path / "store")
        runner = ExperimentRunner(builder=builder, session=Session(store=store))
        assert runner.store is None  # store= was not passed explicitly
        runner.run(
            "model_storage",
            executor="processes",
            jobs=2,
            grid={"model": ("alexnet_fc",)},
            params={"scale": 64},
        )
        assert len(store.entries()) > 0  # workers published through the session's store
