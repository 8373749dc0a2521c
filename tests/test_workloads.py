"""Tests for benchmark specs, synthetic generators and the workload builder."""

from __future__ import annotations

import time
from collections import Counter

import numpy as np
import pytest

from repro.compression.csc import InterleavedCSC
from repro.core.config import EIEConfig
from repro.errors import WorkloadError
from repro.models import MatVecNode
from repro.workloads.benchmarks import ALL_BENCHMARKS, BENCHMARK_NAMES, LayerSpec, get_benchmark, scaled_benchmarks
from repro.experiments import ExperimentRunner
from repro.workloads import generator
from repro.workloads.generator import WorkloadBuilder
from repro.workloads.models import (
    build_alexnet_fc_network,
    build_neuraltalk_lstm,
    build_vgg_fc_network,
)
from repro.workloads.synthetic import (
    generate_activations,
    generate_dense_weights,
    generate_sparse_pattern,
)


class TestBenchmarkSpecs:
    def test_all_nine_benchmarks_present(self):
        assert len(BENCHMARK_NAMES) == 9
        assert set(BENCHMARK_NAMES) == set(ALL_BENCHMARKS)

    def test_table3_alex6(self):
        spec = get_benchmark("Alex-6")
        assert (spec.input_size, spec.output_size) == (9216, 4096)
        assert spec.weight_density == pytest.approx(0.09)
        assert spec.activation_density == pytest.approx(0.351)

    def test_table3_vgg6_and_nt(self):
        assert get_benchmark("VGG-6").input_size == 25088
        assert get_benchmark("NT-Wd").output_size == 8791
        assert get_benchmark("NT-We").activation_density == 1.0

    def test_flop_fraction_matches_paper_order_of_magnitude(self):
        # Table III FLOP% is roughly weight density times activation density.
        assert get_benchmark("Alex-6").flop_fraction == pytest.approx(0.03, abs=0.01)
        assert get_benchmark("VGG-6").flop_fraction == pytest.approx(0.01, abs=0.01)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(WorkloadError):
            get_benchmark("Alex-9")

    def test_scaled_preserves_densities(self):
        scaled = get_benchmark("Alex-6").scaled(64)
        assert scaled.weight_density == get_benchmark("Alex-6").weight_density
        assert scaled.input_size == 9216 // 64
        assert scaled.rows == scaled.output_size

    def test_scaled_benchmarks_cover_all(self):
        assert set(scaled_benchmarks(128)) == set(BENCHMARK_NAMES)

    def test_seeds_differ_between_benchmarks(self):
        assert get_benchmark("Alex-6").weight_seed != get_benchmark("Alex-7").weight_seed
        assert get_benchmark("Alex-6").weight_seed != get_benchmark("Alex-6").activation_seed

    def test_invalid_spec_rejected(self):
        with pytest.raises(WorkloadError):
            LayerSpec(name="bad", input_size=0, output_size=4, weight_density=0.1, activation_density=0.5)
        with pytest.raises(WorkloadError):
            LayerSpec(name="bad", input_size=4, output_size=4, weight_density=0.0, activation_density=0.5)


class TestSyntheticGenerators:
    def test_pattern_density_close_to_target(self):
        pattern = generate_sparse_pattern(400, 300, 0.1, rng=1)
        assert pattern.density == pytest.approx(0.1, abs=0.01)
        assert pattern.shape == (400, 300)

    def test_pattern_rows_sorted_within_columns(self):
        pattern = generate_sparse_pattern(100, 50, 0.2, rng=2)
        for column in range(0, 50, 7):
            rows = pattern.column_rows(column)
            assert np.all(np.diff(rows) > 0)

    def test_pattern_column_nnz_sums_to_total(self):
        pattern = generate_sparse_pattern(64, 64, 0.15, rng=3)
        assert pattern.column_nnz().sum() == pattern.nnz

    def test_pattern_deterministic(self):
        first = generate_sparse_pattern(64, 32, 0.1, rng=7)
        second = generate_sparse_pattern(64, 32, 0.1, rng=7)
        assert np.array_equal(first.row_indices, second.row_indices)

    def test_pattern_dense_mask_roundtrip(self):
        pattern = generate_sparse_pattern(32, 16, 0.2, rng=5)
        mask = pattern.to_dense_mask()
        assert mask.sum() == pattern.nnz

    def test_pattern_validation(self):
        with pytest.raises(WorkloadError):
            generate_sparse_pattern(0, 4, 0.5)
        with pytest.raises(WorkloadError):
            generate_sparse_pattern(4, 4, 0.0)
        with pytest.raises(WorkloadError, match="column_block"):
            generate_sparse_pattern(4, 4, 0.5, column_block=0)

    @pytest.mark.parametrize(
        ("rows", "dtype"), [(1, np.int16), (2**15, np.int16), (2**15 + 1, np.int32)]
    )
    def test_pattern_rows_are_narrow(self, rows, dtype):
        pattern = generate_sparse_pattern(rows, 2, 0.5, rng=4)
        assert pattern.row_indices.dtype == dtype

    def test_activation_density_and_nonnegativity(self):
        activations = generate_activations(2000, 0.3, rng=4)
        density = np.count_nonzero(activations) / activations.size
        assert density == pytest.approx(0.3, abs=0.05)
        assert np.all(activations >= 0.0)

    def test_activation_always_has_a_nonzero(self):
        activations = generate_activations(5, 0.01, rng=6)
        assert np.count_nonzero(activations) >= 1

    def test_dense_weights_match_spec_density(self, tiny_spec):
        weights = generate_dense_weights(tiny_spec)
        density = np.count_nonzero(weights) / weights.size
        assert density == pytest.approx(tiny_spec.weight_density, abs=0.05)
        assert weights.shape == (tiny_spec.rows, tiny_spec.cols)


class TestWorkloadBuilder:
    def test_work_matrix_matches_explicit_encoding(self, tiny_spec):
        builder = WorkloadBuilder()
        workload = builder.build(tiny_spec, num_pes=4)
        # Rebuild the same matrix explicitly and compare the touched columns.
        pattern = builder.pattern(tiny_spec)
        dense = np.zeros((tiny_spec.rows, tiny_spec.cols))
        columns = np.repeat(np.arange(tiny_spec.cols), pattern.column_nnz())
        dense[pattern.row_indices, columns] = 1.0
        explicit = InterleavedCSC.from_dense(dense, num_pes=4)
        counts = explicit.entries_per_pe_column()
        assert np.array_equal(workload.work, counts[:, workload.nonzero_columns])
        assert workload.total_entries == explicit.num_entries
        assert workload.total_padding == explicit.num_padding_zeros

    def test_cache_returns_same_pattern(self, tiny_spec):
        builder = WorkloadBuilder()
        assert builder.pattern(tiny_spec) is builder.pattern(tiny_spec)
        builder.clear_cache()
        assert builder.pattern(tiny_spec) is not None

    def test_workload_properties(self, tiny_spec):
        workload = WorkloadBuilder().build(tiny_spec, num_pes=4)
        assert workload.broadcasts == workload.nonzero_columns.shape[0]
        assert workload.touched_entries == workload.work.sum()
        assert 0.0 < workload.real_work_fraction <= 1.0
        assert workload.dense_macs == tiny_spec.dense_macs

    def test_simulate_checks_pe_count(self, tiny_spec):
        workload = WorkloadBuilder().build(tiny_spec, num_pes=4)
        with pytest.raises(WorkloadError):
            workload.simulate(EIEConfig(num_pes=8))

    def test_simulate_runs(self, tiny_spec):
        workload = WorkloadBuilder().build(tiny_spec, num_pes=4)
        stats = workload.simulate(EIEConfig(num_pes=4, fifo_depth=8))
        assert stats.total_cycles > 0
        assert stats.entries_processed == workload.touched_entries

    def test_invalid_pe_count_rejected(self, tiny_spec):
        with pytest.raises(WorkloadError):
            WorkloadBuilder().build(tiny_spec, num_pes=0)

    def test_threaded_sweep_draws_each_pattern_once(self, monkeypatch):
        # Two executor threads ask for the same layer's pattern at once; the
        # slowed draw keeps the first one in flight while the second asks.
        draws = Counter()

        def slow_draw(rows, cols, density, rng):
            draws[(rows, cols, density)] += 1
            time.sleep(0.02)
            return generate_sparse_pattern(rows, cols, density, rng)

        monkeypatch.setattr(generator, "generate_sparse_pattern", slow_draw)
        result = ExperimentRunner(builder=WorkloadBuilder(), executor="threads").run(
            "fig11_scalability", jobs=2, scale=64
        )
        assert len({record["benchmark"] for record in result.records}) == 9
        assert len(draws) == 9
        assert set(draws.values()) == {1}


class TestModelBuilders:
    def test_alexnet_chain_runs(self):
        model = build_alexnet_fc_network(scale=96)
        output = model.forward(np.random.default_rng(0).uniform(size=model.input_size))
        assert output.shape == (model.output_size,)
        assert [node.activation for node in model] == ["relu", "relu", "identity"]

    def test_vgg_chain_runs(self):
        model = build_vgg_fc_network(scale=128)
        assert len(model) == 3
        assert [node.source for node in model][1:] == [node.name for node in model][:-1]

    def test_neuraltalk_lstm_step(self):
        cell = build_neuraltalk_lstm(scale=32)
        state = cell.step(np.zeros(cell.input_size), cell.run_sequence(np.zeros((1, cell.input_size)))[0])
        assert state.hidden.shape == (cell.hidden_size,)

    def test_random_dense_layer_density(self, tiny_spec):
        layer = MatVecNode(name=tiny_spec.name, weight=generate_dense_weights(tiny_spec))
        assert layer.weight_density == pytest.approx(tiny_spec.weight_density, abs=0.06)

    def test_invalid_scale_rejected(self):
        with pytest.raises(WorkloadError):
            build_alexnet_fc_network(scale=0)
        with pytest.raises(WorkloadError):
            build_neuraltalk_lstm(scale=-1)
