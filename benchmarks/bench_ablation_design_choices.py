"""Ablations of EIE's design choices (beyond the paper's published figures).

Three of the paper's design decisions are worth quantifying on the full-size
benchmarks, each a registered experiment of :mod:`repro.experiments`:

* ``ablation_index_width`` — the 4-bit relative index (padding zeros versus
  index storage);
* ``ablation_codebook_bits`` — the 16-entry (4-bit) shared-weight codebook
  (reconstruction error versus weight storage);
* ``ablation_partitioning`` — the row-interleaved workload partitioning
  versus the column and 2-D block alternatives of Section VII-A.
"""

from __future__ import annotations

from benchmarks.conftest import write_result


def test_ablation_index_width(benchmark, runner, results_dir):
    """4-bit relative index: padding versus storage on Alex-7 (64 PEs)."""
    result = benchmark.pedantic(
        runner.run,
        args=("ablation_index_width",),
        kwargs={"workloads": ("Alex-7",), "config": {"num_pes": 64}},
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, result)
    points = result.records

    by_bits = {point["index_bits"]: point for point in points}
    paddings = [point["padding_zeros"] for point in points]
    assert all(b <= a for a, b in zip(paddings, paddings[1:]))
    # The paper's 4-bit choice is on the storage-optimal plateau.
    best_bits = min(by_bits, key=lambda bits: by_bits[bits]["storage_bits"])
    assert by_bits[4]["storage_bits"] <= 1.05 * by_bits[best_bits]["storage_bits"]


def test_ablation_codebook_bits(benchmark, runner, results_dir):
    """16-entry codebook: reconstruction error versus weight bits."""
    result = benchmark.pedantic(
        runner.run,
        args=("ablation_codebook_bits",),
        kwargs={"params": {"num_weights": 50_000}},
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, result)
    points = result.records

    errors = [point["rms_error"] for point in points]
    assert all(b <= a + 1e-12 for a, b in zip(errors, errors[1:]))
    by_bits = {point["weight_bits"]: point for point in points}
    # Each extra bit roughly halves the error; 4 bits is already ~10% relative.
    assert by_bits[4]["relative_rms_error"] < 0.2
    assert by_bits[2]["rms_error"] > 2.0 * by_bits[4]["rms_error"]


def test_ablation_partitioning(benchmark, runner, results_dir):
    """Section VII-A: the three workload-partitioning schemes on Alex-7."""
    result = benchmark.pedantic(
        runner.run,
        args=("ablation_partitioning",),
        kwargs={"workloads": ("Alex-7",), "config": {"num_pes": 64}},
        rounds=1,
        iterations=1,
    )
    write_result(results_dir, result)
    results = {record["strategy"]: record for record in result.records}

    row = results["row-interleaved"]
    column = results["column"]
    block = results["block-2d"]
    # The paper's choice: no reduction traffic, no idle PEs, high load balance,
    # and fewer total cycles than the column scheme (which pays a full-length
    # cross-PE reduction).  The 2-D scheme is modelled without the CSC padding
    # overhead, so only its communication structure is compared.
    assert row["reduction_words"] == 0
    assert row["idle_pes"] == 0
    assert row["total_cycles"] <= column["total_cycles"]
    assert row["load_balance_efficiency"] >= 0.9
    assert 0 < block["broadcast_words"] < row["broadcast_words"]
    assert 0 < block["reduction_words"] < column["reduction_words"]
