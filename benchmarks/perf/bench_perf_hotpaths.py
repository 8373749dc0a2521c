#!/usr/bin/env python
"""Tracked perf-regression harness for the compression + cycle-model hot paths.

Times the kernels every experiment pays on each workload build — Deep
Compression (pruning, k-means weight sharing, quantisation), interleaved CSC
encoding, cycle-engine layer preparation, the sparsity-pattern entry counts
and the broadcast/FIFO timing recurrence — at **paper scale** (an
AlexNet-fc6-sized 4096x9216 layer at 9% density on 64 PEs, batch 64) and
records the measurements in ``BENCH_hotpaths.json`` at the repository root so
future PRs have a trajectory to compare against.

Usage::

    python benchmarks/perf/bench_perf_hotpaths.py            # paper scale
    python benchmarks/perf/bench_perf_hotpaths.py --quick    # small, CI-sized
    python benchmarks/perf/bench_perf_hotpaths.py --quick --check --no-write

``--check`` compares the fresh measurements against the committed baseline
JSON and exits non-zero if any throughput regressed more than
``--max-slowdown`` (default 2x) — that is the CI gate.
"""

from __future__ import annotations

import argparse
import asyncio
import shutil
import sys
import tempfile
from itertools import count
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro.compression.csc import CSCMatrix, InterleavedCSC, interleaved_entry_counts
from repro.compression.pipeline import CompressionConfig, DeepCompressor
from repro.compression.quantization import WeightCodebook
from repro.core.config import EIEConfig
from repro.core.cycle_model import (
    layer_work_matrices,
    simulate_layer_cycles,
    simulate_layer_cycles_batch,
)
from repro.engine.session import Session
from repro.experiments import ExperimentRunner
from repro.models.registry import ModelRegistry
from repro.models.spec import ModelSpec
from repro.models.inputs import synthetic_model_inputs
from repro.serve import BatchPolicy, Server, run_open_loop
from repro.store import ArtifactStore
from repro.utils.perfbench import (
    BenchResult,
    check_against_baseline,
    merge_results,
    run_benchmark,
)
from repro.workloads.generator import WorkloadBuilder
from repro.workloads.synthetic import generate_activations, generate_sparse_pattern
from repro.utils.rng import make_rng

BENCH_PATH = REPO_ROOT / "BENCH_hotpaths.json"

#: Paper-scale problem (AlexNet fc6 from Table III) and the CI-sized variant.
#: ``model_scale`` shrinks the whole-network ``model_compress`` entry and
#: ``experiment_scale`` the fig6+fig11 end-to-end entries (None = full size).
SCALES = {
    "paper": dict(
        rows=4096, cols=9216, density=0.09, activation_density=0.35,
        num_pes=64, batch=64, fifo_depth=8, repeats=2,
        model_scale=4.0, experiment_scale=None, experiment_repeats=1,
        serve_scale=16.0, serve_requests=300, serve_rate=600.0,
    ),
    "quick": dict(
        rows=512, cols=1024, density=0.10, activation_density=0.35,
        num_pes=16, batch=16, fifo_depth=8, repeats=3,
        model_scale=16.0, experiment_scale=16.0, experiment_repeats=2,
        serve_scale=32.0, serve_requests=120, serve_rate=800.0,
    ),
}

#: The two-figure end-to-end spec timed serially and on the process pool.
EXPERIMENT_PAIR = ("fig6_speedup", "fig11_scalability")


def _reference_encode_column(column: np.ndarray, max_run: int = 15):
    """The seed's per-element CSC column encoder (kept as the yardstick the
    vectorised kernels are measured against; the property tests pin
    bit-identical output)."""
    values: list[float] = []
    runs: list[int] = []
    zeros_pending = 0
    for element in column:
        if element == 0.0:
            zeros_pending += 1
            continue
        while zeros_pending > max_run:
            values.append(0.0)
            runs.append(max_run)
            zeros_pending -= max_run + 1
        values.append(float(element))
        runs.append(zeros_pending)
        zeros_pending = 0
    return np.asarray(values, dtype=np.float64), np.asarray(runs, dtype=np.int64)


def _reference_encode_dense(dense: np.ndarray) -> None:
    for j in range(dense.shape[1]):
        _reference_encode_column(dense[:, j])


def _dense_matrix(rows: int, cols: int, density: float, seed: int = 7) -> np.ndarray:
    rng = make_rng(seed)
    weights = rng.normal(0.0, 0.1, size=(rows, cols))
    weights[rng.random((rows, cols)) >= density] = 0.0
    if not np.count_nonzero(weights):
        weights[0, 0] = 0.1
    return weights


def run_suite(mode: str) -> list[BenchResult]:
    scale = SCALES[mode]
    rows, cols = scale["rows"], scale["cols"]
    num_pes, batch = scale["num_pes"], scale["batch"]
    repeats = scale["repeats"]
    dense_cells = rows * cols
    params = {
        k: v for k, v in scale.items()
        if k != "repeats" and not k.startswith("serve_")
    }
    results: list[BenchResult] = []

    print(f"[{mode}] {rows}x{cols} @ {scale['density']:.0%}, "
          f"{num_pes} PEs, batch {batch}", flush=True)

    dense = _dense_matrix(rows, cols, scale["density"])

    # 1. Deep Compression end to end (pruning + k-means + quantise + encode).
    compressor = DeepCompressor(CompressionConfig(target_density=scale["density"]))
    results.append(run_benchmark(
        "compress", lambda: compressor.compress(dense, num_pes=num_pes),
        work_items=dense_cells, unit="dense elements", params=params,
        repeats=repeats, warmup=1,
    ))
    print(f"  compress:        {results[-1].seconds:8.4f} s "
          f"({results[-1].throughput:.3e} {results[-1].unit}/s)", flush=True)

    # 2. Interleaved CSC encoding alone (the vectorised whole-matrix path).
    codebook = WeightCodebook.fit(dense[dense != 0.0], rng=0)
    indices = codebook.quantize(dense).astype(np.float64)
    results.append(run_benchmark(
        "csc_encode", lambda: InterleavedCSC.from_dense(indices, num_pes=num_pes),
        work_items=dense_cells, unit="dense elements", params=params,
        repeats=repeats, warmup=1,
    ))
    print(f"  csc_encode:      {results[-1].seconds:8.4f} s "
          f"({results[-1].throughput:.3e} {results[-1].unit}/s)", flush=True)

    # 3. Cycle-engine layer preparation (per-(PE, column) work extraction).
    layer = compressor.compress(dense, num_pes=num_pes)

    def prepare() -> None:
        # Invalidate the prepared-layer caches so the true extraction cost is
        # measured, not the cached re-read.
        layer.storage.invalidate_caches()
        layer_work_matrices(layer)

    results.append(run_benchmark(
        "prepare", prepare,
        work_items=layer.num_stored_entries, unit="stored entries",
        params=params, repeats=repeats, warmup=1,
    ))
    print(f"  prepare:         {results[-1].seconds:8.4f} s "
          f"({results[-1].throughput:.3e} {results[-1].unit}/s)", flush=True)

    # 4. Sparsity-pattern entry counts (the experiment-path preparation that
    #    avoids materialising the encoded streams at full Table III scale).
    pattern = generate_sparse_pattern(rows, cols, scale["density"], make_rng(11))
    results.append(run_benchmark(
        "pattern_counts",
        lambda: interleaved_entry_counts(
            pattern.row_indices, pattern.col_ptr, num_rows=rows, num_pes=num_pes
        ),
        work_items=pattern.nnz, unit="nonzeros", params=params,
        repeats=repeats, warmup=1,
    ))
    print(f"  pattern_counts:  {results[-1].seconds:8.4f} s "
          f"({results[-1].throughput:.3e} {results[-1].unit}/s)", flush=True)

    # 5/6. The broadcast/FIFO timing recurrence, single input and batched.
    counts, _ = interleaved_entry_counts(
        pattern.row_indices, pattern.col_ptr, num_rows=rows, num_pes=num_pes
    )
    activation_rng = make_rng(23)
    single = np.flatnonzero(
        generate_activations(cols, scale["activation_density"], activation_rng)
    )
    work_single = counts[:, single]
    results.append(run_benchmark(
        "simulate",
        lambda: simulate_layer_cycles(work_single, fifo_depth=scale["fifo_depth"]),
        work_items=int(work_single.sum()), unit="entries", params=params,
        repeats=max(repeats, 3), warmup=1,
    ))
    print(f"  simulate:        {results[-1].seconds:8.4f} s "
          f"({results[-1].throughput:.3e} {results[-1].unit}/s)", flush=True)

    # 7. The acceptance yardstick: 1024x1024 @ 10%, vectorised vs the seed
    #    per-element encoder (paper mode only — the reference loop is slow).
    if mode == "paper":
        yard = _dense_matrix(1024, 1024, 0.10, seed=42)
        yard_params = {"rows": 1024, "cols": 1024, "density": 0.10}
        results.append(run_benchmark(
            "csc_encode_1024", lambda: CSCMatrix.from_dense(yard),
            work_items=yard.size, unit="dense elements", params=yard_params,
            repeats=5, warmup=1,
        ))
        results.append(run_benchmark(
            "csc_encode_1024_reference", lambda: _reference_encode_dense(yard),
            work_items=yard.size, unit="dense elements", params=yard_params,
            repeats=2, warmup=0,
        ))
        speedup = results[-2].throughput / results[-1].throughput
        print(f"  csc_encode_1024: {results[-2].seconds:8.4f} s vs reference "
              f"{results[-1].seconds:8.4f} s -> {speedup:.1f}x", flush=True)

    works = []
    for _ in range(batch):
        nonzero = np.flatnonzero(
            generate_activations(cols, scale["activation_density"], activation_rng)
        )
        works.append(counts[:, nonzero])
    results.append(run_benchmark(
        "simulate_batch",
        lambda: simulate_layer_cycles_batch(works, fifo_depth=scale["fifo_depth"]),
        work_items=int(sum(int(w.sum()) for w in works)), unit="entries",
        params=params, repeats=repeats, warmup=1,
    ))
    print(f"  simulate_batch:  {results[-1].seconds:8.4f} s "
          f"({results[-1].throughput:.3e} {results[-1].unit}/s)", flush=True)

    # 8/9. Artifact-store cold and warm compress through the session layer.
    #    Cold = fingerprint + full Deep Compression + store publish into a
    #    fresh store; warm = a fresh process-like session hitting the
    #    populated store (fingerprint + load + validate) — the once-per-
    #    machine path every later run, CLI invocation and worker pays.
    store_root = Path(tempfile.mkdtemp(prefix="repro-bench-store-"))
    compression = CompressionConfig(target_density=scale["density"])
    cold_ids = count()

    def compress_cold() -> None:
        root = store_root / f"cold-{next(cold_ids)}"
        session = Session(compression, store=ArtifactStore(root))
        session.compress(dense, num_pes=num_pes)

    results.append(run_benchmark(
        "compress_cold", compress_cold,
        work_items=dense_cells, unit="dense elements", params=params,
        repeats=repeats, warmup=1,
    ))
    print(f"  compress_cold:   {results[-1].seconds:8.4f} s "
          f"({results[-1].throughput:.3e} {results[-1].unit}/s)", flush=True)

    warm_root = store_root / "warm"
    Session(compression, store=ArtifactStore(warm_root)).compress(dense, num_pes=num_pes)

    def compress_warm() -> None:
        session = Session(compression, store=ArtifactStore(warm_root))
        session.compress(dense, num_pes=num_pes)

    results.append(run_benchmark(
        "compress_warm", compress_warm,
        work_items=dense_cells, unit="dense elements", params=params,
        repeats=max(repeats, 3), warmup=1,
    ))
    warm_speedup = results[-1].throughput / results[-2].throughput
    print(f"  compress_warm:   {results[-1].seconds:8.4f} s "
          f"({results[-1].throughput:.3e} {results[-1].unit}/s, "
          f"{warm_speedup:.1f}x over cold)", flush=True)
    shutil.rmtree(store_root, ignore_errors=True)

    # 10. Whole-model compression (every node through Session.compress_model).
    model = ModelRegistry.build(
        ModelSpec(model="alexnet_fc", scale=scale["model_scale"])
    )
    model_params = {**params, "model": "alexnet_fc", "model_scale": scale["model_scale"]}

    def model_compress() -> None:
        Session(CompressionConfig()).compress_model(model, num_pes=num_pes)

    results.append(run_benchmark(
        "model_compress", model_compress,
        work_items=model.num_parameters, unit="parameters",
        params=model_params, repeats=repeats, warmup=1,
    ))
    print(f"  model_compress:  {results[-1].seconds:8.4f} s "
          f"({results[-1].throughput:.3e} {results[-1].unit}/s)", flush=True)

    # 11/12. End-to-end fig6+fig11 experiment pair, serial vs process pool.
    #    Each call builds a fresh runner/builder so every run pays its own
    #    workload construction, exactly like a fresh CLI invocation.
    experiment_scale = scale["experiment_scale"]
    experiment_repeats = scale["experiment_repeats"]

    def run_experiment_pair(executor: str, jobs: int) -> None:
        runner = ExperimentRunner(
            builder=WorkloadBuilder(), executor=executor, jobs=jobs
        )
        for name in EXPERIMENT_PAIR:
            runner.run(name, scale=experiment_scale)

    experiment_params = {
        **params, "experiments": list(EXPERIMENT_PAIR), "scale": experiment_scale,
    }
    results.append(run_benchmark(
        "experiment_fig6_fig11_serial",
        lambda: run_experiment_pair("serial", 1),
        work_items=1, unit="runs", params=experiment_params,
        repeats=experiment_repeats, warmup=0,
    ))
    print(f"  experiment (serial):      {results[-1].seconds:8.4f} s", flush=True)
    results.append(run_benchmark(
        "experiment_fig6_fig11_processes4",
        lambda: run_experiment_pair("processes", 4),
        work_items=1, unit="runs",
        params={**experiment_params, "jobs": 4},
        repeats=experiment_repeats, warmup=0,
    ))
    serial_seconds = results[-2].seconds
    print(f"  experiment (processes-4): {results[-1].seconds:8.4f} s "
          f"({serial_seconds / results[-1].seconds:.2f}x vs serial)", flush=True)

    # 13-15. The serving layer under open-loop load: sustained throughput of
    #    the dynamically batched daemon path plus its p50/p99 request latency
    #    (queue wait + batched dispatch, as a client would measure it).  One
    #    warmup run absorbs startup compression; the percentiles are recorded
    #    as seconds-per-request so the throughput gate catches tail blowups.
    serve_model = ModelRegistry.build(
        ModelSpec(model="neuraltalk_lstm", scale=scale["serve_scale"])
    )
    serve_inputs = synthetic_model_inputs(
        serve_model, batch=scale["serve_requests"], seed=29
    )
    serve_config = EIEConfig(num_pes=num_pes, fifo_depth=scale["fifo_depth"])
    serve_params = {
        **params,
        "model": "neuraltalk_lstm", "serve_scale": scale["serve_scale"],
        "requests": scale["serve_requests"], "rate_rps": scale["serve_rate"],
        "max_batch": 16, "max_wait_us": 1000.0,
    }

    async def serve_open_loop():
        async with Server(
            [serve_model],
            config=serve_config,
            policy=BatchPolicy(max_batch=16, max_wait_us=1000.0),
        ) as server:
            return await run_open_loop(
                lambda vector: server.submit(serve_model.name, vector),
                serve_inputs,
                rate_rps=scale["serve_rate"],
                seed=31,
            )

    asyncio.run(serve_open_loop())  # warmup: compression + prepared caches
    report = asyncio.run(serve_open_loop())
    if report.completed != scale["serve_requests"]:
        print(f"  serve: WARNING only {report.completed}/{scale['serve_requests']} "
              f"requests completed ({report.rejected} rejected, "
              f"{report.errors} errors)", flush=True)
    results.append(BenchResult(
        "serve_throughput", seconds=report.duration_s, repeats=1,
        work_items=float(report.completed), unit="requests",
        params=serve_params,
    ))
    results.append(BenchResult(
        "serve_p50", seconds=report.p50_ms / 1e3, repeats=report.completed,
        work_items=1.0, unit="requests", params=serve_params,
    ))
    results.append(BenchResult(
        "serve_p99", seconds=report.p99_ms / 1e3, repeats=report.completed,
        work_items=1.0, unit="requests", params=serve_params,
    ))
    print(f"  serve:           {report.throughput_rps:8.1f} req/s at "
          f"{scale['serve_rate']:.0f} rps offered "
          f"(p50 {report.p50_ms:.2f} ms, p99 {report.p99_ms:.2f} ms, "
          f"mean batch {report.mean_batch:.1f})", flush=True)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="run the small CI-sized problems instead of paper scale")
    parser.add_argument("--check", action="store_true",
                        help="fail if throughput regressed vs the baseline JSON")
    parser.add_argument("--baseline", type=Path, default=BENCH_PATH,
                        help="baseline JSON for --check (default: committed file)")
    parser.add_argument("--output", type=Path, default=BENCH_PATH,
                        help="where to record the measurements")
    parser.add_argument("--no-write", action="store_true",
                        help="do not update the output JSON")
    parser.add_argument("--max-slowdown", type=float, default=2.0,
                        help="throughput regression factor tolerated by --check")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "paper"
    results = run_suite(mode)

    if not args.no_write:
        merge_results(args.output, results, mode)
        print(f"recorded {len(results)} entries under '{mode}/' in {args.output}")

    if args.check:
        failures = check_against_baseline(
            results, args.baseline, mode, max_slowdown=args.max_slowdown
        )
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(f"perf check OK ({len(results)} entries within "
              f"{args.max_slowdown:.1f}x of baseline)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
