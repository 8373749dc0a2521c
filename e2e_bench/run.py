"""End-to-end benchmark of the EIE reproduction: one workload per call.

Run from the root of a checkout::

    python3 e2e_bench/run.py --workload paper_sweep --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` adds a
traced phase and reports the per-layer metrics instead.  Both print a
human-readable report followed by one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The metric names, units and
directions are those of ``BENCHMARK.json`` at the checkout root; what each
end-to-end metric measures on a workload is that workload module's
``END_TO_END``.  Timings are scaled by ``yardstick.py``; the report prints
the unscaled wall times beside them.
``--write-references`` stores this seed's outputs as the reference later
runs are checked against.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import signal
import sys
import tempfile
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("paper_sweep", "offline_models", "serve_tcp")
#: A run that is still going after this many seconds is stopped.
WALL_CAP_S = 170
WORK_DIR = ".e2e_bench_work"


class RunStopped(BaseException):
    """Raised when the run exceeds :data:`WALL_CAP_S` or receives SIGTERM.

    A ``BaseException`` so that no per-operation ``except Exception``
    handler mistakes it for a failed operation and carries on; the
    workloads' ``finally`` blocks stop their daemons on the way out.
    """


def _stop(signum: int, frame: object) -> None:
    reason = f"run exceeded {WALL_CAP_S} s" if signum == signal.SIGALRM else "SIGTERM"
    raise RunStopped(reason)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true")
    return parser.parse_args(argv)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(args: argparse.Namespace, bench: dict, module: object, out: object) -> dict:
    """Print the report; returns the metrics of the JSON line."""
    tally = out.tally
    print(
        f"== e2e_bench {args.workload} seed={args.seed} seconds={args.seconds:g}"
        f" trace={args.trace}"
    )
    print(f"operations: attempted {tally.attempted}, failed {tally.failed}")
    for reason, count in tally.reasons.most_common(10):
        print(f"  FAILED x{count}: {reason}")
    from e2e_bench.stats import summarize

    metrics: dict[str, dict] = {}
    if not args.trace:
        print("end-to-end (median [q1, q3] of n samples):")
        for metric in bench["end_to_end"]:
            sample, meaning = module.END_TO_END[metric["name"]]
            summary = summarize(out.samples[sample])
            metrics[metric["name"]] = {"value": summary["median"], "unit": metric["unit"]}
            print(
                f"  {metric['name']:<12} {_fmt(summary['median']):>10} {metric['unit']:<4}"
                f" [{_fmt(summary['q1'])}, {_fmt(summary['q3'])}] n={summary['n']}"
                f"  {metric['better']} is better; {meaning}"
            )
    else:
        from e2e_bench.layers import PER_LAYER, SHARE_SPAN

        layer_metrics = {metric.name: metric for metric in PER_LAYER}
        shares: dict[str, float] = {}
        for name, _, share in out.shares:
            base = name.split("[", 1)[0]
            shares[base] = shares.get(base, 0.0) + share
        print(
            f"per-layer ({args.workload}; 0 where the workload does not use the layer;"
            " self-time share of the traced time):"
        )
        for metric in bench["per_layer"]:
            value = float(out.per_layer.get(metric["name"], 0.0))
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            layer = layer_metrics[metric["name"]]
            if args.workload in layer.workloads:
                span = SHARE_SPAN.get(layer.name)
                share = f"{100 * shares.get(span, 0.0):5.1f}%" if span else "      "
                print(
                    f"  {layer.name:<34} {_fmt(value):>12} {layer.unit:<6}"
                    f" {share}  should move {layer.moves}"
                )
        print("self time by span (share of traced time):")
        for name, self_s, share in out.shares[:16]:
            print(f"  {name:<40} {self_s:10.4f} s {100 * share:6.1f}%")
    print("samples (median [q1, q3] n):")
    for name, values in out.samples.items():
        summary = summarize(values)
        print(
            f"  {name:<30} {_fmt(summary['median']):>10} {out.units[name]:<4}"
            f" [{_fmt(summary['q1'])}, {_fmt(summary['q3'])}] n={summary['n']}"
        )
    for note in out.notes:
        print(f"note: {note}")
    return metrics


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2e_bench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    work = ROOT / WORK_DIR / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    os.environ["REPRO_STORE_DIR"] = str(work / "default-store")
    tempfile.tempdir = str(work)
    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(WALL_CAP_S)
    try:
        from e2e_bench.common import Context
        from e2e_bench.tracer import Tracer

        module = importlib.import_module(f"e2e_bench.{args.workload}")
        ctx = Context(
            root=ROOT,
            work=work,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            tracer=Tracer(),
            write_references=args.write_references,
        )
        out = module.run(ctx)
        metrics = report(args, bench, module, out)
    except (Exception, RunStopped):
        traceback.print_exc()
        return 1
    finally:
        signal.alarm(0)
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / WORK_DIR).rmdir()
        except OSError:
            pass
    line = {
        "correct": out.tally.correct,
        "attempted": out.tally.attempted,
        "failed": out.tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
