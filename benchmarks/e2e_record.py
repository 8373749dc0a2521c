#!/usr/bin/env python3
"""The repo's perf record: e2e_bench medians in ``BENCH_e2e.json``, and its gate.

Run from the root of a checkout::

    python3 benchmarks/e2e_record.py record
    python3 benchmarks/e2e_record.py check WORKLOAD LOG

``record`` runs ``e2e_bench/run.py --seed 0 --seconds 20 --trace 0`` on every
workload :data:`RUNS` times, round robin so that host drift reaches every
workload alike.  It refuses a run that is not ``correct`` or has failed
operations, and writes ``BENCH_e2e.json``: for each workload and each
end-to-end metric of ``BENCHMARK.json``, the median, q1, q3 and n of the
runs' values (the quartile rule of :func:`e2e_bench.stats.summarize`), with
the metric's unit and direction, plus when, where and on which commit it was
recorded and how many lines ``src/**/*.py`` holds (``meta.src_lines``), so
the code size is tracked next to the speed it buys.

``check`` reads the last JSON line of one untraced run's log and exits 1
unless the run is correct, has no failed operation, reports every end-to-end
metric, and no metric is worse than its recorded median by more than
:data:`MAX_FACTOR`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from e2e_bench.run import WORKLOADS  # noqa: E402
from e2e_bench.stats import summarize  # noqa: E402

RECORD_PATH = ROOT / "BENCH_e2e.json"
#: Untraced runs per workload behind each recorded median.
RUNS = 5
SEED = 0
SECONDS = 20
#: A metric fails the check when it is worse than its recorded median by more
#: than this factor: above it for lower-is-better metrics, below it for
#: higher-is-better ones.
MAX_FACTOR = 2.0


def end_to_end_metrics() -> list[dict]:
    """The end-to-end metrics of ``BENCHMARK.json``: name, unit, better, bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def src_lines(root: Path = ROOT / "src") -> int:
    """Lines (newline characters, as ``wc -l`` counts) in every ``*.py`` under ``root``."""
    return sum(path.read_bytes().count(b"\n") for path in root.rglob("*.py"))


def last_json_line(text: str) -> dict:
    """The last line of a run's output that is a JSON object."""
    lines = [line for line in text.splitlines() if line.startswith("{")]
    if not lines:
        raise ValueError("the log holds no JSON line")
    return json.loads(lines[-1])


def run_problems(line: dict, metrics: list[dict]) -> list[str]:
    """Why one run's JSON line cannot be recorded or checked; empty if it can."""
    problems = []
    if line.get("correct") is not True:
        problems.append(f"the run is not correct (correct={line.get('correct')!r})")
    if line.get("failed") != 0:
        problems.append(f"the run has failed operations (failed={line.get('failed')!r})")
    values = line.get("metrics", {})
    problems.extend(
        f"end-to-end metric {metric['name']} is missing"
        for metric in metrics
        if metric["name"] not in values
    )
    return problems


def summarize_runs(lines: list[dict], metrics: list[dict]) -> dict[str, dict]:
    """Median, q1, q3 and n of each metric over the runs, with unit and direction."""
    return {
        metric["name"]: {
            **summarize([line["metrics"][metric["name"]]["value"] for line in lines]),
            "unit": metric["unit"],
            "better": metric["better"],
        }
        for metric in metrics
    }


def worse_ratio(value: float, median: float, better: str) -> float:
    """How many times worse ``value`` is than ``median``; below 1 means better."""
    worse, base = (value, median) if better == "lower" else (median, value)
    if base > 0:
        return worse / base
    return 1.0 if worse <= 0 else float("inf")


def check_run(record: dict, workload: str, line: dict, metrics: list[dict]) -> list[str]:
    """The failures of one run against the record; empty if the run passes."""
    recorded = record["workloads"].get(workload)
    if recorded is None:
        return [f"workload {workload!r} is not in the record ({', '.join(record['workloads'])})"]
    failures = run_problems(line, metrics)
    for metric in metrics:
        name = metric["name"]
        if name not in line.get("metrics", {}):
            continue
        if name not in recorded:
            failures.append(f"{name} has no recorded median; re-record")
            continue
        value = line["metrics"][name]["value"]
        median = recorded[name]["median"]
        ratio = worse_ratio(value, median, metric["better"])
        if ratio > MAX_FACTOR:
            failures.append(
                f"{name} = {value:.6g} {metric['unit']} against the recorded median"
                f" {median:.6g}: {ratio:.2f}x worse ({metric['better']} is better;"
                f" the limit is {MAX_FACTOR:g}x)"
            )
    return failures


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def record() -> int:
    metrics = end_to_end_metrics()
    lines: dict[str, list[dict]] = {workload: [] for workload in WORKLOADS}
    for index in range(RUNS):
        for workload in WORKLOADS:
            command = [
                sys.executable, "e2e_bench/run.py", "--workload", workload,
                "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0",
            ]
            print(f"run {index + 1}/{RUNS}: {workload}", file=sys.stderr, flush=True)
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            try:
                line = last_json_line(done.stdout)
                problems = run_problems(line, metrics)
            except ValueError as error:
                problems = [str(error)]
            if problems:
                print(done.stdout + done.stderr, file=sys.stderr)
                print(f"{workload} run {index + 1} refused: {'; '.join(problems)}", file=sys.stderr)
                return 1
            lines[workload].append(line)
    commit = _git("rev-parse", "HEAD")
    if _git("status", "--porcelain", "--", "src", "e2e_bench", "BENCHMARK.json"):
        commit += "+uncommitted"
    document = {
        "meta": {
            "commit": commit,
            "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
            "machine": f"{platform.platform()} {platform.processor()}".strip(),
            "cpu_count": os.cpu_count(),
            "seconds": SECONDS,
            "seed": SEED,
            "runs": RUNS,
            "src_lines": src_lines(),
        },
        "workloads": {
            workload: summarize_runs(runs, metrics) for workload, runs in lines.items()
        },
    }
    RECORD_PATH.write_text(json.dumps(document, indent=2) + "\n")
    print(f"wrote {RECORD_PATH.name}", file=sys.stderr)
    return 0


def check(workload: str, log: Path) -> int:
    metrics = end_to_end_metrics()
    record_doc = json.loads(RECORD_PATH.read_text())
    try:
        line = last_json_line(log.read_text())
        failures = check_run(record_doc, workload, line, metrics)
    except ValueError as error:
        failures = [str(error)]
    for failure in failures:
        print(f"FAIL {workload}: {failure}")
    if failures:
        return 1
    recorded = record_doc["workloads"][workload]
    for metric in metrics:
        value = line["metrics"][metric["name"]]["value"]
        median = recorded[metric["name"]]["median"]
        ratio = worse_ratio(value, median, metric["better"])
        print(f"ok {workload}: {metric['name']} = {value:.6g} {metric['unit']},"
              f" recorded median {median:.6g}, {ratio:.2f}x")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    commands.add_parser("record", help=f"re-record {RECORD_PATH.name}")
    checker = commands.add_parser("check", help="gate one run's log on the record")
    checker.add_argument("workload")
    checker.add_argument("log", type=Path)
    args = parser.parse_args(argv)
    if args.command == "record":
        return record()
    return check(args.workload, args.log)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
