"""Tests of the perf record and its check (``benchmarks/e2e_record.py``).

Pure functions only: no e2e_bench run is started.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "e2e_record.py"
_spec = importlib.util.spec_from_file_location("e2e_record", SCRIPT)
e2e_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(e2e_record)

from e2e_bench.stats import summarize  # noqa: E402  (importable once the script ran)

METRICS = e2e_record.end_to_end_metrics()
MEDIANS = {"setup_s": 0.5, "op_s": 1.0, "op2_s": 0.02, "rate_per_s": 300.0, "peak_rss_mb": 350.0}


def make_line(correct=True, failed=0, **scale: float) -> dict:
    """A run's JSON line whose metrics are the medians times ``scale``."""
    units = {metric["name"]: metric["unit"] for metric in METRICS}
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            name: {"value": median * scale.get(name, 1.0), "unit": units[name]}
            for name, median in MEDIANS.items()
        },
    }


@pytest.fixture
def record() -> dict:
    return {"workloads": {"offline_models": e2e_record.summarize_runs([make_line()], METRICS)}}


def check(record: dict, line: dict, workload: str = "offline_models") -> list[str]:
    return e2e_record.check_run(record, workload, line, METRICS)


def test_metrics_come_from_the_benchmark_file():
    assert [metric["name"] for metric in METRICS] == list(MEDIANS)


def test_recorded_medians_pass(record):
    assert check(record, make_line()) == []


@pytest.mark.parametrize(
    "name, scale, passes",
    [
        ("op_s", 2.1, False),
        ("op_s", 1.9, True),
        ("rate_per_s", 0.45, False),
        ("rate_per_s", 3.0, True),
        ("peak_rss_mb", 2.1, False),
    ],
)
def test_factor_follows_the_metric_direction(record, name, scale, passes):
    failures = check(record, make_line(**{name: scale}))
    assert (failures == []) is passes
    if not passes:
        (failure,) = failures
        assert name in failure and "recorded median" in failure and "x worse" in failure


def test_incorrect_run_fails(record):
    assert any("not correct" in failure for failure in check(record, make_line(correct=False)))


def test_failed_operations_fail(record):
    assert any("failed operations" in failure for failure in check(record, make_line(failed=1)))


def test_missing_metric_fails(record):
    line = make_line()
    del line["metrics"]["op2_s"]
    assert check(record, line) == ["end-to-end metric op2_s is missing"]


def test_unknown_workload_fails(record):
    (failure,) = check(record, make_line(), workload="nope")
    assert "'nope'" in failure


def test_record_matches_summarize_of_the_runs():
    lines = [make_line(op_s=scale, rate_per_s=1 / scale) for scale in (1.0, 1.3, 0.8, 1.1, 2.0)]
    recorded = e2e_record.summarize_runs(lines, METRICS)
    for metric in METRICS:
        values = [line["metrics"][metric["name"]]["value"] for line in lines]
        entry = recorded[metric["name"]]
        assert {key: entry[key] for key in ("median", "q1", "q3", "n")} == summarize(values)
        assert (entry["unit"], entry["better"]) == (metric["unit"], metric["better"])


def test_last_json_line_skips_the_report():
    text = 'report\n{"correct": false}\nmore report\n{"correct": true}\n'
    assert e2e_record.last_json_line(text) == {"correct": True}
    with pytest.raises(ValueError):
        e2e_record.last_json_line("no json here\n")


def test_src_lines_counts_python_files_only(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "top.py").write_text("a = 1\nb = 2\n")
    (tmp_path / "pkg" / "mod.py").write_text("\n\nc = 3\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not\ncounted\n")
    assert e2e_record.src_lines(tmp_path) == 5
