"""Tests for the perf-regression timing helpers."""

from __future__ import annotations

import json

import pytest

from repro.utils.perfbench import (
    BenchResult,
    check_against_baseline,
    merge_results,
    run_benchmark,
    time_call,
)


def _result(name: str, seconds: float, work: float = 100.0) -> BenchResult:
    return BenchResult(
        name=name, seconds=seconds, repeats=2, work_items=work, unit="items"
    )


class TestTimeCall:
    def test_counts_calls_and_returns_positive(self):
        calls = []
        seconds = time_call(lambda: calls.append(1), repeats=3, warmup=2)
        assert len(calls) == 5
        assert seconds >= 0.0

    def test_rejects_bad_repeats(self):
        with pytest.raises(ValueError):
            time_call(lambda: None, repeats=0)


class TestBenchResult:
    def test_throughput_and_dict(self):
        result = _result("encode", seconds=0.5, work=200.0)
        assert result.throughput == pytest.approx(400.0)
        payload = result.to_dict()
        assert payload["name"] == "encode"
        assert payload["throughput"] == pytest.approx(400.0)

    def test_run_benchmark_wraps_timing(self):
        result = run_benchmark("noop", lambda: None, work_items=10, unit="items",
                               repeats=1, warmup=0)
        assert result.name == "noop" and result.work_items == 10.0


class TestMergeResults:
    def test_creates_and_merges_modes(self, tmp_path):
        path = tmp_path / "bench.json"
        merge_results(path, [_result("encode", 0.5)], mode="quick")
        merge_results(path, [_result("encode", 0.1)], mode="paper")
        data = json.loads(path.read_text())
        assert set(data["entries"]) == {"quick/encode", "paper/encode"}
        # Re-recording a mode replaces only that mode's entry.
        merge_results(path, [_result("encode", 0.25)], mode="quick")
        data = json.loads(path.read_text())
        assert data["entries"]["quick/encode"]["seconds"] == 0.25
        assert data["entries"]["paper/encode"]["seconds"] == 0.1

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps({"schema": 99, "entries": {}}))
        with pytest.raises(ValueError):
            merge_results(path, [_result("x", 1.0)], mode="quick")

    def test_entry_metadata_records_environment(self, tmp_path):
        path = tmp_path / "bench.json"
        data = merge_results(path, [_result("simulate", 0.01)], "quick")
        entry = data["entries"]["quick/simulate"]
        assert entry["cpu_count"] >= 1
        assert "machine" in entry


class TestCheckAgainstBaseline:
    def test_flags_regressions_beyond_threshold(self, tmp_path):
        path = tmp_path / "bench.json"
        merge_results(path, [_result("fast", 0.1), _result("slow", 0.1)], mode="quick")
        failures = check_against_baseline(
            # "fast" unchanged; "slow" now 3x slower than the baseline.
            [_result("fast", 0.1), _result("slow", 0.3)],
            path,
            mode="quick",
            max_slowdown=2.0,
        )
        assert len(failures) == 1
        assert "slow" in failures[0] and "3.00x" in failures[0]

    def test_missing_baseline_or_entry_passes(self, tmp_path):
        assert check_against_baseline(
            [_result("a", 1.0)], tmp_path / "absent.json", mode="quick"
        ) == []
        path = tmp_path / "bench.json"
        merge_results(path, [_result("a", 1.0)], mode="paper")
        assert check_against_baseline([_result("a", 5.0)], path, mode="quick") == []

    def test_rejects_bad_threshold(self, tmp_path):
        with pytest.raises(ValueError):
            check_against_baseline([], tmp_path / "x.json", mode="quick",
                                   max_slowdown=1.0)
