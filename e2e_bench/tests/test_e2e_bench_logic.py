"""Tests of the benchmark's statistics, tracing and correctness checks.

Run with ``python3 -m pytest e2e_bench/tests -q`` from the repository root.
"""

from __future__ import annotations

import sys
import threading
import types

import pytest

from e2e_bench import references
from e2e_bench.layers import PER_LAYER, TARGETS
from e2e_bench.stats import Tally, reportable_percentiles, summarize, wire_ms
from e2e_bench.tracer import Target, Tracer, install, missing_calls


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- percentiles --------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(99))
    assert set(reportable_percentiles(values)) == {50}
    assert set(reportable_percentiles(list(range(100)))) == {50, 90}
    assert set(reportable_percentiles(list(range(999)))) == {50, 90}
    assert set(reportable_percentiles(list(range(1000)))) == {50, 90, 99}
    assert reportable_percentiles(list(range(19))) == {}


def test_percentile_values_interpolate():
    values = [float(value) for value in range(101)]
    tails = reportable_percentiles(values)
    assert tails[50] == 50.0
    assert tails[90] == 90.0


def test_summarize_quartiles():
    summary = summarize([4.0, 1.0, 3.0, 2.0, 5.0])
    assert summary["median"] == 3.0
    assert summary["n"] == 5
    assert summary["q1"] <= summary["median"] <= summary["q3"]
    assert summarize([2.5]) == {"median": 2.5, "q1": 2.5, "q3": 2.5, "n": 1}


# -- serve.wire_ms --------------------------------------------------------------


def test_wire_ms_subtracts_queue_wait_and_dispatch():
    client = [0.010, 0.012, 0.020]
    queue = [0.002, 0.003, 0.010]
    service = [0.005, 0.005, 0.006]
    # per request: 3 ms, 4 ms, 4 ms -> median 4 ms
    assert wire_ms(client, queue, service) == pytest.approx(4.0)


def test_wire_ms_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        wire_ms([0.01, 0.02], [0.001], [0.001, 0.002])
    with pytest.raises(ValueError):
        wire_ms([], [], [])


# -- spans ------------------------------------------------------------------------


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span("outer"):
        clock.now = 2.0
        with tracer.span("inner"):
            clock.now = 5.0
            with tracer.span("leaf"):
                clock.now = 6.0
        clock.now = 10.0
    assert tracer.total_s("outer") == 10.0
    assert tracer.self_s("outer") == 6.0
    assert tracer.total_s("inner") == 4.0
    assert tracer.self_s("inner") == 3.0
    assert tracer.self_s("leaf") == 1.0
    assert sum(entry[2] for entry in tracer.spans.values()) == tracer.root_s == 10.0


def test_span_on_second_thread_is_not_subtracted_from_the_first():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def other_thread() -> None:
        with tracer.span("worker"):
            with tracer.span("worker.child"):
                clock.now = 7.0

    with tracer.span("dispatch"):
        clock.now = 3.0
        thread = threading.Thread(target=other_thread)
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        clock.now = 8.0
    # the worker's spans nest on their own thread only
    assert tracer.self_s("dispatch") == 8.0
    assert tracer.total_s("worker") == 4.0
    assert tracer.self_s("worker") == 0.0
    assert tracer.self_s("worker.child") == 4.0
    # both threads' outermost spans count towards the traced time
    assert tracer.root_s == 12.0
    assert sum(entry[2] for entry in tracer.spans.values()) == tracer.root_s


def test_snapshot_round_trip():
    tracer = Tracer()
    with tracer.span("a"):
        tracer.count("things", 3)
    copy = Tracer.from_snapshot(tracer.snapshot())
    assert copy.spans == tracer.spans
    assert copy.counters == {"things": 3}
    assert copy.root_s == tracer.root_s


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("repro_e2e_fake")

    def work(value: int) -> int:
        return value * 2

    class Box:
        def method(self, value: int) -> int:
            return value + 1

        @classmethod
        def make(cls, value: int) -> "Box":
            return cls()

    module.work = work
    module.Box = Box
    monkeypatch.setitem(sys.modules, "repro_e2e_fake", module)
    return module


def test_install_wraps_functions_methods_and_classmethods(fake_module):
    tracer = Tracer()
    targets = [
        Target("repro_e2e_fake", "work", "fake.work",
               after=lambda t, args, kwargs, result: t.count("fake.sum", result)),
        Target("repro_e2e_fake", "Box.method", "fake.method", suffix=lambda a, k: str(a[1])),
        Target("repro_e2e_fake", "Box.make", "fake.make"),
    ]
    original = fake_module.work
    restore = install(tracer, targets)
    try:
        assert fake_module.work(4) == 8
        assert fake_module.Box().method(1) == 2
        assert isinstance(fake_module.Box.make(0), fake_module.Box)
        tracer.enabled = False
        fake_module.work(1)
    finally:
        restore()
    assert fake_module.work is original
    assert tracer.calls("fake.work") == 1
    assert tracer.counters["fake.sum"] == 8
    assert tracer.calls("fake.method[1]") == 1
    assert tracer.calls("fake.make") == 1


def test_missing_calls_flags_a_bypassed_target():
    tracer = Tracer()
    targets = [
        Target("m", "seen", "layer.seen", expected=("w",)),
        Target("m", "per_node", "layer.node", suffix=lambda a, k: "x", expected=("w",)),
        Target("m", "missed", "layer.missed", expected=("w",)),
        Target("m", "elsewhere", "layer.elsewhere", expected=("other",)),
    ]
    with tracer.span("layer.seen"):
        pass
    with tracer.span("layer.node[x]"):
        pass
    assert missing_calls(tracer, targets, "w") == ["m.missed"]


def test_every_target_is_expected_somewhere_or_shares_a_span():
    spans_expected = {target.span for target in TARGETS if target.expected}
    for target in TARGETS:
        assert target.expected or target.span in spans_expected, target


def test_per_layer_names_are_unique():
    names = [metric.name for metric in PER_LAYER]
    assert len(names) == len(set(names))


# -- failure counting ------------------------------------------------------------


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    assert not tally.correct  # nothing attempted is not a pass
    tally.ok()
    assert tally.check(True, "unused")
    assert tally.correct
    assert not tally.check(False, "mismatch")
    tally.fail("timeout")
    tally.fail("timeout")
    assert (tally.attempted, tally.failed) == (5, 3)
    assert tally.reasons == {"mismatch": 1, "timeout": 2}
    assert not tally.correct


# -- reference check ---------------------------------------------------------------


RECORDS = [
    {"benchmark": "Alex-6", "fifo_depth": 8, "load_balance_efficiency": 0.8312},
    {"benchmark": "Alex-7", "fifo_depth": 8, "load_balance_efficiency": 0.7991},
]


def test_reference_check_accepts_identical_records():
    assert references.compare(references.canonical(RECORDS), RECORDS) == []


def test_reference_check_rejects_a_perturbed_record():
    perturbed = references.canonical(RECORDS)
    perturbed[1]["load_balance_efficiency"] *= 1.0 + 1e-6
    errors = references.compare(perturbed, RECORDS, "fig8")
    assert len(errors) == 1
    assert errors[0].startswith("fig8[1].load_balance_efficiency")


def test_reference_check_rejects_changed_counts_keys_and_types():
    changed = references.canonical(RECORDS)
    changed[0]["fifo_depth"] = 9
    assert references.compare(changed, RECORDS)
    assert references.compare(RECORDS[:1], RECORDS)
    assert references.compare([{"benchmark": "Alex-6"}, RECORDS[1]], RECORDS)
    assert references.compare([{**RECORDS[0], "fifo_depth": 8.0}, RECORDS[1]], RECORDS)


def test_float_tolerance_is_relative():
    assert references.compare([1.0 + 1e-12], [1.0]) == []
    assert references.compare([1.0 + 1e-6], [1.0])
