"""Nested timing spans recorded around calls into the ``repro`` layers.

The traced run wraps public functions of the library with spans from the
benchmark's own files; nothing under ``src/`` knows about it.

Spans nest per thread.  A span's *self time* is its duration minus the time
covered by the spans it encloses on the same thread.  Work that a span hands
to another thread (the serving daemon's pipeline stages) is not subtracted:
it is timed by the spans opened on that thread.  So the self times of one
thread add up to that thread's traced time, and across threads they add up
to :attr:`Tracer.root_s`, the summed duration of every outermost span, which
can exceed wall time when threads run at once.

Only aggregates are kept (calls, total and self seconds per span name, plus
named counters), so a long traced run uses constant memory.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

__all__ = ["Target", "Tracer", "install", "missing_calls"]


class Tracer:
    """Thread-safe span and counter aggregates.

    Args:
        clock: monotonic clock in seconds (tests pass a fake one).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._lock = threading.Lock()
        #: installed wrappers call straight through while this is false
        self.enabled = True
        #: span name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list[float]] = {}
        self.counters: dict[str, float] = {}
        #: summed duration of outermost spans over every thread
        self.root_s = 0.0

    def _stack(self) -> list[list[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the enclosed block as one call of span ``name``."""
        stack = self._stack()
        children = [0.0]
        stack.append(children)
        start = self._clock()
        try:
            yield
        finally:
            duration = self._clock() - start
            stack.pop()
            if stack:
                stack[-1][0] += duration
            with self._lock:
                entry = self.spans.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - children[0]
                if not stack:
                    self.root_s += duration

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to counter ``name``."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])

    def total_s(self, name: str) -> float:
        return float(self.spans.get(name, (0, 0.0, 0.0))[1])

    def self_s(self, name: str) -> float:
        return float(self.spans.get(name, (0, 0.0, 0.0))[2])

    def snapshot(self) -> dict[str, Any]:
        """A JSON-serializable copy of every aggregate."""
        with self._lock:
            return {
                "spans": {name: list(entry) for name, entry in self.spans.items()},
                "counters": dict(self.counters),
                "root_s": self.root_s,
            }

    @classmethod
    def from_snapshot(cls, data: dict[str, Any]) -> "Tracer":
        """A tracer holding the aggregates another process shipped back."""
        tracer = cls()
        tracer.spans = {name: list(entry) for name, entry in data["spans"].items()}
        tracer.counters = dict(data["counters"])
        tracer.root_s = float(data["root_s"])
        return tracer


@dataclass(frozen=True)
class Target:
    """One library function to time.

    Attributes:
        module: module that defines it.
        attr: ``"function"`` or ``"Class.method"`` (class methods included).
        span: span name.
        suffix: optional function of the call's ``(args, kwargs)`` whose
            result is appended as ``span[suffix]``, one span per value.
        after: optional ``(tracer, args, kwargs, result)`` hook that records
            counters once the call returned.
        expected: workloads on which a traced run must record at least one
            call; zero calls there means the wrapper was bypassed.
    """

    module: str
    attr: str
    span: str
    suffix: Callable[[tuple, dict], str] | None = None
    after: Callable[[Tracer, tuple, dict, Any], None] | None = None
    expected: tuple[str, ...] = ()

    def span_name(self, args: tuple, kwargs: dict) -> str:
        if self.suffix is None:
            return self.span
        return f"{self.span}[{self.suffix(args, kwargs)}]"


def _wrap(tracer: Tracer, func: Callable, target: Target) -> Callable:
    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled:
            return func(*args, **kwargs)
        with tracer.span(target.span_name(args, kwargs)):
            result = func(*args, **kwargs)
        if target.after is not None:
            target.after(tracer, args, kwargs, result)
        return result

    return wrapper


def install(tracer: Tracer, targets: Sequence[Target]) -> Callable[[], None]:
    """Wrap every target with spans of ``tracer``; returns the undo function.

    A method is replaced on its class, so every instance sees the wrapper.  A
    module-level function is also rebound in every loaded ``repro`` module
    that imported it by name, so import the library before installing.
    Copies held anywhere else keep calling the original;
    :func:`missing_calls` turns such a miss into a failed check.
    """
    undo: list[tuple[Any, str, Any]] = []
    for target in targets:
        module = importlib.import_module(target.module)
        owner_name, _, name = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[name]
            if isinstance(raw, classmethod):
                replacement: Any = classmethod(_wrap(tracer, raw.__func__, target))
            else:
                replacement = _wrap(tracer, raw, target)
            setattr(owner, name, replacement)
            undo.append((owner, name, raw))
            continue
        original = getattr(module, name)
        replacement = _wrap(tracer, original, target)
        for loaded in list(sys.modules.values()):
            namespace = getattr(loaded, "__dict__", None)
            if (
                namespace is not None
                and str(getattr(loaded, "__name__", "")).startswith("repro")
                and namespace.get(name) is original
            ):
                setattr(loaded, name, replacement)
                undo.append((loaded, name, original))

    def restore() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return restore


def missing_calls(tracer: Tracer, targets: Sequence[Target], workload: str) -> list[str]:
    """Targets expected on ``workload`` whose spans recorded no call."""
    recorded = {name.split("[", 1)[0] for name, entry in tracer.spans.items() if entry[0]}
    return [
        f"{target.module}.{target.attr}"
        for target in targets
        if workload in target.expected and target.span not in recorded
    ]
