"""Stored reference outputs and the check against them.

References live in ``e2e_bench/references/<workload>_seed<seed>.json`` and
are written by ``run.py --write-references``.  A seed without a stored file
is still checked for determinism against the run's own first operation.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any

__all__ = ["canonical", "compare", "load", "path_for", "save"]

REFERENCE_DIR = Path(__file__).resolve().parent / "references"

#: Relative tolerance for floats; integers and strings must match exactly.
REL_TOL = 1e-9


def canonical(value: Any) -> Any:
    """``value`` as it reads back from JSON (tuples become lists, and so on)."""
    return json.loads(json.dumps(value))


def compare(actual: Any, expected: Any, where: str = "") -> list[str]:
    """Every difference between two JSON values, as ``path: detail`` lines."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict):
            return [f"{where}: expected an object"]
        if set(actual) != set(expected):
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [
            line
            for key in expected
            for line in compare(actual[key], expected[key], f"{where}.{key}")
        ]
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: expected a list of {len(expected)}"]
        return [
            line
            for index, (got, want) in enumerate(zip(actual, expected))
            for line in compare(got, want, f"{where}[{index}]")
        ]
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        if isinstance(actual, bool) or not math.isclose(
            actual, expected, rel_tol=REL_TOL, abs_tol=1e-12
        ):
            return [f"{where}: {actual!r} != {expected!r}"]
        return []
    if type(actual) is not type(expected) or actual != expected:
        return [f"{where}: {actual!r} != {expected!r}"]
    return []


def path_for(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}_seed{seed}.json"


def load(workload: str, seed: int) -> dict | None:
    """The stored reference of ``workload`` at ``seed``, or ``None``."""
    path = path_for(workload, seed)
    if not path.is_file():
        return None
    return json.loads(path.read_text())


def save(workload: str, seed: int, value: dict) -> Path:
    path = path_for(workload, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(canonical(value), indent=1, sort_keys=True) + "\n")
    return path
