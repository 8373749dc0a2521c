"""Uniform experiment results: records + metadata + provenance.

Every experiment — sweep, table or ablation — returns one
:class:`ExperimentResult`.  The payload is a flat list of per-point record
dictionaries (uniformly serializable), plus run metadata (point count, jobs,
duration) and provenance (the exact spec, library version and source paper),
so any result can be rendered as the paper's table text, converted to a
dictionary, or written to ``results/<name>.txt`` + ``results/<name>.json``
under one shared naming scheme.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable

from repro.analysis.report import format_table
from repro.experiments.spec import ExperimentSpec, _jsonable

__all__ = ["ExperimentResult"]

#: Metadata keys that vary run-to-run without changing the result (timing,
#: concurrency level, executor backend).  They are kept on the in-memory
#: result for reporting but excluded from the serialized form, so the JSON
#: written by a serial run and a process-pool run of the same spec is
#: byte-identical.
VOLATILE_METADATA = ("duration_s", "jobs", "executor")


@dataclass
class ExperimentResult:
    """Outcome of running one :class:`ExperimentSpec`.

    Attributes:
        experiment: registry name of the experiment that produced the result.
        spec: the fully merged spec that was executed.
        records: one dictionary per result row, in deterministic point order
            (identical for any ``--jobs`` level).
        metadata: run bookkeeping (grid point count, jobs, duration seconds).
        provenance: everything needed to reproduce the run (the spec as a
            dictionary, the library version, the source paper id).
    """

    experiment: str
    spec: ExperimentSpec
    records: list[dict[str, Any]]
    metadata: dict[str, Any] = field(default_factory=dict)
    provenance: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_records(
        cls,
        experiment: str,
        records: Iterable[dict[str, Any]],
        spec: ExperimentSpec | None = None,
        **metadata: Any,
    ) -> "ExperimentResult":
        """Wrap ad-hoc records (e.g. a perf harness) in the uniform shape."""
        return cls(
            experiment=experiment,
            spec=spec or ExperimentSpec(experiment=experiment),
            records=[dict(record) for record in records],
            metadata=dict(metadata),
        )

    # -- rendering ---------------------------------------------------------------

    def to_table(self) -> str:
        """The result rendered as the paper's plain-text table.

        Registered experiments render byte-for-byte what the classic CLI entry
        point printed; unregistered (ad-hoc) results fall back to a generic
        table over the union of record keys.
        """
        from repro.experiments.registry import ExperimentRegistry

        experiment = ExperimentRegistry.get_optional(self.experiment)
        if experiment is not None and experiment.render is not None:
            return experiment.render(self)
        return self.generic_table()

    def generic_table(self) -> str:
        """A plain table over the union of record keys, in first-seen order."""
        headers: list[str] = []
        for record in self.records:
            for key in record:
                if key not in headers:
                    headers.append(key)
        rows = [[record.get(key) for key in headers] for record in self.records]
        return format_table(headers, rows)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """The result as a plain JSON-serializable dictionary.

        Volatile metadata (:data:`VOLATILE_METADATA`: wall-clock duration,
        jobs, executor) is excluded so that serialized results depend only on
        the spec and the records — any two runs of the same spec, at any
        concurrency level and on any executor backend, serialize to the same
        bytes.
        """
        metadata = {
            key: value
            for key, value in self.metadata.items()
            if key not in VOLATILE_METADATA
        }
        return {
            "experiment": self.experiment,
            "spec": self.spec.to_dict(),
            "records": _jsonable(self.records),
            "metadata": _jsonable(metadata),
            "provenance": _jsonable(self.provenance),
        }

    def to_json(self, indent: int | None = 2) -> str:
        """The result serialized as JSON text."""
        return json.dumps(self.to_dict(), indent=indent)

    def write(
        self,
        results_dir: str | Path,
        stem: str | None = None,
        extra: str | None = None,
    ) -> tuple[Path, Path]:
        """Write ``<stem>.txt`` (rendered table) and ``<stem>.json``.

        ``stem`` defaults to the experiment name, giving every entry point the
        shared ``results/<experiment>.{txt,json}`` naming scheme; ``extra``
        text (e.g. a comparison against the paper's published numbers) is
        appended to the ``.txt`` report.
        """
        results_dir = Path(results_dir)
        results_dir.mkdir(parents=True, exist_ok=True)
        stem = stem or self.experiment
        text = self.to_table()
        if extra:
            text += "\n\n" + extra
        txt_path = results_dir / f"{stem}.txt"
        json_path = results_dir / f"{stem}.json"
        txt_path.write_text(text + "\n")
        json_path.write_text(self.to_json() + "\n")
        return txt_path, json_path
