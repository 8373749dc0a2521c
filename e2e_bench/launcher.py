"""Run the ``repro`` CLI, optionally with the benchmark's trace wrappers.

The serving workload starts its daemon through this file::

    python3 e2e_bench/launcher.py serve --models neuraltalk_lstm ...

When the environment names a trace file in ``E2E_BENCH_TRACE_OUT``, the
wrappers of :data:`e2e_bench.layers.TARGETS` are installed before the CLI's
``main`` runs, and the span aggregates are written to that file as JSON when
``main`` returns (after the daemon drained on SIGTERM).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

TRACE_ENV = "E2E_BENCH_TRACE_OUT"


def main(argv: list[str]) -> int:
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]
    from repro import cli

    trace_out = os.environ.get(TRACE_ENV)
    if not trace_out:
        return cli.main(argv)

    from e2e_bench.layers import TARGETS
    from e2e_bench.tracer import Tracer, install

    tracer = Tracer()
    install(tracer, TARGETS)
    status = cli.main(argv)
    partial = Path(trace_out + ".tmp")
    partial.write_text(json.dumps(tracer.snapshot()))
    partial.replace(trace_out)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
