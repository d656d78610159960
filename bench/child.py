"""Child-process entry points of the benchmark; run with PYTHONPATH=src.

    python3 bench/child.py cold SCENARIO_FILE [TRACE_OUT]
        Set-up probe in a fresh interpreter: import nbiotsim.cli, then the
        first results, one lifetime point and the capacity grid of the
        scenario file, written to stdout like the CLI does.  The last stdout
        line is ``#probe {"import_ms": ...}``.  With TRACE_OUT the first
        results run under the tracer, installed after the import.

    python3 bench/child.py cli TRACE_OUT ARG...
        ``nbiotsim ARG...`` under the tracer.  An exception escapes as it
        does from ``python -m nbiotsim.cli``, after the trace is written.
"""

from __future__ import annotations

import json
import sys
import time

import tracer


def cold(scenario_file: str, trace_out: str | None) -> int:
    start = time.perf_counter()
    from nbiotsim import cli
    import_ms = (time.perf_counter() - start) * 1000.0
    spans = tracer.Tracer().install() if trace_out else None
    status = max(cli.main(["lifetime", "--scenario", scenario_file, "--iat", "3600"]),
                 cli.main(["capacity", "--scenario", scenario_file]))
    if spans is not None:
        spans.uninstall()
        tracer.write(trace_out, spans.dump(), import_ms=import_ms)
    print("#probe " + json.dumps({"import_ms": import_ms}))
    return status


def traced_cli(trace_out: str, argv: list[str]) -> int:
    from nbiotsim import cli
    spans = tracer.Tracer().install()
    try:
        return cli.main(argv)
    finally:
        spans.uninstall()
        tracer.write(trace_out, spans.dump())


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "cold":
        sys.exit(cold(rest[0], rest[1] if len(rest) > 1 else None))
    if mode == "cli":
        sys.exit(traced_cli(rest[0], rest[1:]))
    sys.exit(f"unknown mode {mode!r}")
