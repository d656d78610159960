"""Benchmark of nbiotsim: one workload per run, end-to-end metrics or a trace.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/
(PYTHONPATH=src for child processes) and is not installed.  Workloads:
lifetime_sweep, scenario_mix, cli_runs (see README.md).

A run makes its inputs from --seed, times fresh-interpreter set-up, runs whole
rounds of operations for --seconds, and checks the outputs.  With --trace 1 it
also runs one traced set-up and a fixed traced amount of work and reports the
per-layer metrics instead of the end-to-end ones.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import array
import collections
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_PROBES = 15         # measured set-up probes per run, after one warm-up probe
MIN_TAIL_OPS = 40         # below this op_tail_ms reports the median
RSS_OPS = 2000            # peak_rss_mb is read once this many operations were attempted
PROBE_SCENARIO = "procedure=UP case=DL_ACK coverage=Robust payload_bytes=200\n"

CALLS = ("config.parse_scenario", "config.validate_scenario", "phy.message_airtime",
         "ra.expected_attempts", "ra.attempt_components", "flows.build_flow",
         "flows.build_tau_flow", "flows.flow_timeline", "energy.cycle_energy",
         "capacity.cell_capacity")
SELF_MS = {name: (name,) for name in (
    "config.parse_scenario", "config.validate_scenario", "phy.message_airtime",
    "ra.expected_attempts", "flows.flow_timeline", "energy.cycle_energy",
    "energy.integrate_timeline", "capacity.cell_capacity", "capacity.flow_channel_usage",
    "cli.run_lifetime_sweep", "cli.run_capacity_report", "cli.emit")}
SELF_MS["phy.data_load"] = ("phy.verified_data_text",)
SELF_MS["flows.build"] = ("flows.build_flow", "flows.build_tau_flow")
COUNTERS = {"phy.transport_block_units.blocks": "count",
            "flows.flow_timeline.intervals": "count",
            "cli.emit.bytes": "bytes"}
PER_ROW = ("config.validate_scenario", "flows.flow_timeline", "energy.cycle_energy")


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def cold_probe(probe_file: Path, trace_out: Path | None = None) -> tuple[float, float, str]:
    """Wall seconds from spawning a fresh interpreter to its first results.

    Also returns the probe's import time in ms and the CLI tables it wrote.
    """
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), "cold", str(probe_file)]
    if trace_out is not None:
        cmd.append(str(trace_out))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, timeout=120)
    wall = time.perf_counter() - start
    text, _, last = proc.stdout.decode("utf-8").rpartition("#probe ")
    if proc.returncode != 0 or not last:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): "
                           f"{proc.stderr.decode('utf-8', 'replace')[-500:]}")
    return wall, json.loads(last)["import_ms"], text


def layer_metrics(probe: dict, dumps: list[dict], rows: int, overhead_ms: float,
                  import_ms: float) -> dict:
    """Per-layer metrics of one traced set-up plus the traced rounds.

    Calls, self times and counters sum over both; the per-row ratios and the
    distinct share cover the traced rounds only.
    """
    every, counters = tracer.merge([tracer.summarize(d) for d in (probe, *dumps)])
    rounds, round_counters = tracer.merge([tracer.summarize(d) for d in dumps])

    def calls(per, name):
        return per.get(name, (0, 0.0))[0]

    out = {f"{name}.calls": (calls(every, name), "count") for name in CALLS}
    out.update({f"{metric}.self_ms": (sum(every.get(n, (0, 0.0))[1] for n in names), "ms")
                for metric, names in SELF_MS.items()})
    out.update({name: (counters[name], unit) for name, unit in COUNTERS.items()})
    out.update({f"{name}.calls_per_row": (calls(rounds, name) / rows if rows else 0.0, "ratio")
                for name in PER_ROW})
    timelines = calls(rounds, "flows.flow_timeline")
    out["flows.flow_timeline.distinct_share"] = (
        round_counters["flows.flow_timeline.distinct"] / timelines if timelines else 0.0, "ratio")
    out["cli.import_ms"] = (import_ms, "ms")
    out["trace.overhead_ms"] = (overhead_ms, "ms")
    return out


def commit_id(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = root / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in (src / "nbiotsim").rglob("*")
                       if p.is_file() and "__pycache__" not in p.parts):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure(args, work_dir: Path) -> dict:
    import workloads
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT, work_dir)

    probe_file = work_dir / "probe.txt"
    probe_file.write_text(PROBE_SCENARIO, encoding="utf-8")
    cold_probe(probe_file)      # warm-up: byte-compiles the package, fills the file cache
    probes = []

    for op in workload.inputs("warm", 0):
        workload.run_op(op)

    latencies = array.array("d")
    round_busy = []
    attempted, rows_total = 0, 0
    peak_rss_mb = None
    faults: collections.Counter = collections.Counter()
    began = time.perf_counter()
    deadline = began + args.seconds
    r = 0
    while True:
        # Set-up probes are spread over the run, between rounds, so that
        # their median does not rest on one moment of a shared machine.
        due = SETUP_PROBES * (time.perf_counter() - began) / args.seconds + 1
        if len(probes) < min(SETUP_PROBES, due):
            probes.append(cold_probe(probe_file))
        busy, rows = 0.0, 0
        for op in workload.inputs("run", r):
            start = time.perf_counter()
            try:
                out = workload.run_op(op)
            except Exception as exc:   # a failing operation is counted, not fatal
                out = exc
            elapsed = time.perf_counter() - start
            latencies.append(elapsed * 1000.0)
            busy += elapsed
            attempted += 1
            if isinstance(out, Exception):
                op_rows, fault = 0, f"exception {type(out).__name__}: {out}"
            else:
                op_rows, fault = workload.judge(op, out)
            if fault:
                faults[fault] += 1
            rows += op_rows
        round_busy.append(busy)
        rows_total += rows
        r += 1
        # Read after a fixed number of operations, so that the harness's own
        # memory, which grows with the operations a run completes, is the
        # same however fast the program is.
        if peak_rss_mb is None and attempted >= RSS_OPS:
            peak_rss_mb = workload.peak_rss_mb()
        if time.perf_counter() >= deadline and len(probes) >= SETUP_PROBES:
            break
    if peak_rss_mb is None:
        peak_rss_mb = workload.peak_rss_mb()

    op_p50_ms = statistics.median(latencies)
    tail_pct = workload.tail_pct if len(latencies) >= MIN_TAIL_OPS else 50.0
    op_tail_ms = percentile(latencies, tail_pct) if tail_pct != 50.0 else op_p50_ms
    end_to_end = {
        "setup_s": (statistics.median(wall for wall, _, _ in probes), "s"),
        "rows_per_s": (rows_total / math.fsum(round_busy), "rows/s"),
        "op_p50_ms": (op_p50_ms, "ms"),
        "op_tail_ms": (op_tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    import_ms = statistics.median(ms for _, ms, _ in probes)

    per_layer = None
    if args.trace:
        trace_dir = work_dir / "trace"
        trace_dir.mkdir()
        cold_probe(probe_file, trace_dir / "probe.json")
        busy, rows, dumps = workload.trace(trace_dir)
        overhead_ms = (busy - statistics.median(round_busy) * workload.trace_rounds) * 1000.0
        per_layer = layer_metrics(tracer.read(trace_dir / "probe.json"), dumps, rows,
                                  overhead_ms, import_ms)
        per_layer["trace.rows"] = (rows, "count")

    workload.finish()
    workloads.check_probe_outputs(workload.checker, PROBE_SCENARIO,
                                  [text for _, _, text in probes])
    return {
        "workload": workload, "rounds": r, "attempted": attempted,
        "failed": sum(faults.values()), "faults": faults, "rows": rows_total,
        "ops": len(latencies), "tail_pct": tail_pct, "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def report(args, result: dict) -> dict:
    workload = result["workload"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"rounds {result['rounds']}  rows {result['rows']}")
    print(f"operations attempted {result['attempted']}  failed {result['failed']}")
    for fault, count in sorted(result["faults"].items()):
        print(f"  failed {count}: {fault}")
    print(f"op_tail_ms is p{result['tail_pct']:g} of {result['ops']} operations")
    for name, (value, unit) in result["end_to_end"].items():
        print(f"  {name:<40} {value:>14.6f} {unit}")
    if result["per_layer"]:
        for name, (value, unit) in result["per_layer"].items():
            print(f"  {name:<40} {value:>14.6f} {unit}")
    for name, (runs, failures, problem) in workload.checker.results.items():
        status = "ok" if failures == 0 else f"FAILED {failures}: {problem}"
        print(f"check {name}: {runs} run, {status}")
    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "commit": commit_id(ROOT), "src_sha256": source_digest(SRC),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "attempted": result["attempted"], "failed": result["failed"]}
    print("meta " + json.dumps(meta, sort_keys=True))
    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    return {"correct": workload.checker.ok, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["lifetime_sweep", "scenario_mix", "cli_runs"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "nbiotsim" / "__init__.py").is_file():
        print(f"error: no nbiotsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_dir = OUT_DIR / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        result = measure(args, work_dir)
        line = report(args, result)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            OUT_DIR.rmdir()
        except OSError:
            pass
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
