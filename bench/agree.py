"""Repeat agreement: two sets of benchmark runs of the same code, compared.

    python3 bench/agree.py [--workloads a,b] [--runs 10] [--sets 2] [--seconds S]

With ``--runs 1 --sets 1`` it is the one command that runs every workload
once and prints each run's metrics, operations attempted and failed.

Runs bench/run.py one run at a time, each with its own seed (seeds start at
1; set k uses the seeds after those of set k-1), and checks every result
line against BENCHMARK.json.  For each workload and end-to-end metric it prints each set's
median and quartiles and applies the comparison rule of a performance change
to the two sets:

- spread: (Q3 - Q1) / median of a set.  A metric whose spread exceeds its
  bound in either set is reported as unresolved.
- a set's median that is worse than the first set's by more than the bound
  is reported as a regression; two sets of the same code should show none.

It also requires that every run is correct and that the share of failed
operations is the same in every run of a workload.  Exit status 1 if any
metric is unresolved or regressed, or any run breaks these rules.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(cmd: list[str], workload: str, seed: int, seconds: int) -> dict:
    argv = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                  "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: "
                           f"{proc.stderr.decode('utf-8', 'replace')[-1000:]}")
    return json.loads(proc.stdout.decode("utf-8").splitlines()[-1])


def problems_of(result: dict, expected: dict[str, dict]) -> list[str]:
    out = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True:
        out.append("correct is not true")
    if set(result["metrics"]) != set(expected):
        out.append(f"metric names differ: {sorted(set(result['metrics']) ^ set(expected))}")
    for name, spec in expected.items():
        got = result["metrics"].get(name)
        if got and got["unit"] != spec["unit"]:
            out.append(f"{name} unit {got['unit']!r}, expected {spec['unit']!r}")
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def compare(workload: str, sets: list[list[dict]], metrics: list[dict]) -> list[str]:
    """Print the comparison table of one workload; return its findings."""
    findings = []
    print(f"\n{workload}")
    for metric in metrics:
        name, bound, higher = metric["name"], metric["bound"], metric["better"] == "higher"
        cells, medians = [], []
        for k, results in enumerate(sets, start=1):
            q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in results])
            spread = (q3 - q1) / med
            medians.append(med)
            cells.append(f"set{k} {med:.6g} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}")
            if spread > bound:
                findings.append(f"{workload} {name}: unresolved, set {k} spread {spread:.3f} "
                                f"> bound {bound}")
        for k, med in enumerate(medians[1:], start=2):
            worse = (medians[0] - med) / medians[0] if higher else (med - medians[0]) / medians[0]
            if worse > bound:
                findings.append(f"{workload} {name}: set {k} median worse than set 1 by "
                                f"{worse:.3f} > bound {bound}")
        print(f"  {name:<14} bound {bound:<5} " + " | ".join(cells))
    shares = {(r["failed"], r["attempted"]) for results in sets for r in results}
    ratios = {f / a for f, a in shares}
    print(f"  failed share {sorted(ratios)} over {len(shares)} distinct (failed, attempted)")
    if len(ratios) != 1:
        findings.append(f"{workload}: failed share differs between runs: {sorted(ratios)}")
    return findings


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    findings = []
    for workload in args.workloads.split(","):
        sets, seed = [], 1
        for _ in range(args.sets):
            results = []
            for _ in range(args.runs):
                result = run_once(spec["command"], workload, seed, args.seconds)
                print(f"{workload} seed {seed}: correct {result['correct']} "
                      f"attempted {result['attempted']} failed {result['failed']} | "
                      + "  ".join(f"{name} {m['value']:.6g} {m['unit']}"
                                  for name, m in result["metrics"].items()), flush=True)
                findings += [f"{workload} seed {seed}: {p}"
                             for p in problems_of(result, end_to_end)]
                results.append(result)
                seed += 1
            sets.append(results)
        findings += compare(workload, sets, spec["end_to_end"])
    print()
    for finding in findings:
        print("FINDING " + finding)
    print("agree" if not findings else f"{len(findings)} finding(s)")
    return 0 if not findings else 1


if __name__ == "__main__":
    sys.exit(main())
