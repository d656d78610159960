"""The three benchmark workloads.

A workload draws the inputs of round r from the seed alone (``inputs``), so
the same seed gives the same inputs however long a run lasts.  Every round
holds the same kinds of operation in the same order, so a fault that fails
one kind of operation fails the same share of every run.  ``run_op`` is the
timed call into the program; ``judge`` inspects its output outside the timed
region; ``finish`` runs the end-of-run checks, each also on a perturbed copy
of the output it checks.
"""

from __future__ import annotations

import collections
import hashlib
import math
import os
import random
import resource
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from nbiotsim import capacity, cli, config, energy, flows
from nbiotsim.config import (COVERAGE_NAMES, Procedure, Reachability, Scenario,
                             TrafficCase, builtin_coverage_profile)

import checks
import tracer

BENCH_DIR = Path(__file__).resolve().parent

PAGING_FAULT = "DRX_PAGING lifetime above PSM_TAU (ROADMAP item 4)"
TRACEBACK_FAULT = "traceback on --sweep iat=abc (ROADMAP item 4)"

COMBOS = [(p, c, cov) for p in Procedure for c in TrafficCase for cov in COVERAGE_NAMES]
CHANNELS = ("NPRACH", "NPUSCH", "NPDCCH", "NPDSCH")
CAPACITY_IAT_S = 3600.0          # the capacity grid is evaluated at one report per hour
PROBE_IAT_S = 3600.0             # the --iat of the set-up probe's lifetime point
DEFAULT_IAT_HOURS = range(1, 25)  # the default lifetime sweep
BUDGETS = {"budget_npdcch": 500.0, "budget_npdsch": 450.0,
           "budget_npusch": 9000.0, "budget_nprach": 200.0}


def child_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


def breakdown_shares(b) -> tuple[float, float, float, float]:
    total = b.ra_sync_mj + b.post_ra_messages_mj + b.connected_drx_mj + b.idle_drx_mj + b.psm_mj
    return (b.ra_sync_mj / total, b.post_ra_messages_mj / total,
            (b.connected_drx_mj + b.idle_drx_mj) / total, b.psm_mj / total)


def lifetime_reference(base: Scenario, points) -> list[tuple]:
    """Lifetime table rows computed from energy.cycle_energy and lifetime."""
    rows = [("PSM_BASELINE", "-", "-", 0.0,
             checks.deep_sleep_floor_years(base.battery_wh, base.power.deep_sleep_mw),
             0.0, 0.0, 0.0, 1.0, "")]
    for s in points:
        rows.append((s.procedure.value, s.traffic_case.value, s.coverage.name, s.iat_s,
                     energy.battery_lifetime_years(s), *breakdown_shares(energy.cycle_energy(s)),
                     ""))
    return rows


def capacity_reference(base: Scenario) -> list[tuple]:
    """Capacity grid rows with the gain against SR computed here."""
    rows = []
    for proc in (Procedure.CP, Procedure.UP):
        for case in TrafficCase:
            for cov in COVERAGE_NAMES:
                point = replace(base, procedure=proc, traffic_case=case,
                                coverage=builtin_coverage_profile(cov), iat_s=CAPACITY_IAT_S)
                opt = capacity.cell_capacity(point)
                sr = capacity.cell_capacity(replace(point, procedure=Procedure.SR))
                gain = (opt.reports_per_hour / sr.reports_per_hour - 1.0) * 100.0
                rows.append((proc.value, case.value, cov, opt.reports_per_hour,
                             opt.bottleneck.value, gain))
    return rows


def check_lifetime_rows(checker: checks.Checker, rows, battery_wh=5.0, deep_sleep_mw=0.015):
    """Shares, monotonicity, floor and affinity of lifetime rows, per sweep.

    rows: (procedure, case, coverage, iat_s, years, 4 shares, error) without
    the baseline row; consecutive rows of one scenario form one sweep.
    """
    floor = checks.deep_sleep_floor_years(battery_wh, deep_sleep_mw)
    sweeps = collections.defaultdict(list)
    for row in rows:
        sweeps[row[:3]].append(row)
        checker.note("energy shares sum to 1", checks.shares_sum_to_one(row[5:9]))
    for sweep in sweeps.values():
        iats = [r[3] for r in sweep]
        years = [r[4] for r in sweep]
        energies = [checks.cycle_energy_from_lifetime(i, y, battery_wh)
                    for i, y in zip(iats, years)]
        checker.note("lifetime rises with IAT, below deep-sleep floor",
                     checks.lifetime_rises_below_floor(iats, years, floor))
        checker.note("cycle energy affine in IAT", checks.affine_in_iat(iats, energies))


def perturb_lifetime_rows(checker: checks.Checker, sweep, battery_wh=5.0, deep_sleep_mw=0.015):
    """The lifetime-row checks must reject perturbed copies of one sweep."""
    floor = checks.deep_sleep_floor_years(battery_wh, deep_sleep_mw)
    iats = [r[3] for r in sweep]
    years = [r[4] for r in sweep]
    energies = [checks.cycle_energy_from_lifetime(i, y, battery_wh) for i, y in zip(iats, years)]
    mid = len(sweep) // 2
    bumped = years[:mid] + [years[mid] * 1.001] + years[mid + 1:]
    bad_energies = [checks.cycle_energy_from_lifetime(i, y, battery_wh)
                    for i, y in zip(iats, bumped)]
    shares = sweep[0][5:9]
    checker.run("energy shares sum to 1", checks.shares_sum_to_one,
                (shares,), (shares[:3] + (shares[3] + 1e-6,),))
    checker.run("cycle energy affine in IAT", checks.affine_in_iat,
                (iats, energies), (iats, bad_energies))
    checker.run("lifetime rises with IAT, below deep-sleep floor",
                checks.lifetime_rises_below_floor,
                (iats, years, floor), (iats, years[:-1] + [floor * 1.0001], floor))
    checker.run("lifetime rises with IAT, below deep-sleep floor",
                checks.lifetime_rises_below_floor,
                (iats, years, floor), (iats, [years[1]] + years[1:], floor))


def check_dl_timeline(checker: checks.Checker, s: Scenario, total_mj: float):
    """Own integral of the downlink flow's timeline against the cycle energy."""
    intervals = flows.flow_timeline(flows.build_flow(s), s)
    checker.run("DL timeline integral equals cycle energy", checks.timeline_energy_matches,
                (intervals, total_mj), (intervals, total_mj * 1.001))


def swap_bottleneck(text: str) -> str:
    """A capacity CSV whose first data row names another bottleneck."""
    lines = text.split("\n")
    cells = lines[1].split(",")
    cells[4] = next(ch for ch in CHANNELS if ch != cells[4])
    return "\n".join([lines[0], ",".join(cells)] + lines[2:])


def check_probe_outputs(checker: checks.Checker, scenario_text: str, outputs: list[str]):
    """CLI tables the set-up probes wrote, against in-process results.

    Each probe runs ``lifetime --scenario F --iat 3600`` and then
    ``capacity --scenario F`` through ``cli.main``, F holding scenario_text.
    """
    base = config.parse_scenario(scenario_text)
    header = ",".join(checks.CAPACITY_COLUMNS) + "\n"
    lifetime, _, cap = outputs[0].partition(header)
    cap = header + cap
    expected = lifetime_reference(base, [replace(base, iat_s=PROBE_IAT_S)])
    checker.run("CLI lifetime CSV matches in-process results", checks.table_matches,
                (lifetime, checks.LIFETIME_COLUMNS, expected),
                (checks.bump_digit(lifetime), checks.LIFETIME_COLUMNS, expected))
    expected = capacity_reference(base)
    checker.run("CLI capacity CSV matches in-process results", checks.table_matches,
                (cap, checks.CAPACITY_COLUMNS, expected),
                (swap_bottleneck(cap), checks.CAPACITY_COLUMNS, expected))
    digests = [hashlib.sha256(out.encode("utf-8")).digest() for out in outputs]
    checker.run("CLI output byte-identical across invocations", checks.identical,
                (digests,), (digests + [hashlib.sha256(b"x").digest()],))


def check_gains(checker: checks.Checker, gains: dict):
    checker.run("CP/UP UL Normal gains in the paper's bands", checks.gains_in_band,
                (gains,), ({"CP": gains["UP"], "UP": gains["CP"]},))


class Workload:
    name = ""
    tail_pct = 50.0      # percentile reported as op_tail_ms
    trace_rounds = 1     # rounds the traced run covers

    def __init__(self, seed: int, root: Path, work_dir: Path):
        self.seed = seed
        self.root = root
        self.work_dir = work_dir
        self.checker = checks.Checker()

    def rng(self, label: str, r: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{label}/{r}")

    def inputs(self, label: str, r: int) -> list:
        raise NotImplementedError

    def run_op(self, op):
        raise NotImplementedError

    def judge(self, op, out) -> tuple[int, str | None]:
        """Output rows of a finished operation and the fault it shows, if any."""
        raise NotImplementedError

    def rows_of(self, op, out) -> int:
        """Output rows an operation produced, for the traced round."""
        raise NotImplementedError

    def finish(self) -> None:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def trace(self, trace_dir: Path) -> tuple[float, int, list[dict]]:
        """Traced rounds: busy seconds, output rows and the span dumps."""
        ops = [op for r in range(self.trace_rounds) for op in self.inputs("trace", r)]
        spans = tracer.Tracer().install()
        busy, outs = 0.0, []
        try:
            for op in ops:
                start = time.perf_counter()
                outs.append(self.run_op(op))
                busy += time.perf_counter() - start
        finally:
            spans.uninstall()
        return busy, sum(map(self.rows_of, ops, outs)), [spans.dump()]


class LifetimeSweep(Workload):
    """cli.run_lifetime_sweep over all 36 procedure x case x coverage points.

    Each round sweeps every point over one evenly spaced 24-point IAT grid of
    1 h and up; the grid changes from round to round, the points do not.
    """

    name = "lifetime_sweep"
    tail_pct = 98.0
    POINTS = 24

    def __init__(self, seed, root, work_dir):
        super().__init__(seed, root, work_dir)
        self.order = list(COMBOS)
        random.Random(f"{self.name}/{seed}").shuffle(self.order)
        self.first: list = []

    def inputs(self, label, r):
        rng = self.rng(label, r)
        start, step = rng.randrange(3600, 7200), rng.randrange(1800, 5400)
        iats = tuple(float(start + k * step) for k in range(self.POINTS))
        return [cli.SweepSpec("iat", iats, Scenario(procedure=p, traffic_case=c,
                                                    coverage=builtin_coverage_profile(cov)))
                for p, c, cov in self.order]

    def run_op(self, spec):
        return cli.run_lifetime_sweep(spec)

    def rows_of(self, spec, table):
        return len(table.rows) - 1

    def judge(self, spec, table):
        rows = table.rows[1:]
        errors = [r[-1] for r in rows if r[-1]]
        if errors:
            return 0, f"row error: {errors[0]}"
        check_lifetime_rows(self.checker, rows)
        if len(self.first) < len(self.order):
            self.first.append((spec, rows))
        return len(rows), None

    def finish(self):
        perturb_lifetime_rows(self.checker, self.first[0][1])
        for spec, rows in self.first:
            if spec.fixed.traffic_case.mobile_terminated:
                iat, years = rows[0][3], rows[0][4]
                total_mj = checks.cycle_energy_from_lifetime(iat, years, spec.fixed.battery_wh)
                check_dl_timeline(self.checker, replace(spec.fixed, iat_s=iat), total_mj)


class ScenarioMix(Workload):
    """A stream of distinct scenarios given as key=value text.

    One operation parses a scenario and evaluates its cycle energy, lifetime
    and cell capacity.  Every fifth operation of a round is a DRX_PAGING
    scenario from a stream that does not depend on the seed; its lifetime is
    judged against the same scenario under PSM_TAU, outside the timed region.
    """

    name = "scenario_mix"
    tail_pct = 99.0
    ROUND = 20
    PAGING_EVERY = 5
    trace_rounds = 10
    SAMPLE = 40

    def __init__(self, seed, root, work_dir):
        super().__init__(seed, root, work_dir)
        self.floor = checks.deep_sleep_floor_years(5.0, 0.015)
        self.sample: list = []

    @staticmethod
    def scenario_text(rng: random.Random, reachability: Reachability) -> str:
        proc, case, cov = rng.choice(COMBOS)
        return (f"procedure={proc.value} case={case.value} coverage={cov} "
                f"iat={rng.randrange(3600, 7 * 86400)}\n"
                f"payload_bytes={rng.randrange(0, 1025)} "
                f"ack_payload_bytes={rng.randrange(0, 1025)}\n"
                f"cp_inactivity_periods={rng.randrange(0, 11)} "
                f"reachability={reachability.value}\n")

    def inputs(self, label, r):
        rng = self.rng(label, r)
        paging = random.Random(f"{self.name}/paging/{label}/{r}")
        return [self.scenario_text(paging, Reachability.DRX_PAGING)
                if (i + 1) % self.PAGING_EVERY == 0
                else self.scenario_text(rng, Reachability.PSM_TAU)
                for i in range(self.ROUND)]

    def run_op(self, text):
        s = config.parse_scenario(text)
        return (s, energy.cycle_energy(s), energy.battery_lifetime_years(s),
                capacity.cell_capacity(s))

    def rows_of(self, text, out):
        return 1

    def judge(self, text, out):
        s, breakdown, years, report = out
        if s.mt_reachability is Reachability.DRX_PAGING:
            psm = energy.battery_lifetime_years(replace(s, mt_reachability=Reachability.PSM_TAU))
            if years > psm:
                return 0, PAGING_FAULT
        self.checker.note("energy shares sum to 1",
                          checks.shares_sum_to_one(breakdown_shares(breakdown)))
        self.checker.note("lifetime below deep-sleep floor",
                          None if 0.0 < years < self.floor else f"lifetime {years!r} years")
        rph = report.reports_per_hour
        self.checker.note("capacity finite, positive, named bottleneck",
                          None if math.isfinite(rph) and rph > 0.0
                          and report.bottleneck.value in CHANNELS else f"capacity {report!r}")
        if len(self.sample) < self.SAMPLE:
            self.sample.append((text, out))
        return 1, None

    def finish(self):
        first_shares = breakdown_shares(self.sample[0][1][1])
        self.checker.run("energy shares sum to 1", checks.shares_sum_to_one,
                         (first_shares,), (first_shares[:3] + (first_shares[3] + 1e-6,),))
        for text, (s, breakdown, years, report) in self.sample[:8]:
            iats = [s.iat_s + 3600.0 * k for k in range(5)]
            energies = [energy.cycle_energy(replace(s, iat_s=i)).total_mj for i in iats]
            lifetimes = [energy.battery_lifetime_years(replace(s, iat_s=i)) for i in iats]
            self.checker.run("cycle energy affine in IAT", checks.affine_in_iat,
                             (iats, energies),
                             (iats, energies[:2] + [energies[2] * 1.001] + energies[3:]))
            self.checker.run("lifetime rises with IAT, below deep-sleep floor",
                             checks.lifetime_rises_below_floor, (iats, lifetimes, self.floor),
                             (iats, lifetimes[:-1] + [lifetimes[0]], self.floor))
            budgets = " ".join(f"{k}={v!r}" for k, v in BUDGETS.items())
            doubled = " ".join(f"{k}={2.0 * v!r}" for k, v in BUDGETS.items())
            once = capacity.cell_capacity(config.parse_scenario(f"{text} {budgets}"))
            twice = capacity.cell_capacity(config.parse_scenario(f"{text} {doubled}"))
            self.checker.run("doubled cell budgets double reports_per_hour", checks.budgets_double,
                             (once.reports_per_hour, twice.reports_per_hour),
                             (once.reports_per_hour, twice.reports_per_hour * 1.001))
        for text, (s, breakdown, years, report) in self.sample:
            if s.traffic_case.mobile_terminated:
                check_dl_timeline(self.checker, s, breakdown.total_mj)
        normal = builtin_coverage_profile("Normal")
        ul = {p: capacity.cell_capacity(Scenario(procedure=p, coverage=normal,
                                                 iat_s=CAPACITY_IAT_S)).reports_per_hour
              for p in Procedure}
        check_gains(self.checker, {p.value: (ul[p] / ul[Procedure.SR] - 1.0) * 100.0
                                   for p in (Procedure.CP, Procedure.UP)})


class CliRuns(Workload):
    """``python -m nbiotsim.cli`` subprocesses, one at a time.

    A round runs, in order: the default lifetime table, the capacity grid, a
    single-point lifetime sweep as plot-data, the capacity grid of a scenario
    file written to --out, and ``lifetime --sweep iat=abc``.
    """

    name = "cli_runs"
    tail_pct = 90.0
    CLEAN_ERROR_OP = 4

    def __init__(self, seed, root, work_dir):
        super().__init__(seed, root, work_dir)
        rng = random.Random(f"{self.name}/{seed}")
        self.point = (rng.choice(list(Procedure)), rng.choice(COVERAGE_NAMES),
                      float(rng.randrange(3600, 86400)))
        self.scenario_text = (f"payload_bytes={rng.randrange(0, 1025)} "
                              f"ack_payload_bytes={rng.randrange(0, 1025)} "
                              f"cp_inactivity_periods={rng.randrange(0, 11)}\n")
        self.scenario_file = work_dir / "scenario.txt"
        self.scenario_file.write_text(self.scenario_text, encoding="utf-8")
        self.out_dir = work_dir / "out"
        proc, cov, iat = self.point
        self.argvs = [
            ["lifetime"],
            ["capacity"],
            ["lifetime", "--procedure", proc.value, "--coverage", cov,
             "--sweep", f"iat={iat:.0f}", "--format", "plot-data"],
            ["capacity", "--scenario", str(self.scenario_file), "--out", str(self.out_dir)],
            ["lifetime", "--sweep", "iat=abc"],
        ]
        self.first_text: list[str | None] = [None] * len(self.argvs)
        self.digests: list[list[bytes]] = [[] for _ in self.argvs]

    def inputs(self, label, r):
        return list(range(len(self.argvs)))

    def run_op(self, i, prefix=None):
        cmd = prefix or [sys.executable, "-m", "nbiotsim.cli"]
        return subprocess.run(cmd + self.argvs[i], cwd=self.root, env=child_env(self.root),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=120)

    def output_text(self, i, proc) -> str:
        if "--out" in self.argvs[i]:
            return (self.out_dir / "capacity.csv").read_text(encoding="utf-8")
        return proc.stdout.decode("utf-8")

    def rows_of(self, i, proc):
        if proc.returncode != 0:
            return 0
        return max(0, len(self.output_text(i, proc).splitlines()) - 1)

    def judge(self, i, proc):
        stderr = proc.stderr.decode("utf-8", "replace")
        if i == self.CLEAN_ERROR_OP:
            lines = stderr.splitlines()
            if proc.returncode == 1 and len(lines) == 1 and lines[0].startswith("error:"):
                return 0, None
            if "Traceback" in stderr:
                return 0, TRACEBACK_FAULT
            return 0, f"unexpected exit {proc.returncode}: {stderr[-200:]!r}"
        if proc.returncode != 0 or stderr:
            return 0, f"unexpected exit {proc.returncode}: {stderr[-200:]!r}"
        text = self.output_text(i, proc)
        if self.first_text[i] is None:
            self.first_text[i] = text
        self.digests[i].append(hashlib.sha256(text.encode("utf-8")).digest())
        return max(0, len(text.splitlines()) - 1), None

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def trace(self, trace_dir):
        busy, rows, dumps = 0.0, 0, []
        for i in self.inputs("trace", 0):
            path = trace_dir / f"cli-{i}.json"
            start = time.perf_counter()
            proc = self.run_op(i, [sys.executable, str(BENCH_DIR / "child.py"), "cli", str(path)])
            busy += time.perf_counter() - start
            rows += self.rows_of(i, proc)
            dumps.append(tracer.read(path))
        return busy, rows, dumps

    def finish(self):
        lifetime, cap, plot, out = self.first_text[:4]
        base = Scenario()
        points = [replace(base, procedure=p, coverage=builtin_coverage_profile(cov),
                          iat_s=h * 3600.0)
                  for p in Procedure for cov in COVERAGE_NAMES for h in DEFAULT_IAT_HOURS]
        expected = lifetime_reference(base, points)
        self.checker.run("CLI lifetime CSV matches in-process results", checks.table_matches,
                         (lifetime, checks.LIFETIME_COLUMNS, expected),
                         (checks.bump_digit(lifetime), checks.LIFETIME_COLUMNS, expected))
        # The properties are checked on the full-precision values the CLI
        # output was just matched against at 6 decimals.
        check_lifetime_rows(self.checker, expected[1:])
        perturb_lifetime_rows(self.checker, expected[1:1 + len(DEFAULT_IAT_HOURS)])

        expected = capacity_reference(base)
        self.checker.run("CLI capacity CSV matches in-process results", checks.table_matches,
                         (cap, checks.CAPACITY_COLUMNS, expected),
                         (swap_bottleneck(cap), checks.CAPACITY_COLUMNS, expected))
        gains = {r[0]: r[5] for r in checks.parse_table(cap, checks.CAPACITY_COLUMNS)
                 if r[1:3] == ("UL", "Normal")}
        check_gains(self.checker, gains)

        proc, cov, iat = self.point
        expected = lifetime_reference(base, [replace(base, procedure=proc, iat_s=iat,
                                                     coverage=builtin_coverage_profile(cov))])
        self.checker.run("CLI plot-data matches in-process results", checks.table_matches,
                         (plot, checks.LIFETIME_COLUMNS, expected, "plot-data"),
                         (checks.bump_digit(plot), checks.LIFETIME_COLUMNS, expected,
                          "plot-data"))

        expected = capacity_reference(config.parse_scenario(self.scenario_text))
        self.checker.run("CLI --out CSV matches in-process results", checks.table_matches,
                         (out, checks.CAPACITY_COLUMNS, expected),
                         (checks.bump_digit(out), checks.CAPACITY_COLUMNS, expected))

        for argv, digests in zip(self.argvs, self.digests[:4]):
            self.checker.run("CLI output byte-identical across invocations", checks.identical,
                             (digests,), (digests + [hashlib.sha256(b"x").digest()],))
            if len(digests) < 2:
                self.checker.note("CLI output byte-identical across invocations",
                                  f"{' '.join(argv)} ran only once")


WORKLOADS = {w.name: w for w in (LifetimeSweep, ScenarioMix, CliRuns)}
