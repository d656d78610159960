"""Correctness checks on nbiotsim outputs.

Each check compares program output with a computation of the benchmark's own
or with a property of the method, never with a stored copy of earlier output.
A check returns None when the output passes and a message when it does not.
`Checker.run` also feeds every check a perturbed copy of the real output and
counts the check as broken unless it rejects that copy.
"""

from __future__ import annotations

import math

HOURS_PER_YEAR = 8760.0

LIFETIME_COLUMNS = ("procedure", "case", "coverage", "iat_s", "lifetime_years",
                    "share_ra_sync", "share_messages", "share_drx", "share_psm",
                    "error")
CAPACITY_COLUMNS = ("procedure", "case", "coverage", "reports_per_hour",
                    "bottleneck", "gain_vs_sr_pct")
TEXT_COLUMNS = frozenset({"procedure", "case", "coverage", "bottleneck", "error"})

# Headline capacity gains of the paper (CP and UP against SR, uplink reports,
# Normal coverage), each with a +-25% band.
GAIN_BANDS = {"CP": (162.0 * 0.75, 162.0 * 1.25), "UP": (120.0 * 0.75, 120.0 * 1.25)}


def deep_sleep_floor_years(battery_wh: float, deep_sleep_mw: float) -> float:
    """Lifetime of a UE that only deep-sleeps: 5 Wh / 15 uW is 38.05 years."""
    return battery_wh / (deep_sleep_mw / 1000.0) / HOURS_PER_YEAR


def cycle_energy_from_lifetime(iat_s: float, years: float, battery_wh: float) -> float:
    """Energy of one cycle in mJ implied by a lifetime at a given IAT."""
    return 1000.0 * iat_s * battery_wh / (years * HOURS_PER_YEAR)


def shares_sum_to_one(shares, tol=1e-9):
    total = math.fsum(shares)
    if abs(total - 1.0) > tol:
        return f"energy shares sum to {total!r}"
    return None


def affine_in_iat(iats, energies, tol=1e-9):
    """Second differences over an evenly spaced IAT sweep vanish."""
    steps = {round(b - a, 6) for a, b in zip(iats, iats[1:])}
    if len(iats) < 3 or len(steps) != 1:
        return f"IAT sweep {iats!r} is not evenly spaced"
    scale = max(abs(e) for e in energies)
    for i in range(1, len(energies) - 1):
        second = energies[i - 1] - 2.0 * energies[i] + energies[i + 1]
        if abs(second) > tol * scale:
            return f"cycle energy not affine in IAT at {iats[i]}: second difference {second!r}"
    return None


def lifetime_rises_below_floor(iats, years, floor):
    for (ia, ya), (ib, yb) in zip(zip(iats, years), zip(iats[1:], years[1:])):
        if not yb > ya:
            return f"lifetime {yb!r} at IAT {ib} does not exceed {ya!r} at IAT {ia}"
    if not max(years) < floor:
        return f"lifetime {max(years)!r} reaches the deep-sleep floor {floor!r}"
    return None


def timeline_energy_matches(intervals, total_mj, tol=1e-12):
    """Own sum of power x duration over the timeline equals the cycle energy."""
    own = math.fsum(iv.power_mw * iv.duration_us * 1e-6 for iv in intervals)
    if not math.isclose(own, total_mj, rel_tol=tol):
        return f"timeline integrates to {own!r} mJ, cycle_energy gives {total_mj!r}"
    return None


def budgets_double(reports_per_hour, doubled, tol=1e-12):
    if not math.isclose(doubled, 2.0 * reports_per_hour, rel_tol=tol):
        return f"doubled budgets give {doubled!r} reports/h, expected 2 x {reports_per_hour!r}"
    return None


def gains_in_band(gains):
    """gains: procedure -> gain in % for UL reports at Normal coverage."""
    for proc, (lo, hi) in GAIN_BANDS.items():
        if not lo <= gains[proc] <= hi:
            return f"{proc}/UL/Normal gain {gains[proc]!r}% outside [{lo}, {hi}]"
    return None


def parse_table(text, columns, fmt="csv"):
    """Rows of a CLI table as tuples of str and float; raises ValueError.

    Text cells are kept as written: plot-data writes an empty cell as "-".
    """
    lines = text.splitlines()
    if fmt == "csv":
        header, split = ",".join(columns), (lambda line: line.split(","))
    else:
        header, split = "# " + " ".join(columns), str.split
    if not lines or lines[0] != header:
        raise ValueError(f"header {lines[:1]!r} is not {header!r}")
    rows = []
    for line in lines[1:]:
        cells = split(line)
        if len(cells) != len(columns):
            raise ValueError(f"row {line!r} has {len(cells)} cells, expected {len(columns)}")
        row = []
        for col, cell in zip(columns, cells):
            if col in TEXT_COLUMNS:
                row.append(cell)
            else:
                whole, _, frac = cell.partition(".")
                if len(frac) != 6 or not frac.isdigit():
                    raise ValueError(f"{col} cell {cell!r} is not a 6-decimal number")
                row.append(float(cell))
        rows.append(tuple(row))
    return rows


def table_matches(text, columns, expected, fmt="csv"):
    """CLI text parses to the schema and matches `expected` rows at 6 decimals."""
    try:
        rows = parse_table(text, columns, fmt)
    except ValueError as exc:
        return str(exc)
    if len(rows) != len(expected):
        return f"{len(rows)} rows, expected {len(expected)}"
    for got, want in zip(rows, expected):
        for col, g, w in zip(columns, got, want):
            if isinstance(w, str):
                if g != (w or ("-" if fmt == "plot-data" else "")):
                    return f"{col} is {g!r}, expected {w!r} in row {got!r}"
            elif not abs(g - w) <= 5e-7 + 1e-12 * abs(w):
                return f"{col} is {g!r}, expected {w!r} at 6 decimals in row {got!r}"
    return None


def identical(outputs):
    first = outputs[0]
    for i, out in enumerate(outputs[1:], start=1):
        if out != first:
            return f"invocation {i + 1} differs from invocation 1"
    return None


def bump_digit(text):
    """Change the last digit of the first data row of a table."""
    lines = text.split("\n")
    line = lines[1]
    for i in range(len(line) - 1, -1, -1):
        if line[i].isdigit():
            lines[1] = line[:i] + str((int(line[i]) + 1) % 10) + line[i + 1:]
            return "\n".join(lines)
    raise ValueError("no digit to change")


class Checker:
    """Tallies check outcomes by name.

    `run` checks real output and a perturbed copy of it; the check counts as
    broken unless it rejects the copy.  `note` records one check of one
    operation's output, for checks run on every operation.
    """

    def __init__(self):
        self.results: dict[str, list] = {}   # name -> [runs, failures, first problem]

    def note(self, name, problem):
        entry = self.results.setdefault(name, [0, 0, ""])
        entry[0] += 1
        if problem is not None:
            entry[1] += 1
            entry[2] = entry[2] or problem

    def run(self, name, check, args, bad_args):
        self.note(name, check(*args))
        if check(*bad_args) is None:
            self.note(name, "perturbed output was accepted")

    @property
    def ok(self) -> bool:
        return bool(self.results) and all(f == 0 for _, f, _ in self.results.values())
