"""Batch command-line front end.

Two subcommands mirror the two evaluation products: `lifetime` sweeps battery
lifetime with per-category energy shares, `capacity` prints the capacity-gain
grid of both optimized procedures against the legacy baseline.  Output is
deterministic: fixed column order, fixed 6-decimal precision, no timestamps.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from dataclasses import dataclass, replace

from . import capacity as cap
from . import energy, flows, phy
from .config import (ConfigurationError, CoverageProfile, Procedure, Scenario, TrafficCase,
                     parse_scenario_file, scenario_value, COVERAGE_NAMES)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2

DEFAULT_IAT_HOURS = tuple(range(1, 25))

# Scenario keys that are both flags and sweep axes: key -> Scenario field.
# config.scenario_value parses their values.
_SWEEP_AXES = {"iat": "iat_s", "coverage": "coverage",
               "procedure": "procedure", "case": "traffic_case"}

# the coverage axis of the default lifetime table and of the capacity grid
_COVERAGES = tuple(CoverageProfile)

# output format: (file extension, header prefix, cell separator, empty cell)
FORMATS = {"csv": ("csv", "", ",", ""), "plot-data": ("dat", "# ", " ", "-")}


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis over a fixed base scenario.

    Values may be given as text or already parsed; every axis and value is
    checked and parsed here, once, so a bad sweep fails before any point is
    evaluated and `values` holds the parsed values.
    """

    axis: str                    # iat | coverage | procedure | case
    values: tuple
    fixed: Scenario

    def __post_init__(self):
        if self.axis not in _SWEEP_AXES:
            raise ConfigurationError(f"unknown sweep axis {self.axis!r}; expected "
                                     f"one of {', '.join(_SWEEP_AXES)}")
        if not self.values:
            raise ConfigurationError("sweep needs at least one value")
        try:
            parsed = [scenario_value(self.axis, value) for value in self.values]
        except ConfigurationError as exc:
            raise ConfigurationError(f"{self.axis} sweep values: {exc}") from None
        if self.axis == "iat" and any(b <= a for a, b in zip(parsed, parsed[1:])):
            raise ConfigurationError("iat sweep values must be strictly increasing")
        object.__setattr__(self, "values", tuple(parsed))


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    rows: list[tuple]


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


LIFETIME_COLUMNS = ("procedure", "case", "coverage", "iat_s", "lifetime_years",
                    "share_ra_sync", "share_messages", "share_drx", "share_psm",
                    "error")


def _lifetime_rows(base: Scenario, groups) -> Table:
    """The deep-sleep-only baseline row of base, then the rows of each point group.

    A group pairs the sweep-axis fields other than iat_s that it sets on base
    with the IATs it runs over.  It is one cycle profile, and one `replace` of
    base, which validates the group's scenario, only if it sets a field; a
    refused scenario or profile fills the rows of base's procedure, case and
    coverage overlaid with the fields.  `CycleProfile.lifetime_rows` prices
    all of a group's IATs in one loop over the profile's constants, each
    rounded once to whole us, which `scenario_value` parsed and the loop
    checks against the cycle's bounds, so no row is validated again.
    """
    rows = [("PSM_BASELINE", "-", "-", 0.0,
             energy.psm_baseline_lifetime_years(base), 0.0, 0.0, 0.0, 1.0, "")]
    for fields, iats in groups:
        ident = (fields.get("procedure", base.procedure).value,
                 fields.get("traffic_case", base.traffic_case).value,
                 fields.get("coverage", base.coverage).name)
        try:
            s = replace(base, **fields) if fields else base
            profile = energy.cycle_profile(s)
        except ConfigurationError as exc:
            rows.extend(ident + (iat_s, 0.0, 0.0, 0.0, 0.0, 0.0, str(exc)) for iat_s in iats)
            continue
        rows += profile.lifetime_rows(iats, s.battery_wh, ident)
    return Table(LIFETIME_COLUMNS, rows)


def _grid(flags: dict, **axes) -> list[dict]:
    """Fields of each point, last axis fastest, with flags; a flag fixes its axis."""
    choices = [(flags[f],) if f in flags else values for f, values in axes.items()]
    return [{**flags, **dict(zip(axes, point))} for point in itertools.product(*choices)]


def run_lifetime_sweep(spec: SweepSpec, flags=None) -> Table:
    """One row per sweep point plus the deep-sleep-only baseline row; each point sets
    flags, fields of the other axes, on spec.fixed, at the flags' IAT or spec.fixed's
    unless the IAT is swept: an IAT sweep is one point group, any other one per value."""
    flags, field = dict(flags or {}), _SWEEP_AXES[spec.axis]
    if field in flags:
        raise ConfigurationError(f"--{spec.axis} and --sweep {spec.axis}=... both set "
                                 f"the {spec.axis} axis")
    iat_s = flags.pop("iat_s", spec.fixed.iat_s)
    axes, iats = ({}, spec.values) if field == "iat_s" else ({field: spec.values}, (iat_s,))
    return _lifetime_rows(spec.fixed, [(fields, iats) for fields in _grid(flags, **axes)])


CAPACITY_COLUMNS = ("procedure", "case", "coverage", "reports_per_hour",
                    "bottleneck", "gain_vs_sr_pct")


def run_capacity_report(s: Scenario, flags=None) -> Table:
    """CP and UP gain over SR per case and coverage, each point setting flags on s."""
    rows = []
    for fields in _grid(flags or {}, procedure=(Procedure.CP, Procedure.UP),
                        traffic_case=tuple(TrafficCase), coverage=_COVERAGES):
        point = replace(s, **fields)
        report = cap.cell_capacity(point)
        sr_report = cap.cell_capacity(replace(point, procedure=Procedure.SR))
        rows.append((point.procedure.value, point.traffic_case.value, point.coverage.name,
                     report.reports_per_hour, report.bottleneck.value,
                     cap.capacity_gain_pct(report, sr_report)))
    return Table(CAPACITY_COLUMNS, rows)


def _format(fmt: str) -> tuple[str, str, str, str]:
    try:
        return FORMATS[fmt]
    except KeyError:
        raise ConfigurationError(f"unknown output format {fmt!r}; "
                                 f"expected one of {', '.join(FORMATS)}") from None


def emit(table: Table, fmt: str, stream) -> None:
    """Write a table as csv or plot-data (gnuplot-style columns)."""
    _, prefix, sep, empty = _format(fmt)
    stream.write(prefix + sep.join(table.columns) + "\n")
    for row in table.rows:
        cells = (_fmt(v) if v != "" else empty for v in row)
        # a cell that holds the separator, such as an error text, is quoted
        stream.write(sep.join(f'"{c}"' if sep in c else c for c in cells) + "\n")


def _file_and_flags(args) -> tuple[Scenario, dict]:
    """The scenario file's scenario (the defaults without one) and the
    fields that the procedure, case, coverage and iat flags set on it."""
    base = parse_scenario_file(args.scenario) if args.scenario else Scenario()
    return base, {field: scenario_value(key, getattr(args, key))
                  for key, field in _SWEEP_AXES.items() if getattr(args, key) is not None}


def _parse_sweep(text: str) -> tuple[str, tuple]:
    axis, _, values = text.partition("=")
    if not values:
        raise ConfigurationError("expected --sweep axis=v1,v2,...")
    return axis, tuple(v for v in values.split(",") if v)


def _lifetime_table(args) -> Table:
    base, flags = _file_and_flags(args)
    if args.sweep:
        # each point sets the flags, so a point the flags make invalid is an error row
        return run_lifetime_sweep(SweepSpec(*_parse_sweep(args.sweep), fixed=base), flags)
    # the full lifetime picture, every procedure and coverage over a day; a
    # pinned inter-arrival time means a single evaluation point
    axes = {"procedure": tuple(Procedure), "coverage": _COVERAGES}
    iats = tuple(h * 3600.0 for h in DEFAULT_IAT_HOURS)
    if "iat_s" in flags:
        axes, iats = {}, (flags.pop("iat_s"),)
    return _lifetime_rows(base, [(fields, iats) for fields in _grid(flags, **axes)])


def _glue_dash_values(argv: list[str]) -> list[str]:
    """Write `--flag -value` as `--flag=-value`, so that scenario_value, not
    argparse, judges a value such as -inf or -1e3 (argparse takes it for a
    flag).  Every long option but --help takes a value."""
    out: list[str] = []
    for arg in argv:
        if (out and out[-1][:2] == "--" and out[-1] != "--help" and "=" not in out[-1]
                and arg[:1] == "-" and arg[:2] != "--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nbiotsim",
        description="Analytical NB-IoT small-data procedure evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", help="scenario file (key=value format)")
        p.add_argument("--procedure", help="|".join(x.value for x in Procedure))
        p.add_argument("--case", help="|".join(x.value for x in TrafficCase))
        p.add_argument("--coverage", help="|".join(COVERAGE_NAMES))
        p.add_argument("--iat", help="inter-arrival time in seconds")
        p.add_argument("--out", help="output directory (default: stdout)")
        p.add_argument("--format", default="csv", help="|".join(FORMATS))

    p_life = sub.add_parser("lifetime", help="battery lifetime and energy shares")
    add_common(p_life)
    p_life.add_argument("--sweep", help="axis=v1,v2,... (iat values in seconds)")

    p_cap = sub.add_parser("capacity", help="capacity gain grid vs SR")
    add_common(p_cap)

    args = parser.parse_args(_glue_dash_values(sys.argv[1:] if argv is None else argv))

    try:
        ext = _format(args.format)[0]
        # a broken packaged data file fails the command, not each lifetime row
        flows._catalog()
        for ch in phy.SHARED_CHANNELS:
            phy._tbs_table(ch)
        if args.command == "lifetime":
            table = _lifetime_table(args)
        else:
            table = run_capacity_report(*_file_and_flags(args))
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    # a lifetime row reports an invalid point in its error column
    failed = "error" in table.columns and any(
        row[table.columns.index("error")] for row in table.rows)
    try:
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"{args.command}.{ext}")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                emit(table, args.format, fh)
        else:
            emit(table, args.format, sys.stdout)
    except BrokenPipeError:
        # the reader closed the pipe early (`| head`); the exit flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_VALIDATION if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
