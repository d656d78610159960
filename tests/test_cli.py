"""Command-line front end: sweeps, grids, emit formats, exit codes."""

import csv
import io
import math
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import nbiotsim
from nbiotsim import PowerProfile, Procedure, Scenario, TrafficCase, cell_capacity
from nbiotsim.cli import (EXIT_IO, EXIT_OK, EXIT_VALIDATION, SweepSpec, Table,
                          emit, main, run_capacity_report, run_lifetime_sweep,
                          LIFETIME_COLUMNS)
from nbiotsim import energy
from nbiotsim.config import ConfigurationError
from tests.conftest import scenario_texts


def test_lifetime_sweep_monotone_and_baseline():
    spec = SweepSpec("iat", tuple(h * 3600.0 for h in range(1, 25)), Scenario())
    table = run_lifetime_sweep(spec)
    assert table.rows[0][0] == "PSM_BASELINE"
    assert table.rows[0][4] == pytest.approx(38.05, abs=0.01)
    lifetimes = [row[4] for row in table.rows[1:]]
    assert all(b >= a for a, b in zip(lifetimes, lifetimes[1:]))
    assert all(row[-1] == "" for row in table.rows)


def test_lifetime_sweep_reports_bad_rows_and_continues():
    # the baseline row, too, reports a battery or a deep-sleep power outside
    # its domain, instead of a negative lifetime or a division by zero
    for s, key in [(Scenario(battery_wh=-1.0), "battery_wh"),
                   (Scenario(power=PowerProfile(deep_sleep_mw=0.0)), "deep_sleep_mw")]:
        table = run_lifetime_sweep(SweepSpec("iat", (3600.0, 7200.0), s))
        baseline, *points = table.rows
        assert baseline[:9] == ("PSM_BASELINE", "-", "-") + (0.0,) * 6
        assert key in baseline[-1]
        assert [row[3] for row in points] == [3600.0, 7200.0]
        assert all(key in row[-1] for row in points)


def test_sweep_values_must_be_ordered():
    with pytest.raises(ConfigurationError):
        SweepSpec("iat", (7200.0, 3600.0), Scenario())
    with pytest.raises(ConfigurationError):
        SweepSpec("iat", (), Scenario())


def test_sweep_values_are_parsed_once(monkeypatch):
    import nbiotsim.cli as cli_mod
    calls = []
    real = cli_mod.scenario_value
    monkeypatch.setattr(cli_mod, "scenario_value", lambda *a: calls.append(a) or real(*a))
    spec = SweepSpec("iat", ("3600", "7200"), Scenario())
    assert spec.values == (3600.0, 7200.0) and len(calls) == 2
    assert [row[3] for row in run_lifetime_sweep(spec).rows[1:]] == [3600.0, 7200.0]
    assert len(calls) == 2


def test_sweep_other_axes():
    spec = SweepSpec("coverage", ("Normal", "Robust", "Extreme"), Scenario())
    assert [c.name for c in spec.values] == ["Normal", "Robust", "Extreme"]
    assert [row[2] for row in run_lifetime_sweep(spec).rows[1:]] == [
        "Normal", "Robust", "Extreme"]
    # already-parsed values are accepted as they are
    spec = SweepSpec("procedure", ("SR", "CP", "UP", Procedure.UP), Scenario())
    assert spec.values == (Procedure.SR, Procedure.CP, Procedure.UP, Procedure.UP)
    rows = run_lifetime_sweep(spec).rows[1:]
    assert [row[0] for row in rows] == ["SR", "CP", "UP", "UP"]
    assert rows[2] == rows[3] and all(row[-1] == "" for row in rows)
    spec = SweepSpec("case", ("UL", "DL", TrafficCase.DL), Scenario())
    assert spec.values == (TrafficCase.UL, TrafficCase.DL, TrafficCase.DL)
    assert [row[1] for row in run_lifetime_sweep(spec).rows[1:]] == ["UL", "DL", "DL"]


def test_mcs_outside_tbs_table_is_row_error():
    # validation does not bound the MCS above; the TBS lookup does
    s = Scenario(coverage=replace(Scenario().coverage, mcs_index=13))
    table = run_lifetime_sweep(SweepSpec("iat", (3600.0, 7200.0), s))
    assert [row[-1] for row in table.rows[1:]] == ["mcs_index=13 outside the TBS table"] * 2
    with pytest.raises(ConfigurationError, match="mcs_index=13 outside the TBS table"):
        cell_capacity(s)


def test_capacity_grid_cardinality():
    table = run_capacity_report(Scenario())
    assert len(table.rows) == 24
    assert {row[0] for row in table.rows} == {"CP", "UP"}
    assert {row[2] for row in table.rows} == {"Normal", "Robust", "Extreme"}


def test_emit_csv_schema_and_precision():
    table = Table(("a", "b"), [(1.5, "x"), (2.0, "y")])
    out = io.StringIO()
    emit(table, "csv", out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "a,b"
    assert lines[1] == "1.500000,x"


def test_emit_empty_table_header_only():
    out = io.StringIO()
    emit(Table(("a", "b"), []), "csv", out)
    assert out.getvalue() == "a,b\n"


def test_emit_plot_data():
    out = io.StringIO()
    emit(Table(("a", "b"), [(1.0, "")]), "plot-data", out)
    lines = out.getvalue().splitlines()
    assert lines[0] == "# a b"
    assert lines[1] == "1.000000 -"


def test_cli_capacity_stdout(capsys):
    assert main(["capacity"]) == EXIT_OK
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert lines[0].startswith("procedure,case,coverage,")
    assert len(lines) == 25


def test_cli_outputs_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["capacity", "--out", str(d1)]) == EXIT_OK
    assert main(["capacity", "--out", str(d2)]) == EXIT_OK
    assert (d1 / "capacity.csv").read_bytes() == (d2 / "capacity.csv").read_bytes()


def test_cli_lifetime_sweep_flags(capsys):
    rc = main(["lifetime", "--procedure", "CP", "--case", "UL",
               "--coverage", "Normal", "--sweep", "iat=3600,7200"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ",".join(LIFETIME_COLUMNS)
    assert len(lines) == 4            # header + baseline + 2 sweep points


def test_cli_pinned_iat_single_point(capsys):
    rc = main(["lifetime", "--procedure", "UP", "--iat", "7200"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3            # header + baseline + the one point
    assert ",7200.000000," in lines[2]


def test_cli_default_lifetime_run(capsys):
    rc = main(["lifetime", "--format", "plot-data"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    # baseline + 3 procedures x 3 coverages x 24 points
    assert len(lines) == 1 + 1 + 3 * 3 * 24


def test_cli_scenario_file(tmp_path, capsys):
    f = tmp_path / "s.cfg"
    f.write_text("procedure=UP case=UL coverage=Robust iat=3600\n")
    rc = main(["lifetime", "--scenario", str(f), "--sweep", "iat=3600"])
    assert rc == EXIT_OK
    assert ",UP,UL,Robust," in "\n".join(
        "," + line for line in capsys.readouterr().out.splitlines())


def test_cli_invalid_scenario_file_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.cfg"
    f.write_text("procedure=CP tau_period_s=1440000\n")
    assert main(["lifetime", "--scenario", str(f)]) == EXIT_VALIDATION


def test_cli_bad_sweep_exit_code(capsys):
    assert main(["lifetime", "--sweep", "iat=7200,3600"]) == EXIT_VALIDATION


IAT_DOMAIN = "; expected a number in [1e-06, 1000000000]"
BAD_IAT_ERRORS = {
    ("--iat", "nan"): "error: bad value 'nan' for 'iat'" + IAT_DOMAIN,
    ("--iat", "inf"): "error: bad value 'inf' for 'iat'" + IAT_DOMAIN,
    ("--sweep", "iat=abc"): "error: iat sweep values: bad value 'abc' for 'iat'" + IAT_DOMAIN,
    ("--sweep", "iat=3600,nan"): "error: iat sweep values: bad value 'nan' for 'iat'"
                                 + IAT_DOMAIN,
}


@pytest.mark.parametrize("argv", [list(argv) for argv in BAD_IAT_ERRORS])
def test_cli_bad_iat_is_one_error_line(argv, capsys):
    assert main(["lifetime"] + argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [BAD_IAT_ERRORS[tuple(argv)]]


@pytest.mark.parametrize("argv,prefix", [
    (["lifetime", "--sweep", "procedure=XX"], "error: procedure sweep values"),
    (["lifetime", "--sweep", "case=ZZ"], "error: case sweep values"),
    (["lifetime", "--sweep", "coverage=Deep"], "error: coverage sweep values"),
    (["lifetime", "--sweep", "speed=1,2"], "error: unknown sweep axis"),
    (["capacity", "--iat", "-5"], "error: bad value '-5' for 'iat'" + IAT_DOMAIN),
    (["capacity", "--iat", "nan"], "error: bad value 'nan' for 'iat'"),
    (["lifetime", "--iat", "abc"], "error: bad value 'abc' for 'iat'"),
    (["capacity", "--coverage", "Deep"], "error: bad value 'Deep' for 'coverage'; "
                                         "expected one of Normal, Robust, Extreme"),
    (["lifetime", "--procedure", "XX"], "error: bad value 'XX' for 'procedure'"),
    (["lifetime", "--case", "ZZ"], "error: bad value 'ZZ' for 'case'"),
    (["capacity", "--format", "xml"], "error: unknown output format 'xml'"),
    (["capacity", "--case", "DL", "--iat", "2000000"],
     "error: invalid scenario: iat_s=2000000 s: a mobile-terminated PSM_TAU cycle "
     "exceeds the 310 h PSM maximum"),
    # a value that starts with '-' but is not a plain negative number
    (["lifetime", "--iat", "-inf"], "error: bad value '-inf' for 'iat'" + IAT_DOMAIN),
    (["lifetime", "--iat", "-1e3"], "error: bad value '-1e3' for 'iat'" + IAT_DOMAIN),
    (["lifetime", "--iat", "-nan"], "error: bad value '-nan' for 'iat'" + IAT_DOMAIN),
], ids=["procedure", "case", "coverage", "axis", "capacity-iat-negative",
        "capacity-iat-nan", "iat-flag", "coverage-flag", "procedure-flag",
        "case-flag", "format-flag", "capacity-dl-iat-above-psm-max",
        "iat-minus-inf", "iat-minus-1e3", "iat-minus-nan"])
def test_cli_bad_sweep_or_capacity_iat_is_one_error_line(argv, prefix, capsys):
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)


@pytest.mark.parametrize("text,argv,line", [
    ("idle_timer_base_s=1e7", ["lifetime", "--iat", "3600"],
     "error: invalid scenario: idle active timer 10000004.160 s must be shorter "
     "than the 432000 s TAU period"),
    ("budget_npdcch=1e-320", ["capacity"], "error: line 1: bad value '1e-320' for "
                                           "'budget_npdcch'; expected a number in "
                                           "[1e-06, 1000000000000]"),
], ids=["idle-timer-above-tau-period", "zero-reference-capacity"])
def test_cli_bad_scenario_file_is_one_error_line(text, argv, line, tmp_path, capsys):
    f = tmp_path / "s.cfg"
    f.write_text(text + "\n")
    assert main(argv + ["--scenario", str(f)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


def test_cli_dl_iat_above_psm_maximum_is_row_error(capsys):
    # a downlink PSM_TAU cycle paces its TAU at the IAT: 2e6 s is past 310 h
    assert main(["lifetime", "--case", "DL", "--iat", "2000000"]) == EXIT_VALIDATION
    row = capsys.readouterr().out.splitlines()[2].split(",")
    assert row[:4] == ["CP", "DL", "Normal", "2000000.000000"]
    assert row[-1].endswith("a mobile-terminated PSM_TAU cycle exceeds the 310 h "
                            "PSM maximum")


# --- one-step composition: file scenario, then flags, then the row's fields --

@pytest.fixture
def long_iat_file(tmp_path):
    # 2e6 s is a valid uplink IAT but past the 310 h PSM maximum of downlink
    f = tmp_path / "long.cfg"
    f.write_text("iat=2000000\n")
    return str(f)


def test_cli_default_rows_replace_the_file_iat(long_iat_file, capsys, monkeypatch):
    # the default table sets each row's own IAT, so the file's IAT, invalid
    # for downlink, never reaches a row; each procedure and coverage builds
    # one cycle profile for its 24 rows
    calls = []
    real = energy.cycle_profile
    monkeypatch.setattr(energy, "cycle_profile", lambda s: calls.append(s) or real(s))
    assert main(["lifetime", "--scenario", long_iat_file, "--case", "DL"]) == EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[2:]
    assert len(rows) == 216 and all(row[-1] == "" for row in rows)
    assert {row[1] for row in rows} == {"DL"} and len(calls) == 9


def test_cli_sweep_row_past_psm_maximum_is_row_error(long_iat_file, capsys):
    argv = ["lifetime", "--scenario", long_iat_file, "--case", "DL",
            "--sweep", "iat=3600,2000000"]
    assert main(argv) == EXIT_VALIDATION
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[2:]
    assert rows[0][:4] == ["CP", "DL", "Normal", "3600.000000"] and rows[0][-1] == ""
    assert rows[1][-1] == ("invalid scenario: iat_s=2000000 s: a mobile-terminated "
                           "PSM_TAU cycle exceeds the 310 h PSM maximum")


def test_cli_repeated_sweep_value_repeats_its_row(long_iat_file, capsys):
    argv = ["lifetime", "--scenario", long_iat_file, "--sweep", "coverage=Normal,Normal",
            "--iat", "3600"]
    assert main(argv) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[2] == lines[3]
    assert lines[2].startswith("CP,UL,Normal,3600.000000,")


def test_cli_error_cell_is_one_quoted_field(capsys):
    argv = ["lifetime", "--case", "DL", "--sweep", "iat=3600,2000000"]
    assert main(argv + ["--format", "plot-data"]) == EXIT_VALIDATION
    lines = capsys.readouterr().out.splitlines()
    assert [len(shlex.split(line.removeprefix("# "))) for line in lines] == [10] * 4
    assert shlex.split(lines[3])[-1].startswith("invalid scenario: iat_s=2000000 s:")
    assert main(argv) == EXIT_VALIDATION
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [len(row) for row in rows] == [10] * 4


# --- a flag fixes its axis of the table -------------------------------------

def test_cli_default_lifetime_flags_fix_their_axes(capsys):
    assert main(["lifetime", "--procedure", "UP", "--coverage", "Extreme"]) == EXIT_OK
    baseline, *rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert baseline[0] == "PSM_BASELINE"
    assert [row[:4] for row in rows] == [["UP", "UL", "Extreme", f"{h * 3600.0:.6f}"]
                                         for h in range(1, 25)]
    assert all(row[-1] == "" for row in rows)


@pytest.mark.parametrize("flag,sweep", [("--coverage=Robust", "coverage=Normal,Extreme"),
                                        ("--iat=3600", "iat=3600,7200")])
def test_cli_flag_and_sweep_on_one_axis_is_an_error(flag, sweep, capsys):
    axis = sweep.split("=")[0]
    assert main(["lifetime", flag, "--sweep", sweep]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: --{axis} and --sweep {axis}=... both set the {axis} axis"]


def test_cli_capacity_flags_fix_their_axes(capsys):
    assert main(["capacity", "--case", "DL", "--coverage", "Extreme"]) == EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert [row[:3] for row in rows] == [["CP", "DL", "Extreme"], ["UP", "DL", "Extreme"]]
    # the full grid holds the same rows, byte for byte
    assert main(["capacity"]) == EXIT_OK
    grid = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert all(row in grid for row in rows)
    assert main(["capacity", "--procedure", "SR"]) == EXIT_OK
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert len(rows) == 4 * 3
    assert all(row[0] == "SR" and row[-1] == "0.000000" for row in rows)


def test_cli_capacity_does_not_depend_on_iat(capsys):
    assert main(["capacity"]) == EXIT_OK
    default = capsys.readouterr().out
    assert main(["capacity", "--iat", "86400"]) == EXIT_OK
    assert capsys.readouterr().out == default


def test_cli_iat_shorter_than_active_cycle_is_row_error(capsys):
    # UP keeps a ~14 s idle-DRX window after the exchange, so 10 s is too short
    rc = main(["lifetime", "--procedure", "UP", "--sweep", "iat=10,3600"])
    assert rc == EXIT_VALIDATION
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
    assert "shorter than" in rows[0][-1] and rows[1][-1] == ""


def test_cli_amortized_taus_longer_than_iat_is_row_error(tmp_path, capsys):
    # 0.774-s TAUs every 0.07 s keep the UE awake longer than the 3,600-s cycle
    f = tmp_path / "s.cfg"
    f.write_text("idle_timer_base_s=0\ndrx_cycle_base_s=1e-06\ntau_period_s=0.07\n")
    assert main(["lifetime", "--scenario", str(f), "--iat", "3600"]) == EXIT_VALIDATION
    row = capsys.readouterr().out.splitlines()[2].split(",")
    assert row[:5] == ["CP", "UL", "Normal", "3600.000000", "0.000000"]
    assert row[-1].startswith("iat_s=3600.0: shorter than the 39806.")
    assert row[-1].endswith(" s active cycle")


@pytest.mark.parametrize("command", ["lifetime", "capacity"])
def test_cli_scenario_file_not_utf8_is_one_error_line(command, tmp_path, capsys):
    f = tmp_path / "s.cfg"
    f.write_bytes(b"iat=3600\n\xff\n")
    assert main([command, "--scenario", str(f), "--iat", "3600"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: scenario file {str(f)!r} is not UTF-8 text: invalid start byte at byte 9"]


def test_cli_unwritable_out_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    assert main(["capacity", "--out", str(blocker / "sub")]) == EXIT_IO


def test_cli_reader_closing_the_pipe_early_is_quiet():
    # `nbiotsim lifetime ... | head -n 1`: the table outgrows a pipe buffer, so
    # the CLI is still writing when the reader closes its end.  It stops with
    # no error line and the table's own status: 1, for the 0.1 s point's error row.
    iats = ",".join(["0.1", *(str(3600 + i) for i in range(3000))])
    src = os.path.dirname(os.path.dirname(nbiotsim.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "nbiotsim.cli", "lifetime", "--sweep", f"iat={iats}"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"procedure,")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b""
    assert proc.returncode == EXIT_VALIDATION


# --- key domains at the command line -----------------------------------------

@pytest.mark.parametrize("text,argv,line", [
    (None, ["--iat", "1e308"],
     "error: bad value '1e308' for 'iat'; expected a number in [1e-06, 1000000000]"),
    ("battery_wh=1e308", [], "error: line 1: bad value '1e308' for 'battery_wh'; "
                             "expected a number in [1e-06, 1000000000000]"),
    ("deep_sleep_mw=1e-320", [], "error: line 1: bad value '1e-320' for "
                                 "'deep_sleep_mw'; expected a number in "
                                 "[1e-06, 1000000000000]"),
    ("tx_max_mw=1e308", [], "error: line 1: bad value '1e308' for 'tx_max_mw'; "
                            "expected a number in [1e-06, 1000000000000]"),
    ("ra_cap=100000000", [], "error: line 1: bad value '100000000' for 'ra_cap'; "
                             "expected a number in [1, 200]"),
    ("payload_bytes=10000000000", [], "error: line 1: bad value '10000000000' for "
                                      "'payload_bytes'; expected a number in [0, 65535]"),
], ids=["iat-1e308", "battery-1e308", "deep-sleep-1e-320", "tx-max-1e308",
        "ra-cap-1e8", "payload-1e10"])
def test_cli_value_outside_domain_is_one_fast_error_line(text, argv, line, tmp_path,
                                                          capsys):
    # each once overflowed, printed inf or nan, or ran for seconds
    if text is not None:
        f = tmp_path / "s.cfg"
        f.write_text(text + "\n")
        argv = argv + ["--scenario", str(f), "--iat", "3600"]
    start = time.perf_counter()
    assert main(["lifetime"] + argv) == EXIT_VALIDATION
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


IAT_TEXT = st.sampled_from(["3600", "86400", "604800", "10", "1e-06", "1000000000",
                            "-5", "0", "nan", "inf", "-inf", "1e308", "abc", ""])
CHOICE_FLAGS = st.fixed_dictionaries({}, optional={
    "--procedure": st.sampled_from(["SR", "CP", "UP", "XX"]),
    "--case": st.sampled_from(["UL", "UL_ACK", "DL", "DL_ACK", "ZZ"]),
    "--coverage": st.sampled_from(["Normal", "Robust", "Extreme", "Deep"]),
})


@st.composite
def cli_argvs(draw):
    """(argv, scenario text or None): lifetime with --iat, a short --sweep or
    a --scenario file, or capacity with or without one."""
    command = draw(st.sampled_from(["iat", "sweep", "scenario", "capacity"]))
    argv = ["capacity" if command == "capacity" else "lifetime"]
    argv += [f"{flag}={value}" for flag, value in draw(CHOICE_FLAGS).items()]
    if command == "sweep":
        argv.append("--sweep=iat=" + ",".join(draw(st.lists(IAT_TEXT, max_size=3))))
    elif command != "capacity":
        argv.append(f"--iat={draw(IAT_TEXT)}")
    text = draw(scenario_texts()) if command in ("scenario", "capacity") else None
    return argv, text


@given(case=cli_argvs())
@settings(max_examples=60, deadline=None)
def test_cli_main_fuzz_exits_cleanly_with_finite_cells(case, tmp_path_factory):
    # main returns 0, 1 or 2 and never raises; every number it prints is finite
    argv, text = case
    if text is not None:
        f = tmp_path_factory.mktemp("fuzz") / "s.cfg"
        f.write_text(text + "\n")
        argv = argv + [f"--scenario={f}"]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = main(argv)
    assert rc in (EXIT_OK, EXIT_VALIDATION, EXIT_IO)
    header, *rows = list(csv.reader(io.StringIO(out.getvalue()))) or [[]]
    for row in rows:
        for column, cell in zip(header, row):
            try:
                number = float(cell)
            except ValueError:
                continue
            assert column == "error" or math.isfinite(number), row
