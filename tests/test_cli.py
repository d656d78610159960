"""Command-line front end: sweeps, grids, emit formats, exit codes."""

import csv
import hashlib
import importlib
import io
import itertools
import math
import os
import pkgutil
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import nbiotsim
from nbiotsim import (Procedure, Reachability, Scenario, TrafficCase,
                      builtin_coverage_profile)
from nbiotsim.cli import (EXIT_IO, EXIT_OK, EXIT_VALIDATION, SweepSpec, Table,
                          _lifetime_rows, emit, main, run_capacity_report,
                          run_lifetime_sweep, LIFETIME_COLUMNS)
from nbiotsim import config, energy, flows, phy, ra
from nbiotsim.config import COVERAGE_NAMES, MAX_PSM_TIME_S, ConfigurationError
from nbiotsim.flows import EnergyCategory
from tests.conftest import (DATA_LOADERS, clear_data_caches, domain_values, repinned,
                            scenario_texts)
from tests.test_flows import LAYOUT_KNOBS
from tests.test_golden import PAGING_CFG
from tests.test_invariants import evaluate, scenario_values


def test_lifetime_sweep_monotone_and_baseline():
    spec = SweepSpec("iat", tuple(h * 3600.0 for h in range(1, 25)), Scenario())
    table = run_lifetime_sweep(spec)
    assert table.rows[0][0] == "PSM_BASELINE"
    assert table.rows[0][4] == pytest.approx(38.05, abs=0.01)
    lifetimes = [row[4] for row in table.rows[1:]]
    assert all(b >= a for a, b in zip(lifetimes, lifetimes[1:]))
    assert all(row[-1] == "" for row in table.rows)


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


def reference_row(s: Scenario) -> tuple:
    """The lifetime row of s from the whole-scenario energy functions."""
    ident = (s.procedure.value, s.traffic_case.value, s.coverage.name, s.iat_s)
    try:
        b = energy.cycle_energy(s)
        years = energy.battery_lifetime_years(s)
    except ConfigurationError as exc:
        return ident + (0.0, 0.0, 0.0, 0.0, 0.0, str(exc))
    return ident + (years, b.ra_sync_mj / b.total_mj, b.post_ra_messages_mj / b.total_mj,
                    (b.connected_drx_mj + b.idle_drx_mj) / b.total_mj, b.psm_mj / b.total_mj, "")


@pytest.mark.parametrize("reach", list(Reachability))
def test_sweep_rows_equal_the_per_row_reference(reach):
    # bit for bit: a row read from its group's cycle profile is the row of its
    # own scenario.  0.5 s is below every active cycle (the shortest is
    # 0.646 s) and 2e6 s above the 310 h PSM maximum of a downlink PSM_TAU cycle
    iats = (0.5, *(h * 3600.0 for h in range(1, 25)), 2e6)
    for proc, case, cov in itertools.product(Procedure, TrafficCase, COVERAGE_NAMES):
        base = Scenario(procedure=proc, traffic_case=case, mt_reachability=reach,
                        coverage=builtin_coverage_profile(cov))
        rows = run_lifetime_sweep(SweepSpec("iat", iats, base)).rows[1:]
        assert rows == [reference_row(replace(base, iat_s=iat_s)) for iat_s in iats]
        assert rows[0][-1].startswith("iat_s=0.5: shorter than the ")
        assert rows[1][-1] == ""


def assert_rows_are_the_reference(s: Scenario, iats) -> list:
    """The rows of one point group over iats, each equal to its own scenario's."""
    rows = _lifetime_rows(s, [({}, iats)]).rows[1:]
    assert rows == [reference_row(replace(s, iat_s=iat_s)) for iat_s in iats]
    return rows


@pytest.mark.parametrize("reach", list(Reachability))
def test_sweep_rows_equal_the_per_row_reference_at_the_iat_bounds(reach):
    # bit for bit at the bounds a cycle sets on the IAT: exactly its active
    # timeline (a downlink or paging cycle then rests 0 us) and 1 us less,
    # and 1 s above the 310 h PSM maximum of a downlink PSM_TAU cycle
    for proc, case, cov in itertools.product(Procedure, TrafficCase, COVERAGE_NAMES):
        s = Scenario(procedure=proc, traffic_case=case, mt_reachability=reach,
                     coverage=builtin_coverage_profile(cov))
        active_us = energy.cycle_profile(s).active_us
        rows = assert_rows_are_the_reference(s, ((active_us - 1) / 1e6, active_us / 1e6,
                                                 MAX_PSM_TIME_S, MAX_PSM_TIME_S + 1.0))
        assert "active cycle" in rows[0][-1]
        assert (rows[1][-1] == "") == (case.mobile_terminated
                                       or reach is Reachability.DRX_PAGING)
        paced_by_tau = case.mobile_terminated and reach is Reachability.PSM_TAU
        assert rows[2][-1] == "" and ("PSM maximum" in rows[3][-1]) == paced_by_tau


def test_sweep_rows_equal_the_per_row_reference_when_taus_keep_the_ue_awake():
    s = Scenario(idle_active_timer_base_s=0.0, drx_long_cycle_base_s=1e-6,
                 psm_tau_period_s=0.07)
    rows = assert_rows_are_the_reference(s, (3600.0, 86400.0))
    assert all(row[-1].startswith("periodic TAUs keep the UE awake") for row in rows)


@settings(max_examples=40, deadline=None)
@given(values=scenario_values(), iats=st.lists(domain_values("iat"), min_size=1, max_size=4))
def test_sweep_rows_equal_the_per_row_reference_property(values, iats):
    assert_rows_are_the_reference(evaluate(lambda s: s, values), tuple(iats))


# SHA-256 of the repr of every lifetime row, error rows and the baseline row
# included, over 72 points (procedure x case x reachability x coverage) under
# four knob sets: the defaults, non-default sizes and timers, and a 7-s and a
# 1-h TAU period.  Each group sweeps whole-second and dyadic IATs from 0.5 s to
# 2e6 s, past the 310 h PSM maximum.  Every IAT and TAU period is a whole
# microsecond, so the rows pin the lifetime and share floats bit for bit,
# independently of the `==` tests, which compare the row path with itself.
ROW_DIGEST = "0aed99f9918a4d02d4087d31055b724f460677cc80500262e8ca7cd1af496422"
ROW_IATS = (0.5, 0.625, 0.75, 1.0, 1.5, 2.0, 7.0, 60.0, 600.0,
            *(h * 3600.0 for h in range(1, 25)), 432000.0, MAX_PSM_TIME_S,
            MAX_PSM_TIME_S + 0.5, 2e6)
ROW_KNOBS = ({}, LAYOUT_KNOBS, dict(psm_tau_period_s=7.0), dict(psm_tau_period_s=3600.0))


def test_lifetime_rows_match_pinned_digest():
    digest = hashlib.sha256()
    for knobs in ROW_KNOBS:
        groups = [(dict(procedure=proc, traffic_case=case, mt_reachability=reach,
                        coverage=builtin_coverage_profile(cov)), ROW_IATS)
                  for proc, case, reach, cov in itertools.product(
                      Procedure, TrafficCase, Reachability, COVERAGE_NAMES)]
        for row in _lifetime_rows(Scenario(**knobs), groups).rows:
            digest.update(f"{row!r}\n".encode())
    assert digest.hexdigest() == ROW_DIGEST


def test_iats_in_one_microsecond_price_the_same():
    # an IAT is read once, as whole microseconds: 3600.0000004 s prices as
    # 3600 s (12.147 years on SR/UL/Normal), and a downlink PSM_TAU cycle at
    # 310 h plus 0.4 us fits, as at 310 h
    for s, iat_s, near_s in [(Scenario(procedure=Procedure.SR), 3600.0, 3600.0000004),
                             (Scenario(traffic_case=TrafficCase.DL), MAX_PSM_TIME_S,
                              MAX_PSM_TIME_S + 4e-7)]:
        at, near = replace(s, iat_s=iat_s), replace(s, iat_s=near_s)
        assert near.iat_s != at.iat_s
        assert energy.cycle_energy(near) == energy.cycle_energy(at)
        assert energy.battery_lifetime_years(near) == energy.battery_lifetime_years(at)
        rows = _lifetime_rows(s, [({}, (iat_s, near_s))]).rows[1:]
        assert rows[0][4:] == rows[1][4:] and rows[0][-1] == ""


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


def test_sweep_takes_a_built_coverage_level():
    # a level is a parsed coverage value, as an enum member is a parsed procedure
    normal, robust = builtin_coverage_profile("Normal"), builtin_coverage_profile("Robust")
    spec = SweepSpec("coverage", ("Normal", robust), Scenario())
    assert spec.values == (normal, robust) and spec.values[1] is robust
    assert run_lifetime_sweep(spec).rows == run_lifetime_sweep(
        SweepSpec("coverage", ("Normal", "Robust"), Scenario())).rows
    # a number is still converted: an int IAT is a float, written as one
    spec = SweepSpec("iat", (3600,), Scenario())
    assert spec.values == (3600.0,) and type(spec.values[0]) is float
    out = io.StringIO()
    emit(run_lifetime_sweep(spec), "csv", out)
    assert out.getvalue().splitlines()[2].split(",")[3] == "3600.000000"


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
    # a value that starts with '-' but is not a plain negative number
    (["lifetime", "--iat", "-inf"], "error: bad value '-inf' for 'iat'" + IAT_DOMAIN),
    (["lifetime", "--iat", "-1e3"], "error: bad value '-1e3' for 'iat'" + IAT_DOMAIN),
    (["lifetime", "--iat", "-nan"], "error: bad value '-nan' for 'iat'" + IAT_DOMAIN),
], ids=["procedure", "case", "coverage", "axis", "capacity-iat-negative",
        "capacity-iat-nan", "iat-flag", "coverage-flag", "procedure-flag",
        "case-flag", "format-flag", "iat-minus-inf", "iat-minus-1e3", "iat-minus-nan"])
def test_cli_bad_sweep_or_capacity_iat_is_one_error_line(argv, prefix, capsys):
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix)


@pytest.mark.parametrize("text,argv,line", [
    ("budget_npdcch=1e-320", ["capacity"], "error: line 1: bad value '1e-320' for "
                                           "'budget_npdcch'; expected a number in "
                                           "[1e-06, 1000000000000]"),
    ("procedure=CP coverage", ["lifetime"],
     "error: line 1: expected key=value, got 'coverage'"),
    # a base valid at Normal whose idle DRX cycle overruns the cap at Extreme:
    # the capacity grid refuses its first Extreme point, or the pinned level
    ("drx_cycle_base_s=10485.0", ["capacity"], "error: invalid scenario: idle DRX "
                                               "cycle 10485.768 s exceeds the 10485.76 s maximum"),
    ("drx_cycle_base_s=10485.0", ["capacity", "--coverage", "Extreme"],
     "error: invalid scenario: idle DRX cycle 10485.768 s exceeds the 10485.76 s maximum"),
    # capacity reads the scenario's cycle profile, which refuses TAUs that
    # keep the UE awake, with the lifetime rows' text
    ("idle_timer_base_s=0 drx_cycle_base_s=1e-06 tau_period_s=0.07", ["capacity"],
     "error: periodic TAUs keep the UE awake 0.774002 s of every 0.07 s TAU period: "
     "no IAT is long enough"),
], ids=["zero-reference-capacity", "token-without-equals", "drx-over-cap-in-grid",
        "drx-over-cap-at-pinned-coverage", "taus-keep-the-ue-awake"])
def test_cli_bad_scenario_file_is_one_error_line(text, argv, line, tmp_path, capsys):
    f = tmp_path / "s.cfg"
    f.write_text(text + "\n")
    assert main(argv + ["--scenario", str(f)]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [line]


# --- packaged data: a broken file fails the command with one error line ------

def swap_lines(text, i, j):
    lines = text.splitlines(keepends=True)
    lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines)


# the edit of the data texts, and the start of the one error line it gives
BROKEN_DATA = {
    "tbs-cell": (lambda t: repinned(t, "npusch_tbs.tsv",
                                    t["npusch_tbs.tsv"].replace("\n1\t", "\n1x\t", 1)),
                 "error: npusch_tbs.tsv line 5: bad row; expected I_TBS 1, then 8 rising TBS"),
    # rows 0 and 1 swapped: each row still rises, only its I_TBS is out of order
    "tbs-order": (lambda t: repinned(t, "npdsch_tbs.tsv", swap_lines(t["npdsch_tbs.tsv"], 5, 6)),
                  "error: npdsch_tbs.tsv line 6: bad row; expected I_TBS 0, then 8 rising TBS"),
    "checksums-line": (lambda t: {**t, "CHECKSUMS": t["CHECKSUMS"] + "0123abcd\n"},
                       "error: CHECKSUMS line 7: expected 'sha256 file'"),
    "mismatch": (lambda t: {**t, "npusch_tbs.tsv": t["npusch_tbs.tsv"] + "# edited\n"},
                 "error: data file 'npusch_tbs.tsv' checksum mismatch (got "),
    "unpinned": (lambda t: {**t, "CHECKSUMS": "".join(
                     line for line in t["CHECKSUMS"].splitlines(keepends=True)
                     if not line.rstrip().endswith("message_catalog.tsv"))},
                 "error: data file 'message_catalog.tsv' has no pinned checksum"),
    # a catalog must list every flow a scenario can name, paged ones included
    "missing-flow": (lambda t: repinned(t, "message_catalog.tsv", "".join(
                         line for line in t["message_catalog.tsv"].splitlines(keepends=True)
                         if not line.startswith("flow up_dl_pg "))),
                     "error: message catalog has no flow 'up_dl_pg'"),
}


# the package's caches besides the DATA_LOADERS, each with the reason it need
# not be emptied
UNCLEARED = {ra._expected_attempts: "a pure function of the attempt cap"}


def test_every_package_cache_is_cleared_or_exempt():
    # a cache added to the package must join MEMOS or DATA_LOADERS, so the
    # tests that empty them reach it, or UNCLEARED with its reason
    modules = [importlib.import_module(f"nbiotsim.{m.name}")
               for m in pkgutil.iter_modules(nbiotsim.__path__)]
    caches = {v for m in modules for v in vars(m).values() if hasattr(v, "cache_clear")}
    assert caches == {*DATA_LOADERS, *UNCLEARED}


def with_row_9_as_row_0(texts, name):
    """texts with the I_TBS row 9 of a TBS table holding row 0's sizes, re-pinned."""
    row0 = texts[name].split("\n0\t", 1)[1].split("\n", 1)[0]
    edited = texts[name].replace(
        "\n9\t136\t296\t456\t616\t776\t936\t1256\t1544\n", f"\n9\t{row0}\n", 1)
    assert edited != texts[name]
    return repinned(texts, name, edited)


def test_edited_tbs_table_reaches_a_warm_airtime_memo(data_texts):
    # 64 B at Normal: 512 bits fit 4 resource units of I_TBS row 9, twice over
    # (two repetitions of 1-ms units).  A re-pinned table whose row 9 holds row
    # 0's sizes takes two full 10-unit blocks, once the loaders read it afresh
    normal = builtin_coverage_profile("Normal")
    assert phy.message_airtime(64, normal, phy.ChannelKind.NPUSCH) == 8.0
    data_texts.update(with_row_9_as_row_0(data_texts, "npusch_tbs.tsv"))
    clear_data_caches()
    assert phy.message_airtime(64, normal, phy.ChannelKind.NPUSCH) == 40.0


def test_edited_tbs_table_reaches_a_warm_layout_plan(data_texts):
    # the 7-B RAR at Normal fills 1 NPDSCH subframe of I_TBS row 9 per
    # attempt; once row 9 holds row 0's sizes its 56 bits fill 3, and the
    # layout plan, which holds the RA phases, must be read afresh
    s = Scenario()
    attempts = ra.expected_attempts(s.ra_attempt_cap)

    def rar_npdsch_us():
        return [iv.duration_us for iv in flows.flow_timeline(flows.build_flow(s), s)
                if iv.label == "rar_npdsch"]

    assert rar_npdsch_us() == [round(attempts * 1000)]
    data_texts.update(with_row_9_as_row_0(data_texts, "npdsch_tbs.tsv"))
    clear_data_caches()
    assert rar_npdsch_us() == [round(attempts * 3000)]


def test_edited_tbs_table_reaches_a_warm_cycle_profile(data_texts):
    # the same edit takes each expected RAR from 1 to 3 NPDSCH subframes, so
    # a cycle profile, memoized per scenario, must be laid out afresh: its RA
    # energy grows by that RAR time at rx power, and its active time grows, as
    # does its standalone TAU's, memoized on its own
    s = Scenario()
    attempts = ra.expected_attempts(s.ra_attempt_cap)
    rar_us = round(attempts * 3000) - round(attempts * 1000)
    warm = energy.cycle_profile(s)
    data_texts.update(with_row_9_as_row_0(data_texts, "npdsch_tbs.tsv"))
    clear_data_caches()
    edited = energy.cycle_profile(s)
    assert edited.active_us > warm.active_us
    assert edited.events[0].active_us > warm.events[0].active_us
    ra_sync_mj = [p.active_mj[EnergyCategory.RA_SYNC] for p in (warm, edited)]
    assert ra_sync_mj[1] - ra_sync_mj[0] == pytest.approx(s.power.rx_mw * rar_us * 1e-6)


@pytest.mark.parametrize("case", list(BROKEN_DATA))
def test_cli_broken_data_file_is_one_error_line(case, data_texts, capsys):
    edit, line = BROKEN_DATA[case]
    data_texts.update(edit(dict(data_texts)))
    for command in (["lifetime"], ["capacity"],
                    ["lifetime", "--scenario", PAGING_CFG]):
        assert main(command) == EXIT_VALIDATION, command
        captured = capsys.readouterr()
        assert captured.out == "", command
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(line), (command, lines)


def test_cli_dl_iat_above_psm_maximum_is_row_error(capsys):
    # a downlink PSM_TAU cycle paces its TAU at the IAT: 2e6 s is past 310 h
    assert main(["lifetime", "--case", "DL", "--iat", "2000000"]) == EXIT_VALIDATION
    row = capsys.readouterr().out.splitlines()[2].split(",")
    assert row[:4] == ["CP", "DL", "Normal", "2000000.000000"]
    assert row[-1].endswith("a mobile-terminated PSM_TAU cycle exceeds the 310 h "
                            "PSM maximum")


def test_cli_psm_maximum_error_names_the_iat_unrounded(capsys):
    # 310 h is 1116000 s: an IAT past it by a fraction of a second is named
    # as given, never rounded onto the maximum it exceeds
    assert main(["lifetime", "--case", "DL", "--iat", "1116000.4"]) == EXIT_VALIDATION
    row = capsys.readouterr().out.splitlines()[2].split(",")
    assert row[-1] == ("iat_s=1116000.4 s: a mobile-terminated PSM_TAU cycle exceeds "
                       "the 310 h PSM maximum")


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
    assert rows[1][-1] == ("iat_s=2000000 s: a mobile-terminated PSM_TAU cycle exceeds "
                           "the 310 h PSM maximum")


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
    assert shlex.split(lines[3])[-1].startswith("iat_s=2000000 s: a mobile-terminated")
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


def test_cli_capacity_dl_iat_above_psm_max_is_accepted(capsys):
    # 2e6 s is past the 310 h PSM maximum of a downlink PSM_TAU cycle, which
    # bounds its lifetime rows but not its capacity
    assert main(["capacity", "--case", "DL"]) == EXIT_OK
    dl = capsys.readouterr().out
    assert main(["capacity", "--case", "DL", "--iat", "2000000"]) == EXIT_OK
    assert capsys.readouterr().out == dl


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
    assert row[-1] == ("periodic TAUs keep the UE awake 0.774002 s of every 0.07 s "
                       "TAU period: no IAT is long enough")


def test_cli_idle_timer_above_tau_period_is_row_error(tmp_path, capsys):
    # each TAU holds its 10,000,004-s idle active timer, longer than its
    # 432,000-s period (T3324 >= T3412), so no IAT leaves room for the cycle,
    # and every row says so in the same words
    f = tmp_path / "s.cfg"
    f.write_text("idle_timer_base_s=1e7\n")
    argv = ["lifetime", "--scenario", str(f), "--sweep", "iat=3600,86400,1000000"]
    assert main(argv) == EXIT_VALIDATION
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[2:]]
    assert [row[:5] for row in rows] == [["CP", "UL", "Normal", iat, "0.000000"] for iat in
                                         ("3600.000000", "86400.000000", "1000000.000000")]
    assert {row[-1] for row in rows} == {"periodic TAUs keep the UE awake 10000004.87 s of "
                                         "every 432000.0 s TAU period: no IAT is long enough"}


def test_cli_profile_error_is_built_once_and_fills_its_rows(tmp_path, capsys, monkeypatch):
    # Extreme coverage's 768-ms NPDCCH period takes the file's valid idle DRX
    # cycle past its maximum: the one build of the point fails, no profile is
    # built, and each row repeats the build's message
    calls, refused = [], []
    real, real_check = energy.cycle_profile, config.validate_scenario

    def check(s):
        try:
            return real_check(s)
        except ConfigurationError:
            refused.append(s)
            raise

    monkeypatch.setattr(energy, "cycle_profile", lambda s: calls.append(s) or real(s))
    monkeypatch.setattr(config, "validate_scenario", check)
    f = tmp_path / "s.cfg"
    f.write_text("drx_cycle_base_s=10485.0\n")
    argv = ["lifetime", "--scenario", str(f), "--coverage", "Extreme",
            "--sweep", "iat=3600,7200,86400"]
    assert main(argv) == EXIT_VALIDATION
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[2:]
    assert len(calls) == 0 and len(refused) == 1 and len(rows) == 3
    assert {row[-1] for row in rows} == {
        "invalid scenario: idle DRX cycle 10485.768 s exceeds the 10485.76 s maximum"}


def test_cli_default_tables_build_one_profile_per_procedure_and_coverage(capsys,
                                                                         monkeypatch):
    # the four cases' default tables: 36 groups of 24 hourly IATs
    calls = []
    real = energy.cycle_profile
    monkeypatch.setattr(energy, "cycle_profile", lambda s: calls.append(s) or real(s))
    rows = []
    for case in TrafficCase:
        assert main(["lifetime", "--case", case.value]) == EXIT_OK
        rows += capsys.readouterr().out.splitlines()[2:]
    assert len(calls) == 36 and len(rows) == 864


@pytest.mark.parametrize("command", ["lifetime", "capacity"])
def test_cli_scenario_file_not_utf8_is_one_error_line(command, tmp_path, capsys):
    f = tmp_path / "s.cfg"
    f.write_bytes(b"iat=3600\n\xff\n")
    assert main([command, "--scenario", str(f), "--iat", "3600"]) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: scenario file {str(f)!r} is not UTF-8 text: invalid start byte at byte 9"]


@pytest.mark.parametrize("command", ["lifetime", "capacity"])
def test_cli_missing_scenario_file_is_one_io_error_line(command, tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    assert main([command, "--scenario", str(missing)]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: [Errno 2] No such file or directory: {str(missing)!r}"]


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


def test_cli_cold_import_loads_no_resource_machinery():
    # the packaged data files are files on disk, read with open(): importing
    # the CLI and loading every data file, as a cold run does first, loads
    # none of these.  -S, because a site .pth file may import them itself
    src = os.path.dirname(os.path.dirname(nbiotsim.__file__))
    code = ("import sys, nbiotsim.cli\n"
            "from nbiotsim import flows, phy\n"
            "flows._catalog()\n"
            "for ch in phy.SHARED_CHANNELS:\n"
            "    phy._tbs_table(ch)\n"
            "print(sorted({'importlib.resources', 'pathlib', 'tempfile', 'shutil'}"
            " & set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "[]\n")


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
    ("ra_cap=3.5", [], "error: line 1: bad value '3.5' for 'ra_cap'; "
                       "expected a whole number in [1, 200]"),
    ("payload_bytes=20.9", [], "error: line 1: bad value '20.9' for 'payload_bytes'; "
                               "expected a whole number in [0, 65535]"),
    # int() and float() read digit separators and non-ASCII digits
    ("ra_cap=1_0", [], "error: line 1: bad value '1_0' for 'ra_cap'; "
                       "expected a number in [1, 200]"),
    ("ra_cap=\u0663", [], "error: line 1: bad value '\u0663' for 'ra_cap'; "
                          "expected a number in [1, 200]"),
    (None, ["--iat", "3_600"],
     "error: bad value '3_600' for 'iat'; expected a number in [1e-06, 1000000000]"),
    (None, ["--iat", "\uff11\uff10"],
     "error: bad value '\uff11\uff10' for 'iat'; expected a number in [1e-06, 1000000000]"),
    (None, ["--sweep", "iat=3600,3_700"],
     "error: iat sweep values: bad value '3_700' for 'iat'; "
     "expected a number in [1e-06, 1000000000]"),
], ids=["iat-1e308", "battery-1e308", "deep-sleep-1e-320", "tx-max-1e308",
        "ra-cap-1e8", "payload-1e10", "ra-cap-3.5", "payload-20.9", "ra-cap-1_0",
        "ra-cap-arabic-3", "iat-3_600", "iat-fullwidth-10", "sweep-iat-3_700"])
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
