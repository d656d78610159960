"""Coverage profiles, validation, and the scenario file format."""

import itertools
import math
import re
from dataclasses import astuple, fields

import pytest
from hypothesis import example, given, settings, strategies as st

from nbiotsim import (ConfigurationError, Scenario, battery_lifetime_years, build_flow,
                      builtin_coverage_profile, cell_capacity, cycle_energy,
                      format_scenario, parse_scenario, validate_scenario)
from nbiotsim.cli import SweepSpec, run_lifetime_sweep
from nbiotsim.config import (MAX_IDLE_DRX_CYCLE_S, MAX_PSM_TIME_S, _COVERAGE_ROWS,
                             _SCENARIO_KEYS, _bounds, CoverageProfile, PowerProfile, Procedure,
                             Reachability, TrafficCase, scenario_value)
from dataclasses import replace
from tests.conftest import domain_values, scenario_texts


def test_builtin_normal_profile():
    c = builtin_coverage_profile("Normal")
    assert c.target_mcl_db == 144.0
    assert c.subcarrier_spacing_khz == 15.0
    assert c.ul_subcarriers_per_burst == 12
    assert c.mcs_index == 9
    assert (c.rep_npdcch, c.rep_npdsch, c.rep_npusch, c.rep_nprach) == (1, 1, 2, 1)
    assert c.r_max == 1 and c.g_factor == 32.0
    assert c.resource_share == 0.33


def test_builtin_robust_profile():
    c = builtin_coverage_profile("Robust")
    assert c.target_mcl_db == 154.0
    assert c.ul_subcarriers_per_burst == 3
    assert c.mcs_index == 3
    assert (c.rep_npdcch, c.rep_npdsch, c.rep_npusch, c.rep_nprach) == (64, 32, 16, 8)
    assert c.r_max == 64 and c.g_factor == 1.5


def test_builtin_extreme_profile():
    c = builtin_coverage_profile("Extreme")
    assert c.subcarrier_spacing_khz == 3.75
    assert c.ul_subcarriers_per_burst == 1
    assert c.mcs_index == 0
    assert c.rep_npdcch == 512
    assert c.target_mcl_db == 161.0


def test_unknown_coverage_name():
    with pytest.raises(ConfigurationError, match="Urban"):
        builtin_coverage_profile("Urban")


def test_profile_shares_sum_below_one():
    total = sum(builtin_coverage_profile(n).resource_share
                for n in ("Normal", "Robust", "Extreme"))
    assert total <= 1.0


def test_default_scenario_is_valid():
    s = Scenario()
    assert validate_scenario(s) is s


@pytest.mark.parametrize("cov", ["Normal", "Robust", "Extreme"])
def test_builtin_profiles_validate_with_default_powers(cov):
    validate_scenario(Scenario(coverage=builtin_coverage_profile(cov)))


def test_psm_timer_cap_reported():
    s = Scenario(psm_tau_period_s=400 * 3600.0)
    with pytest.raises(ConfigurationError,
                       match=r"psm_tau_period_s=1440000.0: must be in \[1e-06, 1116000\]"):
        validate_scenario(s)
    assert 400 * 3600.0 > MAX_PSM_TIME_S


def test_idle_drx_cycle_cap_reported():
    # one idle DRX cycle is the base plus one NPDCCH period of the coverage
    # level, at most 1024 hyperframes of 10.24 s (TS 36.304)
    assert MAX_IDLE_DRX_CYCLE_S == 10485.76
    parse_scenario("coverage=Normal drx_cycle_base_s=10485.7")        # 10485.732 s
    with pytest.raises(ConfigurationError,
                       match="idle DRX cycle 10485.768 s exceeds the 10485.76 s maximum"):
        parse_scenario("coverage=Extreme drx_cycle_base_s=10485.0")


def test_idle_active_timer_must_be_shorter_than_tau_period():
    # an uplink PSM_TAU cycle amortizes standalone TAUs, and each one's
    # timeline holds the whole T3324 window (base + 2 long DRX cycles, 2.08 s
    # each at Normal), so T3324 >= T3412 keeps the UE awake longer than any
    # IAT: the scenario validates, and its cycle profile refuses every row
    iats = (3600.0, 86400.0, 1e6, 1e9)
    short = make(psm_tau_period_s=100.0)                             # T3324 14.160 s
    long = replace(short, idle_active_timer_base_s=96.0)             # T3324 100.160 s
    for proc, case in itertools.product(Procedure, (TrafficCase.UL, TrafficCase.UL_ACK)):
        fields = {"procedure": proc, "traffic_case": case}
        rows = run_lifetime_sweep(SweepSpec("iat", iats, replace(short, **fields))).rows
        assert all(row[-1] == "" for row in rows)
        s = validate_scenario(replace(long, **fields))
        rows = run_lifetime_sweep(SweepSpec("iat", iats, s)).rows[1:]
        assert [row[3] for row in rows] == list(iats)
        assert all(re.fullmatch(r"periodic TAUs keep the UE awake \S+ s of every 100\.0 s "
                                r"TAU period: no IAT is long enough", row[-1])
                   for row in rows), rows
    # a paging cycle and a downlink PSM_TAU cycle amortize no TAU period, so
    # the same timers evaluate
    for case, reach in (("DL", Reachability.PSM_TAU), ("UL", Reachability.DRX_PAGING),
                        ("DL_ACK", Reachability.DRX_PAGING)):
        s = replace(long, traffic_case=TrafficCase(case), mt_reachability=reach)
        assert cycle_energy(s).total_mj > 0.0


@pytest.mark.parametrize("case", ["DL", "DL_ACK"])
def test_mobile_terminated_iat_capped_at_psm_maximum(case):
    # a downlink PSM_TAU cycle is reached at its TAU, paced at the IAT; the
    # scenario validates at any IAT of the key's domain, and the cycle
    # evaluates up to 310 h
    over = make(case=case, iat_s=MAX_PSM_TIME_S + 1.0)
    assert parse_scenario(format_scenario(over)) == validate_scenario(over)
    cycle_energy(replace(over, iat_s=MAX_PSM_TIME_S))
    with pytest.raises(ConfigurationError) as err:
        cycle_energy(over)
    assert str(err.value) == ("iat_s=1116001 s: a mobile-terminated PSM_TAU cycle "
                              "exceeds the 310 h PSM maximum")
    # uplink cycles and paged downlink cycles carry no IAT-paced TAU
    cycle_energy(make(case="UL", iat_s=2 * MAX_PSM_TIME_S))
    cycle_energy(make(case=case, iat_s=2 * MAX_PSM_TIME_S,
                      mt_reachability=Reachability.DRX_PAGING))


@pytest.mark.parametrize("case,reach", [("UL", "DRX_PAGING"), ("DL", "DRX_PAGING"),
                                        ("DL", "PSM_TAU"), ("DL_ACK", "PSM_TAU")])
def test_tau_period_moves_no_cycle_without_amortized_tau(case, reach):
    # a paging cycle and a downlink PSM_TAU cycle amortize no TAU period, so a
    # TAU period below their idle active timer parses and moves no output
    text = f"case={case} reachability={reach} tau_period_s="
    short, long = parse_scenario(text + "10"), parse_scenario(text + "360000")
    assert short.idle_active_timer_s > short.psm_tau_period_s
    assert battery_lifetime_years(short) == battery_lifetime_years(long)
    assert cycle_energy(short) == cycle_energy(long)


def test_zero_iat_rejected():
    with pytest.raises(ConfigurationError, match="iat_s"):
        validate_scenario(Scenario(iat_s=0.0))


@pytest.mark.parametrize("field", ["iat_s", "battery_wh"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_values_rejected(field, value):
    with pytest.raises(ConfigurationError, match=field):
        validate_scenario(replace(Scenario(), **{field: value}))
    key = "iat" if field == "iat_s" else field
    with pytest.raises(ConfigurationError, match=f"line 1: bad value '{value}' for '{key}'"):
        parse_scenario(f"{key}={value}")


def test_power_ordering_enforced():
    bad = PowerProfile(deep_sleep_mw=5.0, inactive_mw=3.0)
    with pytest.raises(ConfigurationError, match="deep_sleep"):
        validate_scenario(Scenario(power=bad))


def test_alpha_range_enforced():
    with pytest.raises(ConfigurationError, match="alpha"):
        validate_scenario(Scenario(power=PowerProfile(alpha=1.5)))


def test_repetitions_must_be_powers_of_two():
    c = replace(builtin_coverage_profile("Normal"), rep_npusch=3)
    with pytest.raises(ConfigurationError, match="rep_npusch"):
        validate_scenario(Scenario(coverage=c))


def test_single_tone_spacing_requires_one_subcarrier():
    c = replace(builtin_coverage_profile("Extreme"), ul_subcarriers_per_burst=3)
    with pytest.raises(ConfigurationError, match="3.75"):
        validate_scenario(Scenario(coverage=c))


def test_npdcch_period_must_be_whole_ms():
    c = replace(builtin_coverage_profile("Normal"), r_max=1, g_factor=1.5)
    with pytest.raises(ConfigurationError, match="whole"):
        validate_scenario(Scenario(coverage=c))


def test_non_whole_npdcch_period_reported_with_every_other_violation():
    # the period is a plain value; its whole-ms rule is one line of the list
    c = replace(builtin_coverage_profile("Normal"), r_max=1, g_factor=1.5, rep_npusch=3)
    assert c.npdcch_period_ms == 2
    with pytest.raises(ConfigurationError) as err:
        validate_scenario(Scenario(coverage=c, battery_wh=0.0))
    assert str(err.value) == (
        "invalid scenario: battery_wh=0.0: must be in [1e-06, 1000000000000]; "
        "rep_npusch=3: repetitions must be a power of two in [1, 2048]; "
        "r_max * g_factor = 1.5 ms is not a whole number of ms")


# no value, a string, NaN and a bool: none of them is a finite number
NOT_NUMBERS = [None, "1", math.nan, True, False]


@pytest.mark.parametrize("bad", NOT_NUMBERS, ids=repr)
def test_non_numbers_are_configuration_errors(bad):
    # a Scenario, PowerProfile or CoverageProfile built in code may hold any
    # value; each numeric field that is not a finite number is named on exactly
    # one line of the error, with its row's bounds, next to every other field
    # outside its bounds, and nothing raises a bare error
    normal = builtin_coverage_profile("Normal")
    for key, (target, fname, _parser, lo, _hi) in _SCENARIO_KEYS.items():
        if lo is None:
            continue
        kw = ({fname: bad} if target == "scenario"
              else {"power": PowerProfile(**{fname: bad})})
        with pytest.raises(ConfigurationError) as err:
            validate_scenario(Scenario(coverage=replace(normal, rep_npusch=3), **kw))
        lines = str(err.value).removeprefix("invalid scenario: ").split("; ")
        assert [line for line in lines if line.startswith(fname + "=")] == [
            f"{fname}={bad!r}: must be in {_bounds(_SCENARIO_KEYS[key])}"], key
        assert "rep_npusch=3: repetitions must be a power of two in [1, 2048]" in lines, key
    coverage_rows = {row[1]: row for row in _COVERAGE_ROWS}
    for fname in (f.name for f in fields(normal)[1:]):
        with pytest.raises(ConfigurationError) as err:
            validate_scenario(Scenario(coverage=replace(normal, **{fname: bad}), battery_wh=0.0))
        lines = str(err.value).removeprefix("invalid scenario: ").split("; ")
        assert lines == ["battery_wh=0.0: must be in [1e-06, 1000000000000]",
                         f"{fname}={bad!r}: must be in {_bounds(coverage_rows[fname])}"], fname


def test_multiple_violations_all_reported():
    s = Scenario(iat_s=-1.0, battery_wh=0.0)
    with pytest.raises(ConfigurationError) as err:
        validate_scenario(s)
    assert "iat_s" in str(err.value) and "battery_wh" in str(err.value)


def error_lines(s) -> list[str]:
    with pytest.raises(ConfigurationError) as err:
        validate_scenario(s)
    return str(err.value).removeprefix("invalid scenario: ").split("; ")


def with_field(s, target, fname, value):
    """s with one field of the scenario, its power or its coverage set."""
    if target == "scenario":
        return replace(s, **{fname: value})
    return replace(s, **{target: replace(getattr(s, target), **{fname: value})})


# a field set in code outside its domain, and its one line of the error
OUTSIDE_DOMAIN = [
    ("coverage", "g_factor", 0.0, "g_factor=0.0: must be in [1.5, 64]"),
    ("coverage", "r_max", 10**400, f"r_max={10**400}: must be in [1, 2048]"),
    ("coverage", "sync_time_scale", -1.0, "sync_time_scale=-1.0: must be in [0, 8]"),
    ("scenario", "ra_attempt_cap", 3.5, "ra_attempt_cap=3.5: must be a whole number in [1, 200]"),
    ("scenario", "cp_inactivity_npdcch_periods", 2.5,
     "cp_inactivity_npdcch_periods=2.5: must be a whole number in [0, 1000000000]"),
    ("scenario", "data_payload_bytes", 20.5,
     "data_payload_bytes=20.5: must be a whole number in [0, 65535]"),
    ("scenario", "rar_bytes", 7.5, "rar_bytes=7.5: must be a whole number in [1, 65535]"),
]


@pytest.mark.parametrize("target,fname,value,line", OUTSIDE_DOMAIN,
                         ids=[case[1] for case in OUTSIDE_DOMAIN])
def test_value_outside_its_domain_is_one_line(target, fname, value, line):
    # each once raised a bare ZeroDivisionError, OverflowError or TypeError,
    # or validated and gave outputs from a negative sync time or a fractional
    # count of NPDCCH periods
    assert error_lines(with_field(Scenario(), target, fname, value)) == [line]


def test_cross_field_rules_run_unless_a_field_holds_no_number():
    misordered = PowerProfile(deep_sleep_mw=5.0)
    order = ("state powers must satisfy deep_sleep < inactive < rx < tx_max "
             "(got 5.0, 3.0, 90.0, 545.0 mW)")
    assert error_lines(Scenario(battery_wh=0.0, power=misordered)) == [
        "battery_wh=0.0: must be in [1e-06, 1000000000000]", order]
    # they do not run while a field holds no number, nor while a coverage field
    # is outside its domain, which also stops the coverage rules (here the
    # power-of-two repetitions)
    assert error_lines(Scenario(battery_wh=None, power=misordered)) == [
        "battery_wh=None: must be in [1e-06, 1000000000000]"]
    coverage = replace(builtin_coverage_profile("Normal"), g_factor=0.0, rep_npusch=3)
    assert error_lines(Scenario(coverage=coverage, power=misordered)) == [
        "g_factor=0.0: must be in [1.5, 64]"]
    # a DRX base above its cap is one line, and is not added to a period
    assert error_lines(Scenario(drx_long_cycle_base_s=10**400, power=misordered)) == [
        f"drx_long_cycle_base_s={10**400}: must be in [1e-06, 10485.76]", order]


# Values no domain holds, values at and near the edges of many, and any float
# or int
ODD_VALUES = st.one_of(
    st.sampled_from([None, "1", math.nan, math.inf, -math.inf, -1, -1.0, 0, 0.0, 2.5,
                     10**400]),
    st.floats(), st.integers())
# every numeric field of a scenario, its power profile and its coverage profile
NUMERIC_FIELDS = ([row[:2] for row in _SCENARIO_KEYS.values() if row[3] is not None]
                  + [("coverage", f.name) for f in fields(CoverageProfile)[1:]])


@given(
    proc=st.sampled_from(list(Procedure)),
    case=st.sampled_from(list(TrafficCase)),
    cov=st.sampled_from(["Normal", "Robust", "Extreme"]),
    reach=st.sampled_from(list(Reachability)),
    changes=st.lists(st.tuples(st.sampled_from(NUMERIC_FIELDS), ODD_VALUES),
                     min_size=1, max_size=3, unique_by=lambda change: change[0]),
)
@settings(max_examples=300, deadline=None)
def test_odd_field_values_fail_cleanly_or_give_finite_outputs(proc, case, cov, reach,
                                                              changes):
    # a built-in coverage with one to three fields set in code to any value:
    # validation refuses it with a ConfigurationError, or every output and
    # resolved time is a finite number of its sign
    s = Scenario(procedure=proc, traffic_case=case, coverage=builtin_coverage_profile(cov),
                 mt_reachability=reach)
    for (target, fname), value in changes:
        s = with_field(s, target, fname, value)
    try:
        validate_scenario(s)
        breakdown = cycle_energy(s)
        years = battery_lifetime_years(s)
        report = cell_capacity(s)
    except ConfigurationError:
        return
    times = (s.idle_drx_cycle_s, s.idle_active_timer_s, s.connected_inactivity_s,
             s.sync_time_ms)
    assert all(math.isfinite(t) and t >= 0.0 for t in times), times
    assert all(math.isfinite(v) and v >= 0.0 for v in astuple(breakdown)), breakdown
    assert breakdown.total_mj > 0.0
    assert math.isfinite(years) and years > 0.0
    assert math.isfinite(report.reports_per_hour) and report.reports_per_hour > 0.0


# --- resolved timers ---------------------------------------------------------

def test_connected_inactivity_resolution():
    assert make(proc="UP").connected_inactivity_s == 0.0
    assert make(proc="SR").connected_inactivity_s == 0.0
    assert make(proc="CP").connected_inactivity_s == pytest.approx(0.160)
    assert make(proc="CP", cov="Extreme").connected_inactivity_s == pytest.approx(3.84)


def test_idle_active_timer_resolution():
    # the idle window is resolved per flow, from the flow's messages
    assert build_flow(make(proc="CP", case="UL")).idle_drx_s == 0.0
    assert build_flow(make(proc="CP", case="UL_ACK")).idle_drx_s == 0.0
    assert build_flow(make(proc="CP", case="DL_ACK")).idle_drx_s == 0.0
    assert build_flow(make(proc="UP")).idle_drx_s == pytest.approx(14.16)
    assert build_flow(make(proc="CP", case="DL")).idle_drx_s == pytest.approx(14.16)
    assert build_flow(make(proc="SR", cov="Robust")).idle_drx_s == pytest.approx(14.288)


def make(proc="CP", case="UL", cov="Normal", **kw):
    return Scenario(procedure=Procedure(proc), traffic_case=TrafficCase(case),
                    coverage=builtin_coverage_profile(cov), **kw)


# --- scenario files ----------------------------------------------------------

def test_minimal_scenario_file():
    s = parse_scenario("procedure=CP case=UL coverage=Normal iat=3600")
    assert s.procedure is Procedure.CP
    assert s.traffic_case is TrafficCase.UL
    assert s.coverage.name == "Normal"
    assert s.iat_s == 3600.0


def test_scenario_file_comments_and_newlines():
    text = """
    # comment line
    procedure=UP case=DL  # trailing comment
    coverage=Robust
    iat=7200 battery_wh=5.0
    """
    s = parse_scenario(text)
    assert s.procedure is Procedure.UP and s.coverage.name == "Robust"


def test_scenario_file_unknown_key():
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_scenario("procedure=CP nonsense=1")


def test_scenario_file_bad_value():
    with pytest.raises(ConfigurationError, match="bad value"):
        parse_scenario("iat=soon")


def _accepts(key, raw) -> bool:
    try:
        scenario_value(key, raw)
    except ConfigurationError:
        return False
    return True


@pytest.mark.parametrize("key,raw", [("ra_cap", 3.5), ("payload_bytes", 20.9),
                                     ("cp_inactivity_periods", 1e-9)])
def test_number_an_int_key_would_truncate_is_a_bad_value(key, raw):
    lo, hi = _SCENARIO_KEYS[key][3:]
    with pytest.raises(ConfigurationError) as err:
        scenario_value(key, raw)
    assert str(err.value) == (f"bad value {raw!r} for {key!r}; "
                              f"expected a whole number in [{lo}, {hi}]")


@pytest.mark.parametrize("raw,expected", [
    # inside the bounds, the number is not whole, as _outside words it
    (3.5, "a whole number"), ("3.5", "a whole number"), ("3.0", "a whole number"),
    ("1e2", "a whole number"),
    # outside the bounds, or no number at all, the range is what it misses
    (250.5, "a number"), ("250.5", "a number"), ("1e3", "a number"), (0.5, "a number"),
    ("nan", "a number"), (float("inf"), "a number"), ("abc", "a number"), (None, "a number"),
    (10 ** 400, "a number"),
], ids=["3.5", "text-3.5", "text-3.0", "text-1e2", "250.5", "text-250.5", "text-1e3", "0.5",
        "text-nan", "inf", "text-abc", "None", "10**400"])
def test_int_key_names_its_rule(raw, expected):
    with pytest.raises(ConfigurationError) as err:
        scenario_value("ra_cap", raw)
    assert str(err.value) == f"bad value {raw!r} for 'ra_cap'; expected {expected} in [1, 200]"


@pytest.mark.parametrize("raw", [True, False, "3_600", "1_0", "1_0.5", "\u0663",
                                 "\uff11\uff10", "\u00a010"], ids=repr)
def test_bools_and_more_than_ascii_numbers_are_bad_values(raw):
    # int() and float() take a bool, digit separators, non-ASCII digits and
    # spaces; none of them is a number of a scenario key
    for key, (*_, lo, hi) in _SCENARIO_KEYS.items():
        if lo is None:
            continue
        with pytest.raises(ConfigurationError) as err:
            scenario_value(key, raw)
        assert str(err.value) == (f"bad value {raw!r} for {key!r}; "
                                  f"expected a number in [{lo:.15g}, {hi:.15g}]"), key


def test_integral_numbers_and_text_parse_for_an_int_key():
    values = [scenario_value("ra_cap", raw) for raw in ("3", 3, 3.0, "+3", "003")]
    assert values == [3, 3, 3, 3, 3] and all(type(v) is int for v in values)


# the keys that take a real number: iat, battery, sync, 4 budgets, 9 power, 3 timers
FLOAT_KEYS = [key for key in _SCENARIO_KEYS if _accepts(key, "0.5")]


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_float_values_are_bad_values(key, value):
    assert len(FLOAT_KEYS) == 19
    with pytest.raises(ConfigurationError) as err:
        parse_scenario(f"{key}={value}")
    lo, hi = _SCENARIO_KEYS[key][3:]
    assert str(err.value) == (f"line 1: bad value '{value}' for '{key}'; "
                              f"expected a number in [{lo:.15g}, {hi:.15g}]")


@pytest.mark.parametrize("text,message", [
    ("coverage=Deep",
     "line 2: bad value 'Deep' for 'coverage'; expected one of Normal, Robust, Extreme"),
    ("procedure=XX", "line 2: bad value 'XX' for 'procedure'; expected one of SR, CP, UP"),
])
def test_scenario_file_bad_choice_names_allowed_values(text, message):
    with pytest.raises(ConfigurationError) as err:
        parse_scenario("iat=3600\n" + text)
    assert str(err.value) == message


def test_scenario_file_invalid_scenario_rejected():
    with pytest.raises(ConfigurationError,
                       match=r"bad value '1440000' for 'tau_period_s'; "
                             r"expected a number in \[1e-06, 1116000\]"):
        parse_scenario("procedure=CP tau_period_s=1440000")


def test_round_trip_defaults():
    s = Scenario()
    assert parse_scenario(format_scenario(s)) == s


def test_budgets_default_to_the_cell_pools():
    s = Scenario()
    assert (s.budget_npdcch_sf_per_s, s.budget_npdsch_sf_per_s, s.budget_npusch_sc_ms_per_s,
            s.budget_nprach_slots_per_s) == (589.2857142857142, 589.2857142857142, 12000.0, 300.0)
    # the scenario as it was used names every budget
    lines = format_scenario(s).splitlines()
    assert [line for line in lines if line.startswith("budget_")] == [
        "budget_npdcch=589.2857142857142", "budget_npdsch=589.2857142857142",
        "budget_npusch=12000.0", "budget_nprach=300.0"]


NUMERIC_KEYS = [key for key, row in _SCENARIO_KEYS.items() if row[3] is not None]
POWER_KEYS = ["deep_sleep_mw", "inactive_mw", "rx_mw", "tx_max_mw"]


@given(
    proc=st.sampled_from(list(Procedure)),
    case=st.sampled_from(list(TrafficCase)),
    cov=st.sampled_from(["Normal", "Robust", "Extreme"]),
    reach=st.sampled_from(list(Reachability)),
    values=st.fixed_dictionaries({key: domain_values(key) for key in NUMERIC_KEYS}),
    powers=st.lists(st.floats(*_SCENARIO_KEYS["deep_sleep_mw"][3:]), min_size=4,
                    max_size=4, unique=True),
)
def test_round_trip_property(proc, case, cov, reach, values, powers):
    # every numeric key from its domain, bounds included; the state powers
    # are drawn as one sorted set, so their ordering rule mostly holds
    values.update(zip(POWER_KEYS, sorted(powers)))
    kw = {"scenario": {}, "power": {}}
    for key, value in values.items():
        target, fname = _SCENARIO_KEYS[key][:2]
        kw[target][fname] = value
    s = Scenario(procedure=proc, traffic_case=case, coverage=builtin_coverage_profile(cov),
                 mt_reachability=reach, power=PowerProfile(**kw["power"]),
                 **kw["scenario"])
    problems = s.violations()
    if problems:
        # the text carries the same values, so it breaks the same rules
        with pytest.raises(ConfigurationError) as err:
            parse_scenario(format_scenario(s))
        assert str(err.value) == "invalid scenario: " + "; ".join(problems)
    else:
        assert parse_scenario(format_scenario(s)) == s


@given(text=scenario_texts())
@settings(max_examples=200, deadline=None)
# valid corners of the domains: longest IAT, largest and smallest magnitudes,
# largest messages, and a TAU period just above the shortest idle window
@example("iat=1000000000 battery_wh=1000000000000 deep_sleep_mw=1e-06")
@example("battery_wh=1e-06 tx_max_mw=1000000000000 rx_mw=1000000000 ra_cap=200 "
         "payload_bytes=65535 overhead_bytes=65535 ack_payload_bytes=65535 "
         "rar_bytes=65535 coverage=Extreme case=UL_ACK iat=1000000000")
@example("budget_npdcch=1e-06 budget_npdsch=1e-06 budget_npusch=1e-06 "
         "budget_nprach=1e-06 p_cmax_dbm=-300 p_o_npusch_dbm=300 alpha=0")
@example("idle_timer_base_s=0 drx_cycle_base_s=1e-06 tau_period_s=0.07 iat=1000000000 "
         "deep_sleep_mw=1e-06 inactive_mw=2e-06 rx_mw=3e-06 tx_max_mw=4e-06")
def test_parsed_scenarios_give_finite_outputs(text):
    # text from the key table is refused (a ConfigurationError, also one from
    # the energy or capacity calls, such as an IAT shorter than the active
    # cycle) or gives finite, non-negative energies and a positive total,
    # lifetime and capacity
    try:
        s = parse_scenario(text)
        breakdown = cycle_energy(s)
        years = battery_lifetime_years(s)
        report = cell_capacity(s)
    except ConfigurationError:
        return
    fields = astuple(breakdown)
    assert all(math.isfinite(v) and v >= 0.0 for v in fields), fields
    assert breakdown.total_mj > 0.0
    assert math.isfinite(years) and years > 0.0
    assert math.isfinite(report.reports_per_hour) and report.reports_per_hour > 0.0
