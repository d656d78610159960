"""Energy integration, battery lifetime, and their invariants."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, reject, settings, strategies as st
from dataclasses import astuple, fields, replace

from nbiotsim import (ConfigurationError, CycleProfile, EnergyBreakdown, PowerProfile,
                      Scenario, battery_lifetime_years, build_flow, build_tau_flow,
                      cycle_energy, flow_timeline, parse_scenario,
                      psm_baseline_lifetime_years)
from nbiotsim import energy, flows
from nbiotsim.cli import SweepSpec, run_lifetime_sweep
from nbiotsim.config import (_SCENARIO_KEYS, COVERAGE_NAMES, HOURS_PER_YEAR, MAX_PSM_TIME_S,
                             Procedure, Reachability, TrafficCase)
from nbiotsim.energy import cycle_profile, price
from nbiotsim.flows import US_PER_S, EnergyCategory
from tests.conftest import (active_duration_s, binned_energy_mj, clear_memos, domain_values,
                            fresh_profile, lifetime_and_shares, make_scenario,
                            reference_category_mj, reference_rows, timeline_mj, timeline_us)
from tests.test_invariants import evaluate, scenario_values


def test_rx_interval_energy():
    mj = price({(EnergyCategory.MESSAGES, 90.0): 100_000})
    assert mj[EnergyCategory.MESSAGES] == pytest.approx(9.0)   # 90 mW for 100 ms
    assert list(mj) == list(EnergyCategory)
    assert all(v == 0.0 for cat, v in mj.items() if cat is not EnergyCategory.MESSAGES)


def test_psm_baseline():
    s = Scenario()
    years = psm_baseline_lifetime_years(s)
    hours = years * HOURS_PER_YEAR
    assert hours == pytest.approx(5.0 / 1.5e-5, rel=1e-12)
    assert years == pytest.approx(38.05, abs=0.01)


def test_average_power_approaches_deep_sleep_floor():
    # with a huge inter-arrival time the average power tends to the PSM draw
    s = make_scenario("CP", "UL", iat_h=10000.0)
    assert cycle_energy(s).total_mj / 1000 / s.iat_s == pytest.approx(1.5e-5, rel=0.05)


def test_breakdown_total_is_exact_sum():
    b = cycle_energy(make_scenario("UP", "UL"))
    assert b.total_mj == (b.ra_sync_mj + b.post_ra_messages_mj
                          + b.connected_drx_mj + b.idle_drx_mj + b.psm_mj)
    assert sum(getattr(b, cat.value) / b.total_mj for cat in EnergyCategory) \
        == pytest.approx(1.0, abs=1e-12)
    assert all(v >= 0 for v in (b.ra_sync_mj, b.post_ra_messages_mj,
                                b.connected_drx_mj, b.idle_drx_mj, b.psm_mj))


def test_cp_ul_idle_drx_energy_is_zero():
    for cov in ("Normal", "Robust", "Extreme"):
        for case in ("UL", "UL_ACK", "DL_ACK"):
            assert cycle_energy(make_scenario("CP", case, cov)).idle_drx_mj == 0.0


def test_up_and_sr_have_idle_drx_energy():
    for proc in ("UP", "SR"):
        b = cycle_energy(make_scenario(proc, "UL"))
        assert b.idle_drx_mj > 10.0    # a 14 s window at >= 3 mW


@settings(max_examples=20, deadline=None)
@given(k=st.floats(min_value=0.25, max_value=8.0),
       proc=st.sampled_from(["SR", "CP", "UP"]),
       case=st.sampled_from(["UL", "DL"]))
def test_energy_linear_in_state_powers(k, proc, case):
    s = make_scenario(proc, case)
    p = s.power
    scaled = replace(s, power=replace(p, deep_sleep_mw=k * p.deep_sleep_mw,
                                      inactive_mw=k * p.inactive_mw,
                                      rx_mw=k * p.rx_mw, tx_max_mw=k * p.tx_max_mw))
    a, b = cycle_energy(s), cycle_energy(scaled)
    for field in ("ra_sync_mj", "post_ra_messages_mj", "connected_drx_mj",
                  "idle_drx_mj", "psm_mj"):
        assert getattr(b, field) == pytest.approx(k * getattr(a, field), rel=1e-12)
    assert b.total_mj == pytest.approx(k * a.total_mj, rel=1e-12)
    assert battery_lifetime_years(scaled) == pytest.approx(
        battery_lifetime_years(s) / k, rel=1e-12)


@pytest.mark.parametrize("proc", ["SR", "CP", "UP"])
@pytest.mark.parametrize("case", ["UL", "UL_ACK", "DL", "DL_ACK"])
@pytest.mark.parametrize("cov", ["Normal", "Robust", "Extreme"])
def test_lifetime_monotone_in_iat(proc, case, cov):
    hours = (1, 2, 5, 10, 24)
    values = [battery_lifetime_years(make_scenario(proc, case, cov, h)) for h in hours]
    assert all(b >= a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("proc", ["SR", "CP", "UP"])
@pytest.mark.parametrize("iat_h", [1, 10])
def test_lifetime_ordering_across_coverage(proc, iat_h):
    n = battery_lifetime_years(make_scenario(proc, "UL", "Normal", iat_h))
    r = battery_lifetime_years(make_scenario(proc, "UL", "Robust", iat_h))
    e = battery_lifetime_years(make_scenario(proc, "UL", "Extreme", iat_h))
    assert n >= r >= e


def test_cp_and_up_similar_in_dl():
    for h in (1, 10, 24):
        cp = battery_lifetime_years(make_scenario("CP", "DL", "Normal", h))
        up = battery_lifetime_years(make_scenario("UP", "DL", "Normal", h))
        assert abs(cp - up) / up < 0.10


def test_binned_reintegration_matches_closed_form():
    # downlink case carries its TAU inside the flow, so the cycle energy is
    # exactly the timeline integral; re-integrate over 1 ms bins independently
    s = make_scenario("UP", "DL", iat_h=1 / 30.0)
    timeline = flow_timeline(build_flow(s), s)
    closed = cycle_energy(s).total_mj
    brute = binned_energy_mj(timeline, bin_ms=1.0)
    assert brute == pytest.approx(closed, rel=1e-3)


def test_amortized_tau_assembly():
    # uplink cycles add iat/period of the standalone TAU flow's energy and
    # drop the matching slice of deep sleep
    s = make_scenario("UP", "UL", iat_h=2.0)
    main = timeline_mj(flow_timeline(build_flow(s), s))
    tau_tl = flow_timeline(build_tau_flow(s), s, fill_to_iat=False)
    tau = timeline_mj(tau_tl)
    frac = s.iat_s / s.psm_tau_period_s
    expected_total = (sum(main.values()) + frac * sum(tau.values())
                      - active_duration_s(tau_tl) * frac * s.power.deep_sleep_mw)
    assert cycle_energy(s).total_mj == pytest.approx(expected_total, rel=1e-12)


def assembled_breakdown(s):
    """Cycle energy assembled from the IAT-filled timeline, plus the amortized
    TAU on uplink PSM_TAU cycles, in the model's order: integrate the active
    intervals, scale the TAU integral by the IAT's and the TAU period's whole
    microseconds and charge its idle DRX to ra_sync, then take the TAU's awake
    microseconds out of the rest interval and price what is left once."""
    *active, rest = flow_timeline(build_flow(s), s)
    iat_us = round(s.iat_s * 1e6)
    assert rest.end_us == iat_us and rest.label in ("psm", "paging")
    cats = timeline_mj(active)
    rest_us = rest.duration_us
    if (not s.traffic_case.mobile_terminated
            and s.mt_reachability is Reachability.PSM_TAU):
        tau_tl = flow_timeline(build_tau_flow(s), s, fill_to_iat=False)
        frac = iat_us / round(s.psm_tau_period_s * 1e6)
        rest_us -= tau_tl[-1].end_us * frac
        for cat, value in timeline_mj(tau_tl).items():
            target = EnergyCategory.RA_SYNC if cat is EnergyCategory.IDLE_DRX else cat
            cats[target] += value * frac
    cats[rest.category] += rest.power_mw * rest_us * 1e-6
    return EnergyBreakdown(
        ra_sync_mj=cats[EnergyCategory.RA_SYNC],
        post_ra_messages_mj=cats[EnergyCategory.MESSAGES],
        connected_drx_mj=cats[EnergyCategory.CONNECTED_DRX],
        idle_drx_mj=cats[EnergyCategory.IDLE_DRX],
        psm_mj=cats[EnergyCategory.PSM])


@pytest.mark.parametrize("reach", list(Reachability))
@pytest.mark.parametrize("cov", COVERAGE_NAMES)
@pytest.mark.parametrize("case", [c.value for c in TrafficCase])
@pytest.mark.parametrize("proc", [p.value for p in Procedure])
def test_profile_breakdown_equals_assembled_timeline(proc, case, cov, reach):
    # one profile serves every IAT, bit for bit, on the IAT's whole microseconds
    base = make_scenario(proc, case, cov, mt_reachability=reach)
    profile = cycle_profile(base)
    for iat_s in (3600.0, 86400.0, 12345.6789):
        s, iat_us = replace(base, iat_s=iat_s), round(iat_s * 1e6)
        got, want = EnergyBreakdown(*profile.category_mj(iat_us)), assembled_breakdown(s)
        for field in ("ra_sync_mj", "post_ra_messages_mj", "connected_drx_mj",
                      "idle_drx_mj", "psm_mj"):
            assert getattr(got, field) == getattr(want, field), (iat_s, field)
        assert cycle_energy(s) == got
        assert profile.lifetime_rows((iat_s,), s.battery_wh)[0][1] == (
            s.battery_wh / (want.total_mj / 1000.0 / (iat_us / 1e6)) / HOURS_PER_YEAR)


def test_category_values_are_the_breakdown_fields():
    # one name per category, in field order: share() reads the field by value,
    # and cycle_energy() builds the breakdown positionally in category order
    assert [c.value for c in EnergyCategory] == [f.name for f in fields(EnergyBreakdown)]


@pytest.mark.parametrize("reach", list(Reachability))
@pytest.mark.parametrize("case", [c.value for c in TrafficCase])
@pytest.mark.parametrize("proc", [p.value for p in Procedure])
def test_profile_active_times_are_timeline_microseconds(proc, case, reach):
    # both active times are the last end_us of an unfilled timeline; the rest
    # power and category are those of the filled timeline's last interval;
    # only an uplink PSM_TAU cycle amortizes an event, the standalone TAU,
    # whose idle-DRX energy is charged to ra_sync; only a downlink PSM_TAU
    # cycle, paced by its own TAU, has an IAT ceiling
    s = make_scenario(proc, case, "Robust", mt_reachability=reach)
    profile = cycle_profile(s)
    assert [f.name for f in fields(CycleProfile)] == [
        "active_mj", "active_us", "rest_mw", "rest_category", "events", "max_iat_us",
        "per_channel_usage"]
    paced_by_tau = s.traffic_case.mobile_terminated and reach is Reachability.PSM_TAU
    assert profile.max_iat_us == (MAX_PSM_TIME_S * 10**6 if paced_by_tau else math.inf)
    timeline = flow_timeline(build_flow(s), s, fill_to_iat=False)
    assert profile.active_us == timeline[-1].end_us
    rest = flow_timeline(build_flow(s), s)[-1]
    assert rest.start_us == profile.active_us
    assert (profile.rest_mw, profile.rest_category) == (rest.power_mw, rest.category)
    if s.traffic_case.mobile_terminated or reach is Reachability.DRX_PAGING:
        assert profile.events == ()
        return
    (tau,) = profile.events
    tau_tl = flow_timeline(build_tau_flow(s), s, fill_to_iat=False)
    assert tau.active_us == tau_tl[-1].end_us > 0
    assert tau.period_us == s.psm_tau_period_s * 10**6
    want = timeline_mj(tau_tl)
    want[EnergyCategory.RA_SYNC] += want.pop(EnergyCategory.IDLE_DRX)
    got = {cat: 0.0 for cat in want}
    for cat, mj in tau.mj:
        got[cat] += mj
    assert got == want
    assert got[EnergyCategory.RA_SYNC] > 0.0 and got[EnergyCategory.MESSAGES] > 0.0


def test_iat_sweep_builds_timelines_once(monkeypatch):
    # the cycle and its standalone TAU are each laid out once, into a sink
    # that sums time: no profile builds an Interval list.  Every memo starts
    # empty, so a profile built by an earlier test hides no pass
    clear_memos()
    passes, timelines = [], []
    real_time, real_timeline = flows.active_time, flows.flow_timeline
    monkeypatch.setattr(flows, "active_time",
                        lambda *args: passes.append(args) or real_time(*args))
    monkeypatch.setattr(flows, "flow_timeline",
                        lambda *args, **kw: timelines.append(args) or real_timeline(*args, **kw))
    spec = SweepSpec("iat", tuple(h * 3600.0 for h in range(1, 25)),
                     make_scenario("UP", "UL"))
    table = run_lifetime_sweep(spec)
    assert len(table.rows) == 1 + 24 and all(row[-1] == "" for row in table.rows)
    assert len(passes) <= 2     # the cycle and the standalone TAU
    for reach in Reachability:
        for case in TrafficCase:
            cycle_profile(make_scenario("SR", case.value, mt_reachability=reach))
    assert timelines == []


def test_iat_sweep_validates_its_scenario_once(monkeypatch):
    # the scenario is validated once, when it is built: rows that share a
    # cycle profile differ only in their parsed IAT, whose bounds on the
    # cycle category_mj checks, and the sweep builds no scenario
    calls = []
    real = Scenario.violations
    monkeypatch.setattr(Scenario, "violations", lambda s: calls.append(s) or real(s))
    spec = SweepSpec("iat", tuple(h * 3600.0 for h in range(1, 25)),
                     make_scenario("CP", "DL"))
    table = run_lifetime_sweep(spec)
    assert len(table.rows) == 1 + 24 and all(row[-1] == "" for row in table.rows)
    assert len(calls) == 1


def test_iat_sweep_builds_one_scenario_and_one_profile(monkeypatch):
    # the 24 rows of an IAT sweep form one point group, which sets no field:
    # no replace of the fixed scenario and one cycle profile, then only the
    # IAT per row.  Every memo starts empty, so the one Scenario built is the
    # standalone TAU's, of the fields its layout reads
    s = make_scenario("UP", "UL")
    spec = SweepSpec("iat", tuple(h * 3600.0 for h in range(1, 25)), s)
    clear_memos()
    built, profiles = [], []
    real_init, real_profile = Scenario.__init__, energy.cycle_profile
    monkeypatch.setattr(Scenario, "__init__",
                        lambda s, *args, **kw: built.append(kw) or real_init(s, *args, **kw))
    monkeypatch.setattr(energy, "cycle_profile", lambda s: profiles.append(s) or real_profile(s))
    table = run_lifetime_sweep(spec)
    assert len(table.rows) == 1 + 24 and all(row[-1] == "" for row in table.rows)
    assert built == [dict(zip(energy._TAU_FIELDS, energy._tau_key(s)))]
    assert len(profiles) == 1


def test_coverage_sweep_builds_one_scenario_and_one_profile_per_value(monkeypatch):
    # a group that sets a field is one replace of the fixed scenario.  Every
    # memo starts empty, so each level's standalone TAU is built too, on the
    # fields its layout reads alone
    spec = SweepSpec("coverage", COVERAGE_NAMES, make_scenario("UP", "UL"))
    clear_memos()
    built, profiles = [], []
    real_init, real_profile = Scenario.__init__, energy.cycle_profile
    monkeypatch.setattr(Scenario, "__init__",
                        lambda s, *args, **kw: built.append(kw) or real_init(s, *args, **kw))
    monkeypatch.setattr(energy, "cycle_profile", lambda s: profiles.append(s) or real_profile(s))
    table = run_lifetime_sweep(spec)
    assert len(table.rows) == 1 + 3 and all(row[-1] == "" for row in table.rows)
    taus = [kw for kw in built if kw.keys() == set(energy._TAU_FIELDS)]
    assert len(built) - len(taus) == 3 and len(taus) == 3 and len(profiles) == 3


def priced(profile, iat_us):
    """repr of a profile's category mJ at iat_us, or the text of its refusal."""
    try:
        return repr(profile.category_mj(iat_us))
    except ConfigurationError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(values=scenario_values(), iats=st.lists(domain_values("iat"), min_size=1, max_size=3))
def test_memoized_profile_is_a_fresh_build(values, iats):
    # cycle_profile shares one profile per scenario value; it must equal a
    # build that bypasses the memo, and the TAU's, and price every IAT to the
    # same bits
    s = evaluate(lambda s: s, values)
    try:
        fresh = fresh_profile(s)
    except ConfigurationError as exc:
        with pytest.raises(ConfigurationError, match=re.escape(str(exc))):
            cycle_profile(s)
        return
    memo = cycle_profile(s)
    assert cycle_profile(s) is memo and memo == fresh
    for iat_s in iats:
        iat_us = round(iat_s * US_PER_S)
        assert priced(memo, iat_us) == priced(fresh, iat_us)


# equal scenarios that are not alike: int/float and -0.0/0.0 twins
TWINS = {
    "sync-int": ({"sync_base_ms": 330}, {"sync_base_ms": 330.0}),
    "power-int": ({"power": PowerProfile(inactive_mw=3, rx_mw=90, tx_max_mw=545)},
                  {"power": PowerProfile(inactive_mw=3.0, rx_mw=90.0, tx_max_mw=545.0)}),
    "alpha-zero": ({"power": PowerProfile(alpha=-0.0)}, {"power": PowerProfile(alpha=0.0)}),
    "idle-timer-zero": ({"idle_active_timer_base_s": -0.0}, {"idle_active_timer_base_s": 0.0}),
}


@pytest.mark.parametrize("reach", list(Reachability))
@pytest.mark.parametrize("twins", TWINS.values(), ids=list(TWINS))
def test_equal_twins_share_one_profile_and_price_alike(twins, reach):
    # twins are one memo key, so each must price as the other: built with
    # every memo empty, their profiles are equal and their lifetime rows and
    # category mJ repr-identical.  Each pair differs in a field the standalone
    # TAU's layout reads, so the twins are one TAU memo key as well
    s, t = (make_scenario("CP", "UL", mt_reachability=reach, **kw) for kw in twins)
    assert s == t and s is not t
    fresh, taus = [], []
    for x in (s, t):
        clear_memos()
        fresh.append(fresh_profile(x))
        taus.append(fresh_tau_event(x))
    assert fresh[0] == fresh[1]
    assert repr(taus[0]) == repr(taus[1])
    for iat_us in (3600 * US_PER_S, 86400 * US_PER_S):
        mj = [p.category_mj(iat_us) for p in fresh]
        assert repr(mj[0]) == repr(mj[1])
        assert repr(fresh[0].lifetime_rows((iat_us / US_PER_S,), s.battery_wh)) == repr(
            fresh[1].lifetime_rows((iat_us / US_PER_S,), t.battery_wh))
    clear_memos()
    assert cycle_profile(s) is cycle_profile(t)
    assert cycle_profile.cache_info().currsize == 1
    assert energy._tau_event(energy._tau_key(s)) is energy._tau_event(energy._tau_key(t))
    assert energy._tau_event.cache_info().currsize == 1
    if reach is Reachability.PSM_TAU:
        assert cycle_profile(t).events == (energy._tau_event(energy._tau_key(s)),)


@pytest.mark.parametrize("case", [c.value for c in TrafficCase])
def test_callers_leave_the_shared_profile_unchanged(case):
    # the breakdown, the lifetime and the sweep rows all read the one
    # memoized profile, and none may change it
    s = make_scenario("UP", case)
    shared = cycle_profile(s)
    cycle_energy(s)
    battery_lifetime_years(s)
    run_lifetime_sweep(SweepSpec("iat", (3600.0, 86400.0), s))
    assert cycle_profile(s) is shared
    assert shared == fresh_profile(s)
    assert shared._constants == fresh_profile(s)._constants


def test_a_returned_row_or_mj_shares_nothing_with_the_profile():
    # the rows are a new list of tuples, the category mJ a tuple, and the
    # constants hold only tuples and numbers, so a caller that changes what
    # it got leaves the shared profile pricing as before
    s = make_scenario("UP", "UL")
    profile = cycle_profile(s)
    rows = profile.lifetime_rows((3600.0, 7200.0), s.battery_wh)
    first = repr(rows)
    rows.clear()
    assert type(profile.category_mj(3600 * US_PER_S)) is tuple
    assert repr(profile.lifetime_rows((3600.0, 7200.0), s.battery_wh)) == first
    hash(profile._constants)
    assert profile == fresh_profile(s)


def straddled_bounds(profile):
    """Whole-us IATs around a profile's two bounds: its least IAT, that of a
    rest of zero or more, and its ceiling where it has one."""
    awake = sum(Fraction(e.active_us, e.period_us) for e in profile.events)
    least_us = math.ceil(Fraction(profile.active_us) / (1 - awake))
    edges = [least_us - 1, least_us, least_us + 1]
    if profile.max_iat_us < math.inf:
        edges += [profile.max_iat_us - 1, profile.max_iat_us, profile.max_iat_us + 1]
    return edges


def reference_priced(profile, iat_us):
    """`priced`, by the reference dict walk."""
    try:
        return repr(reference_category_mj(profile, iat_us))
    except ConfigurationError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(values=scenario_values(), iats=st.lists(domain_values("iat"), max_size=4))
@example(values={"procedure": "CP", "case": "UL", "coverage": "Robust",
                 "reachability": "PSM_TAU"}, iats=[3600.0, 86400.0])
def test_lifetime_rows_are_the_reference_rows(values, iats):
    # the one pricing loop, over flat constants, gives every row, error rows
    # and their text included, and every category mJ, lifetime and PSM floor
    # to the bit of the dict walk and the lifetime formula it replaced.  An
    # uplink PSM_TAU cycle's TAU adds twice to ra_sync, its own and its idle
    # DRX, in event order (the example)
    s = evaluate(lambda s: s, values)
    try:
        profile = cycle_profile(s)
    except ConfigurationError:
        reject()
    iats_s = (*iats, s.iat_s, *(us / US_PER_S for us in straddled_bounds(profile)))
    head = (s.procedure.value, s.traffic_case.value, s.coverage.name)
    assert repr(profile.lifetime_rows(iats_s, s.battery_wh, head)) == repr(
        reference_rows(profile, iats_s, s.battery_wh, head))
    for iat_s in iats_s:
        iat_us = round(iat_s * US_PER_S)
        assert priced(profile, iat_us) == reference_priced(profile, iat_us)
    (row,) = reference_rows(profile, (s.iat_s,), s.battery_wh)
    try:
        assert (repr(battery_lifetime_years(s)), "") == (repr(row[1]), row[-1])
        assert repr(astuple(cycle_energy(s))) == reference_priced(profile, round(s.iat_s * US_PER_S))
    except ConfigurationError as exc:
        assert str(exc) == row[-1]
    assert repr(psm_baseline_lifetime_years(s)) == repr(lifetime_and_shares(
        (0.0, 0.0, 0.0, 0.0, s.power.deep_sleep_mw), US_PER_S, s.battery_wh)[0])


def test_an_uplink_psm_tau_event_adds_in_event_order():
    # the TAU's (category, mJ) pairs become (field index, mJ) pairs in event
    # order, its zero pairs dropped: ra_sync twice, its own mJ and then its
    # idle DRX's, neither summed with the other
    s = make_scenario("CP", "UL", "Robust")
    profile = cycle_profile(s)
    (tau,) = profile.events
    (event,) = profile._constants[-1]
    field = {cat: i for i, cat in enumerate(EnergyCategory)}
    assert event == (tau.active_us, tau.period_us,
                     tuple((field[cat], mj) for cat, mj in tau.mj if mj != 0.0))
    assert [f for f, _ in event[2]].count(field[EnergyCategory.RA_SYNC]) == 2


def field_changes(s, profile):
    """A change of each field a row reads, by name: the rest state moved to
    the other category at twice its power, the TAU added or dropped, the
    TAU's period halved and its mJ doubled (added where the cycle has none),
    the active cycle doubled, a ceiling at five active cycles."""
    other = (EnergyCategory.IDLE_DRX if profile.rest_category is EnergyCategory.PSM
             else EnergyCategory.PSM)
    tau = energy._tau_event(energy._tau_key(s))
    return {
        "rest": {"rest_mw": 2.0 * profile.rest_mw, "rest_category": other},
        "events": {"events": () if profile.events else (tau,)},
        "tau": {"events": (replace(tau, period_us=tau.period_us // 2,
                                   mj=tuple((cat, 2.0 * mj) for cat, mj in tau.mj)),)},
        "active": {"active_mj": {cat: 2.0 * mj for cat, mj in profile.active_mj.items()},
                   "active_us": 2 * profile.active_us},
        "ceiling": {"max_iat_us": 5 * profile.active_us},
    }


@pytest.mark.parametrize("change", ["rest", "events", "tau", "active", "ceiling"])
@pytest.mark.parametrize("reach", list(Reachability))
@pytest.mark.parametrize("case", ["UL", "DL"])
def test_a_replaced_profile_prices_as_one_built_with_its_fields(case, reach, change):
    # the row constants derive from the fields whenever a profile is built,
    # so one replaced as test_invariants' paging property replaces one
    # prices exactly as one built with the same fields, by the reference,
    # and not as the profile it was replaced from
    s = make_scenario("UP", case, mt_reachability=reach)
    profile = cycle_profile(s)
    changes = field_changes(s, profile)[change]
    replaced = replace(profile, **changes)
    built = CycleProfile(**{**{f.name: getattr(profile, f.name) for f in fields(CycleProfile)},
                            **changes})
    iats = (3600.0, 86400.0, *(us / US_PER_S for us in straddled_bounds(replaced)))
    want = repr(reference_rows(replaced, iats, s.battery_wh))
    assert repr(replaced.lifetime_rows(iats, s.battery_wh)) == want
    assert repr(built.lifetime_rows(iats, s.battery_wh)) == want
    assert replaced._constants == built._constants != profile._constants
    for iat_s in iats:
        iat_us = round(iat_s * US_PER_S)
        assert priced(replaced, iat_us) == priced(built, iat_us) == reference_priced(replaced, iat_us)


def test_profile_memo_holds_at_most_its_bound():
    # more distinct scenarios than the memo holds: it never grows past its
    # bound, and a scenario built again after its eviction prices alike
    energy.cycle_profile.cache_clear()
    maxsize = cycle_profile.cache_info().maxsize
    points = [make_scenario("CP", "UL", data_payload_bytes=k) for k in range(maxsize + 44)]
    first = [cycle_profile(s) for s in points]
    assert cycle_profile.cache_info().currsize == maxsize
    assert [cycle_profile(s) for s in points] == first
    assert cycle_profile.cache_info().currsize == maxsize


def fresh_tau_event(s):
    """The standalone TAU of s, laid out and priced in place: its idle DRX
    charged to ra_sync, once per TAU period of whole microseconds."""
    us, active_us, _ = flows.active_time(build_tau_flow(s), s)
    return energy.PeriodicEvent(
        tuple((EnergyCategory.RA_SYNC if cat is EnergyCategory.IDLE_DRX else cat, mj)
              for cat, mj in price(us).items()),
        active_us, round(s.psm_tau_period_s * US_PER_S))


UPLINK_PSM_TAU = scenario_values(cases=(TrafficCase.UL, TrafficCase.UL_ACK),
                                 reachability=(Reachability.PSM_TAU,))


@settings(max_examples=60, deadline=None)
@given(values=UPLINK_PSM_TAU, other=UPLINK_PSM_TAU)
def test_tau_memo_is_a_fresh_layout(values, other):
    # the TAU memo is keyed on the fields its layout reads: t takes those of
    # s and the rest of other, so it finds the entry s laid out, and that
    # entry must be t's own TAU as well as s's.  A field missing from the key
    # fails here: s's entry is laid out on that field's default, and t hits it
    s = evaluate(lambda s: s, values)
    t = evaluate(lambda t: replace(t, **dict(zip(energy._TAU_FIELDS, energy._tau_key(s)))),
                 other)
    clear_memos()
    for x in (s, t):
        want = fresh_tau_event(x)
        if want.active_us < want.period_us:
            assert cycle_profile(x).events == (want,)
        else:
            with pytest.raises(ConfigurationError, match="periodic TAUs keep the UE awake"):
                cycle_profile(x)
    assert energy._tau_event.cache_info().currsize == 1


@pytest.mark.parametrize("proc", ["SR", "UP", "CP"])
def test_only_a_cp_tau_is_keyed_on_its_inactivity_count(proc):
    # only a CP layout reads cp_inactivity_npdcch_periods (an SR or UP
    # scenario's connected_inactivity_s is 0), so SR scenarios, and UP ones,
    # that differ only in it share one standalone TAU, which is each one's
    # own, laid out in place, and price as a build past every memo; CP ones
    # take one TAU each
    points = [make_scenario(proc, "UL", cp_inactivity_npdcch_periods=n) for n in (0, 5, 400)]
    clear_memos()
    for s in points:
        fresh = fresh_profile(s)
        assert cycle_profile(s).events == fresh.events == (fresh_tau_event(s),)
        for iat_us in (3600 * US_PER_S, 86400 * US_PER_S):
            assert repr(cycle_profile(s).category_mj(iat_us)) == repr(fresh.category_mj(iat_us))
    assert energy._tau_event.cache_info().currsize == (3 if proc == "CP" else 1)


def test_tau_memo_holds_at_most_its_bound():
    # more distinct TAU periods than the memo holds: it never grows past its
    # bound, and a TAU laid out again after its eviction prices alike
    clear_memos()
    maxsize = energy._tau_event.cache_info().maxsize
    points = [make_scenario("CP", "UL", psm_tau_period_s=86400.0 + k)
              for k in range(maxsize + 44)]
    first = [cycle_profile(s).events for s in points]
    assert energy._tau_event.cache_info().currsize == maxsize
    energy.cycle_profile.cache_clear()
    assert [cycle_profile(s).events for s in points] == first
    assert energy._tau_event.cache_info().currsize == maxsize


def test_iat_shorter_than_active_cycle_rejected():
    # SR/DL_ACK at Extreme coverage has the longest active cycle of the grid
    s = make_scenario("SR", "DL_ACK", "Extreme")
    profile = cycle_profile(s)
    assert 52.0 < profile.active_us / 1e6 < 52.5
    assert profile.category_mj(profile.active_us)[-1] == 0.0       # psm_mj
    with pytest.raises(ConfigurationError, match="active cycle"):
        profile.category_mj(profile.active_us - 1)
    with pytest.raises(ConfigurationError, match="iat_s=30.0"):
        cycle_energy(replace(s, iat_s=30.0))


def test_amortized_taus_longer_than_iat_rejected():
    # the amortized TAUs' awake time counts toward the active cycle, so a TAU
    # period shorter than one TAU leaves no IAT a rest time: the profile is
    # refused when it is built, not priced at a clamped deep-sleep energy
    s = make_scenario("CP", "UL", idle_active_timer_base_s=0.0,
                      drx_long_cycle_base_s=1e-6, psm_tau_period_s=0.07)
    assert flows.active_time(build_tau_flow(s), s)[1] > 70_000
    # the profile memo keeps no exception, so a second call is refused too
    for _ in range(2):
        with pytest.raises(ConfigurationError, match=re.escape(
                "periodic TAUs keep the UE awake 0.774002 s of every 0.07 s "
                "TAU period: no IAT is long enough")):
            cycle_profile(s)
    # a TAU period longer than one TAU leaves deep sleep in the cycle, and an
    # IAT shorter than the cycle is its own fault
    profile = cycle_profile(replace(s, psm_tau_period_s=7.0))
    assert profile.category_mj(3600 * 10**6)[-1] > 0.0
    # the active cycle is printed to whole microseconds
    with pytest.raises(ConfigurationError,
                       match=r"iat_s=0\.5: shorter than the \d+\.\d{6} s active cycle$"):
        profile.category_mj(500_000)


def test_rest_time_boundary_of_an_uplink_psm_tau_cycle():
    # the amortized TAUs take iat / period of their awake time out of the
    # rest, so the shortest IAT is the least whole microsecond n with
    # n - active_us - tau_us * n / period_us >= 0: it prices a rest of zero or
    # more, and one microsecond less is shorter than the active cycle
    s = make_scenario("CP", "UL", idle_active_timer_base_s=0.0,
                      drx_long_cycle_base_s=1e-6, psm_tau_period_s=7.0)
    profile = cycle_profile(s)
    (tau,) = profile.events
    least_us = math.ceil(Fraction(profile.active_us)
                         / (1 - Fraction(tau.active_us, 7 * 10**6)))
    assert least_us > profile.active_us + tau.active_us * profile.active_us / 7e6
    psm_mj = profile.category_mj(least_us)[-1]
    assert psm_mj >= 0.0 and psm_mj < s.power.deep_sleep_mw * 1e-6
    with pytest.raises(ConfigurationError, match=re.escape(
            f"iat_s={(least_us - 1) / 1e6}: shorter than the ")):
        profile.category_mj(least_us - 1)


def assert_energy_pass_exact(flow, s):
    """The time pass gives the whole microseconds per (category, power) of the
    unfilled timeline, in first-interval order, and its last end; priced, they
    give the reference integral of that timeline bit for bit."""
    timeline = flow_timeline(flow, s, fill_to_iat=False)
    us, end_us, _ = flows.active_time(flow, s)
    assert list(us.items()) == list(timeline_us(timeline).items())
    assert all(type(v) is int and v > 0 for v in us.values())
    assert end_us == timeline[-1].end_us == sum(us.values())
    mj, want = price(us), timeline_mj(timeline)
    assert list(mj) == list(want) == list(EnergyCategory)
    for cat in EnergyCategory:
        assert mj[cat] == want[cat], cat


@pytest.mark.parametrize("reach", list(Reachability))
@pytest.mark.parametrize("cov", COVERAGE_NAMES)
@pytest.mark.parametrize("case", [c.value for c in TrafficCase])
@pytest.mark.parametrize("proc", [p.value for p in Procedure])
def test_active_energy_equals_integrated_timeline(proc, case, cov, reach):
    s = make_scenario(proc, case, cov, mt_reachability=reach)
    assert_energy_pass_exact(build_flow(s), s)
    assert_energy_pass_exact(build_tau_flow(s), s)


# every numeric key from its domain, bounds included; the state powers are
# drawn as one sorted set, so their ordering rule mostly holds
POWER_KEYS = ("deep_sleep_mw", "inactive_mw", "rx_mw", "tx_max_mw")
KEY_VALUES = {key: domain_values(key) for key, row in _SCENARIO_KEYS.items()
              if row[3] is not None and key not in POWER_KEYS}


@settings(max_examples=60, deadline=None)
@given(proc=st.sampled_from(Procedure), case=st.sampled_from(TrafficCase),
       cov=st.sampled_from(COVERAGE_NAMES), reach=st.sampled_from(Reachability),
       values=st.fixed_dictionaries(KEY_VALUES),
       powers=st.lists(domain_values("rx_mw"), min_size=4, max_size=4, unique=True))
def test_active_energy_equals_integrated_timeline_property(proc, case, cov, reach,
                                                           values, powers):
    values.update(zip(POWER_KEYS, sorted(powers)))
    text = " ".join(f"{key}={value!r}" for key, value in values.items())
    try:
        s = parse_scenario(f"procedure={proc.value} case={case.value} coverage={cov} "
                           f"reachability={reach.value} {text}")
    except ConfigurationError:
        reject()
    assert_energy_pass_exact(build_flow(s), s)
    assert_energy_pass_exact(build_tau_flow(s), s)


def test_dl_cycles_have_no_amortized_tau():
    # a downlink cycle's energy is its IAT-filled timeline, under PSM_TAU and
    # under paging alike
    for reach in Reachability:
        s = make_scenario("CP", "DL", iat_h=2.0, mt_reachability=reach)
        main = timeline_mj(flow_timeline(build_flow(s), s))
        assert cycle_energy(s).total_mj == pytest.approx(sum(main.values()), rel=1e-12)


@pytest.mark.parametrize("reach", list(Reachability))
@pytest.mark.parametrize("case", [c.value for c in TrafficCase])
def test_cycle_energy_affine_in_iat(case, reach):
    # the rest state is one interval, so no whole-cycle count bends the line:
    # second differences over 5 IATs 1 h apart vanish
    base = make_scenario("UP", case, "Robust", mt_reachability=reach)
    energies = [cycle_energy(replace(base, iat_s=3600.0 * k)).total_mj for k in range(1, 6)]
    for a, b, c in zip(energies, energies[1:], energies[2:]):
        assert abs(a - 2.0 * b + c) <= 1e-9 * max(energies)


def test_lifetime_example_anchor():
    # an average power of 57 uW sits right at the 10-year design target
    s = Scenario()
    years = s.battery_wh / 5.7e-5 / HOURS_PER_YEAR
    assert years == pytest.approx(10.0, abs=0.02)
