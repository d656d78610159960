"""Energy integration, battery lifetime, and their invariants."""

import pytest
from hypothesis import given, settings, strategies as st
from dataclasses import fields, replace

from nbiotsim import (ConfigurationError, CycleProfile, EnergyBreakdown, PowerProfile,
                      Scenario, battery_lifetime_years, build_flow, build_tau_flow,
                      cycle_energy, flow_timeline, psm_baseline_lifetime_years)
from nbiotsim import flows
from nbiotsim.cli import SweepSpec, run_lifetime_sweep
from nbiotsim.config import (COVERAGE_NAMES, HOURS_PER_YEAR, Procedure, Reachability,
                             TrafficCase, UeState)
from nbiotsim.energy import (cycle_profile, integrate_timeline, interval_energy_mj,
                             lifetime_years)
from nbiotsim.flows import EnergyCategory, Interval
from tests.conftest import active_duration_s, binned_energy_mj, make_scenario


def test_rx_interval_energy():
    iv = Interval(0, 100_000, UeState.RX, 90.0, EnergyCategory.MESSAGES, "x")
    assert interval_energy_mj(iv) == pytest.approx(9.0)   # 90 mW for 100 ms


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
    assert b.share(EnergyCategory.CONNECTED_DRX, EnergyCategory.IDLE_DRX) \
        == (b.connected_drx_mj + b.idle_drx_mj) / b.total_mj
    assert sum(b.share(cat) for cat in EnergyCategory) == pytest.approx(1.0, abs=1e-12)
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
    main = integrate_timeline(flow_timeline(build_flow(s), s))
    tau_tl = flow_timeline(build_tau_flow(s), s, fill_psm_to_iat=False)
    tau = integrate_timeline(tau_tl)
    frac = s.iat_s / s.psm_tau_period_s
    expected_total = (sum(main.values()) + frac * sum(tau.values())
                      - active_duration_s(tau_tl) * frac * s.power.deep_sleep_mw)
    assert cycle_energy(s).total_mj == pytest.approx(expected_total, rel=1e-12)


def assembled_breakdown(s):
    """Cycle energy assembled interval by interval from the IAT-filled timeline,
    plus the amortized TAU on uplink PSM_TAU cycles, in the model's order:
    scale the TAU integral, charge its idle DRX to ra_sync, then take its
    active time out of deep sleep."""
    cats = integrate_timeline(flow_timeline(build_flow(s), s))
    if (not s.traffic_case.mobile_terminated
            and s.mt_reachability is Reachability.PSM_TAU):
        tau_tl = flow_timeline(build_tau_flow(s), s, fill_psm_to_iat=False)
        frac = s.iat_s / s.psm_tau_period_s
        for cat, value in integrate_timeline(tau_tl).items():
            target = EnergyCategory.RA_SYNC if cat is EnergyCategory.IDLE_DRX else cat
            cats[target] += value * frac
        cats[EnergyCategory.PSM] = max(
            0.0, cats[EnergyCategory.PSM]
            - active_duration_s(tau_tl) * frac * s.power.deep_sleep_mw)
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
    # one profile serves every IAT, bit for bit
    base = make_scenario(proc, case, cov, mt_reachability=reach)
    profile = cycle_profile(base)
    for iat_s in (3600.0, 86400.0, 12345.6789):
        s = replace(base, iat_s=iat_s)
        got, want = profile.breakdown(iat_s), assembled_breakdown(s)
        for field in ("ra_sync_mj", "post_ra_messages_mj", "connected_drx_mj",
                      "idle_drx_mj", "psm_mj"):
            assert getattr(got, field) == getattr(want, field), (iat_s, field)
        assert cycle_energy(s) == got
        assert lifetime_years(got, s) == (
            s.battery_wh / (want.total_mj / 1000.0 / iat_s) / HOURS_PER_YEAR)


def test_category_values_are_the_breakdown_fields():
    # one name per category: share() and breakdown() read the field by value
    assert [c.value for c in EnergyCategory] == [f.name for f in fields(EnergyBreakdown)]


@pytest.mark.parametrize("reach", list(Reachability))
@pytest.mark.parametrize("case", [c.value for c in TrafficCase])
@pytest.mark.parametrize("proc", [p.value for p in Procedure])
def test_profile_active_times_are_timeline_microseconds(proc, case, reach):
    # both active times are the last end_us of an unfilled timeline; only an
    # uplink PSM_TAU cycle amortizes an event, the standalone TAU, whose
    # idle-DRX energy is charged to ra_sync
    s = make_scenario(proc, case, "Robust", mt_reachability=reach)
    profile = cycle_profile(s)
    assert [f.name for f in fields(CycleProfile)] == [
        "active_mj", "active_us", "deep_sleep_mw", "events"]
    timeline = flow_timeline(build_flow(s), s, fill_psm_to_iat=False)
    assert profile.active_us == timeline[-1].end_us
    if s.traffic_case.mobile_terminated or reach is Reachability.DRX_PAGING:
        assert profile.events == ()
        return
    (tau,) = profile.events
    tau_tl = flow_timeline(build_tau_flow(s), s, fill_psm_to_iat=False)
    assert tau.active_us == tau_tl[-1].end_us > 0
    assert tau.period_s == s.psm_tau_period_s
    want = integrate_timeline(tau_tl)
    want[EnergyCategory.RA_SYNC] += want.pop(EnergyCategory.IDLE_DRX)
    got = {cat: 0.0 for cat in want}
    for cat, mj in tau.mj:
        got[cat] += mj
    assert got == want
    assert got[EnergyCategory.RA_SYNC] > 0.0 and got[EnergyCategory.MESSAGES] > 0.0


def test_iat_sweep_builds_timelines_once(monkeypatch):
    calls = []
    real = flows.flow_timeline

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(flows, "flow_timeline", counted)
    spec = SweepSpec("iat", tuple(h * 3600.0 for h in range(1, 25)),
                     make_scenario("UP", "UL"))
    table = run_lifetime_sweep(spec)
    assert len(table.rows) == 1 + 24 and all(row[-1] == "" for row in table.rows)
    assert len(calls) <= 2     # the cycle's timeline and the standalone TAU


def test_iat_shorter_than_active_cycle_rejected():
    # SR/DL_ACK at Extreme coverage has the longest active cycle of the grid
    s = make_scenario("SR", "DL_ACK", "Extreme")
    profile = cycle_profile(s)
    assert 52.0 < profile.active_us / 1e6 < 52.5
    assert profile.breakdown(profile.active_us / 1e6).psm_mj == 0.0
    with pytest.raises(ConfigurationError, match="active cycle"):
        profile.breakdown((profile.active_us - 1) / 1e6)
    with pytest.raises(ConfigurationError, match="iat_s=30.0"):
        cycle_energy(replace(s, iat_s=30.0))


def test_amortized_taus_longer_than_iat_rejected():
    # the amortized TAUs' awake time counts toward the active cycle, so a TAU
    # period shorter than one TAU is an error at every IAT, not a clamped
    # deep-sleep energy
    s = make_scenario("CP", "UL", idle_active_timer_base_s=0.0,
                      drx_long_cycle_base_s=1e-6, psm_tau_period_s=0.07)
    profile = cycle_profile(s)
    assert profile.events[0].active_us > 70_000
    for iat_s in (3600.0, 86400.0):
        with pytest.raises(ConfigurationError, match=f"iat_s={iat_s}: shorter than the"):
            profile.breakdown(iat_s)
    # a TAU period longer than one TAU leaves deep sleep in the cycle
    profile = cycle_profile(replace(s, psm_tau_period_s=7.0))
    assert profile.breakdown(3600.0).psm_mj > 0.0


def test_dl_cycles_have_no_amortized_tau():
    s = make_scenario("CP", "DL", iat_h=2.0)
    main = integrate_timeline(flow_timeline(build_flow(s), s))
    assert cycle_energy(s).total_mj == pytest.approx(sum(main.values()), rel=1e-12)


def test_lifetime_example_anchor():
    # an average power of 57 uW sits right at the 10-year design target
    s = Scenario()
    years = s.battery_wh / 5.7e-5 / HOURS_PER_YEAR
    assert years == pytest.approx(10.0, abs=0.02)
