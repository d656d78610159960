"""Acceptance suite: the headline results the model must reproduce.

Each test prints one PASS/FAIL line (run with `pytest -s tests/test_acceptance.py`
to see them).  Published reference points carry tolerance bands because the
underlying analytical model's signaling sizes and sync time are not fully
published; arithmetic and property checks are exact.
"""

import math

import pytest
from dataclasses import replace

from nbiotsim import (ChannelKind, Scenario, battery_lifetime_years, build_flow,
                      builtin_coverage_profile, capacity_gain_pct, cell_capacity,
                      cycle_energy, expected_attempts, flow_timeline,
                      nprach_tx_power_dbm, npusch_tx_power_dbm,
                      psm_baseline_lifetime_years)
from nbiotsim.capacity import default_budgets
from nbiotsim.cli import main, run_capacity_report
from nbiotsim.config import HOURS_PER_YEAR, PowerProfile
from nbiotsim.energy import integrate_timeline
from nbiotsim.flows import EnergyCategory
from tests.conftest import binned_energy_mj, make_scenario

IATS_H = tuple(range(1, 25))
COVERAGES = ("Normal", "Robust", "Extreme")


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def in_band(value: float, lo: float, hi: float) -> bool:
    return lo <= value <= hi


@pytest.fixture(scope="module")
def gain_grid():
    table = run_capacity_report(Scenario())
    gains = {(r[0], r[1], r[2]): r[5] for r in table.rows}
    bottlenecks = {(r[0], r[1], r[2]): r[4] for r in table.rows}
    return gains, bottlenecks


@pytest.fixture(scope="module")
def lifetimes():
    out = {}
    for proc in ("SR", "CP", "UP"):
        for case in ("UL", "DL", "DL_ACK"):
            for cov in COVERAGES:
                for h in IATS_H:
                    out[(proc, case, cov, h)] = battery_lifetime_years(
                        make_scenario(proc, case, cov, h))
    return out


def test_criterion_01_psm_baseline():
    hours = psm_baseline_lifetime_years(Scenario()) * HOURS_PER_YEAR
    ok = abs(hours - 333_333.0) / 333_333.0 < 1e-3
    report("criterion 1: deep-sleep-only lifetime", ok, f"{hours:.0f} h vs 333333 h")


def test_criterion_02_headline_gains(gain_grid):
    gains, _ = gain_grid
    cp = gains[("CP", "UL", "Normal")]
    up = gains[("UP", "UL", "Normal")]
    ok = in_band(cp, 162 * 0.75, 162 * 1.25) and in_band(up, 120 * 0.75, 120 * 1.25)
    report("criterion 2: Normal-coverage uplink capacity gains", ok,
           f"CP {cp:.1f}% (162 +- 25%), UP {up:.1f}% (120 +- 25%)")


def test_criterion_03_gain_envelopes(gain_grid):
    gains, _ = gain_grid
    cp = [v for k, v in gains.items() if k[0] == "CP"]
    up = [v for k, v in gains.items() if k[0] == "UP"]
    ok = (in_band(min(cp), 26 * 0.8, 26 * 1.2) and in_band(max(cp), 224 * 0.8, 224 * 1.2)
          and in_band(min(up), 36 * 0.8, 36 * 1.2) and in_band(max(up), 165 * 0.8, 165 * 1.2))
    report("criterion 3: gain envelopes over the 12-scenario grid", ok,
           f"CP [{min(cp):.1f}, {max(cp):.1f}] vs [26, 224] +-20%; "
           f"UP [{min(up):.1f}, {max(up):.1f}] vs [36, 165] +-20%")


def test_criterion_04_cp_lifetime_improvement(lifetimes):
    best = max(lifetimes[("CP", "UL", "Normal", h)] / lifetimes[("UP", "UL", "Normal", h)] - 1
               for h in IATS_H) * 100
    ok = 50.0 <= best <= 100.0
    report("criterion 4: peak CP-over-UP lifetime improvement", ok,
           f"{best:.1f}% in [50, 100]")


def test_criterion_05_energy_shares():
    def share(cov, h, *cats):
        return 100 * cycle_energy(make_scenario("UP", "UL", cov, h)).share(*cats)
    values = {
        "Normal 1h sync+RA+DRX": (share("Normal", 1, EnergyCategory.RA_SYNC,
                                        EnergyCategory.CONNECTED_DRX,
                                        EnergyCategory.IDLE_DRX), 58),
        "Normal 10h PSM": (share("Normal", 10, EnergyCategory.PSM), 84),
        "Robust 10h messages": (share("Robust", 10, EnergyCategory.MESSAGES), 35),
        "Extreme 10h messages": (share("Extreme", 10, EnergyCategory.MESSAGES), 49),
        "Robust 24h PSM": (share("Robust", 24, EnergyCategory.PSM), 67),
        "Extreme 24h PSM": (share("Extreme", 24, EnergyCategory.PSM), 42),
    }
    ok = all(abs(got - want) <= 10.0 for got, want in values.values())
    detail = "; ".join(f"{name} {got:.1f}% (target {want} +-10pp)"
                       for name, (got, want) in values.items())
    report("criterion 5: energy shares after sync calibration", ok, detail)


def test_criterion_06_bottleneck_flip(gain_grid):
    _, bott = gain_grid
    normal_ul = all(bott[(p, "UL", "Normal")] in {"NPUSCH", "NPRACH"}
                    for p in ("CP", "UP"))
    worse_dl = all(bott[(p, "UL", cov)] in {"NPDCCH", "NPDSCH"}
                   for p in ("CP", "UP") for cov in ("Robust", "Extreme"))
    report("criterion 6: uplink-limited at Normal, downlink-limited beyond",
           normal_ul and worse_dl,
           f"Normal uplink-bound: {normal_ul}; Robust/Extreme downlink-bound: {worse_dl}")


def test_criterion_07_downlink_degradation(lifetimes):
    # The quantified degradation bands describe the user-plane procedure (the
    # reference for the published percentages); the downlink-never-outlives-
    # uplink ordering must hold for both optimized procedures.
    details = []
    ok = True
    for cov in ("Robust", "Extreme"):
        red_dl = max(1 - lifetimes[("UP", "DL", cov, h)] / lifetimes[("UP", "UL", cov, h)]
                     for h in IATS_H) * 100
        red_ack = max(1 - lifetimes[("UP", "DL_ACK", cov, h)] / lifetimes[("UP", "UL", cov, h)]
                      for h in IATS_H) * 100
        ok = ok and 15 <= red_dl <= 45 and 40 <= red_ack <= 70
        details.append(f"UP {cov}: DL -{red_dl:.1f}% (15..45), DL-ACK -{red_ack:.1f}% (40..70)")
    ordering = all(lifetimes[(p, c, cov, h)] <= lifetimes[(p, "UL", cov, h)] * (1 + 1e-9)
                   for p in ("CP", "UP") for c in ("DL", "DL_ACK")
                   for cov in ("Robust", "Extreme") for h in IATS_H)
    ok = ok and ordering
    report("criterion 7: downlink-case lifetime degradation", ok,
           "; ".join(details) + f"; ordering DL<=UL holds: {ordering}")


def test_criterion_08_cp_up_similar_in_dl(lifetimes):
    worst = max(abs(lifetimes[("CP", "DL", "Normal", h)]
                    / lifetimes[("UP", "DL", "Normal", h)] - 1) for h in IATS_H) * 100
    ok = worst < 10.0
    report("criterion 8: CP and UP converge in the downlink case", ok,
           f"max relative gap {worst:.2f}% < 10%")


def test_criterion_09_property_suite(gain_grid):
    checks = {}

    # timeline partition exactness
    s = make_scenario("UP", "DL", "Robust", iat_h=0.1)
    tl = flow_timeline(build_flow(s), s)
    checks["partition"] = (tl[0].start_us == 0
                           and all(b.start_us == a.end_us for a, b in zip(tl, tl[1:]))
                           and tl[-1].end_us == int(s.iat_s * 1e6))

    # energy linearity under power scaling
    base = make_scenario("UP", "UL")
    k = 2.0
    p = base.power
    scaled = replace(base, power=replace(p, deep_sleep_mw=k * p.deep_sleep_mw,
                                         inactive_mw=k * p.inactive_mw,
                                         rx_mw=k * p.rx_mw, tx_max_mw=k * p.tx_max_mw))
    a, b = cycle_energy(base), cycle_energy(scaled)
    checks["linearity"] = math.isclose(b.total_mj, k * a.total_mj, rel_tol=1e-12)

    # lifetime monotone in inter-arrival time
    checks["iat_monotone"] = all(
        battery_lifetime_years(make_scenario("CP", "UL", "Robust", h1))
        <= battery_lifetime_years(make_scenario("CP", "UL", "Robust", h2))
        for h1, h2 in zip((1, 2, 5, 10), (2, 5, 10, 24)))

    # lifetime ordering across coverage levels
    lifes = [battery_lifetime_years(make_scenario("UP", "UL", cov, 10))
             for cov in COVERAGES]
    checks["coverage_order"] = lifes[0] >= lifes[1] >= lifes[2]

    # release assistance removes the idle window entirely
    checks["cp_ul_idle_zero"] = cycle_energy(make_scenario("CP", "UL")).idle_drx_mj == 0.0

    # gains invariant under budget scaling
    def gain_scaled(factor):
        budgets = default_budgets(base)
        def patch(x):
            return replace(x,
                           budget_npdcch_sf_per_s=factor * budgets[ChannelKind.NPDCCH],
                           budget_npdsch_sf_per_s=factor * budgets[ChannelKind.NPDSCH],
                           budget_npusch_sc_ms_per_s=factor * budgets[ChannelKind.NPUSCH],
                           budget_nprach_slots_per_s=factor * budgets[ChannelKind.NPRACH])
        opt = cell_capacity(patch(make_scenario("CP", "UL")))
        sr = cell_capacity(patch(make_scenario("SR", "UL")))
        return capacity_gain_pct(opt, sr)
    checks["budget_scale"] = math.isclose(gain_scaled(1.0), gain_scaled(5.0),
                                          rel_tol=1e-12)

    # independent re-integration of the timeline on a 1 ms grid
    s2 = make_scenario("CP", "DL", iat_h=1 / 30.0)
    tl2 = flow_timeline(build_flow(s2), s2)
    closed = sum(integrate_timeline(tl2).values())
    checks["reintegration"] = abs(binned_energy_mj(tl2) - closed) / closed < 1e-3

    # expected preamble attempts against the brute-force expectation
    checks["ra_expectation"] = abs(expected_attempts(10) - 1.4202) <= 5e-4

    # power-control cap rule at every coverage level
    power = PowerProfile()
    checks["power_cap"] = all(
        npusch_tx_power_dbm(builtin_coverage_profile(cov), power,
                            builtin_coverage_profile(cov).target_mcl_db) == 23.0
        and nprach_tx_power_dbm(power, builtin_coverage_profile(cov).target_mcl_db) == 23.0
        for cov in COVERAGES)

    # byte-identical CLI output across repeated runs
    import io, contextlib
    def run_once():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["capacity"]) == 0
        return buf.getvalue()
    checks["cli_determinism"] = run_once() == run_once()

    ok = all(checks.values())
    failed = [name for name, good in checks.items() if not good]
    report("criterion 9: exact property suite", ok,
           f"{len(checks)} properties" + ("" if ok else f"; failed: {failed}"))


def test_criterion_10a_multi_year_lifetimes(lifetimes):
    ok = all(lifetimes[(p, "UL", cov, h)] > 2.0
             for p in ("CP", "UP") for cov in ("Normal", "Robust")
             for h in IATS_H if h >= 2)
    report("criterion 10a: multi-year lifetimes at Normal/Robust", ok,
           "all CP/UP lifetimes > 2 y for IAT >= 2 h")


@pytest.mark.xfail(strict=True, reason=(
    "unattainable alongside the PSM-share targets: an 84% deep-sleep share at "
    "10 h bounds the average power near the 15 uW floor, which puts the 24 h "
    "lifetime above 28 years (and lifetime is monotone in the inter-arrival "
    "time), so a 6-10 year window cannot hold simultaneously"))
def test_criterion_10b_normal_24h_window(lifetimes):
    value = lifetimes[("CP", "UL", "Normal", 24)]
    ok = 6.0 <= value <= 10.0
    report("criterion 10b: 24 h Normal-coverage lifetime window", ok,
           f"{value:.1f} y vs [6, 10] y")
