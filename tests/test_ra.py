"""Random access: detection model, expected attempts, phase cost."""

import inspect
import math

import pytest
from hypothesis import given, strategies as st
from dataclasses import replace

from nbiotsim import ra
from nbiotsim import (PowerProfile, build_flow, builtin_coverage_profile,
                      detection_probability, expected_attempts, flow_timeline)
from nbiotsim.config import ConfigurationError
from nbiotsim.flows import EnergyCategory
from nbiotsim.ra import attempt_components
from tests.conftest import make_scenario

NORMAL = builtin_coverage_profile("Normal")
EXTREME = builtin_coverage_profile("Extreme")
POWER = PowerProfile()


def brute_force_expected_attempts(cap: int) -> float:
    """Independent oracle: enumerate the attempt at which detection first
    succeeds, charging the residual all-fail mass as cap attempts."""
    total = 0.0
    p_reach = 1.0                     # probability the i-th attempt happens
    for i in range(1, cap + 1):
        p_i = 1.0 - math.exp(-i)
        total += i * p_reach * p_i
        p_reach *= math.exp(-i)
    return total + cap * p_reach


def test_detection_probabilities():
    assert detection_probability(1) == pytest.approx(0.6321205588, abs=1e-9)
    assert detection_probability(3) == pytest.approx(0.9502129316, abs=1e-9)
    assert detection_probability(50) == pytest.approx(1.0, abs=1e-12)


def test_detection_rejects_zero():
    with pytest.raises(ConfigurationError):
        detection_probability(0)


def test_expected_attempts_single():
    assert expected_attempts(1) == 1.0


def test_expected_attempts_two_closed_form():
    # 1*p1 + 2*(1-p1)*p2 + 2*(1-p1)*(1-p2) = 2 - p1
    assert expected_attempts(2) == pytest.approx(2.0 - (1.0 - math.exp(-1)), abs=1e-12)
    assert expected_attempts(2) == pytest.approx(1.36788, abs=1e-5)


def test_expected_attempts_ten_vs_oracle():
    assert expected_attempts(10) == pytest.approx(brute_force_expected_attempts(10),
                                                  abs=1e-12)
    assert expected_attempts(10) == pytest.approx(1.4202, abs=5e-4)


@given(cap=st.integers(min_value=1, max_value=64))
def test_expected_attempts_bounds(cap):
    value = expected_attempts(cap)
    assert 1.0 <= value <= cap
    assert value < 1.45
    assert value == pytest.approx(brute_force_expected_attempts(cap), abs=1e-12)


def test_expected_attempts_monotone_in_cap():
    values = [expected_attempts(cap) for cap in range(1, 20)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_expected_attempts_checks_every_call():
    # a plain function that checks its cap, then reads the sum, which is cached
    # per cap, so a rejected cap never reaches the cache
    assert inspect.isfunction(ra.expected_attempts)
    for cap in (0, -3, 0):
        with pytest.raises(ConfigurationError, match=f"cap={cap}: must be >= 1"):
            expected_attempts(cap)
    assert expected_attempts(200) == pytest.approx(brute_force_expected_attempts(200), abs=1e-12)


def ra_phase(c, p, cap, rar_bytes=7):
    """Expected (time ms, energy mJ) of the RA phase: attempts x one attempt."""
    comps = attempt_components(c, p, rar_bytes)
    attempts = expected_attempts(cap)
    return (attempts * sum(d for _, _, d, _ in comps),
            attempts * sum(d * w for _, _, d, w in comps) / 1000.0)


def test_ra_single_attempt_assembly():
    # cap=1: exactly one pass through wait + preamble + response window
    assert expected_attempts(1) == 1.0
    time_ms, energy_mj = ra_phase(NORMAL, POWER, cap=1, rar_bytes=7)
    # 20 ms wait + 6.4 ms preamble + 1 ms NPDCCH + 4 ms gap + 1 ms response
    assert time_ms == pytest.approx(20 + 6.4 + 1 + 4 + 1)
    expected_mj = (20 * 3.0 + 6.4 * 545.0 + 1 * 90.0 + 4 * 3.0 + 1 * 90.0) / 1000.0
    assert energy_mj == pytest.approx(expected_mj)


def test_timeline_ra_matches_attempt_components():
    # the timeline scales each phase of one attempt by the expected attempt
    # count, rounding each interval to the microsecond grid
    for cov in ("Normal", "Robust", "Extreme"):
        for cap in (1, 10):
            s = make_scenario("CP", "UL", cov, ra_attempt_cap=cap)
            ra_ivs = [iv for iv in flow_timeline(build_flow(s), s)
                      if iv.category is EnergyCategory.RA_SYNC and iv.label != "sync"]
            comps = attempt_components(s.coverage, s.power, s.rar_bytes)
            assert len(ra_ivs) == len(comps) == 5
            attempts = expected_attempts(cap)
            for iv, (label, state, dur_ms, power_mw) in zip(ra_ivs, comps):
                assert (iv.label, iv.state, iv.power_mw) == (label, state, power_mw)
                assert abs(iv.duration_us - attempts * dur_ms * 1000.0) <= 0.5


def test_ra_extreme_slower_than_normal():
    a, _ = ra_phase(NORMAL, POWER, cap=10)
    b, _ = ra_phase(EXTREME, POWER, cap=10)
    assert b > a


def test_ra_energy_linear_in_power():
    doubled = replace(POWER, deep_sleep_mw=0.03, inactive_mw=6.0,
                      rx_mw=180.0, tx_max_mw=1090.0)
    base_ms, base_mj = ra_phase(NORMAL, POWER, cap=10)
    scaled_ms, scaled_mj = ra_phase(NORMAL, doubled, cap=10)
    assert scaled_ms == pytest.approx(base_ms)
    assert scaled_mj == pytest.approx(2.0 * base_mj, rel=1e-12)


def test_ra_outcome_invariants():
    for cov in ("Normal", "Robust", "Extreme"):
        attempts = expected_attempts(10)
        time_ms, energy_mj = ra_phase(builtin_coverage_profile(cov), POWER, cap=10)
        assert 1.0 <= attempts <= 10
        assert time_ms > 0 and math.isfinite(time_ms)
        assert energy_mj > 0 and math.isfinite(energy_mj)
