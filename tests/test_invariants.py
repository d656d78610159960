"""Physics invariants as Hypothesis properties over the scenario key domains.

Each direction property draws a valid scenario, raises one knob and checks
that the lifetime, the cycle energy or the capacity moves in the knob's
physical direction, as one weak inequality.  The paging properties compare a
DRX_PAGING cycle with the same cycle resting in deep sleep and with PSM_TAU.
No lifetime may reach the PSM floor, no scenario's validity may depend on
its IAT, and every cycle profile that is built prices some IAT.  A draw that
`validate_scenario` rejects, or whose IAT is shorter than its active cycle,
is dropped.
"""

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, reject, settings, strategies as st

from nbiotsim import (ConfigurationError, battery_lifetime_years, cell_capacity,
                      cycle_energy, parse_scenario, psm_baseline_lifetime_years)
from nbiotsim.config import (_SCENARIO_KEYS, COVERAGE_NAMES, MAX_DRX_CYCLE_S,
                             MAX_PSM_TIME_S, Procedure, Reachability, TrafficCase)
from nbiotsim.energy import cycle_profile
from nbiotsim.flows import US_PER_S, EnergyCategory
from tests.conftest import domain_values

# Narrower ranges than the key domains.  They keep the active cycle well inside
# the IAT, so that few draws are dropped, and one example cheap.  The DRX base
# reaches past the 10.24 s regular maximum into eDRX.
NARROW = {
    "iat": (600.0, 1e6),
    "sync_base_ms": (0.0, 60_000.0),
    "cp_inactivity_periods": (0, 1000),
    "idle_timer_base_s": (0.0, 600.0),
    "tau_period_s": (3600.0, MAX_PSM_TIME_S),
    "drx_cycle_base_s": (1e-6, 2 * MAX_DRX_CYCLE_S),
    "payload_bytes": (0, 4096),
    "ack_payload_bytes": (0, 4096),
    "overhead_bytes": (1, 4096),
    "rar_bytes": (1, 4096),
}
# The state powers are drawn together and sorted, as validate_scenario
# requires: deep sleep < inactive < rx < tx_max.
POWERS = ("deep_sleep_mw", "inactive_mw", "rx_mw", "tx_max_mw")
NUMERIC = [key for key, row in _SCENARIO_KEYS.items() if row[3] is not None]


def bounds(key) -> tuple:
    return NARROW.get(key, _SCENARIO_KEYS[key][3:])


# the strategy of each numeric key but the powers, built once
DRAWN = {key: domain_values(key, *bounds(key)) for key in NUMERIC if key not in POWERS}


@st.composite
def scenario_values(draw, cases=tuple(TrafficCase), reachability=tuple(Reachability),
                    procedures=tuple(Procedure), power_hi=None):
    """A value for every scenario key; the state powers at most power_hi, if given."""
    values = {"procedure": draw(st.sampled_from(procedures)).value,
              "case": draw(st.sampled_from(cases)).value,
              "coverage": draw(st.sampled_from(COVERAGE_NAMES)),
              "reachability": draw(st.sampled_from(reachability)).value}
    values.update(draw(st.fixed_dictionaries(DRAWN)))
    powers = draw(st.lists(domain_values("rx_mw", hi=power_hi), min_size=len(POWERS),
                           max_size=len(POWERS), unique=True))
    values.update(zip(POWERS, sorted(powers)))
    return values


def above(key, values):
    """Values of key above its value, inside the drawn range; a state power
    stays below the next one up."""
    value, hi = values[key], bounds(key)[1]
    if key in POWERS[:-1]:
        hi = math.nextafter(values[POWERS[POWERS.index(key) + 1]], 0.0)
    if value >= hi:
        reject()
    if _SCENARIO_KEYS[key][2] is int:
        return domain_values(key, value + 1, hi)
    return st.floats(value, hi, exclude_min=True)


def scenario_text(values) -> str:
    return " ".join(f"{key}={value}" for key, value in values.items())


def evaluate(fn, values):
    """fn of the scenario the values give; a rejected scenario drops the draw."""
    try:
        return fn(parse_scenario(scenario_text(values)))
    except ConfigurationError:
        reject()


def reports_per_hour(s):
    return cell_capacity(s).reports_per_hour


def cycle_mj(s):
    return cycle_energy(s).total_mj


# Outputs are floating point: where a knob moves one by less than rounding,
# the computed output may move the other way by a few ulps.
SLACK = 1e-12

# The scenarios whose cycle amortizes a periodic TAU (the event path)
AMORTIZES_TAU = {"cases": tuple(c for c in TrafficCase if not c.mobile_terminated),
                 "reachability": (Reachability.PSM_TAU,)}
# The scenarios that rest in deep sleep.  A paging UE rests at the mean power
# of an idle DRX cycle, which with a DRX base near 1 us is nearly rx_mw: above
# parts of the active cycle, such as the light-sleep waits for an NPDCCH
# occasion or a random access opportunity, and a transmit draw below rx_mw.
# So a longer IAT can add rest dearer than the cycle's mean power, more payload,
# random access, sync time or connected DRX can trade rest for cheaper active
# time, and none of those five directions holds under paging.  Nor does the
# idle-timer direction: the T3324 window lays out whole DRX cycles, on time
# first, and a longer window can end on a cheaper phase than the rest's mean.
RESTS_IN_DEEP_SLEEP = {"reachability": (Reachability.PSM_TAU,)}
PAGING = {"reachability": (Reachability.DRX_PAGING,)}

# (key, output, +1 if the output rises with the key and -1 if it falls, the
# scenarios drawn).  Not an invariant: at a fixed tx_max_mw a higher p_cmax_dbm
# is a more efficient amplifier, so lifetime may rise with it
# (phy.tx_power_consumption_mw).  Nor is drx_cycle_base_s under PSM_TAU: a
# longer cycle both widens the T3324 window and lengthens its gaps.  Over 1,500
# draws of scenario_values under PSM_TAU, raising it made lifetime rise in 809,
# fall in 254 (by up to 85%) and stay in 437; under DRX_PAGING it fell in none,
# which the cycle_mj row below holds.
DIRECTIONS = [
    ("iat", battery_lifetime_years, +1, RESTS_IN_DEEP_SLEEP),
    ("tau_period_s", battery_lifetime_years, +1, AMORTIZES_TAU),
    ("payload_bytes", battery_lifetime_years, -1, RESTS_IN_DEEP_SLEEP),
    ("rx_mw", battery_lifetime_years, -1, {}),
    ("ra_cap", battery_lifetime_years, -1, RESTS_IN_DEEP_SLEEP),
    ("sync_base_ms", battery_lifetime_years, -1, RESTS_IN_DEEP_SLEEP),
    # the top power is the largest of four draws, and often the key's upper
    # bound, which leaves it no room to rise
    ("tx_max_mw", battery_lifetime_years, -1, {"power_hi": 1e11}),
    ("alpha", battery_lifetime_years, -1, {}),
    ("idle_timer_base_s", battery_lifetime_years, -1, RESTS_IN_DEEP_SLEEP),
    # only CP runs the connected inactivity timer
    ("cp_inactivity_periods", battery_lifetime_years, -1,
     {**RESTS_IN_DEEP_SLEEP, "procedures": (Procedure.CP,)}),
    # a longer cycle monitors fewer paging occasions, and past 10.24 s its
    # gaps are deep sleep
    ("drx_cycle_base_s", cycle_mj, -1, PAGING),
    ("payload_bytes", reports_per_hour, -1, {}),
    ("ra_cap", reports_per_hour, -1, {}),
]


@pytest.mark.parametrize("key,output,sign,scope", DIRECTIONS,
                         ids=[f"{out.__name__}-{key}" for key, out, *_ in DIRECTIONS])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_output_moves_with_knob(key, output, sign, scope, data):
    values = data.draw(scenario_values(**scope))
    raised = {**values, key: data.draw(above(key, values))}
    before, after = evaluate(output, values), evaluate(output, raised)
    assert sign * (after - before) >= -SLACK * before, (before, after)


def paging_and_asleep_mj(s):
    """Cycle energy of s, and of the same profile resting in deep sleep."""
    profile = cycle_profile(s)
    asleep = replace(profile, rest_mw=s.power.deep_sleep_mw,
                     rest_category=EnergyCategory.PSM)
    iat_us = round(s.iat_s * US_PER_S)
    return sum(profile.category_mj(iat_us)), sum(asleep.category_mj(iat_us))


@settings(max_examples=15, deadline=None)
@given(values=scenario_values(**PAGING))
def test_paging_costs_at_least_deep_sleep(values):
    paging, asleep = evaluate(paging_and_asleep_mj, values)
    assert paging >= asleep


# Every other key at its default.  Over drawn powers and TAU periods the order
# is not an invariant: frequent, expensive TAUs can make PSM_TAU the dearer.
AT_DEFAULTS = st.fixed_dictionaries({
    "procedure": st.sampled_from([p.value for p in Procedure]),
    "case": st.sampled_from([c.value for c in TrafficCase]),
    "coverage": st.sampled_from(COVERAGE_NAMES),
    "iat": DRAWN["iat"],
    "drx_cycle_base_s": domain_values("drx_cycle_base_s", 1e-6, MAX_DRX_CYCLE_S),
})


@settings(max_examples=15, deadline=None)
@given(values=AT_DEFAULTS)
def test_paging_lifetime_below_psm_tau(values):
    paging = {**values, "reachability": Reachability.DRX_PAGING.value}
    assert (evaluate(battery_lifetime_years, paging)
            < evaluate(battery_lifetime_years, values))


def lifetime_and_floor(s):
    return battery_lifetime_years(s), psm_baseline_lifetime_years(s)


@pytest.mark.parametrize("reach", list(Reachability), ids=[r.value for r in Reachability])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_lifetime_below_psm_floor(reach, data):
    # every cycle draws more than deep sleep for its whole IAT, so no
    # lifetime reaches that of a UE that only deep-sleeps
    years, floor = evaluate(lifetime_and_floor, data.draw(scenario_values(reachability=(reach,))))
    assert years - floor <= SLACK * floor, (years, floor)


def verdict(values) -> str:
    """validate_scenario's message for the scenario the values give, or ""."""
    try:
        parse_scenario(scenario_text(values))
    except ConfigurationError as exc:
        return str(exc)
    return ""


# The keys of the rules that join timers, over their whole domains, so that
# some draws break a rule
TIMERS = st.fixed_dictionaries({key: domain_values(key) for key in (
    "idle_timer_base_s", "drx_cycle_base_s", "tau_period_s")})


@settings(max_examples=30, deadline=None)
@given(values=scenario_values(), timers=TIMERS, iat=domain_values("iat"))
def test_validation_does_not_depend_on_iat(values, timers, iat):
    # the premise of a lifetime sweep that validates its scenario once: every
    # IAT of the key's domain gets the same verdict, and the bounds that the
    # cycle sets on the IAT are CycleProfile.category_mj's
    values.update(timers)
    assert verdict({**values, "iat": iat}) == verdict(values)


@settings(max_examples=30, deadline=None)
@given(values=scenario_values(), timers=TIMERS)
def test_a_built_profile_prices_twice_its_least_iat(values, timers):
    # the TAUs' awake share of a built profile is below one, so the least
    # whole-microsecond IAT of a rest of zero or more exists (as in
    # test_energy's rest-time boundary), and twice it prices five finite,
    # non-negative mJ: only the IAT's own bounds are left to category_mj
    s = evaluate(lambda s: s, {**values, **timers})
    try:
        profile = cycle_profile(s)
    except ConfigurationError as exc:
        # the one refusal that no IAT can lift, raised where the profile is built
        assert str(exc).startswith("periodic TAUs keep the UE awake"), exc
        reject()
    awake = sum(Fraction(e.active_us, e.period_us) for e in profile.events)
    assert awake < 1, f"a built profile is awake {float(awake)} of each TAU period"
    least_us = math.ceil(Fraction(profile.active_us) / (1 - awake))
    iat_us = 2 * least_us
    lo, hi = _SCENARIO_KEYS["iat"][3:]
    if not (lo <= iat_us / US_PER_S <= hi and iat_us <= profile.max_iat_us):
        reject()
    mj = profile.category_mj(iat_us)
    assert len(mj) == 5 and all(math.isfinite(v) and v >= 0.0 for v in mj), mj
