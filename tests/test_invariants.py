"""Physics invariants as Hypothesis properties over the scenario key domains.

Each property draws a valid scenario, raises one knob and checks that the
lifetime or the capacity moves in the knob's physical direction, as one weak
inequality.  A draw that `validate_scenario` rejects, or whose IAT is shorter
than its active cycle, is dropped.
"""

import math

import pytest
from hypothesis import Phase, Verbosity, given, reject, settings, strategies as st

from nbiotsim import (ConfigurationError, battery_lifetime_years, cell_capacity,
                      parse_scenario)
from nbiotsim.config import (_SCENARIO_KEYS, COVERAGE_NAMES, MAX_PSM_TIME_S, Procedure,
                             Reachability, TrafficCase)
from tests.conftest import domain_values

# Narrower ranges than the key domains.  They keep the active cycle well inside
# the IAT, so that few draws are dropped, and one example cheap.
NARROW = {
    "iat": (600.0, 1e6),
    "sync_base_ms": (0.0, 60_000.0),
    "cp_inactivity_periods": (0, 1000),
    "idle_timer_base_s": (0.0, 600.0),
    "tau_period_s": (3600.0, MAX_PSM_TIME_S),
    "drx_cycle_base_s": (1e-6, 10.24),
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
def scenario_values(draw, cases=tuple(TrafficCase), reachability=tuple(Reachability)):
    """A value for every scenario key."""
    values = {"procedure": draw(st.sampled_from(Procedure)).value,
              "case": draw(st.sampled_from(cases)).value,
              "coverage": draw(st.sampled_from(COVERAGE_NAMES)),
              "reachability": draw(st.sampled_from(reachability)).value}
    values.update(draw(st.fixed_dictionaries(DRAWN)))
    powers = draw(st.lists(domain_values("rx_mw"), min_size=len(POWERS),
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


def evaluate(fn, values):
    """fn of the scenario the values give; a rejected scenario drops the draw."""
    try:
        return fn(parse_scenario(" ".join(f"{key}={value}" for key, value in values.items())))
    except ConfigurationError:
        reject()


def reports_per_hour(s):
    return cell_capacity(s).reports_per_hour


# Outputs are floating point: where a knob moves one by less than rounding,
# the computed output may move the other way by a few ulps.
SLACK = 1e-12

# The scenarios whose cycle amortizes a periodic TAU (the event path)
AMORTIZES_TAU = {"cases": tuple(c for c in TrafficCase if not c.mobile_terminated),
                 "reachability": (Reachability.PSM_TAU,)}

# (key, output, +1 if the output rises with the key and -1 if it falls, the
# scenarios drawn).  Not an invariant: at a fixed tx_max_mw a higher p_cmax_dbm
# is a more efficient amplifier, so lifetime may rise with it
# (phy.tx_power_consumption_mw).
DIRECTIONS = [
    ("iat", battery_lifetime_years, +1, {}),
    ("tau_period_s", battery_lifetime_years, +1, AMORTIZES_TAU),
    ("payload_bytes", battery_lifetime_years, -1, {}),
    ("rx_mw", battery_lifetime_years, -1, {}),
    ("ra_cap", battery_lifetime_years, -1, {}),
    ("sync_base_ms", battery_lifetime_years, -1, {}),
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


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "DRX_PAGING drops the periodic TAU yet deep-sleeps between reports and "
    "charges nothing for monitoring paging occasions, so being reachable by "
    "paging reads cheaper than PSM_TAU: 12.93 against 12.72 years for "
    "CP/DL/Normal at 1 h"))
# quiet and without shrinking: each draw fails today, so it is reported once, fast
@settings(max_examples=10, deadline=None, phases=[Phase.generate], verbosity=Verbosity.quiet)
@given(values=scenario_values(reachability=(Reachability.PSM_TAU,)))
def test_paging_lifetime_below_psm_tau(values):
    paging = {**values, "reachability": Reachability.DRX_PAGING.value}
    assert (evaluate(battery_lifetime_years, paging)
            < evaluate(battery_lifetime_years, values))
