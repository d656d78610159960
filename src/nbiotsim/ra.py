"""Contention-based random access model.

Per-attempt preamble detection follows the classic load curve 1 - e^-i for the
i-th transmission.  The expected attempt count scales the phases of one attempt
(opportunity wait, preamble, response window) in the flow timeline, so the RA
cost is an expectation value, matching the deterministic style of the rest of
the model.
"""

from __future__ import annotations

import functools
import math

from . import phy
from .config import (RA_OPPORTUNITY_PERIOD_MS, ConfigurationError, CoverageProfile,
                     PowerProfile, UeState)
from .phy import ChannelKind

# a UE with a pending attempt waits on average half an RA opportunity period
EXPECTED_OPPORTUNITY_WAIT_MS = RA_OPPORTUNITY_PERIOD_MS / 2.0


def detection_probability(attempt: int) -> float:
    """Probability that the attempt-th preamble transmission is detected."""
    if attempt < 1:
        raise ConfigurationError(f"attempt={attempt}: must be >= 1")
    return 1.0 - math.exp(-float(attempt))


def expected_attempts(cap: int) -> float:
    """Expected number of preamble transmissions with at most cap attempts.

    Failure mass remaining after the cap is truncated: it is charged as cap
    attempts, not renormalized.  With this detection curve the expectation
    converges below 1.45 already for small caps.
    """
    if cap < 1:
        raise ConfigurationError(f"cap={cap}: must be >= 1")
    return _expected_attempts(cap)


@functools.lru_cache(maxsize=256)
def _expected_attempts(cap: int) -> float:
    # a pure function of the cap, whose key domain (1 to 200) fits the cache
    total = 0.0
    p_all_failed = 1.0
    for i in range(1, cap + 1):
        p_i = detection_probability(i)
        total += i * p_all_failed * p_i
        p_all_failed *= 1.0 - p_i
    total += cap * p_all_failed
    return total


# The phases per (level, power, rar_bytes)
_PHASES = phy._Memo(256)


def attempt_components(c: CoverageProfile, p: PowerProfile,
                       rar_bytes: int) -> tuple[tuple[str, UeState, float, float], ...]:
    """Per-attempt phases, a tuple of (label, state, duration_ms, power_mw)
    tuples, the same one for the same level, power and RAR size.

    One attempt: wait for the next RA opportunity, transmit the preamble with
    its repetitions, then receive the response (control assignment, scheduling
    gap, response block on the downlink shared channel).
    """
    key = (id(c), p, rar_bytes)
    hit = _PHASES.get(key)
    if hit is not None:
        return hit[1]
    preamble_dbm = phy.nprach_tx_power_dbm(p, c.target_mcl_db)
    preamble_mw = phy.tx_power_consumption_mw(p, preamble_dbm)
    phases = (
        ("ra_wait", UeState.INACTIVE, EXPECTED_OPPORTUNITY_WAIT_MS, p.inactive_mw),
        ("preamble", UeState.TX, phy.message_airtime(1, c, ChannelKind.NPRACH), preamble_mw),
        ("rar_npdcch", UeState.RX, phy.message_airtime(1, c, ChannelKind.NPDCCH), p.rx_mw),
        ("rar_gap", UeState.INACTIVE, phy.schedule_gap_ms(ChannelKind.NPDSCH),
         p.inactive_mw),
        ("rar_npdsch", UeState.RX, phy.message_airtime(rar_bytes, c, ChannelKind.NPDSCH),
         p.rx_mw),
    )
    return _PHASES.put(key, c, phases)
