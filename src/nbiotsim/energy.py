"""Energy pricing, long-run average power, and battery lifetime.

A cycle is time: `flows.active_time` gives its whole microseconds per
(category, power_mw), and `price` alone turns such times into mJ.
`cycle_profile` prices the active cycle once, and each periodic event the
cycle amortizes: an uplink PSM_TAU cycle runs one standalone TAU per TAU
period, while a downlink flow carries its TAU inside the flow (the TAU is what
makes the UE reachable) and a paging UE pays in its rest state.
`CycleProfile.category_mj` then gives the energy of one inter-arrival period
(IAT) of whole microseconds in closed form, as five floats: iat / period of
each event, and the rest state (`flows.rest_state`) priced once over the rest
time, the IAT less the active timeline and the events' awake time.
`cycle_profile` refuses events awake for their whole period, so every profile
admits some IAT, and `category_mj` raises only at the IAT's two bounds.  A
scenario's breakdown, lifetime, lifetime rows and cell capacity share one
memoized profile, which no caller may mutate, and scenarios that agree on the
fields a standalone TAU's layout reads share one memoized TAU; a row costs
only `category_mj` and `lifetime_and_shares`, the one lifetime formula, at its
IAT; the PSM floor is one second of deep sleep priced by the same formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter

from . import flows
from .config import (HOURS_PER_YEAR, MAX_PSM_TIME_S, ConfigurationError, Procedure,
                     Reachability, Scenario)
from .flows import US_PER_S, EnergyCategory
from .phy import ChannelKind


@dataclass(frozen=True)
class EnergyBreakdown:
    """mJ per cycle, each field named by an EnergyCategory value; public, as bench/ reads it."""

    ra_sync_mj: float
    post_ra_messages_mj: float
    connected_drx_mj: float
    idle_drx_mj: float
    psm_mj: float

    @property
    def total_mj(self) -> float:
        return (self.ra_sync_mj + self.post_ra_messages_mj
                + self.connected_drx_mj + self.idle_drx_mj + self.psm_mj)


_NO_ENERGY = dict.fromkeys(EnergyCategory, 0.0)


def price(us: flows.TimeByKey) -> dict[EnergyCategory, float]:
    """mJ by category, in category order, of microseconds per (category, power_mw)."""
    out = _NO_ENERGY.copy()
    for (cat, power_mw), duration_us in us.items():
        out[cat] += power_mw * duration_us * 1e-6      # mW * us = nJ
    return out


@dataclass(frozen=True)
class PeriodicEvent:
    """A wake-up run once per period_us between reports, such as a periodic
    TAU: its energy as (category, mJ) pairs, each under the category the cycle
    charges it to, and its awake time, both in timeline microseconds."""

    mj: tuple[tuple[EnergyCategory, float], ...]
    active_us: int
    period_us: int


@dataclass(frozen=True)
class CycleProfile:
    """The part of a traffic cycle that does not depend on the IAT.

    Holds the per-category energy and the length of the active timeline, the
    rest state's power and category, the periodic events the cycle amortizes,
    the longest IAT the cycle can take, in us (inf where it has no ceiling),
    and the channel usage of one report's flow (`flows._lay_out`; no event's).
    """

    active_mj: dict[EnergyCategory, float]
    active_us: int
    rest_mw: float
    rest_category: EnergyCategory
    events: tuple[PeriodicEvent, ...]
    max_iat_us: float
    per_channel_usage: dict[ChannelKind, float]

    def category_mj(self, iat_us: int) -> tuple[float, ...]:
        """mJ per category, in EnergyBreakdown field order, of one inter-arrival
        period of iat_us whole microseconds, which its caller rounds once.

        Each event adds iat_us / period_us of its energy and of its awake time;
        the rest state is priced once over the rest.  An IAT above max_iat_us,
        or one that leaves a negative rest time, raises ConfigurationError.
        """
        if iat_us > self.max_iat_us:
            raise ConfigurationError(
                f"iat_s={iat_us / US_PER_S:.15g} s: a mobile-terminated PSM_TAU cycle "
                f"exceeds the {self.max_iat_us / US_PER_S / 3600.0:.0f} h PSM maximum")
        rest_us = iat_us - self.active_us
        cats = dict(self.active_mj)
        for event in self.events:
            fraction = iat_us / event.period_us    # events per cycle
            rest_us -= event.active_us * fraction
            for cat, mj in event.mj:
                cats[cat] += mj * fraction
        if rest_us < 0:
            raise ConfigurationError(f"iat_s={iat_us / US_PER_S}: shorter than the "
                                     f"{(iat_us - rest_us) / US_PER_S:.6f} s active cycle")
        cats[self.rest_category] += self.rest_mw * rest_us * 1e-6
        # cats is keyed in EnergyCategory order, which is the field order
        return tuple(cats.values())


# the Scenario fields that a standalone TAU's layout reads, and only they; only
# a CP layout reads the last (`Scenario.connected_inactivity_s`)
_TAU_FIELDS = ("procedure", "coverage", "power", "sync_base_ms", "ra_attempt_cap", "rar_bytes",
              "idle_active_timer_base_s", "drx_long_cycle_base_s", "psm_tau_period_s",
              "cp_inactivity_npdcch_periods")
_tau_values = attrgetter(*_TAU_FIELDS[:-1])


def _tau_key(s: Scenario) -> tuple:
    """The values of s's _TAU_FIELDS, the CP inactivity count 0 but under CP."""
    return (*_tau_values(s), s.cp_inactivity_npdcch_periods if s.procedure is Procedure.CP else 0)


@lru_cache(maxsize=256)
def _tau_event(values: tuple) -> PeriodicEvent:
    """The standalone periodic TAU of every scenario whose `_tau_key` is
    values, laid out on a Scenario of those _TAU_FIELDS values and defaults
    elsewhere, its idle DRX charged to ra_sync.  Memoized per value, exact for
    the reasons `cycle_profile` gives, as the layout reads no other field."""
    s = Scenario(**dict(zip(_TAU_FIELDS, values)))
    us, active_us, _ = flows.active_time(flows.build_tau_flow(s), s)
    return PeriodicEvent(tuple((EnergyCategory.RA_SYNC if cat is EnergyCategory.IDLE_DRX
                                else cat, mj) for cat, mj in price(us).items()),
                         active_us, round(s.psm_tau_period_s * US_PER_S))


@lru_cache(maxsize=256)
def cycle_profile(s: Scenario) -> CycleProfile:
    """Active-cycle profile of a scenario, valid since it was built, refused where
    the periodic events leave no IAT a rest time; `category_mj` checks each IAT.
    Memoized per Scenario value, exact as equal scenarios differ at most as int/float
    or -0.0/0.0 twins, which price alike; callers share it, so none mutates its dicts.
    A standalone TAU comes from a memo of its own, `_tau_event`, shared by every
    scenario that agrees on the fields its layout reads."""
    us, active_us, usage = flows.active_time(flows.build_flow(s), s)
    _, rest_mw, rest_category, _ = flows.rest_state(s)
    psm_tau = s.mt_reachability is Reachability.PSM_TAU
    paced_by_tau = psm_tau and s.traffic_case.mobile_terminated
    # reachability costs PSM_TAU a periodic TAU, carried inside a downlink
    # flow, and DRX_PAGING the paging occasions of its rest state.  A standalone
    # TAU's idle DRX is part of its wake-up and charged to ra_sync, so a cycle's
    # idle-DRX energy is only its own reachability window, which is zero
    # whenever release assistance applies
    events = (_tau_event(_tau_key(s)),) if psm_tau and not paced_by_tau else ()
    if sum(e.active_us / e.period_us for e in events) >= 1.0:
        raise ConfigurationError("periodic TAUs keep the UE awake " + " and ".join(
            f"{e.active_us / US_PER_S} s of every {e.period_us / US_PER_S} s"
            for e in events) + " TAU period: no IAT is long enough")
    return CycleProfile(
        active_mj=price(us), active_us=active_us,
        rest_mw=rest_mw, rest_category=rest_category, events=events,
        # a downlink PSM_TAU cycle's IAT is its T3412: at most 310 h (TS 24.008)
        max_iat_us=round(MAX_PSM_TIME_S * US_PER_S) if paced_by_tau else math.inf,
        per_channel_usage=usage,
    )


def cycle_energy(s: Scenario) -> EnergyBreakdown:
    """Energy of one inter-arrival period by category; public, as bench/ calls it."""
    return EnergyBreakdown(*cycle_profile(s).category_mj(round(s.iat_s * US_PER_S)))


def lifetime_and_shares(mj: tuple[float, ...], iat_us: int, battery_wh: float) -> tuple:
    """Lifetime in years of a battery_wh battery spending the category mJ mj
    (field order) every iat_us us, then the ra_sync, messages, DRX and PSM shares."""
    ra_sync, messages, connected_drx, idle_drx, psm = mj
    total = ra_sync + messages + connected_drx + idle_drx + psm
    return (battery_wh / (total / 1000.0 / (iat_us / US_PER_S)) / HOURS_PER_YEAR,
            ra_sync / total, messages / total, (connected_drx + idle_drx) / total, psm / total)


def battery_lifetime_years(s: Scenario) -> float:
    """Battery lifetime in years at the scenario's long-run average power;
    public, as bench/ checks each lifetime row against it."""
    iat_us = round(s.iat_s * US_PER_S)
    return lifetime_and_shares(cycle_profile(s).category_mj(iat_us), iat_us, s.battery_wh)[0]


def psm_baseline_lifetime_years(s: Scenario) -> float:
    """Lifetime of a traffic-free UE that only deep-sleeps (the PSM floor)."""
    return lifetime_and_shares((0.0, 0.0, 0.0, 0.0, s.power.deep_sleep_mw), US_PER_S,
                               s.battery_wh)[0]
