"""Energy pricing, long-run average power, and battery lifetime.

A cycle is time: `flows.active_time` gives its whole microseconds per
(category, power_mw), and `price` alone turns such times into mJ.
`integrate_timeline` groups a timeline by the same key and prices it.
`cycle_profile` prices the active cycle once, and each periodic event the
cycle amortizes: an uplink PSM_TAU cycle runs one standalone TAU per TAU
period, while a downlink flow carries its TAU inside the flow (the TAU is what
makes the UE reachable) and a paging UE pays in its rest state.
`CycleProfile.breakdown` then gives the energy of one inter-arrival period
(IAT) in closed form: iat / period of each event, and the rest state
(`flows.rest_state`) priced once over the rest time, the IAT's whole
microseconds less the active timeline and the events' awake time.  So rows
that differ only in their IAT share one profile, and a row costs `breakdown`,
`lifetime_years` and `shares` at its IAT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import flows
from .config import (HOURS_PER_YEAR, MAX_PSM_TIME_S, ConfigurationError, Reachability,
                     Scenario, scenario_value, validate_scenario)
from .flows import EnergyCategory, Interval


@dataclass(frozen=True)
class EnergyBreakdown:
    """Millijoules per traffic cycle; each field is named by an EnergyCategory value."""

    ra_sync_mj: float
    post_ra_messages_mj: float
    connected_drx_mj: float
    idle_drx_mj: float
    psm_mj: float

    @property
    def total_mj(self) -> float:
        return (self.ra_sync_mj + self.post_ra_messages_mj
                + self.connected_drx_mj + self.idle_drx_mj + self.psm_mj)

    def share(self, *categories: EnergyCategory) -> float:
        """Fraction of the cycle total attributed to the given categories."""
        return sum(getattr(self, cat.value) for cat in categories) / self.total_mj

    def shares(self) -> tuple[float, float, float, float]:
        """The ra_sync, messages, DRX (connected plus idle) and PSM shares, as
        `share` gives them, from one read of the fields."""
        total = self.total_mj
        return (self.ra_sync_mj / total, self.post_ra_messages_mj / total,
                (self.connected_drx_mj + self.idle_drx_mj) / total, self.psm_mj / total)


_NO_ENERGY = dict.fromkeys(EnergyCategory, 0.0)


def price(us: flows.TimeByKey) -> dict[EnergyCategory, float]:
    """mJ by category, in category order, of microseconds per (category, power_mw)."""
    out = _NO_ENERGY.copy()
    for (cat, power_mw), duration_us in us.items():
        out[cat] += power_mw * duration_us * 1e-6      # mW * us = nJ
    return out


def integrate_timeline(timeline: list[Interval]) -> dict[EnergyCategory, float]:
    """mJ by category of a timeline, priced from its time per (category, power_mw)."""
    us: flows.TimeByKey = {}
    for iv in timeline:
        us[iv.category, iv.power_mw] = us.get((iv.category, iv.power_mw), 0) + iv.duration_us
    return price(us)


@dataclass(frozen=True)
class PeriodicEvent:
    """A wake-up run once per period_s between reports, such as a periodic TAU:
    its energy as (category, mJ) pairs, each under the category the cycle
    charges it to, and its awake time in timeline microseconds."""

    mj: tuple[tuple[EnergyCategory, float], ...]
    active_us: int
    period_s: float


def standalone_event(flow: flows.ProcedureFlow, s: Scenario, period_s: float) -> PeriodicEvent:
    """A standalone flow run once per period_s.  Its idle DRX is part of the
    wake-up and charged to ra_sync, so a cycle's idle-DRX energy is only its
    own reachability window, which is zero whenever release assistance applies."""
    us, active_us = flows.active_time(flow, s)
    return PeriodicEvent(
        mj=tuple((EnergyCategory.RA_SYNC if cat is EnergyCategory.IDLE_DRX else cat, mj)
                 for cat, mj in price(us).items()),
        active_us=active_us, period_s=period_s)


@dataclass(frozen=True)
class CycleProfile:
    """The part of a traffic cycle that does not depend on the IAT.

    Holds the per-category energy and the length of the active timeline, the
    rest state's power and category, the periodic events the cycle amortizes,
    and the longest IAT the cycle can take (inf where it has no ceiling).
    """

    active_mj: dict[EnergyCategory, float]
    active_us: int
    rest_mw: float
    rest_category: EnergyCategory
    events: tuple[PeriodicEvent, ...]
    max_iat_s: float

    def breakdown(self, iat_s: float) -> EnergyBreakdown:
        """Energy of one inter-arrival period of iat_s seconds, split by category.

        Each event adds iat_s / period_s of its energy and of its awake time;
        the rest state is priced once over the rest of the period's whole
        microseconds.  An IAT above max_iat_s, or one that leaves a negative
        rest time, raises ConfigurationError.
        """
        if iat_s > self.max_iat_s:
            raise ConfigurationError(f"iat_s={iat_s:.0f} s: a mobile-terminated PSM_TAU cycle "
                                     f"exceeds the {self.max_iat_s / 3600.0:.0f} h PSM maximum")
        iat_us = int(round(iat_s * flows.US_PER_S))
        rest_us = iat_us - self.active_us
        cats = dict(self.active_mj)
        for event in self.events:
            fraction = iat_s / event.period_s      # events per cycle
            rest_us -= event.active_us * fraction
            for cat, mj in event.mj:
                cats[cat] += mj * fraction
        if rest_us < 0:
            # events awake for at least their period leave room for no IAT
            if sum(e.active_us / flows.US_PER_S / e.period_s for e in self.events) >= 1.0:
                raise ConfigurationError("periodic TAUs keep the UE awake " + " and ".join(
                    f"{e.active_us / flows.US_PER_S} s of every {e.period_s} s"
                    for e in self.events) + " TAU period: no IAT is long enough")
            raise ConfigurationError(f"iat_s={iat_s}: shorter than the "
                                     f"{(iat_us - rest_us) / flows.US_PER_S} s active cycle")
        cats[self.rest_category] += self.rest_mw * rest_us * 1e-6
        # cats is keyed in EnergyCategory order, which is the field order
        return EnergyBreakdown(*cats.values())


def cycle_profile(s: Scenario) -> CycleProfile:
    """Active-cycle profile of a scenario, which it validates; `breakdown` checks each IAT."""
    validate_scenario(s)
    us, active_us = flows.active_time(flows.build_flow(s), s)
    _, rest_mw, rest_category, _ = flows.rest_state(s)
    psm_tau = s.mt_reachability is Reachability.PSM_TAU
    paced_by_tau = psm_tau and s.traffic_case.mobile_terminated
    return CycleProfile(
        active_mj=price(us), active_us=active_us,
        rest_mw=rest_mw, rest_category=rest_category,
        # reachability costs PSM_TAU a periodic TAU, carried inside a downlink
        # flow, and DRX_PAGING the paging occasions of its rest state
        events=((standalone_event(flows.build_tau_flow(s), s, s.psm_tau_period_s),)
                if psm_tau and not paced_by_tau else ()),
        # a downlink PSM_TAU cycle's IAT is its T3412: at most 310 h (TS 24.008)
        max_iat_s=MAX_PSM_TIME_S if paced_by_tau else math.inf,
    )


def cycle_energy(s: Scenario) -> EnergyBreakdown:
    """Energy of one inter-arrival period, split by category."""
    return cycle_profile(s).breakdown(s.iat_s)


def lifetime_years(b: EnergyBreakdown, iat_s: float, battery_wh: float) -> float:
    """Battery lifetime in years of a battery_wh battery spending b every iat_s seconds."""
    power_w = b.total_mj / 1000.0 / iat_s
    return battery_wh / power_w / HOURS_PER_YEAR


def battery_lifetime_years(s: Scenario) -> float:
    """Battery lifetime in years at the scenario's long-run average power."""
    return lifetime_years(cycle_energy(s), s.iat_s, s.battery_wh)


def psm_baseline_lifetime_years(s: Scenario) -> float:
    """Lifetime of a traffic-free UE that only deep-sleeps (the PSM floor).

    Raises ConfigurationError if the battery or the deep-sleep power lies
    outside its key's domain.
    """
    scenario_value("battery_wh", s.battery_wh)
    scenario_value("deep_sleep_mw", s.power.deep_sleep_mw)
    return s.battery_wh / (s.power.deep_sleep_mw / 1000.0) / HOURS_PER_YEAR
