"""Energy integration, long-run average power, and battery lifetime.

One cycle spans one inter-arrival period (IAT).  `cycle_profile` integrates the
active timeline against the state powers once, and with it each periodic event
the cycle amortizes: an uplink PSM_TAU cycle runs one standalone TAU per TAU
period, while a downlink flow carries its TAU inside the flow (the TAU is what
makes the UE reachable) and amortizes nothing.  `CycleProfile.breakdown` then
gives the cycle energy at any IAT in closed form: iat / period of each event,
and deep sleep filling the rest of the period on the timeline's
integer-microsecond grid.  An IAT sweep therefore builds its timelines once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import flows
from .config import (HOURS_PER_YEAR, ConfigurationError, Reachability, Scenario,
                     scenario_value, validate_scenario)
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


def interval_energy_mj(iv: Interval) -> float:
    # mW * us = nJ; 1e-6 converts to mJ
    return iv.power_mw * iv.duration_us * 1e-6


def integrate_timeline(timeline: list[Interval]) -> dict[EnergyCategory, float]:
    out = {cat: 0.0 for cat in EnergyCategory}
    for iv in timeline:
        out[iv.category] += interval_energy_mj(iv)
    return out


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
    timeline = flows.flow_timeline(flow, s, fill_psm_to_iat=False)
    return PeriodicEvent(
        mj=tuple((EnergyCategory.RA_SYNC if cat is EnergyCategory.IDLE_DRX else cat, mj)
                 for cat, mj in integrate_timeline(timeline).items()),
        active_us=timeline[-1].end_us, period_s=period_s)


@dataclass(frozen=True)
class CycleProfile:
    """The part of a traffic cycle that does not depend on the IAT.

    Holds the per-category energy of the active timeline (everything before
    deep sleep) and its length, and the periodic events the cycle amortizes.
    """

    active_mj: dict[EnergyCategory, float]
    active_us: int
    deep_sleep_mw: float
    events: tuple[PeriodicEvent, ...]

    def breakdown(self, iat_s: float) -> EnergyBreakdown:
        """Energy of one inter-arrival period of iat_s seconds, split by category.

        Deep sleep fills the period after the active timeline; each event adds
        iat_s / period_s of its energy and takes its awake time out of deep sleep.
        """
        iat_us = int(round(iat_s * flows.US_PER_S))
        awake_us = self.active_us
        cats = dict(self.active_mj)
        cats[EnergyCategory.PSM] += self.deep_sleep_mw * (iat_us - self.active_us) * 1e-6
        for event in self.events:
            fraction = iat_s / event.period_s      # events per cycle
            active_s = event.active_us / flows.US_PER_S
            # the events' awake time, rounded up to the timeline's microsecond grid
            awake_us += math.ceil(active_s * fraction * flows.US_PER_S)
            for cat, mj in event.mj:
                cats[cat] += mj * fraction
            cats[EnergyCategory.PSM] -= active_s * fraction * self.deep_sleep_mw
        if iat_us < awake_us:
            raise ConfigurationError(
                f"iat_s={iat_s}: shorter than the {awake_us / flows.US_PER_S} s active cycle")
        return EnergyBreakdown(**{cat.value: mj for cat, mj in cats.items()})


def cycle_profile(s: Scenario) -> CycleProfile:
    """Active-cycle profile of a scenario, valid for any inter-arrival time."""
    validate_scenario(s)
    timeline = flows.flow_timeline(flows.build_flow(s), s, fill_psm_to_iat=False)
    return CycleProfile(
        active_mj=integrate_timeline(timeline),
        active_us=timeline[-1].end_us,
        deep_sleep_mw=s.power.deep_sleep_mw,
        # paging reachability models no periodic TAU
        events=((standalone_event(flows.build_tau_flow(s), s, s.psm_tau_period_s),)
                if not s.traffic_case.mobile_terminated
                and s.mt_reachability is Reachability.PSM_TAU else ()),
    )


def cycle_energy(s: Scenario) -> EnergyBreakdown:
    """Energy of one inter-arrival period, split by category."""
    return cycle_profile(s).breakdown(s.iat_s)


def lifetime_years(b: EnergyBreakdown, s: Scenario) -> float:
    """Battery lifetime in years of scenario s, whose cycle energy is b."""
    power_w = b.total_mj / 1000.0 / s.iat_s
    return s.battery_wh / power_w / HOURS_PER_YEAR


def battery_lifetime_years(s: Scenario) -> float:
    """Battery lifetime in years at the scenario's long-run average power."""
    return lifetime_years(cycle_energy(s), s)


def psm_baseline_lifetime_years(s: Scenario) -> float:
    """Lifetime of a traffic-free UE that only deep-sleeps (the PSM floor).

    Raises ConfigurationError if the battery or the deep-sleep power lies
    outside its key's domain.
    """
    scenario_value("battery_wh", s.battery_wh)
    scenario_value("deep_sleep_mw", s.power.deep_sleep_mw)
    return s.battery_wh / (s.power.deep_sleep_mw / 1000.0) / HOURS_PER_YEAR
