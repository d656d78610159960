"""Energy integration, long-run average power, and battery lifetime.

One cycle spans one inter-arrival period including its share of periodic
tracking-area updates: uplink cases amortize one TAU per TAU period, downlink
cases carry the TAU inside the flow (the TAU is what makes the UE reachable).

Only the deep-sleep fill and the amortized TAU fraction depend on the
inter-arrival time (IAT).  `cycle_profile` integrates the active timeline (and
the standalone TAU) against the state powers once; `CycleProfile.breakdown`
then gives the cycle energy at any IAT in closed form, filling the rest of the
period with deep sleep on the same integer-microsecond grid as the timeline.
An IAT sweep therefore builds its timelines once, not once per point.
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
class CycleProfile:
    """The part of a traffic cycle that does not depend on the IAT.

    Holds the per-category energy of the active timeline (everything before
    deep sleep) and its length, and the same for one amortized periodic TAU.
    Only uplink PSM_TAU cycles amortize a TAU; every other cycle carries a
    zero TAU, all of whose energies and whose length are 0.
    """

    active_mj: dict[EnergyCategory, float]
    active_us: int
    deep_sleep_mw: float
    tau_period_s: float
    tau_mj: dict[EnergyCategory, float]
    tau_active_us: int

    def breakdown(self, iat_s: float) -> EnergyBreakdown:
        """Energy of one inter-arrival period of iat_s seconds, split by category.

        The amortized TAU is a separate wake-up event: its idle-DRX window is
        charged to the wake-up (ra_sync) category, so the idle-DRX field always
        reflects the cycle's own reachability window, which is zero whenever
        release assistance applies.
        """
        iat_us = int(round(iat_s * flows.US_PER_S))
        fraction = iat_s / self.tau_period_s      # amortized TAUs per cycle
        # the active cycle includes the amortized TAUs' awake time, rounded up
        # to the timeline's microsecond grid
        tau_active_s = self.tau_active_us / flows.US_PER_S
        awake_us = self.active_us + math.ceil(tau_active_s * fraction * flows.US_PER_S)
        if iat_us < awake_us:
            raise ConfigurationError(
                f"iat_s={iat_s}: shorter than the {awake_us / flows.US_PER_S} s active cycle")
        cats = dict(self.active_mj)
        # deep sleep fills the period after the active timeline
        cats[EnergyCategory.PSM] += self.deep_sleep_mw * (iat_us - self.active_us) * 1e-6
        for cat, mj in self.tau_mj.items():
            target = EnergyCategory.RA_SYNC if cat is EnergyCategory.IDLE_DRX else cat
            cats[target] += mj * fraction
        # The amortized TAU's active time is spent awake, not in deep sleep.
        cats[EnergyCategory.PSM] -= tau_active_s * fraction * self.deep_sleep_mw
        return EnergyBreakdown(**{cat.value: mj for cat, mj in cats.items()})


def cycle_profile(s: Scenario) -> CycleProfile:
    """Active-cycle profile of a scenario, valid for any inter-arrival time."""
    validate_scenario(s)
    timeline = flows.flow_timeline(flows.build_flow(s), s, fill_psm_to_iat=False)
    # Downlink flows carry their TAU inside the flow, and paging reachability
    # models no periodic TAU; only uplink PSM_TAU cycles amortize one.
    amortizes_tau = (not s.traffic_case.mobile_terminated
                     and s.mt_reachability is Reachability.PSM_TAU)
    tau_timeline = (flows.flow_timeline(flows.build_tau_flow(s), s, fill_psm_to_iat=False)
                    if amortizes_tau else [])
    return CycleProfile(
        active_mj=integrate_timeline(timeline),
        active_us=timeline[-1].end_us,
        deep_sleep_mw=s.power.deep_sleep_mw,
        tau_period_s=s.psm_tau_period_s,
        tau_mj=integrate_timeline(tau_timeline),
        tau_active_us=tau_timeline[-1].end_us if tau_timeline else 0,
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
