"""Energy pricing, long-run average power, and battery lifetime.

A cycle is time: `flows.active_time` gives its whole microseconds per
(category, power_mw), and `price` alone turns such times into mJ.
`cycle_profile` prices the active cycle once, and each periodic event the
cycle amortizes: an uplink PSM_TAU cycle runs one standalone TAU per TAU
period, while a downlink flow carries its TAU inside the flow (the TAU is what
makes the UE reachable) and a paging UE pays in its rest state.
`_priced` then prices one inter-arrival period (IAT) of whole microseconds in
closed form, from constants each `CycleProfile` derives from its fields when
it is built: iat / period of each event, and the rest state
(`flows.rest_state`) priced once over the rest time, the IAT less the active
timeline and the events' awake time.  `cycle_profile` refuses events awake for
their whole period, so every profile admits some IAT, and an IAT is refused
only at its two bounds.  A scenario's breakdown, lifetime, lifetime rows and
cell capacity share one memoized profile, which no caller may mutate, and
scenarios that agree on the fields a standalone TAU's layout reads share one
memoized TAU.  One `_priced` loop gives all the rows of a point group, each
its category mJ and then its lifetime and shares in straight-line float code
that builds no dict and calls only `round`; `category_mj` (so `cycle_energy`),
`battery_lifetime_years` and the PSM floor, one second of deep sleep, go
through it too, so each formula is written once.
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
# an EnergyCategory's EnergyBreakdown field index
_FIELD_INDEX = {cat: i for i, cat in enumerate(EnergyCategory)}
_PSM = _FIELD_INDEX[EnergyCategory.PSM]


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

    def __post_init__(self):
        # what `_priced` reads of the event, derived from the fields once, and
        # again by each `dataclasses.replace`: its awake time, its period and
        # its non-zero pairs as (field index, mJ), in event order
        object.__setattr__(self, "_constants", (self.active_us, self.period_us, tuple(
            (_FIELD_INDEX[cat], mj) for cat, mj in self.mj if mj)))


_event_constants = attrgetter("_constants")


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

    def __post_init__(self):
        # what pricing an IAT reads, derived from the fields once, and again by
        # each `dataclasses.replace`: `_priced`'s constants, each event's its
        # own, derived once per event, which a memoized TAU shares.  active_mj
        # is keyed in category order, as `price` keys it, the field order
        object.__setattr__(self, "_constants", (
            self.active_us, self.max_iat_us, tuple(self.active_mj.values()),
            self.rest_mw, _FIELD_INDEX[self.rest_category],
            tuple(map(_event_constants, self.events))))

    def category_mj(self, iat_us: int) -> tuple[float, ...]:
        """mJ per category, in EnergyBreakdown field order, of one inter-arrival
        period of iat_us whole microseconds, which its caller rounds once; an
        IAT outside the cycle's bounds raises ConfigurationError."""
        return _priced(self._constants, (iat_us,), 1)[0]

    def lifetime_rows(self, iats_s, battery_wh: float, head: tuple = ()) -> list[tuple]:
        """For each IAT of iats_s seconds, head + (iat_s, the lifetime in years
        of a battery_wh battery, the ra_sync, messages, DRX and PSM shares, ""),
        or, for an IAT outside the cycle's bounds, head + (iat_s, five 0.0, its
        refusal)."""
        return _priced(self._constants, iats_s, US_PER_S, battery_wh, head)


def _priced(constants: tuple, iats, us_per_iat: int, battery_wh: float | None = None,
            head: tuple = ()) -> list[tuple]:
    """Every IAT of iats, in units of us_per_iat microseconds, priced in
    closed form: rounded once to whole microseconds, its category mJ, then
    with a battery_wh battery its lifetime row (`CycleProfile.lifetime_rows`).

    constants are a cycle's active us, its IAT ceiling, its active mJ in field
    order, its rest power and field index, and its events as (awake us, period
    us, (field index, mJ) pairs).  Each event adds iat_us / period_us of its
    energy and of its awake time; the rest state is priced once over the rest.
    An IAT above the ceiling, or one that leaves a negative rest time, is
    refused: raised without a battery, else the row's error text.
    """
    active_us, max_iat_us, active_mj, rest_mw, rest, events = constants
    rows = []
    append = rows.append
    for iat in iats:
        iat_us = round(iat * us_per_iat)
        rest_us = iat_us - active_us
        mj = [*active_mj]
        for event_us, period_us, pairs in events:
            fraction = iat_us / period_us    # events per cycle
            rest_us -= event_us * fraction
            for field, event_mj in pairs:
                mj[field] += event_mj * fraction
        if iat_us > max_iat_us:
            error = (f"iat_s={iat_us / US_PER_S:.15g} s: a mobile-terminated PSM_TAU cycle "
                     f"exceeds the {max_iat_us / US_PER_S / 3600.0:.0f} h PSM maximum")
        elif rest_us < 0:
            error = (f"iat_s={iat_us / US_PER_S}: shorter than the "
                     f"{(iat_us - rest_us) / US_PER_S:.6f} s active cycle")
        else:
            mj[rest] += rest_mw * rest_us * 1e-6
            if battery_wh is None:
                append(tuple(mj))
                continue
            ra_sync, messages, connected_drx, idle_drx, psm = mj
            total = ra_sync + messages + connected_drx + idle_drx + psm
            append(head + (iat, battery_wh / (total / 1000.0 / (iat_us / US_PER_S))
                           / HOURS_PER_YEAR, ra_sync / total, messages / total,
                           (connected_drx + idle_drx) / total, psm / total, ""))
            continue
        if battery_wh is None:
            raise ConfigurationError(error)
        append(head + (iat, 0.0, 0.0, 0.0, 0.0, 0.0, error))
    return rows


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
    the periodic events leave no IAT a rest time; `_priced` checks each IAT.
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


def battery_lifetime_years(s: Scenario) -> float:
    """Battery lifetime in years at the scenario's long-run average power;
    public, as bench/ checks each lifetime row against it."""
    (row,) = cycle_profile(s).lifetime_rows((s.iat_s,), s.battery_wh)
    if row[-1]:
        raise ConfigurationError(row[-1])
    return row[1]


def psm_baseline_lifetime_years(s: Scenario) -> float:
    """Lifetime of a traffic-free UE that only deep-sleeps (the PSM floor): a
    cycle of one second of deep sleep, with no rest after it."""
    floor = (US_PER_S, math.inf, (0.0, 0.0, 0.0, 0.0, s.power.deep_sleep_mw), 0.0, _PSM, ())
    return _priced(floor, (US_PER_S,), 1, s.battery_wh)[0][1]
