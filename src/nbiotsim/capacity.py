"""Cell capacity relative to the legacy procedure.

Fluid-flow accounting: a report's per-channel resource usage is the one its
flow's layout pass summed (`flows._lay_out`), read from the scenario's memoized
`energy.cycle_profile`, so a scenario whose TAUs keep the UE awake is refused
here as in its lifetime rows.  Cell capacity is the tightest budget/usage ratio
across channels after coverage-level sharing; the budgets are the scenario's,
which default to the cell's pools (config).  A scenario was validated when it
was built, so none is checked here.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import energy
from .config import LEVEL_RESOURCE_SHARE, ConfigurationError, Scenario
from .phy import ChannelKind

# Deterministic tie-break for equal capacity ratios.
BOTTLENECK_ORDER = (ChannelKind.NPDCCH, ChannelKind.NPDSCH,
                    ChannelKind.NPUSCH, ChannelKind.NPRACH)


@dataclass(frozen=True)
class CapacityReport:
    per_channel_usage: dict[ChannelKind, float]
    bottleneck: ChannelKind
    reports_per_hour: float


def default_budgets(s: Scenario) -> dict[ChannelKind, float]:
    """The scenario's cell-wide budget per channel in units/s, before coverage
    sharing; each defaults to its pool in config.

    NPDCCH and NPDSCH both draw on the shared downlink subframe pool, so each
    is checked against the full (derated) pool; NPUSCH is counted in
    subcarrier-milliseconds; NPRACH in preamble slots.
    """
    return {ChannelKind.NPDCCH: s.budget_npdcch_sf_per_s,
            ChannelKind.NPDSCH: s.budget_npdsch_sf_per_s,
            ChannelKind.NPUSCH: s.budget_npusch_sc_ms_per_s,
            ChannelKind.NPRACH: s.budget_nprach_slots_per_s}


def cell_capacity(s: Scenario) -> CapacityReport:
    """Supported reports per hour and the limiting channel for one scenario."""
    usage = dict(energy.cycle_profile(s).per_channel_usage)    # a copy: the profile is shared
    budgets = default_budgets(s)
    # NPRACH usage is the expected RA attempts, at least 1, so rates is never empty
    rates = {ch: LEVEL_RESOURCE_SHARE * budgets[ch] / usage[ch]
             for ch in BOTTLENECK_ORDER if usage[ch] > 0.0}
    bottleneck = min(rates, key=rates.get)      # the first channel wins a tie
    return CapacityReport(per_channel_usage=usage, bottleneck=bottleneck,
                          reports_per_hour=rates[bottleneck] * 3600.0)


def capacity_gain_pct(opt: CapacityReport, sr: CapacityReport) -> float:
    """Capacity gain of an optimized procedure relative to the legacy one."""
    if sr.reports_per_hour <= 0.0:
        raise ConfigurationError("reference capacity is zero")
    return (opt.reports_per_hour / sr.reports_per_hour - 1.0) * 100.0
