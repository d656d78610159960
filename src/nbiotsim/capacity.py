"""Radio-resource accounting and cell capacity relative to the legacy procedure.

Fluid-flow accounting: each flow's per-channel resource usage is summed from
message airtimes, every shared-channel message charges one NPDCCH assignment,
and random access charges expected preamble slots.  Cell capacity is the
tightest budget/usage ratio across channels after coverage-level sharing; the
budgets are the scenario's, which default to the cell's pools (config).  A
scenario was validated when it was built, so none is checked here.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import flows, phy, ra
from .config import LEVEL_RESOURCE_SHARE, ConfigurationError, Scenario
from .flows import ProcedureFlow
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


def flow_channel_usage(flow: ProcedureFlow, s: Scenario) -> dict[ChannelKind, float]:
    """Radio resources one report consumes, per channel.

    NPUSCH usage in subcarrier-ms, NPDSCH and NPDCCH in subframes, NPRACH in
    expected preamble slots.  Every shared-channel message adds one NPDCCH
    assignment.
    """
    c = s.coverage
    usage = {ch: 0.0 for ch in ChannelKind}
    ul_fraction = phy.ul_carrier_fraction(c)
    for msg in flow.messages:
        airtime_ms = phy.message_airtime(msg.size_bytes, c, msg.channel)
        usage[msg.channel] += (airtime_ms * ul_fraction * 12.0
                               if msg.channel is ChannelKind.NPUSCH
                               else airtime_ms / phy.SUBFRAME_MS)
    npdcch_sf = phy.message_airtime(1, c, ChannelKind.NPDCCH) / phy.SUBFRAME_MS
    usage[ChannelKind.NPDCCH] += len(flow.messages) * npdcch_sf
    usage[ChannelKind.NPRACH] += ra.expected_attempts(s.ra_attempt_cap)
    return usage


def cell_capacity(s: Scenario) -> CapacityReport:
    """Supported reports per hour and the limiting channel for one scenario."""
    usage = flow_channel_usage(flows.build_flow(s), s)
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
