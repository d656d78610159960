"""Per-channel resource usage, bottlenecks, and capacity gains."""

import pytest
from dataclasses import replace

from nbiotsim import (ChannelKind, Scenario, build_flow, capacity_gain_pct,
                      cell_capacity, default_budgets, flow_channel_usage,
                      message_airtime)
from nbiotsim.capacity import BOTTLENECK_ORDER, CapacityReport
from nbiotsim.config import ConfigurationError
from nbiotsim.flows import ProcedureFlow
from nbiotsim.phy import ul_carrier_fraction
from nbiotsim.ra import expected_attempts
from tests.conftest import make_scenario


def test_cp_uses_less_npdcch_than_up():
    for cov in ("Normal", "Robust", "Extreme"):
        cp = flow_channel_usage(build_flow(make_scenario("CP", "UL", cov)),
                                make_scenario("CP", "UL", cov))
        up = flow_channel_usage(build_flow(make_scenario("UP", "UL", cov)),
                                make_scenario("UP", "UL", cov))
        assert cp[ChannelKind.NPDCCH] < up[ChannelKind.NPDCCH]


def test_single_message_flow_usage_assembly():
    s = make_scenario("UP", "UL")
    flow = build_flow(s)
    one = replace(flow, messages=flow.messages[3:4])    # the 64 B uplink report
    usage = flow_channel_usage(one, s)
    assert usage[ChannelKind.NPUSCH] == pytest.approx(
        message_airtime(64, s.coverage, ChannelKind.NPUSCH)
        * ul_carrier_fraction(s.coverage) * 12.0)
    assert usage[ChannelKind.NPDCCH] == 1.0             # one assignment, rep 1
    assert usage[ChannelKind.NPDSCH] == 0.0
    assert usage[ChannelKind.NPRACH] == pytest.approx(expected_attempts(10))


def test_capacity_is_min_over_channels():
    s = make_scenario("CP", "UL")
    usage = flow_channel_usage(build_flow(s), s)
    budgets = default_budgets(s)
    expected = min(0.33 * budgets[ch] / usage[ch]
                   for ch in ChannelKind if usage[ch] > 0) * 3600.0
    report = cell_capacity(s)
    assert report.reports_per_hour == pytest.approx(expected)


def test_simple_budget_division():
    # budgets pinned so the uplink ratio is exactly 1000 reports/s and every
    # other channel is loose: capacity must be the plain division
    s = make_scenario("CP", "UL")
    usage = flow_channel_usage(build_flow(s), s)
    s2 = replace(s,
                 budget_npusch_sc_ms_per_s=usage[ChannelKind.NPUSCH] * 1000.0 / 0.33,
                 budget_npdcch_sf_per_s=usage[ChannelKind.NPDCCH] * 1e9,
                 budget_npdsch_sf_per_s=usage[ChannelKind.NPDSCH] * 1e9,
                 budget_nprach_slots_per_s=usage[ChannelKind.NPRACH] * 1e9)
    report = cell_capacity(s2)
    assert report.reports_per_hour == pytest.approx(1000.0 * 3600.0)
    assert report.bottleneck is ChannelKind.NPUSCH


def test_bottleneck_flip_with_coverage():
    uplink = (ChannelKind.NPUSCH, ChannelKind.NPRACH)
    downlink = (ChannelKind.NPDCCH, ChannelKind.NPDSCH)
    for proc in ("CP", "UP"):
        assert cell_capacity(make_scenario(proc, "UL", "Normal")).bottleneck in uplink
        for cov in ("Robust", "Extreme"):
            assert cell_capacity(make_scenario(proc, "UL", cov)).bottleneck in downlink


def test_cp_gain_grows_with_worse_coverage():
    def gain(cov):
        opt = cell_capacity(make_scenario("CP", "UL", cov))
        sr = cell_capacity(make_scenario("SR", "UL", cov))
        return capacity_gain_pct(opt, sr)
    assert gain("Extreme") > gain("Robust")


def test_gain_arithmetic():
    sr = CapacityReport({}, ChannelKind.NPUSCH, 100.0)
    assert capacity_gain_pct(CapacityReport({}, ChannelKind.NPUSCH, 262.0), sr) \
        == pytest.approx(162.0)
    assert capacity_gain_pct(CapacityReport({}, ChannelKind.NPUSCH, 220.0), sr) \
        == pytest.approx(120.0)
    assert capacity_gain_pct(sr, sr) == 0.0
    with pytest.raises(ValueError):
        capacity_gain_pct(sr, CapacityReport({}, ChannelKind.NPUSCH, 0.0))


def test_budget_scale_invariance():
    s = make_scenario("CP", "UL")
    sr = make_scenario("SR", "UL")
    base_gain = capacity_gain_pct(cell_capacity(s), cell_capacity(sr))
    base_rate = cell_capacity(s).reports_per_hour
    k = 3.7
    budgets = default_budgets(s)
    def scale(x):
        return replace(x,
                       budget_npdcch_sf_per_s=k * budgets[ChannelKind.NPDCCH],
                       budget_npdsch_sf_per_s=k * budgets[ChannelKind.NPDSCH],
                       budget_npusch_sc_ms_per_s=k * budgets[ChannelKind.NPUSCH],
                       budget_nprach_slots_per_s=k * budgets[ChannelKind.NPRACH])
    scaled_gain = capacity_gain_pct(cell_capacity(scale(s)), cell_capacity(scale(sr)))
    assert scaled_gain == pytest.approx(base_gain, rel=1e-12)
    assert cell_capacity(scale(s)).reports_per_hour == pytest.approx(k * base_rate,
                                                                     rel=1e-12)


def test_removing_messages_never_decreases_capacity():
    s = make_scenario("SR", "DL_ACK", "Robust")
    flow = build_flow(s)
    budgets = default_budgets(s)
    def rate(f: ProcedureFlow) -> float:
        usage = flow_channel_usage(f, s)
        return min(0.33 * budgets[ch] / usage[ch]
                   for ch in ChannelKind if usage[ch] > 0)
    full = rate(flow)
    for drop in range(len(flow.messages)):
        fewer = replace(flow, messages=flow.messages[:drop] + flow.messages[drop + 1:])
        assert rate(fewer) >= full


def test_grid_is_deterministic():
    from nbiotsim.cli import run_capacity_report
    a = run_capacity_report(Scenario())
    b = run_capacity_report(Scenario())
    assert a.rows == b.rows
    assert len(a.rows) == 24


def test_bottleneck_tie_break_order():
    s = make_scenario("CP", "UL")
    usage = flow_channel_usage(build_flow(s), s)
    # budgets chosen so NPDCCH and NPDSCH ratios tie and everything else is loose
    tied = replace(s,
                   budget_npdcch_sf_per_s=usage[ChannelKind.NPDCCH] * 100.0,
                   budget_npdsch_sf_per_s=usage[ChannelKind.NPDSCH] * 100.0,
                   budget_npusch_sc_ms_per_s=usage[ChannelKind.NPUSCH] * 1e6,
                   budget_nprach_slots_per_s=usage[ChannelKind.NPRACH] * 1e6)
    assert cell_capacity(tied).bottleneck is ChannelKind.NPDCCH
    assert BOTTLENECK_ORDER[0] is ChannelKind.NPDCCH


def test_zero_reference_capacity_is_a_configuration_error():
    # no valid scenario reaches it (budgets are at least 1e-06 units/s), but
    # a report built by hand can
    opt = cell_capacity(make_scenario("CP", "UL"))
    zero = CapacityReport(per_channel_usage={}, bottleneck=ChannelKind.NPDCCH,
                          reports_per_hour=0.0)
    with pytest.raises(ConfigurationError, match="reference capacity is zero"):
        capacity_gain_pct(opt, zero)
