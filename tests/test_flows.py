"""Flow construction, timer resolution, and timeline well-formedness."""

import hashlib
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from nbiotsim import build_flow, build_tau_flow, cell_capacity, flow_timeline
from nbiotsim.config import ConfigurationError, Reachability, UeState
from nbiotsim.flows import FLOW_IDS, EnergyCategory, Plane, _parse_catalog, active_time
from nbiotsim.phy import ChannelKind
from nbiotsim.ra import attempt_components
from tests.conftest import active_duration_s, clear_memos, make_scenario

ALL_COMBOS = list(itertools.product(["SR", "CP", "UP"],
                                    ["UL", "UL_ACK", "DL", "DL_ACK"]))


def carries_tau(flow) -> bool:
    return any(m.name.startswith(("tau_", "rrc_setup_complete_tau"))
               for m in flow.messages)


@pytest.mark.parametrize("proc,case", ALL_COMBOS)
def test_flow_security_and_reconfiguration_rules(proc, case):
    flow = build_flow(make_scenario(proc, case))
    names = [m.name for m in flow.messages]
    has_security = any("security_mode" in n for n in names)
    has_reconf = any(n.startswith("rrc_reconfiguration") for n in names)
    if proc == "SR":
        assert has_security and has_reconf
    else:
        assert not has_security and not has_reconf


@pytest.mark.parametrize("case", ["UL", "UL_ACK", "DL", "DL_ACK"])
def test_sr_has_strictly_more_messages(case):
    n = {proc: len(build_flow(make_scenario(proc, case)).messages)
         for proc in ("SR", "CP", "UP")}
    assert n["SR"] > n["UP"]
    assert n["SR"] > n["CP"]


@pytest.mark.parametrize("proc,case", ALL_COMBOS)
def test_rai_only_for_cp_with_uplink_data(proc, case):
    flow = build_flow(make_scenario(proc, case))
    has_ul_data = any(m.plane is Plane.DATA and m.channel is ChannelKind.NPUSCH
                      for m in flow.messages)
    assert (flow.idle_drx_s == 0.0) == (proc == "CP" and has_ul_data)
    if proc == "CP":
        assert has_ul_data == (case != "DL")


@pytest.mark.parametrize("proc,case", ALL_COMBOS)
def test_tau_included_only_for_mt_under_psm(proc, case):
    flow = build_flow(make_scenario(proc, case))
    assert carries_tau(flow) == (case in ("DL", "DL_ACK"))


@pytest.mark.parametrize("proc", ["SR", "CP", "UP"])
def test_paging_variant_replaces_tau(proc):
    s = make_scenario(proc, "DL", mt_reachability=Reachability.DRX_PAGING)
    flow = build_flow(s)
    names = [m.name for m in flow.messages]
    assert names[0] == "paging_record"
    assert not carries_tau(flow)


def test_ul_messages_on_npusch_dl_on_npdsch():
    # a message's channel is its direction: every message rides a shared channel
    for proc, case in ALL_COMBOS:
        for m in build_flow(make_scenario(proc, case)).messages:
            assert m.channel in (ChannelKind.NPUSCH, ChannelKind.NPDSCH)
            assert m.size_bytes > 0


def test_data_sizes_follow_traffic_model():
    s = make_scenario("UP", "UL_ACK")
    flow = build_flow(s)
    sizes = {m.name: m.size_bytes for m in flow.messages}
    assert sizes["ul_data"] == 20 + 44
    assert sizes["dl_ack"] == 0 + 44


def test_cp_merged_data_message():
    flow = build_flow(make_scenario("CP", "UL"))
    merged = [m for m in flow.messages if m.plane is Plane.DATA]
    assert len(merged) == 1
    assert merged[0].name == "rrc_setup_complete_nas_data"
    assert merged[0].size_bytes == 64 + 7     # payload+overhead plus RRC container


def test_payload_size_changes_only_data_messages():
    small = build_flow(make_scenario("SR", "DL_ACK"))
    big = build_flow(make_scenario("SR", "DL_ACK", data_payload_bytes=200))
    assert [m.name for m in small.messages] == [m.name for m in big.messages]
    for a, b in zip(small.messages, big.messages):
        if a.plane is Plane.DATA and a.name != "dl_ack":
            assert b.size_bytes == a.size_bytes + 180
        else:
            assert b.size_bytes == a.size_bytes


def test_tau_flow_contents():
    for proc in ("SR", "CP", "UP"):
        flow = build_tau_flow(make_scenario(proc, "UL"))
        assert carries_tau(flow)
        assert not any(m.plane is Plane.DATA for m in flow.messages)
        assert flow.idle_drx_s > 0.0


# SHA-256 of every built flow, main and TAU, over all procedure x case x
# reachability x coverage points; data and ack sizes differ from the defaults
# so a DATA message added to the wrong traffic-model size changes the digest.
# Each message's direction is hashed as UL/DL text, read from its channel.
FLOW_DIGEST = "13c951462699a588ed58bffe2e6e9ac56a496cf5c3b475b6ecde3f51312bdfe9"
DIRECTION = {ChannelKind.NPUSCH: "UL", ChannelKind.NPDSCH: "DL"}


def test_built_flows_match_pinned_digest():
    sizes = dict(data_payload_bytes=37, protocol_overhead_bytes=51, ack_payload_bytes=5)
    digest = hashlib.sha256()
    flow_ids = set()
    for proc, case, reach, cov in itertools.product(
            ["SR", "CP", "UP"], ["UL", "UL_ACK", "DL", "DL_ACK"],
            list(Reachability), ["Normal", "Robust", "Extreme"]):
        s = make_scenario(proc, case, cov, mt_reachability=reach, **sizes)
        for flow in (build_flow(s), build_tau_flow(s)):
            flow_ids.add(flow.flow_id)
            digest.update(f"{flow.flow_id} {flow.idle_drx_s!r}\n".encode())
            for m in flow.messages:
                digest.update(f"{m.name} {DIRECTION[m.channel]} {m.plane.value} "
                              f"{m.channel.value} {m.size_bytes}\n".encode())
    # the built ids are exactly those the catalog must list when it is loaded
    assert len(flow_ids) == 21 and flow_ids == FLOW_IDS
    assert digest.hexdigest() == FLOW_DIGEST


# SHA-256 of every `active_time` layout, main and TAU flow, over the same 72
# points with non-default sizes and timers: each key's category, its power to
# 12 significant digits (libm's last bit aside) and its whole microseconds, in
# first-emit order, then the end.  It pins the layout's sums and key order
# independently of the `==` tests, which compare the layout with itself.
LAYOUT_DIGEST = "6e1b9bf0a80b928a5dfaff4a6b2f90b20b10025b274f45cea54db5e01d8c4fdb"
LAYOUT_KNOBS = dict(data_payload_bytes=37, protocol_overhead_bytes=51, ack_payload_bytes=5,
                    cp_inactivity_npdcch_periods=7, idle_active_timer_base_s=12.5,
                    drx_long_cycle_base_s=5.12, sync_base_ms=410.0, ra_attempt_cap=4,
                    rar_bytes=9)


def test_layouts_match_pinned_digest():
    digest = hashlib.sha256()
    for proc, case, reach, cov in itertools.product(
            ["SR", "CP", "UP"], ["UL", "UL_ACK", "DL", "DL_ACK"],
            list(Reachability), ["Normal", "Robust", "Extreme"]):
        s = make_scenario(proc, case, cov, mt_reachability=reach, **LAYOUT_KNOBS)
        for flow in (build_flow(s), build_tau_flow(s)):
            us, end_us = active_time(flow, s)
            digest.update(f"{flow.flow_id}\n".encode())
            for (cat, power_mw), duration_us in us.items():
                digest.update(f"{cat.value} {power_mw:.12g} {duration_us}\n".encode())
            digest.update(f"end {end_us}\n".encode())
    assert digest.hexdigest() == LAYOUT_DIGEST


def memo_fed_outputs(s):
    """What the memos of per-level radio work feed for one scenario: its RA
    phases, its cell capacity, and the active time and timeline of its flows."""
    out = [attempt_components(s.coverage, s.power, s.rar_bytes), cell_capacity(s)]
    for flow in (build_flow(s), build_tau_flow(s)):
        out += [active_time(flow, s), flow_timeline(flow, s)]
    return out


def test_cold_and_warm_memos_give_equal_outputs():
    points = [make_scenario(proc, case, cov, mt_reachability=reach, **LAYOUT_KNOBS)
              for proc, case, reach, cov in itertools.product(
                  ["SR", "CP", "UP"], ["UL", "UL_ACK", "DL", "DL_ACK"],
                  list(Reachability), ["Normal", "Robust", "Extreme"])]
    cold = []
    for s in points:
        clear_memos()
        cold.append(memo_fed_outputs(s))
    for s in points:
        memo_fed_outputs(s)
    assert [memo_fed_outputs(s) for s in points] == cold


DEFS = "message ul_data NPUSCH DATA data+0\nmessage rrc_release NPDSCH AS 7\n"
SIZE_RULE = "DATA messages, and only they, take a data+N or ack+N size"
CHANNEL_RULE = "a message rides NPUSCH or NPDSCH"
RECORDS = "expected 'message name channel plane size' or 'flow id name...'"


@pytest.mark.parametrize("text,message", [
    (DEFS + "flow x ul_data dl_ack rrc_release", "line 3: unknown message 'dl_ack'"),
    (DEFS + "flow x dl_ack\nmessage dl_ack NPDSCH DATA ack+0",
     "line 3: unknown message 'dl_ack'"),
    (DEFS + "message ul_data NPUSCH DATA data+7",
     "line 3: message 'ul_data' defined twice"),
    (DEFS + "flow x ul_data\nflow x rrc_release", "line 4: flow 'x' listed twice"),
    (DEFS + "flow x  # no messages", f"line 3: {RECORDS}"),
    ("message rrc_release NPDSCH AS ack+7", f"line 1: size 'ack+7': {SIZE_RULE}"),
    ("message ul_data NPUSCH DATA 7", f"line 1: size '7': {SIZE_RULE}"),
    ("message ul_data NPUSCH DATA body+7", f"line 1: size 'body+7': {SIZE_RULE}"),
    (DEFS + "message paging_grant NPDCCH AS 13", f"line 3: {CHANNEL_RULE}"),
    (DEFS + "message preamble NPRACH AS 1", f"line 3: {CHANNEL_RULE}"),
    ("message tau_accept NPDSCH NAS", f"line 1: {RECORDS}"),
    ("message tau_accept DL NAS NPDSCH 68", f"line 1: {RECORDS}"),
], ids=["unknown-message", "message-defined-below", "message-twice", "flow-twice",
        "empty-flow", "rule-off-data", "data-without-rule", "unknown-rule",
        "on-npdcch", "on-nprach", "short-record", "direction-record"])
def test_catalog_parser_rejects(text, message):
    with pytest.raises(ConfigurationError) as err:
        _parse_catalog(text)
    assert str(err.value) == "catalog " + message


# --- timers ------------------------------------------------------------------

CONNECTED, IDLE = EnergyCategory.CONNECTED_DRX, EnergyCategory.IDLE_DRX


def timeline_s(category, proc, case, cov="Normal") -> float:
    """Seconds the scenario's cycle timeline spends in one energy category."""
    s = make_scenario(proc, case, cov)
    return sum(iv.duration_us for iv in flow_timeline(build_flow(s), s)
               if iv.category is category) / 1e6


def test_connected_inactivity_values():
    assert timeline_s(CONNECTED, "UP", "UL") == 0.0
    assert timeline_s(CONNECTED, "SR", "UL", "Extreme") == 0.0
    assert timeline_s(CONNECTED, "CP", "UL") == pytest.approx(0.160)
    assert timeline_s(CONNECTED, "CP", "UL", "Extreme") == pytest.approx(3.84)


def test_idle_active_timer_values():
    assert timeline_s(IDLE, "CP", "UL") == 0.0
    assert timeline_s(IDLE, "UP", "UL") == pytest.approx(14.16)
    assert timeline_s(IDLE, "CP", "DL") == pytest.approx(14.16)


@pytest.mark.parametrize("case", ["UL", "UL_ACK", "DL_ACK"])
def test_rai_follows_the_exchange_not_the_scenario(case):
    # Release assistance rides in uplink NAS data.  The standalone TAU of a CP
    # scenario with uplink data carries none, so it keeps the idle window.
    for cov in ("Normal", "Robust", "Extreme"):
        s = make_scenario("CP", case, cov)
        assert build_flow(s).idle_drx_s == 0.0
        assert build_tau_flow(s).idle_drx_s > 0.0
    assert build_tau_flow(make_scenario("CP", case)).idle_drx_s == pytest.approx(14.16)


# --- DRX windows -------------------------------------------------------------

@pytest.mark.parametrize("proc,case", ALL_COMBOS)
def test_timeline_length_does_not_grow_with_the_timers(proc, case):
    lengths = set()
    for idle_base, periods in itertools.product([10.0, 1e3, 1e5], [5, 1000]):
        s = make_scenario(proc, case, iat_h=48.0, idle_active_timer_base_s=idle_base,
                          cp_inactivity_npdcch_periods=periods)
        lengths.add(len(flow_timeline(build_flow(s), s)))
    assert len(lengths) == 1


@pytest.mark.parametrize("proc,cov,idle_base,label,on_us,off_us", [
    # 14.16 s = 6 idle cycles of 2.08 s + 1.68 s: the tail ends inside an off period
    ("UP", "Normal", 10.0, "drx", 7 * 32_000, 14_160_000 - 7 * 32_000),
    # 12.49 s = 6 cycles + 10 ms: the tail ends inside an on period
    ("UP", "Normal", 8.33, "drx", 6 * 32_000 + 10_000, 6 * 2_048_000),
    # 4.16 s = exactly 2 cycles
    ("UP", "Normal", 0.0, "drx", 2 * 32_000, 2 * 2_048_000),
    # 5 NPDCCH periods of 768 ms, each monitored for 512 repetitions of 1 ms
    ("CP", "Extreme", 10.0, "connected_drx", 5 * 512_000, 5 * 256_000),
], ids=["idle-tail-in-off", "idle-tail-in-on", "idle-whole-cycles", "connected"])
def test_drx_window_totals_follow_cycle_arithmetic(proc, cov, idle_base, label,
                                                   on_us, off_us):
    s = make_scenario(proc, "UL", cov, idle_active_timer_base_s=idle_base)
    window = [iv for iv in flow_timeline(build_flow(s), s)
              if iv.label in (f"{label}_on", f"{label}_off")]
    assert [(iv.label, iv.duration_us) for iv in window] == [
        (f"{label}_on", on_us), (f"{label}_off", off_us)]


@pytest.mark.parametrize("reach", list(Reachability))
@pytest.mark.parametrize("base_s,gap_state,gap_field", [
    (10.24, UeState.INACTIVE, "inactive_mw"),       # regular DRX: light sleep
    (20.48, UeState.DEEP_SLEEP, "deep_sleep_mw"),   # eDRX: deep sleep
])
def test_idle_drx_gap_rule(base_s, gap_state, gap_field, reach):
    # one rule for the gap of an idle DRX cycle, in the T3324 window and in
    # the paging rest state; PSM_TAU rests in deep sleep at any cycle
    s = make_scenario("UP", "DL", drx_long_cycle_base_s=base_s, mt_reachability=reach)
    p, gap_mw = s.power, getattr(s.power, gap_field)
    timeline = flow_timeline(build_flow(s), s)
    (off,) = [iv for iv in timeline if iv.label == "drx_off"]
    assert (off.state, off.power_mw) == (gap_state, gap_mw)
    rest = timeline[-1]
    if reach is Reachability.PSM_TAU:
        assert (rest.state, rest.power_mw, rest.category) == (
            UeState.DEEP_SLEEP, p.deep_sleep_mw, EnergyCategory.PSM)
        return
    on_us, off_us = s.coverage.npdcch_period_ms * 1000, base_s * 1e6
    assert (rest.state, rest.category, rest.label) == (
        gap_state, EnergyCategory.IDLE_DRX, "paging")
    assert rest.power_mw == pytest.approx(
        (on_us * p.rx_mw + off_us * gap_mw) / (on_us + off_us), rel=1e-12)


# --- timeline ----------------------------------------------------------------

def assert_well_formed(timeline, iat_s):
    assert timeline[0].start_us == 0
    for prev, cur in zip(timeline, timeline[1:]):
        assert cur.start_us == prev.end_us       # contiguous, no gaps or overlap
    assert all(iv.duration_us > 0 for iv in timeline)
    assert timeline[-1].end_us >= int(iat_s * 1e6)


@pytest.mark.parametrize("proc,case", ALL_COMBOS)
def test_timeline_partitions_the_cycle(proc, case):
    s = make_scenario(proc, case, iat_h=0.05)
    timeline = flow_timeline(build_flow(s), s)
    assert_well_formed(timeline, s.iat_s)
    assert timeline[-1].end_us == int(s.iat_s * 1e6)


@settings(max_examples=40, deadline=None)
@given(proc=st.sampled_from(["SR", "CP", "UP"]),
       case=st.sampled_from(["UL", "UL_ACK", "DL", "DL_ACK"]),
       cov=st.sampled_from(["Normal", "Robust", "Extreme"]),
       iat_min=st.integers(min_value=1, max_value=120))
def test_timeline_well_formed_property(proc, case, cov, iat_min):
    s = make_scenario(proc, case, cov, iat_h=iat_min / 60.0)
    timeline = flow_timeline(build_flow(s), s)
    assert_well_formed(timeline, min(s.iat_s, active_duration_s(timeline)))


def test_half_duplex_no_tx_rx_overlap():
    s = make_scenario("SR", "DL_ACK", "Robust", iat_h=0.1)
    timeline = flow_timeline(build_flow(s), s)
    # serial timeline: any two intervals are disjoint by construction
    for prev, cur in zip(timeline, timeline[1:]):
        assert prev.end_us <= cur.start_us


def test_cp_ul_sleeps_right_after_release():
    s = make_scenario("CP", "UL")
    timeline = flow_timeline(build_flow(s), s)
    assert not any(iv.category is EnergyCategory.IDLE_DRX for iv in timeline)
    assert timeline[-1].category is EnergyCategory.PSM
    assert timeline[-2].label == "rrc_release"


def test_up_ul_has_idle_drx_window():
    s = make_scenario("UP", "UL")
    timeline = flow_timeline(build_flow(s), s)
    idle = sum(iv.duration_us for iv in timeline
               if iv.category is EnergyCategory.IDLE_DRX)
    assert idle == pytest.approx(14.16e6)


def test_active_duration_difference_is_the_idle_window():
    up = make_scenario("UP", "UL")
    cp = make_scenario("CP", "UL")
    d_up = active_duration_s(flow_timeline(build_flow(up), up))
    d_cp = active_duration_s(flow_timeline(build_flow(cp), cp))
    # UP pays the 14.16 s active timer, CP pays 0.16 s of connected DRX
    assert d_up - d_cp == pytest.approx(14.16 - 0.16, abs=0.3)


def test_connected_drx_precedes_release_for_cp():
    s = make_scenario("CP", "UL")
    timeline = flow_timeline(build_flow(s), s)
    labels = [iv.label for iv in timeline]
    first_conn = next(i for i, iv in enumerate(timeline)
                      if iv.category is EnergyCategory.CONNECTED_DRX)
    release = labels.index("rrc_release")
    assert first_conn < release
    conn = sum(iv.duration_us for iv in timeline
               if iv.category is EnergyCategory.CONNECTED_DRX)
    assert conn == pytest.approx(0.160e6)


def test_every_message_preceded_by_npdcch():
    s = make_scenario("UP", "DL", "Robust", iat_h=0.1)
    flow = build_flow(s)
    timeline = flow_timeline(flow, s)
    cch = [iv for iv in timeline if iv.label.startswith("npdcch:")]
    assert len(cch) == len(flow.messages)
    assert all(iv.duration_us == 64_000 for iv in cch)   # 64 repetitions


def test_npdcch_occasions_align_to_period():
    s = make_scenario("UP", "UL", "Extreme", iat_h=0.2)
    timeline = flow_timeline(build_flow(s), s)
    period_us = 768 * 1000
    for iv in timeline:
        if iv.label.startswith("npdcch:"):
            assert iv.start_us % period_us == 0
