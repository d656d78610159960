"""Signaling flows and UE state timelines.

Builds the ordered message sequence for each (procedure, traffic case)
combination from the message catalog, resolves the DRX timers, and lays the
cycle out as contiguous power-state intervals: sync, random access,
per-message control/gap/airtime, connected DRX, idle DRX, rest state.
A DRX window is laid out as two intervals, its total on time and then its
total off time, so the timeline's length does not grow with the timers.

One layout pass writes the intervals to one sink, which sums each one's whole
microseconds under its (category, power_mw) key: `active_time` returns those
sums, and only `flow_timeline`, which bench/ reads, also keeps `Interval`
records.  Nothing here prices time; `energy.price` does.  The same pass sums
the radio resources the flow consumes per channel, which `capacity` reads
through `energy.cycle_profile`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache

from . import phy, ra
from .config import (MAX_DRX_CYCLE_S, ConfigurationError, CoverageProfile, PowerProfile,
                     Procedure, Reachability, Scenario, TrafficCase, UeState, _records)
from .phy import US_PER_MS, ChannelKind

US_PER_S = 1_000_000


class Plane(str, enum.Enum):
    AS = "AS"       # access stratum signaling
    NAS = "NAS"     # non-access stratum signaling
    DATA = "DATA"   # application payload (possibly NAS-encapsulated)


class EnergyCategory(str, enum.Enum):
    """A consumption category; its value names its energy.EnergyBreakdown field."""

    RA_SYNC = "ra_sync_mj"            # cell search plus random access
    MESSAGES = "post_ra_messages_mj"  # everything between RA completion and release
    CONNECTED_DRX = "connected_drx_mj"
    IDLE_DRX = "idle_drx_mj"
    PSM = "psm_mj"


@dataclass(frozen=True)
class SignalingMessage:
    name: str
    channel: ChannelKind        # NPUSCH for uplink, NPDSCH for downlink
    plane: Plane
    size_bytes: int


@dataclass(frozen=True)
class ProcedureFlow:
    flow_id: str
    messages: tuple[SignalingMessage, ...]
    idle_drx_s: float           # idle-DRX window after release; 0 under RAI


# whole microseconds a layout spends at each (category, power_mw)
TimeByKey = dict[tuple[EnergyCategory, float], int]


@dataclass(frozen=True)
class Interval:
    """One homogeneous stretch of the cycle timeline (microsecond grid)."""

    start_us: int
    duration_us: int
    state: UeState
    power_mw: float
    category: EnergyCategory
    label: str

    @property
    def end_us(self) -> int:
        return self.start_us + self.duration_us


# --- catalog ----------------------------------------------------------------

# size base of a DATA message -> the reader of the Scenario size its catalog extra adds to
_SIZE_BASES = {"data": lambda s: s.data_message_bytes, "ack": lambda s: s.ack_message_bytes}


def _parse_message(name, channel, plane, size) -> tuple:
    """One `message` record: the message and its size base (None if fixed)."""
    base, plus, extra = size.rpartition("+")
    msg = SignalingMessage(name, ChannelKind(channel), Plane(plane), int(extra))
    if (plus and base not in _SIZE_BASES) or bool(plus) != (msg.plane is Plane.DATA):
        raise ConfigurationError(f"size {size!r}: DATA messages, and only they, "
                                 "take a data+N or ack+N size")
    if msg.channel not in phy.SHARED_CHANNELS:
        raise ConfigurationError("a message rides NPUSCH or NPDSCH")
    return msg, _SIZE_BASES.get(base)


def _parse_catalog(text: str) -> dict[str, tuple]:
    """Flows of a catalog text by flow id: (message, size base) per message.

    Reads the `message` and `flow` records of data/message_catalog.tsv and
    checks every invariant of the format, once, at load time.
    """
    messages, flows = {}, {}
    for lineno, (kind, *cells) in _records(text):
        try:
            if kind == "message" and len(cells) == 4:
                if cells[0] in messages:
                    raise ConfigurationError(f"message {cells[0]!r} defined twice")
                messages[cells[0]] = _parse_message(*cells)
            elif kind == "flow" and len(cells) > 1:
                if cells[0] in flows:
                    raise ConfigurationError(f"flow {cells[0]!r} listed twice")
                flows[cells[0]] = tuple(messages[name] for name in cells[1:])
            else:
                raise ConfigurationError("expected 'message name channel plane size' "
                                         "or 'flow id name...'")
        except KeyError as exc:         # a flow names an undefined message
            raise ConfigurationError(f"catalog line {lineno}: unknown message {exc}") from None
        except ValueError as exc:       # ConfigurationError, enum or int parse
            raise ConfigurationError(f"catalog line {lineno}: {exc}") from None
    return flows


def _flow_id(procedure: Procedure, case: str, paged: bool = False) -> str:
    """Catalog id of a procedure's flow for a traffic case (paged or not) or "tau"."""
    return f"{procedure.value}_{case}{'_pg' if paged else ''}".lower()


# every flow a scenario can name: each procedure's four cases, its two
# mobile-terminated cases under paging, and its standalone TAU
FLOW_IDS = frozenset(
    [_flow_id(p, c.value, paged) for p in Procedure for c in TrafficCase
     for paged in {False, c.mobile_terminated}] + [_flow_id(p, "tau") for p in Procedure])


@lru_cache(maxsize=None)
def _catalog() -> dict[str, tuple]:
    """Flows of the packaged, checksummed message catalog, by flow id: all of
    FLOW_IDS, each as its (message, size base) pairs and whether one of them is
    uplink DATA, the input of the release-assistance rule in `_build`."""
    flows = _parse_catalog(phy.verified_data_text("message_catalog.tsv"))
    missing = sorted(FLOW_IDS - flows.keys())
    if missing:
        raise ConfigurationError("message catalog has no flow " + ", ".join(map(repr, missing)))
    return {flow_id: (entries, any(m.plane is Plane.DATA and m.channel is ChannelKind.NPUSCH
                                   for m, _ in entries))
            for flow_id, entries in flows.items()}


# --- flow building ----------------------------------------------------------

def _build(flow_id: str, s: Scenario) -> ProcedureFlow:
    entries, uplink_data = _catalog()[flow_id]
    messages = tuple(msg if base is None else
                     SignalingMessage(msg.name, msg.channel, msg.plane,
                                      base(s) + msg.size_bytes)
                     for msg, base in entries)
    # Release assistance rides only in uplink NAS data PDUs, so only CP
    # exchanges that carry uplink data release without an idle-DRX window;
    # everywhere else the idle active timer runs.
    rai = uplink_data and s.procedure is Procedure.CP
    return ProcedureFlow(flow_id=flow_id, messages=messages,
                         idle_drx_s=0.0 if rai else s.idle_active_timer_s)


def build_flow(s: Scenario) -> ProcedureFlow:
    """Catalog-driven message sequence for the scenario's procedure and case."""
    paged = s.traffic_case.mobile_terminated and s.mt_reachability is Reachability.DRX_PAGING
    return _build(_flow_id(s.procedure, s.traffic_case.value, paged), s)


def build_tau_flow(s: Scenario) -> ProcedureFlow:
    """Standalone periodic tracking-area-update flow for the scenario's procedure."""
    return _build(_flow_id(s.procedure, "tau"), s)


# --- cycle layout: one pass into one sink ---------------------------------

class _Sink:
    """Sums the layout's intervals as whole microseconds per (category,
    power_mw), exact in any order; t_us is the end of the last one.  A
    non-positive duration is skipped."""

    def __init__(self) -> None:
        self.t_us = 0
        self.us: TimeByKey = {}

    def emit(self, duration_us: int, state: UeState, power_mw: float,
             category: EnergyCategory, label: str) -> None:
        if duration_us > 0:
            key, us = (category, power_mw), self.us
            us[key] = us.get(key, 0) + duration_us
            self.t_us += duration_us

    def message(self, name: str, airtime_us: int, period_us: int, plan: tuple) -> None:
        """One shared-channel message, as four emits: the wait for the next
        NPDCCH occasion (a multiple of period_us), then the assignment, the
        schedule gap and the airtime, each under its key in its channel's plan
        (see `_plan`).  Only the wait can be 0: the other three are each at
        least 1 ms at every level."""
        npdcch_us, gap_us, _, idle, rx, air = plan
        us, t_us = self.us, self.t_us
        wait_us = -t_us % period_us
        if wait_us:
            us[idle] = us.get(idle, 0) + wait_us
        us[rx] = us.get(rx, 0) + npdcch_us
        us[idle] = us.get(idle, 0) + gap_us
        us[air] = us.get(air, 0) + airtime_us
        self.t_us = t_us + wait_us + npdcch_us + gap_us + airtime_us


class _Timeline(_Sink):
    """A _Sink that also keeps each interval as an Interval record."""

    def __init__(self) -> None:
        super().__init__()
        self.intervals: list[Interval] = []

    def emit(self, duration_us: int, state: UeState, power_mw: float,
             category: EnergyCategory, label: str) -> None:
        if duration_us > 0:
            self.intervals.append(Interval(self.t_us, duration_us, state,
                                           power_mw, category, label))
        super().emit(duration_us, state, power_mw, category, label)

    def message(self, name: str, airtime_us: int, period_us: int, plan: tuple) -> None:
        npdcch_us, gap_us, state, (cat, inactive_mw), (_, rx_mw), (_, power_mw) = plan
        self.emit(-self.t_us % period_us, UeState.INACTIVE, inactive_mw, cat, "npdcch_align")
        self.emit(npdcch_us, UeState.RX, rx_mw, cat, f"npdcch:{name}")
        self.emit(gap_us, UeState.INACTIVE, inactive_mw, cat, "schedule_gap")
        self.emit(airtime_us, state, power_mw, cat, name)


def _emit_drx_cycles(sink: _Sink, window_us: int, on_us: int, off_us: int,
                     p: PowerProfile, gap: tuple[UeState, float],
                     category: EnergyCategory, label: str) -> None:
    """Emit a window of on/off DRX cycles (the last one truncated) as its total
    on time, then its total off time in the gap: nothing later depends on the order."""
    cycles, tail = divmod(window_us, on_us + off_us)
    on = cycles * on_us + min(on_us, tail)
    sink.emit(on, UeState.RX, p.rx_mw, category, f"{label}_on")
    sink.emit(window_us - on, *gap, category, f"{label}_off")


def _idle_drx_gap(s: Scenario) -> tuple[UeState, float]:
    """State and power between the paging occasions of an idle DRX cycle: light
    sleep up to a 10.24 s base (regular DRX), deep sleep beyond (eDRX, which
    sleeps between paging time windows, TS 36.304 clause 7.3)."""
    if s.drx_long_cycle_base_s <= MAX_DRX_CYCLE_S:
        return UeState.INACTIVE, s.power.inactive_mw
    return UeState.DEEP_SLEEP, s.power.deep_sleep_mw


def rest_state(s: Scenario) -> tuple[UeState, float, EnergyCategory, str]:
    """State, power, category and label from the active timeline's end to the
    next report.  PSM_TAU deep-sleeps.  DRX_PAGING monitors one paging occasion,
    one NPDCCH period, per idle DRX cycle (TS 36.304 clause 7.1), as one interval
    at the cycle's mean power, so the cycle energy stays affine in the IAT."""
    if s.mt_reachability is Reachability.PSM_TAU:
        return UeState.DEEP_SLEEP, s.power.deep_sleep_mw, EnergyCategory.PSM, "psm"
    state, gap_mw = _idle_drx_gap(s)
    on_share = s.coverage.npdcch_period_ms / 1000.0 / s.idle_drx_cycle_s
    return (state, s.power.rx_mw * on_share + gap_mw * (1.0 - on_share),
            EnergyCategory.IDLE_DRX, "paging")


@lru_cache(maxsize=256)
def _plan(c: CoverageProfile, p: PowerProfile, rar_bytes: int) -> tuple:
    """The constants of a layout pass: the RA attempt's phases, the NPDCCH
    assignment in subframes (its channel usage), then per shared channel those
    of a message besides its airtime and its wait for an NPDCCH occasion: the
    NPDCCH assignment and the schedule gap in whole us, the airtime's state,
    and the (MESSAGES, power_mw) sink keys of the time at inactive, at rx and
    on air.  A message's airtime and usage come from `phy._shared_message`."""
    phases = ra.attempt_components(c, p, rar_bytes)
    npdcch_ms = phy.message_airtime(1, c, ChannelKind.NPDCCH)
    idle, rx = (EnergyCategory.MESSAGES, p.inactive_mw), (EnergyCategory.MESSAGES, p.rx_mw)
    npusch_mw = phy.tx_power_consumption_mw(p, phy.npusch_tx_power_dbm(c, p, c.target_mcl_db))
    return (phases, npdcch_ms / phy.SUBFRAME_MS,
            {ch: (round(npdcch_ms * US_PER_MS), round(phy.schedule_gap_ms(ch) * US_PER_MS), state,
                  idle, rx, (EnergyCategory.MESSAGES, power_mw))
             for ch, state, power_mw in ((ChannelKind.NPUSCH, UeState.TX, npusch_mw),
                                         (ChannelKind.NPDSCH, UeState.RX, p.rx_mw))})


_NO_USAGE = dict.fromkeys(ChannelKind, 0.0)


def _lay_out(flow: ProcedureFlow, s: Scenario, sink: _Sink) -> dict[ChannelKind, float]:
    """Lay one traffic cycle's active part out into sink, interval by interval,
    and return the radio resources the flow consumes per channel.

    The random access phase uses expectation values (durations scaled by the
    expected attempt count).  Each shared-channel message is preceded by a
    wait for the next NPDCCH occasion, the control assignment itself, and the
    standard scheduling gap; transmit and receive never overlap.  Connected
    DRX (when configured) runs before the final release message, idle DRX
    until the active timer expires.

    Usage is subcarrier-ms on NPUSCH, subframes on NPDSCH and NPDCCH (each message
    adds one assignment) and expected RA attempts on NPRACH (preamble slots).
    """
    c, p = s.coverage, s.power
    ra_cat, emit = EnergyCategory.RA_SYNC, sink.emit
    period_us = c.npdcch_period_ms * US_PER_MS

    # cell search after deep sleep
    emit(round(s.sync_time_ms * US_PER_MS), UeState.RX, p.rx_mw, ra_cat, "sync")

    # random access, expectation-scaled
    attempts = ra.expected_attempts(s.ra_attempt_cap)
    phases, npdcch_sf, plans = _plan(c, p, s.rar_bytes)
    for label, state, dur_ms, power_mw in phases:
        emit(round(attempts * dur_ms * US_PER_MS), state, power_mw, ra_cat, label)

    npdcch_us = plans[ChannelKind.NPDSCH][0]      # the same on either channel
    message, shared, last = sink.message, phy._shared_message, len(flow.messages) - 1
    usage = _NO_USAGE.copy()
    for index, msg in enumerate(flow.messages):
        if index == last:
            # inactivity timer runs after the data exchange, before release;
            # it spans whole NPDCCH periods (no cycle is truncated), each longer
            # than its NPDCCH assignment at every level
            _emit_drx_cycles(sink, round(s.connected_inactivity_s * US_PER_S),
                             on_us=npdcch_us, off_us=period_us - npdcch_us,
                             p=p, gap=(UeState.INACTIVE, p.inactive_mw),
                             category=EnergyCategory.CONNECTED_DRX, label="connected_drx")
        ch = msg.channel
        _, airtime_us, used = shared(msg.size_bytes, c, ch)
        usage[ch] += used
        message(msg.name, airtime_us, period_us, plans[ch])
    usage[ChannelKind.NPDCCH] += len(flow.messages) * npdcch_sf
    usage[ChannelKind.NPRACH] += attempts

    # idle DRX: the active timer keeps the UE reachable before PSM
    _emit_drx_cycles(sink, round(flow.idle_drx_s * US_PER_S), on_us=period_us,
                     off_us=round(s.drx_long_cycle_base_s * US_PER_S),
                     p=p, gap=_idle_drx_gap(s), category=EnergyCategory.IDLE_DRX, label="drx")
    return usage


def flow_timeline(flow: ProcedureFlow, s: Scenario,
                  fill_to_iat: bool = True) -> list[Interval]:
    """One traffic cycle as contiguous power-state intervals: the layout that
    `active_time` sums, kept as Interval records, then (with fill_to_iat)
    the rest state up to the inter-arrival time.  Public, as bench/ integrates
    a downlink timeline on its own to check the cycle energy against it."""
    sink = _Timeline()
    _lay_out(flow, s, sink)
    if fill_to_iat:
        iat_us = round(s.iat_s * US_PER_S)
        sink.emit(iat_us - sink.t_us, *rest_state(s))
    return sink.intervals


def active_time(flow: ProcedureFlow, s: Scenario) -> tuple[TimeByKey, int, dict]:
    """Time per (category, power_mw), in first-emit order, and the end in
    microseconds of the unfilled `flow_timeline(flow, s, fill_to_iat=False)`,
    summed as the layout runs, without building the intervals; then the
    flow's radio resources per channel (see `_lay_out`)."""
    sink = _Sink()
    usage = _lay_out(flow, s, sink)
    return sink.us, sink.t_us, usage
