"""Scenario model for NB-IoT small-data transfers.

Defines the three coverage enhancement levels, the members of one enum, the
UE power model, the scenario with its traffic sizes, DRX/PSM timers and cell
budgets (each a plain value; a budget defaults to its pool, defined here),
scenario validation, and a key=value scenario file format.  Every other module
consumes only these types.  Each field has one domain: a numeric field its key
row (target, field, type, lo, hi), a choice field its enum, the coverage
included, and the power a PowerProfile.  Building a Scenario validates it, so
every Scenario that exists is valid and is what a scenario file can say.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter

# Rel-13 bounds on the power-saving timers; a longer DRX base than
# defaultPagingCycle rf1024 (TS 36.331) is eDRX, up to 1024 hyperframes (TS 36.304)
MAX_DRX_CYCLE_S = 10.24
MAX_IDLE_DRX_CYCLE_S = 1024 * 10.24
MAX_PSM_TIME_S = 310.0 * 3600.0

HOURS_PER_YEAR = 8760.0
CARRIER_KHZ = 180.0

# Cell resource pools in units/s before coverage sharing, the default budgets.
# Downlink subframe availability on the anchor carrier: NPSS takes 1 subframe
# per 10 ms frame, NPBCH 1 per frame, NSSS 1 every other frame.
DL_SUBFRAME_AVAILABILITY = 0.75
# In-band operation: the LTE control region reserves 3 of 14 OFDM symbols.
INBAND_DERATING = 11.0 / 14.0
# Uplink pool: 12 subcarriers * 1000 ms per second.
UL_SUBCARRIER_MS_PER_S = 12_000.0
# Random access opportunities recur every 40 ms, with 12 preamble slots each.
RA_OPPORTUNITY_PERIOD_MS = 40.0
NPRACH_SLOTS_PER_OPPORTUNITY = 12
DL_POOL_SF_PER_S = 1000.0 * DL_SUBFRAME_AVAILABILITY * INBAND_DERATING
NPRACH_POOL_SLOTS_PER_S = 1000.0 / RA_OPPORTUNITY_PERIOD_MS * NPRACH_SLOTS_PER_OPPORTUNITY
LEVEL_RESOURCE_SHARE = 0.33   # each coverage level's slice of every pool


class ConfigurationError(ValueError):
    """Unknown profile name, malformed scenario file, or invalid parameter."""


class Procedure(str, enum.Enum):
    SR = "SR"   # legacy Service Request
    CP = "CP"   # control-plane optimization (data in NAS)
    UP = "UP"   # user-plane optimization (suspend/resume)


class TrafficCase(str, enum.Enum):
    UL = "UL"
    UL_ACK = "UL_ACK"
    DL = "DL"
    DL_ACK = "DL_ACK"

    @property
    def mobile_terminated(self) -> bool:
        return self in (TrafficCase.DL, TrafficCase.DL_ACK)


class Reachability(str, enum.Enum):
    PSM_TAU = "PSM_TAU"        # deep sleep; network reaches the UE at periodic TAU
    DRX_PAGING = "DRX_PAGING"  # idle DRX; network pages the UE


class UeState(str, enum.Enum):
    DEEP_SLEEP = "deep_sleep"
    INACTIVE = "inactive"
    RX = "rx"
    TX = "tx"


class CoverageProfile(enum.Enum):
    """Radio configuration of one coverage enhancement level: its link budget
    and channel configuration, as fields that cannot be assigned, each
    member's value listing them in the order of `__init__`.  Looked up by name
    too, so `CoverageProfile("Robust")` is the Robust level."""

    Normal = (144.0, 15.0, 12, 9, 1, 1, 2, 1, 1, 32.0, 1.0)
    Robust = (154.0, 15.0, 3, 3, 64, 32, 16, 8, 64, 1.5, 2.0)
    Extreme = (161.0, 3.75, 1, 0, 512, 256, 1, 32, 512, 1.5, 4.0)

    def __init__(self, target_mcl_db: float, subcarrier_spacing_khz: float,
                 ul_subcarriers_per_burst: int, mcs_index: int, rep_npdcch: int,
                 rep_npdsch: int, rep_npusch: int, rep_nprach: int, r_max: int,
                 g_factor: float, sync_time_scale: float):
        # one plain assignment per field keeps a read as fast as a dataclass field's
        self.target_mcl_db = target_mcl_db
        self.subcarrier_spacing_khz = subcarrier_spacing_khz    # 15 or 3.75
        self.ul_subcarriers_per_burst = ul_subcarriers_per_burst
        self.mcs_index = mcs_index
        self.rep_npdcch = rep_npdcch
        self.rep_npdsch = rep_npdsch
        self.rep_npusch = rep_npusch
        self.rep_nprach = rep_nprach
        self.r_max = r_max                          # NPDCCH search space size
        self.g_factor = g_factor
        self.sync_time_scale = sync_time_scale      # multiplies the scenario's sync time

    def __setattr__(self, name, value):
        # __init__ sets each field once
        if not name.startswith("_") and hasattr(self, name):
            raise AttributeError(f"cannot assign to field {name!r}")
        super().__setattr__(name, value)

    @classmethod
    def _missing_(cls, name):
        return cls.__members__.get(name)

    @property
    def npdcch_period_ms(self) -> int:
        """NPDCCH search-space periodicity T = R_max * G, rounded to whole ms."""
        return round(self.r_max * self.g_factor)


COVERAGE_NAMES = tuple(CoverageProfile.__members__)


def builtin_coverage_profile(name: str) -> CoverageProfile:
    """Return one of the built-in coverage levels (Normal, Robust, Extreme)."""
    try:
        return CoverageProfile[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown coverage profile {name!r}; expected one of {', '.join(COVERAGE_NAMES)}"
        ) from None


@dataclass(frozen=True)
class PowerProfile:
    """UE power draw per radio state plus open-loop power-control parameters.

    State powers follow the usual NB-IoT UE assumptions (RP-151393); the
    power-control parameters feed the NPUSCH/NPRACH formulas of TS 36.213.
    """

    deep_sleep_mw: float = 0.015
    inactive_mw: float = 3.0
    rx_mw: float = 90.0
    tx_max_mw: float = 545.0
    p_cmax_dbm: float = 23.0              # power class 3 cap
    p_o_npusch_dbm: float = -100.0
    alpha: float = 1.0
    initial_received_target_power_dbm: float = -100.0
    delta_preamble_db: float = 0.0


@dataclass(frozen=True)
class Scenario:
    """One evaluation point: procedure, traffic case, coverage, and parameters;
    `Scenario(...)` and `dataclasses.replace` raise ConfigurationError if invalid."""

    procedure: Procedure = Procedure.CP
    traffic_case: TrafficCase = TrafficCase.UL
    coverage: CoverageProfile = CoverageProfile.Normal
    iat_s: float = 3600.0
    power: PowerProfile = PowerProfile()
    battery_wh: float = 5.0
    mt_reachability: Reachability = Reachability.PSM_TAU

    # application report and acknowledgment sizes
    data_payload_bytes: int = 20
    protocol_overhead_bytes: int = 44
    ack_payload_bytes: int = 0

    # DRX/PSM timers: the CP connected-state inactivity timer counts NPDCCH
    # periods; the idle active timer and the long DRX cycle resolve below
    cp_inactivity_npdcch_periods: int = 5
    idle_active_timer_base_s: float = 10.0
    drx_long_cycle_base_s: float = 2.048
    psm_tau_period_s: float = 5 * 24 * 3600.0   # periodic TAU every 5 days

    # model knobs
    sync_base_ms: float = 330.0           # cell-search time at Normal coverage
    ra_attempt_cap: int = 10              # maximum preamble transmissions
    rar_bytes: int = 7                    # random access response MAC PDU

    # cell resource budgets (units/s before coverage sharing)
    budget_npdcch_sf_per_s: float = DL_POOL_SF_PER_S
    budget_npdsch_sf_per_s: float = DL_POOL_SF_PER_S
    budget_npusch_sc_ms_per_s: float = UL_SUBCARRIER_MS_PER_S
    budget_nprach_slots_per_s: float = NPRACH_POOL_SLOTS_PER_S

    def __post_init__(self):
        validate_scenario(self)

    @property
    def data_message_bytes(self) -> int:
        return self.data_payload_bytes + self.protocol_overhead_bytes

    @property
    def ack_message_bytes(self) -> int:
        return self.ack_payload_bytes + self.protocol_overhead_bytes

    # --- resolved timers -------------------------------------------------

    @property
    def idle_drx_cycle_s(self) -> float:
        """One long DRX cycle: off period plus one NPDCCH period of monitoring."""
        return self.drx_long_cycle_base_s + self.coverage.npdcch_period_ms / 1000.0

    @property
    def idle_active_timer_s(self) -> float:
        """Idle-state active timer (T3324): base plus 2 long DRX cycles."""
        return self.idle_active_timer_base_s + 2.0 * self.idle_drx_cycle_s

    @property
    def connected_inactivity_s(self) -> float:
        """Connected-state inactivity timer: 0 for UP/SR, N NPDCCH periods for CP."""
        if self.procedure is Procedure.CP:
            return (self.cp_inactivity_npdcch_periods
                    * self.coverage.npdcch_period_ms / 1000.0)
        return 0.0

    @property
    def sync_time_ms(self) -> float:
        return self.sync_base_ms * self.coverage.sync_time_scale

    def violations(self) -> list[str]:
        """Every numeric field outside its row's domain (a power's rows only
        if it is a PowerProfile), then every choice field outside its own, then
        every broken cross-field rule while every field holds a value of its type."""
        part = isinstance(self.power, PowerProfile)
        rows, values = (_NUMERIC_ROWS, _numeric_values) if part else (_OWN_ROWS, _own_values)
        bad = _out_of_bounds(rows, values(self))
        out = [_outside(row, value) for row, value in bad]
        out.extend(f"{fname}={value!r}: must be a {kind.__name__} ({names})"
                   for fname, kind, names in _ENUM_FIELDS
                   if not isinstance(value := getattr(self, fname), kind))
        if not part:
            out.append(f"power={self.power!r}: must be a PowerProfile")
        if len(out) > len(bad) or not all(_is_number(value) for _, value in bad):
            return out
        p = self.power
        if not p.deep_sleep_mw < p.inactive_mw < p.rx_mw < p.tx_max_mw:
            out.append("state powers must satisfy deep_sleep < inactive < rx < tx_max "
                       f"(got {p.deep_sleep_mw}, {p.inactive_mw}, "
                       f"{p.rx_mw}, {p.tx_max_mw} mW)")
        # a base above the cap is a line of its own, and may be too large to add to
        if self.drx_long_cycle_base_s <= MAX_IDLE_DRX_CYCLE_S < self.idle_drx_cycle_s:
            out.append(f"idle DRX cycle {self.idle_drx_cycle_s:.3f} s exceeds the "
                       f"{MAX_IDLE_DRX_CYCLE_S:.2f} s maximum")
        return out


def validate_scenario(s: Scenario) -> Scenario:
    """Return the scenario unchanged, or raise one error with all its violations."""
    problems = s.violations()
    if problems:
        raise ConfigurationError("invalid scenario: " + "; ".join(problems))
    return s


# --- scenario file format -------------------------------------------------
#
# Plain key=value tokens separated by whitespace or newlines, '#' comments.
# A minimal file: procedure=CP case=UL coverage=Normal iat=3600

# Scenario fields that group keys, by target name in _SCENARIO_KEYS.
_PARTS = {"power": PowerProfile}

# Bounds of the keys that 3GPP leaves open.  Each keeps every output finite
# and the work per scenario bounded, over every combination of the others:
_US = 1e-6             # a positive time is at least one us, the timeline's grid
_MAX_S = 1e9           # times up to ~32 years stay exact whole us (2^53 us is 285 years)
_MAGNITUDE = (1e-6, 1e12)  # mW, Wh and units/s: lifetimes and capacities stay above 0
_MAX_BYTES = 65535     # one IP datagram: a message is a few thousand transport blocks at most
_DB = (-300.0, 300.0)  # 10^(dBm/10) of any power-control sum stays inside a float
# an idle DRX cycle adds one NPDCCH period of its level to its base, at least 32 ms
_MAX_DRX_BASE_S = MAX_IDLE_DRX_CYCLE_S - min(
    c.npdcch_period_ms for c in CoverageProfile) / 1000.0

_SCENARIO_KEYS: dict[str, tuple] = {
    # key: (target, field, parser, lo, hi); target is "scenario" or a key of
    # _PARTS, and a number must lie in the closed bounds [lo, hi]
    "procedure":        ("scenario", "procedure", Procedure, None, None),
    "case":             ("scenario", "traffic_case", TrafficCase, None, None),
    "coverage":         ("scenario", "coverage", CoverageProfile, None, None),
    "iat":              ("scenario", "iat_s", float, _US, _MAX_S),
    "battery_wh":       ("scenario", "battery_wh", float, *_MAGNITUDE),
    "reachability":     ("scenario", "mt_reachability", Reachability, None, None),
    "sync_base_ms":     ("scenario", "sync_base_ms", float, 0.0, _MAX_S * 1000.0),
    # preambleTransMax-CE: at most n200 (TS 36.331)
    "ra_cap":           ("scenario", "ra_attempt_cap", int, 1, 200),
    "rar_bytes":        ("scenario", "rar_bytes", int, 1, _MAX_BYTES),
    "budget_npdcch":    ("scenario", "budget_npdcch_sf_per_s", float, *_MAGNITUDE),
    "budget_npdsch":    ("scenario", "budget_npdsch_sf_per_s", float, *_MAGNITUDE),
    "budget_npusch":    ("scenario", "budget_npusch_sc_ms_per_s", float, *_MAGNITUDE),
    "budget_nprach":    ("scenario", "budget_nprach_slots_per_s", float, *_MAGNITUDE),
    "payload_bytes":    ("scenario", "data_payload_bytes", int, 0, _MAX_BYTES),
    "overhead_bytes":   ("scenario", "protocol_overhead_bytes", int, 1, _MAX_BYTES),
    "ack_payload_bytes": ("scenario", "ack_payload_bytes", int, 0, _MAX_BYTES),
    "deep_sleep_mw":    ("power", "deep_sleep_mw", float, *_MAGNITUDE),
    "inactive_mw":      ("power", "inactive_mw", float, *_MAGNITUDE),
    "rx_mw":            ("power", "rx_mw", float, *_MAGNITUDE),
    "tx_max_mw":        ("power", "tx_max_mw", float, *_MAGNITUDE),
    "p_cmax_dbm":       ("power", "p_cmax_dbm", float, *_DB),
    "p_o_npusch_dbm":   ("power", "p_o_npusch_dbm", float, *_DB),
    # pathloss compensation factor of NPUSCH power control (TS 36.213 16.2.1.1.1)
    "alpha":            ("power", "alpha", float, 0.0, 1.0),
    "initial_target_dbm": ("power", "initial_received_target_power_dbm", float, *_DB),
    "delta_preamble_db": ("power", "delta_preamble_db", float, *_DB),
    # 10^9 periods of a built-in level, at most 768 ms each, stay below _MAX_S
    "cp_inactivity_periods": ("scenario", "cp_inactivity_npdcch_periods", int, 0, 10**9),
    "idle_timer_base_s": ("scenario", "idle_active_timer_base_s", float, 0.0, _MAX_S),
    # Rel-13 caps: the idle eDRX cycle (TS 36.304) and the extended T3412 (TS 24.008)
    "drx_cycle_base_s": ("scenario", "drx_long_cycle_base_s", float, _US, _MAX_DRX_BASE_S),
    "tau_period_s":     ("scenario", "psm_tau_period_s", float, _US, MAX_PSM_TIME_S),
}

# Every numeric row with the type it takes, an int row only ints, and one
# getter of their field values in the same order, for Scenario.violations; the
# same for the scenario's own rows, read when its power is no PowerProfile
_NUMBER = (int, float)
_NUMERIC_ROWS = tuple((row, int if row[2] is int else _NUMBER)
                      for row in _SCENARIO_KEYS.values() if row[3] is not None)
_OWN_ROWS = tuple(row for row in _NUMERIC_ROWS if row[0][0] == "scenario")
_numeric_values, _own_values = (
    attrgetter(*(fname if target == "scenario" else f"{target}.{fname}"
                 for (target, fname, *_), _ in rows)) for rows in (_NUMERIC_ROWS, _OWN_ROWS))
# the choice fields: each with its enum and its members' names
_ENUM_FIELDS = tuple((fname, kind, ", ".join(kind.__members__))
                     for _, fname, kind, lo, _ in _SCENARIO_KEYS.values() if lo is None)
# each choice enum's members by name and each member as itself, so a choice
# parses in one lookup; calling a CoverageProfile misses its value map first,
# then raises and catches a KeyError before `_missing_` finds the name
_CHOICES = {kind: {**{m: m for m in kind}, **kind.__members__} for _, kind, _ in _ENUM_FIELDS}


def _is_number(value) -> bool:
    """Whether value is an int or a float; a bool is no number."""
    return isinstance(value, _NUMBER) and not isinstance(value, bool)


def _out_of_bounds(rows, values) -> list[tuple]:
    """(row, value) of every value that is not of its row's type inside the
    row's closed bounds (NaN is outside all); rows are (row, type) pairs."""
    return [(row, value) for (row, accepts), value in zip(rows, values)
            if not (isinstance(value, accepts) and not isinstance(value, bool)
                    and row[3] <= value <= row[4])]


def _outside(row, value) -> str:
    """The line of a value outside its row's domain."""
    if row[2] is int and isinstance(value, float) and row[3] <= value <= row[4]:
        return f"{row[1]}={value!r}: must be a whole number in {_bounds(row)}"
    return f"{row[1]}={value!r}: must be in {_bounds(row)}"


def _bounds(row) -> str:
    return f"[{row[3]:.15g}, {row[4]:.15g}]"


def scenario_value(key: str, raw):
    """Parse the text of one scenario key into its field value.

    Values that are already parsed (enum members, coverage levels among them,
    and numbers inside the key's bounds) pass through unchanged; a number that
    parsing changes, such as 3.5 for an int key, is a bad value, and so are a
    bool and number text with more than ASCII characters or with digit
    separators, such as 1_0.  Raises ConfigurationError for an unknown key or
    a bad value; the message states the key's closed bounds (a whole number in
    them for an int key, as `_outside` words it), or for procedure, case,
    coverage and reachability lists the allowed values.
    """
    if key not in _SCENARIO_KEYS:
        raise ConfigurationError(f"unknown key {key!r}")
    row = _SCENARIO_KEYS[key]
    parser, bounded = row[2], row[3] is not None
    # a bool is no number, nor is text that int() and float() read beyond
    # ASCII digits or with digit separators
    plain = not bounded or ((raw.isascii() and "_" not in raw) if isinstance(raw, str)
                            else _is_number(raw))
    try:
        # of the parser's own type, so only its bounds remain
        value = parser(raw) if bounded else _CHOICES[parser][raw]
        if (plain and (isinstance(raw, str) or value == raw)
                and (not bounded or row[3] <= value <= row[4])):
            return value
    except (LookupError, TypeError, ValueError, OverflowError):
        pass
    if bounded:
        try:
            whole = plain and parser is int and row[3] <= float(raw) <= row[4]
        except (TypeError, ValueError, OverflowError):
            whole = False
        expected = ("a whole number in " if whole else "a number in ") + _bounds(row)
    else:
        expected = "one of " + ", ".join(parser.__members__)
    raise ConfigurationError(f"bad value {raw!r} for {key!r}; expected {expected}")


def _records(text: str):
    """(line number, whitespace-split cells) of each line with more than a '#' comment."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        cells = line.split("#", 1)[0].split()
        if cells:
            yield lineno, cells


def parse_scenario(text: str) -> Scenario:
    """Parse the key=value scenario format into a validated Scenario."""
    kw: dict[str, dict] = {target: {} for target in ("scenario", *_PARTS)}
    for lineno, tokens in _records(text):
        for token in tokens:
            if "=" not in token:
                raise ConfigurationError(
                    f"line {lineno}: expected key=value, got {token!r}")
            key, _, raw = token.partition("=")
            try:
                value = scenario_value(key, raw)
            except ConfigurationError as exc:
                raise ConfigurationError(f"line {lineno}: {exc}") from None
            target, fname = _SCENARIO_KEYS[key][:2]
            kw[target][fname] = value
    for target, part in _PARTS.items():
        if kw[target]:
            kw["scenario"][target] = part(**kw[target])
    return Scenario(**kw["scenario"])


def parse_scenario_file(path) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_scenario(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"scenario file {str(path)!r} is not UTF-8 text: "
                                 f"{exc.reason} at byte {exc.start}") from None


def format_scenario(s: Scenario) -> str:
    """Serialize a scenario to the key=value format (every Scenario round-trips exactly).

    No code in the package calls it: it stays public as parse_scenario's inverse,
    which the round-trip property checks and a planned --explain would print."""
    lines = []
    for key, (target, fname, *_) in _SCENARIO_KEYS.items():
        obj = s if target == "scenario" else getattr(s, target)
        value = getattr(obj, fname)
        if isinstance(value, enum.Enum):
            value = value.name
        lines.append(f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}")
    return "\n".join(lines) + "\n"
