"""NB-IoT physical-layer accounting.

Turns message sizes into on-air durations under the Rel-13 numerology:
transport block segmentation against the TS 36.213 NPUSCH/NPDSCH TBS tables,
repetition scaling, NPDCCH scheduling periodicity, half-duplex scheduling
gaps, and the open-loop transmit-power formulas.
"""

from __future__ import annotations

import bisect
import enum
import hashlib
import math
import os
from functools import lru_cache

from .config import CARRIER_KHZ, ConfigurationError, CoverageProfile, PowerProfile, _records

SUBFRAME_MS = 1.0
US_PER_MS = 1000      # the layout's grid: whole microseconds

# Start of a shared-channel transmission after the end of its associated NPDCCH.
NPUSCH_SCHEDULE_GAP_MS = 8.0
NPDSCH_SCHEDULE_GAP_MS = 4.0
NPRACH_PREAMBLE_MS = 6.4   # format 1 at every level: 4 symbol groups of 1.6 ms

# Allocation sizes of the TBS tables: N resource units (UL) / N subframes (DL).
ALLOCATION_UNITS = (1, 2, 3, 4, 5, 6, 8, 10)
# NPUSCH resource unit in ms by subcarriers per burst at 15 kHz
_UL_RESOURCE_UNIT_MS = {12: 1.0, 6: 2.0, 3: 4.0, 1: 8.0}


class ChannelKind(str, enum.Enum):
    NPRACH = "NPRACH"
    NPUSCH = "NPUSCH"
    NPDCCH = "NPDCCH"
    NPDSCH = "NPDSCH"


# The channels that carry transport blocks (TS 36.211): NPUSCH is the uplink
# side of a message exchange, NPDSCH the downlink side.
SHARED_CHANNELS = (ChannelKind.NPUSCH, ChannelKind.NPDSCH)


# --- TBS table loading ------------------------------------------------------

def _data_text(name: str) -> str:
    with open(os.path.join(os.path.dirname(__file__), "data", name), encoding="utf-8") as fh:
        return fh.read()


@lru_cache(maxsize=None)
def _checksums() -> dict[str, str]:
    out = {}
    for lineno, cells in _records(_data_text("CHECKSUMS")):
        if len(cells) != 2:
            raise ConfigurationError(f"CHECKSUMS line {lineno}: expected 'sha256 file'")
        out[cells[1]] = cells[0]
    return out


def verified_data_text(name: str) -> str:
    """Read a packaged data file, verifying its pinned SHA-256 checksum."""
    text = _data_text(name)
    expected = _checksums().get(name)
    actual = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if expected is None:
        raise ConfigurationError(f"data file {name!r} has no pinned checksum")
    if actual != expected:
        raise ConfigurationError(
            f"data file {name!r} checksum mismatch (got {actual}, pinned {expected}); "
            "update data/CHECKSUMS if the edit was intentional")
    return text


@lru_cache(maxsize=None)
def _tbs_table(ch: ChannelKind) -> tuple[tuple[int, ...], ...]:
    if ch not in SHARED_CHANNELS:
        raise ConfigurationError(f"{ch.value} is not a shared channel and has no TBS table")
    fname = f"{ch.value.lower()}_tbs.tsv"
    rows = []
    for lineno, cells in _records(verified_data_text(fname)):
        row = tuple(int(c) for c in cells if c.isdecimal())
        # whole numbers: I_TBS, the row's index, then one TBS per allocation,
        # rising with it, as transport_block_units bisects the row
        if not (len(cells) == len(row) == len(ALLOCATION_UNITS) + 1
                and row == (len(rows), *sorted(row[1:]))):
            raise ConfigurationError(f"{fname} line {lineno}: bad row; expected I_TBS "
                                     f"{len(rows)}, then {len(ALLOCATION_UNITS)} rising TBS")
        rows.append(row[1:])
    return tuple(rows)


def _tbs_row(c: CoverageProfile, ch: ChannelKind) -> tuple[int, ...]:
    table = _tbs_table(ch)
    if not 0 <= c.mcs_index < len(table):
        raise ConfigurationError(f"mcs_index={c.mcs_index!r} outside the TBS table: "
                                 f"expected an int from 0 to {len(table) - 1}")
    return table[c.mcs_index]


def transport_block_units(size_bits: int, c: CoverageProfile,
                          ch: ChannelKind) -> list[int]:
    """Allocation sizes of the transport blocks carrying a PDU of size_bits.

    Greedy segmentation: full maximum-TBS blocks first, then the smallest
    allocation whose TBS holds the remainder.
    """
    if size_bits <= 0:
        raise ConfigurationError("shared-channel message must have size > 0")
    row = _tbs_row(c, ch)
    full, rem = divmod(size_bits, row[-1])
    blocks = [ALLOCATION_UNITS[-1]] * full
    if rem:
        blocks.append(ALLOCATION_UNITS[bisect.bisect_left(row, rem)])
    return blocks


# --- durations --------------------------------------------------------------

def ul_resource_unit_ms(c: CoverageProfile) -> float:
    """Duration of one NPUSCH resource unit for the profile's subcarrier layout."""
    if c.subcarrier_spacing_khz == 3.75:
        return 32.0                      # single 3.75 kHz tone
    return _UL_RESOURCE_UNIT_MS[c.ul_subcarriers_per_burst]


def ul_carrier_fraction(c: CoverageProfile) -> float:
    """Fraction of the 180 kHz carrier an uplink burst occupies."""
    return c.ul_subcarriers_per_burst * c.subcarrier_spacing_khz / CARRIER_KHZ


def message_airtime(size_bytes: int, c: CoverageProfile, ch: ChannelKind) -> float:
    """On-air duration in milliseconds of one message, repetitions included.

    NPUSCH/NPDSCH messages are segmented into transport blocks against the TBS
    tables; NPDCCH carries one control assignment (rep_npdcch subframes, format
    0 / aggregation level 2 fills a subframe); NPRACH duration is set by the
    preamble format and repetition count, independent of size.  A shared-channel
    airtime is the first field of its `_shared_message` entry.
    """
    if ch is ChannelKind.NPRACH:
        return c.rep_nprach * NPRACH_PREAMBLE_MS
    if ch is ChannelKind.NPDCCH:
        return c.rep_npdcch * SUBFRAME_MS
    return _shared_message(size_bytes, c, ch)[0]


# Sized to hold every key of a mix of payloads from 0 to 1,024 B: with the
# 44 B default overhead and the catalog's extras and fixed sizes, at every
# level on both channels, 20,000 such scenarios ask for 6,197 keys.
@lru_cache(maxsize=8192)
def _shared_message(size_bytes: int, c: CoverageProfile,
                    ch: ChannelKind) -> tuple[float, int, float]:
    """What a layout reads of one NPUSCH or NPDSCH message: its airtime in ms,
    that airtime in whole us, and the channel usage it adds (subcarrier-ms on
    NPUSCH, subframes on NPDSCH).  Memoized per (size, level, channel), so
    transport_block_units segments each size once per level and channel."""
    units = sum(transport_block_units(size_bytes * 8, c, ch))
    if ch is ChannelKind.NPUSCH:
        ms = units * ul_resource_unit_ms(c) * c.rep_npusch
        return ms, round(ms * US_PER_MS), ms * ul_carrier_fraction(c) * 12.0
    ms = units * SUBFRAME_MS * c.rep_npdsch
    return ms, round(ms * US_PER_MS), ms / SUBFRAME_MS


def schedule_gap_ms(ch: ChannelKind) -> float:
    """Gap between the end of an NPDCCH assignment and its shared-channel start."""
    if ch is ChannelKind.NPUSCH:
        return NPUSCH_SCHEDULE_GAP_MS
    if ch is ChannelKind.NPDSCH:
        return NPDSCH_SCHEDULE_GAP_MS
    raise ConfigurationError(f"no schedule gap defined for {ch}")


# --- transmit power ---------------------------------------------------------

def npusch_tx_power_dbm(c: CoverageProfile, p: PowerProfile, pathloss_db: float) -> float:
    """NPUSCH transmit power per TS 36.213 16.2.1.1.1.

    With more than two repetitions the UE transmits at the configured maximum;
    otherwise open-loop control with full or partial pathloss compensation,
    where M is the allocation size in 15 kHz subcarrier equivalents.
    """
    if c.rep_npusch > 2:
        return p.p_cmax_dbm
    m = c.ul_subcarriers_per_burst * c.subcarrier_spacing_khz / 15.0
    open_loop = 10.0 * math.log10(m) + p.p_o_npusch_dbm + p.alpha * pathloss_db
    return min(p.p_cmax_dbm, open_loop)


def nprach_tx_power_dbm(p: PowerProfile, pathloss_db: float) -> float:
    """NPRACH preamble transmit power per TS 36.213 16.3.1 (first attempt)."""
    target = p.initial_received_target_power_dbm + p.delta_preamble_db
    return min(p.p_cmax_dbm, target + pathloss_db)


def tx_power_consumption_mw(p: PowerProfile, radiated_dbm: float) -> float:
    """UE power draw while transmitting at a given radiated power.

    Linear PA model anchored at the two known points: the maximum-power draw at
    p_cmax and the inactive floor at zero radiated power.  So a higher p_cmax at
    a fixed tx_max_mw is a more efficient amplifier: below the cap it draws
    less, and lifetime can rise with p_cmax_dbm.
    """
    if radiated_dbm > p.p_cmax_dbm + 1e-9:
        raise ConfigurationError(
            f"radiated_dbm={radiated_dbm} exceeds p_cmax={p.p_cmax_dbm}")
    if radiated_dbm >= p.p_cmax_dbm - 1e-12:
        return p.tx_max_mw
    radiated_mw = 10.0 ** (radiated_dbm / 10.0)
    p_cmax_mw = 10.0 ** (p.p_cmax_dbm / 10.0)
    return p.inactive_mw + (p.tx_max_mw - p.inactive_mw) * (radiated_mw / p_cmax_mw)
