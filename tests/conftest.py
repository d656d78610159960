"""Shared fixtures and independent verification helpers."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from unittest import mock

import pytest
from hypothesis import strategies as st

from nbiotsim import Scenario, builtin_coverage_profile, energy, flows, phy
from nbiotsim.config import _SCENARIO_KEYS, CoverageProfile, Procedure, TrafficCase
from nbiotsim.flows import US_PER_S, EnergyCategory, Interval


# every memo of per-level and per-scenario work, each an lru_cache, named once:
# the airtime and usage of a message, the plan of a layout, and the standalone
# TAUs and cycle profiles built from them
MEMOS = (phy._shared_message, flows._plan, energy._tau_event, energy.cycle_profile)


def clear_memos() -> None:
    """Empty the MEMOS."""
    for memo in MEMOS:
        memo.cache_clear()


# every cache of what the package data gives: the loaders and the MEMOS, which
# hold airtimes from a TBS table and the time and energy of laid-out flows
DATA_LOADERS = (flows._catalog, phy._tbs_table, phy._checksums, *MEMOS)
DATA_FILES = ("CHECKSUMS", "message_catalog.tsv", "npusch_tbs.tsv", "npdsch_tbs.tsv")


def clear_data_caches() -> None:
    """Empty the DATA_LOADERS."""
    for loader in DATA_LOADERS:
        loader.cache_clear()


@pytest.fixture
def data_texts(monkeypatch):
    """The packaged data texts by file name, which the loaders read instead of
    the files; every data cache is cleared before and after."""
    texts = {name: phy._data_text(name) for name in DATA_FILES}
    clear_data_caches()
    monkeypatch.setattr(phy, "_data_text", texts.__getitem__)
    yield texts
    monkeypatch.undo()
    clear_data_caches()


def repinned(texts, name, text):
    """texts with name's text replaced and CHECKSUMS pinning every file again,
    as the README's edit workflow does."""
    texts = {**texts, name: text}
    texts["CHECKSUMS"] = "".join(f"{hashlib.sha256(t.encode('utf-8')).hexdigest()}  {n}\n"
                                 for n, t in texts.items() if n != "CHECKSUMS")
    return texts


@dataclass(frozen=True)
class Level:
    """A coverage level's eleven fields, to run a phy or ra formula on a level
    with a field varied: they read only its attributes, and their memos need
    only a hashable value.  No Scenario takes one."""

    target_mcl_db: float
    subcarrier_spacing_khz: float
    ul_subcarriers_per_burst: int
    mcs_index: int
    rep_npdcch: int
    rep_npdsch: int
    rep_npusch: int
    rep_nprach: int
    r_max: int
    g_factor: float
    sync_time_scale: float


def level(name: str, **changes) -> Level:
    """The built-in level name as a Level, with changes to its fields."""
    return replace(Level(*CoverageProfile[name].value), **changes)


def fresh_profile(s: Scenario) -> energy.CycleProfile:
    """cycle_profile(s) built past its memo and the standalone TAU's memo."""
    with mock.patch.object(energy, "_tau_event", energy._tau_event.__wrapped__):
        return energy.cycle_profile.__wrapped__(s)


def make_scenario(proc="CP", case="UL", cov="Normal", iat_h=1.0, **kw) -> Scenario:
    return Scenario(procedure=Procedure(proc), traffic_case=TrafficCase(case),
                    coverage=builtin_coverage_profile(cov), iat_s=iat_h * 3600.0, **kw)


def active_duration_s(timeline: list[Interval]) -> float:
    """Cycle time spent outside deep sleep."""
    return sum(iv.duration_us for iv in timeline
               if iv.category is not EnergyCategory.PSM) / US_PER_S


def timeline_us(timeline: list[Interval]) -> flows.TimeByKey:
    """Whole microseconds per (category, power_mw) of a timeline, in
    first-interval order."""
    us: flows.TimeByKey = {}
    for iv in timeline:
        us[iv.category, iv.power_mw] = us.get((iv.category, iv.power_mw), 0) + iv.duration_us
    return us


def timeline_mj(timeline: list[Interval]) -> dict[EnergyCategory, float]:
    """mJ by category of a timeline: its time per (category, power_mw),
    priced by energy.price."""
    return energy.price(timeline_us(timeline))


def binned_energy_mj(timeline, bin_ms=1.0):
    """Re-integrate a timeline over fixed time bins (independent of the
    closed-form per-interval integration): for every bin, accumulate the exact
    overlap with each interval times its power."""
    if not timeline:
        return 0.0
    bin_us = int(bin_ms * 1000)
    end_us = timeline[-1].start_us + timeline[-1].duration_us
    total = 0.0
    idx = 0
    for bin_start in range(0, end_us, bin_us):
        bin_end = min(bin_start + bin_us, end_us)
        while idx < len(timeline) and timeline[idx].end_us <= bin_start:
            idx += 1
        j = idx
        while j < len(timeline) and timeline[j].start_us < bin_end:
            iv = timeline[j]
            overlap = min(bin_end, iv.end_us) - max(bin_start, iv.start_us)
            if overlap > 0:
                total += iv.power_mw * overlap * 1e-6
            j += 1
    return total


@pytest.fixture(scope="session")
def base_scenario() -> Scenario:
    return Scenario()


# --- scenario text drawn from the key table ----------------------------------

def domain_values(key, lo=None, hi=None):
    """Numbers inside a numeric key's closed domain, or inside [lo, hi] where
    given, the two bounds included."""
    parser, key_lo, key_hi = _SCENARIO_KEYS[key][2:]
    lo, hi = key_lo if lo is None else lo, key_hi if hi is None else hi
    inside = st.integers(lo, hi) if parser is int else st.floats(lo, hi)
    return st.one_of(st.sampled_from([lo, hi]), inside)


def raw_values(key):
    """Text for one key: values inside, at and just outside its domain, and
    the values no domain holds (nan, +-inf, 1e308, -0.0, huge integers)."""
    parser, lo, hi = _SCENARIO_KEYS[key][2:]
    if lo is None:
        return st.sampled_from([*parser.__members__, "Deep", "0"])
    if parser is int:
        outside = [lo - 1, hi + 1]
    else:
        outside = [math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)]
    odd = ["nan", "inf", "-inf", "1e308", "-1e308", "-0.0", str(10 ** 30), "9" * 5000]
    return st.one_of(domain_values(key).map(repr),
                     st.sampled_from([*map(repr, outside), *odd]))


@st.composite
def scenario_texts(draw, max_keys=8):
    """key=value text over a few distinct keys of the scenario key table."""
    keys = draw(st.lists(st.sampled_from(list(_SCENARIO_KEYS)), unique=True,
                         max_size=max_keys))
    return " ".join(f"{key}={draw(raw_values(key))}" for key in keys)
