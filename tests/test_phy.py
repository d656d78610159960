"""On-air durations, TBS lookups, and transmit-power formulas."""

import pytest
from hypothesis import given, settings, strategies as st
from dataclasses import replace
from unittest import mock

from nbiotsim import (ChannelKind, ConfigurationError, CoverageProfile, PowerProfile,
                      builtin_coverage_profile, message_airtime,
                      nprach_tx_power_dbm, npusch_tx_power_dbm, schedule_gap_ms,
                      tx_power_consumption_mw)
from nbiotsim import phy
from nbiotsim.phy import (ALLOCATION_UNITS, transport_block_units, ul_carrier_fraction,
                          ul_resource_unit_ms)
from tests.conftest import clear_data_caches, clear_memos, level, repinned

NORMAL = builtin_coverage_profile("Normal")
ROBUST = builtin_coverage_profile("Robust")
EXTREME = builtin_coverage_profile("Extreme")
POWER = PowerProfile()

# Reference rows copied independently from the standard's tables for the three
# MCS indices the built-in profiles use (allocation sizes 1,2,3,4,5,6,8,10).
UL_ROW_MCS9 = {1: 136, 2: 296, 3: 456, 4: 616, 5: 776, 6: 936, 8: 1256, 10: 1544}
UL_ROW_MCS3 = {1: 40, 2: 104, 3: 176, 4: 208, 5: 256, 6: 328, 8: 440, 10: 568}
UL_ROW_MCS0 = {1: 16, 2: 32, 3: 56, 4: 88, 5: 120, 6: 152, 8: 208, 10: 256}


def minimal_allocation(bits: int, row: dict) -> int:
    """Independent oracle: smallest standard allocation whose TBS holds bits."""
    for n in sorted(row):
        if row[n] >= bits:
            return n
    raise AssertionError("needs segmentation")


def test_npdcch_periods():
    assert NORMAL.npdcch_period_ms == 32      # 1 * 32
    assert ROBUST.npdcch_period_ms == 96      # 64 * 1.5
    assert EXTREME.npdcch_period_ms == 768    # 512 * 1.5


def test_npdcch_fits_in_one_period():
    for c in (NORMAL, ROBUST, EXTREME):
        assert c.npdcch_period_ms >= c.rep_npdcch


@pytest.mark.parametrize("mcs,units,expected", [
    (0, 1, 16), (0, 10, 256), (3, 10, 568), (4, 10, 680),
    (6, 10, 1000), (9, 4, 616), (8, 8, 1096), (12, 10, 2280),
])
def test_ul_tbs_spot_values(mcs, units, expected):
    assert phy._tbs_table(ChannelKind.NPUSCH)[mcs][ALLOCATION_UNITS.index(units)] == expected


@pytest.mark.parametrize("mcs,units,expected", [
    (9, 2, 296), (6, 10, 1032), (3, 5, 256), (0, 1, 16), (12, 10, 2280),
])
def test_dl_tbs_spot_values(mcs, units, expected):
    assert phy._tbs_table(ChannelKind.NPDSCH)[mcs][ALLOCATION_UNITS.index(units)] == expected


def test_mcs_outside_tbs_table_rejected(data_texts):
    # a re-pinned NPDSCH table cut below Normal's MCS 9 holds no row for it
    name = "npdsch_tbs.tsv"
    cut = data_texts[name].split("\n9\t", 1)[0] + "\n"
    data_texts.update(repinned(data_texts, name, cut))
    clear_data_caches()
    with pytest.raises(ConfigurationError, match=r"^mcs_index=9 outside the TBS table: "
                                                 r"expected an int from 0 to 8$"):
        transport_block_units(512, NORMAL, ChannelKind.NPDSCH)
    assert transport_block_units(512, NORMAL, ChannelKind.NPUSCH) == [4]


def shared_fields(size, c, ch):
    """Each field of a _shared_message entry, restated: the segmented airtime
    in ms, its whole us, and its usage in subcarrier-ms (NPUSCH) or subframes
    (NPDSCH)."""
    units = sum(transport_block_units(size * 8, c, ch))
    if ch is ChannelKind.NPUSCH:
        ms = units * ul_resource_unit_ms(c) * c.rep_npusch
        return ms, round(ms * 1000), ms * ul_carrier_fraction(c) * 12.0
    ms = units * phy.SUBFRAME_MS * c.rep_npdsch
    return ms, round(ms * 1000), ms / phy.SUBFRAME_MS


@pytest.mark.parametrize("c", [NORMAL, ROBUST, EXTREME], ids=lambda c: c.name)
def test_memoized_airtime_is_the_segmented_airtime(c):
    # each size twice: the first call may fill the memo, the second reads it;
    # then a few larger sizes, up to the largest message, whose payload and
    # overhead are 65,535 B each
    clear_memos()
    for ch in phy.SHARED_CHANNELS:
        for size in [*range(1, 2001), 4096, 65535, 65579, 131070]:
            expected = shared_fields(size, c, ch)
            assert phy._shared_message(size, c, ch) == expected, (size, ch)
            assert message_airtime(size, c, ch) == message_airtime(size, c, ch) == expected[0]


def test_shared_message_memo_holds_a_payload_mix():
    # payloads of 0 to 1,024 B plus the default 44 B overhead, at every level
    # and on both channels: 6,150 keys, which all fit, so a second pass
    # segments nothing
    clear_memos()
    keys = [(size, c, ch) for size in range(44, 1069) for c in CoverageProfile
            for ch in phy.SHARED_CHANNELS]
    first = [phy._shared_message(*key) for key in keys]
    info = phy._shared_message.cache_info()
    assert len(keys) == info.currsize == info.misses == 6150 < info.maxsize
    assert [phy._shared_message(*key) for key in keys] == first
    assert phy._shared_message.cache_info().misses == 6150


def test_airtime_memo_holds_at_most_its_bound():
    # more distinct keys at one level than the memo holds: it never grows past
    # its bound, and an airtime asked again after its eviction is answered alike
    clear_memos()
    maxsize = phy._shared_message.cache_info().maxsize
    keys = [(size, ch) for ch in phy.SHARED_CHANNELS for size in range(1, maxsize // 2 + 3)]
    first, sizes = [], []
    for size, ch in keys:
        first.append(phy._shared_message(size, EXTREME, ch))
        sizes.append(phy._shared_message.cache_info().currsize)
    assert max(sizes) == sizes[-1] == maxsize < len(keys)
    assert [phy._shared_message(size, EXTREME, ch) for size, ch in keys] == first
    assert phy._shared_message.cache_info().currsize == maxsize


# a shared-channel message_airtime call on a level, at few sizes, so that
# calls share keys, on the memoized channels only
AIRTIME_CALLS = st.tuples(st.sampled_from([1, 64, 3000]), st.sampled_from(list(CoverageProfile)),
                          st.sampled_from(phy.SHARED_CHANNELS))


@settings(max_examples=200, deadline=None)
@given(calls=st.lists(AIRTIME_CALLS, min_size=1, max_size=50))
def test_airtime_memo_answers_as_no_memo(calls):
    # whatever was asked before, each call answers as it does past its memo,
    # and message_airtime answers with the entry's airtime
    clear_memos()
    for size, c, ch in calls:
        want = phy._shared_message.__wrapped__(size, c, ch)
        with mock.patch.object(phy, "_shared_message", phy._shared_message.__wrapped__):
            assert message_airtime(size, c, ch) == want[0]
        assert phy._shared_message(size, c, ch) == want, (size, c, ch)
        assert message_airtime(size, c, ch) == want[0], (size, c, ch)


@pytest.mark.parametrize("ch", [ChannelKind.NPDCCH, ChannelKind.NPRACH])
def test_tbs_needs_a_shared_channel(ch):
    with pytest.raises(ConfigurationError, match="not a shared channel"):
        transport_block_units(512, NORMAL, ch)


def test_tbs_monotone_in_allocation():
    for mcs in (0, 3, 9):
        values = list(phy._tbs_table(ChannelKind.NPUSCH)[mcs])    # one per ALLOCATION_UNITS
        assert len(values) == len(ALLOCATION_UNITS) and values == sorted(values)


def test_64_byte_pdu_minimal_allocation():
    # 64 B = 512 bits; at the Normal profile's MCS the smallest allocation
    # holding it has TBS >= 512
    n = minimal_allocation(512, UL_ROW_MCS9)
    assert n == 4
    assert transport_block_units(512, NORMAL, ChannelKind.NPUSCH) == [4]


def test_message_airtime_64b_npusch_normal():
    # one transport block of 4 RUs at 1 ms/RU, repeated twice
    n = minimal_allocation(512, UL_ROW_MCS9)
    assert message_airtime(64, NORMAL, ChannelKind.NPUSCH) == \
        pytest.approx(n * 1.0 * NORMAL.rep_npusch)
    assert ul_carrier_fraction(NORMAL) == pytest.approx(1.0)


def test_message_airtime_64b_npusch_robust():
    # 3 subcarriers at 15 kHz: 4 ms per RU; 512 bits need 10 RUs at MCS 3
    n = minimal_allocation(512, UL_ROW_MCS3)
    assert message_airtime(64, ROBUST, ChannelKind.NPUSCH) == \
        pytest.approx(n * 4.0 * ROBUST.rep_npusch)
    assert ul_carrier_fraction(ROBUST) == pytest.approx(0.25)


def test_message_airtime_64b_npusch_extreme_segments():
    # single tone at 3.75 kHz: 32 ms per RU; 512 bits exceed the 256-bit
    # maximum TBS at MCS 0, so the message splits into two full blocks
    assert transport_block_units(512, EXTREME, ChannelKind.NPUSCH) == [10, 10]
    assert message_airtime(64, EXTREME, ChannelKind.NPUSCH) == \
        pytest.approx(20 * 32.0 * EXTREME.rep_npusch)
    assert ul_carrier_fraction(EXTREME) == pytest.approx(1.0 / 48.0)


def greedy_blocks(size_bits: int, row: tuple) -> list[int]:
    """Reference segmentation, one block per loop turn: the first allocation
    that holds the rest, or a full maximum-TBS block while none does."""
    blocks = []
    while size_bits > 0:
        units = next((n for n, tbs in zip(ALLOCATION_UNITS, row) if tbs >= size_bits),
                     ALLOCATION_UNITS[-1])
        blocks.append(units)
        size_bits -= row[ALLOCATION_UNITS.index(units)]
    return blocks


@pytest.mark.parametrize("cov", [NORMAL, ROBUST, EXTREME], ids=lambda c: c.name)
@pytest.mark.parametrize("ch", [ChannelKind.NPUSCH, ChannelKind.NPDSCH], ids=["UL", "DL"])
def test_transport_block_units_matches_greedy_reference(cov, ch):
    row = phy._tbs_table(ch)[cov.mcs_index]
    for size_bits in range(1, 3 * row[-1] + 1):
        assert transport_block_units(size_bits, cov, ch) == \
            greedy_blocks(size_bits, row), size_bits


def test_tbs_table_row_must_grow_with_allocation(monkeypatch):
    # transport_block_units bisects a row, so a row whose TBS falls is refused
    from nbiotsim import phy
    monkeypatch.setattr(phy, "verified_data_text",
                        lambda name: "0\t16\t32\t56\t88\t120\t152\t256\t208\n")
    phy._tbs_table.cache_clear()
    try:
        with pytest.raises(ConfigurationError, match="bad row"):
            phy._tbs_table(ChannelKind.NPUSCH)
    finally:
        monkeypatch.undo()
        phy._tbs_table.cache_clear()


def test_robust_strictly_slower_than_normal():
    a = message_airtime(64, NORMAL, ChannelKind.NPUSCH)
    b = message_airtime(64, ROBUST, ChannelKind.NPUSCH)
    assert b > a


def test_npdcch_grant_extreme():
    assert message_airtime(1, EXTREME, ChannelKind.NPDCCH) == 512.0


def test_nprach_airtime_size_independent():
    a = message_airtime(1, EXTREME, ChannelKind.NPRACH)
    b = message_airtime(999, EXTREME, ChannelKind.NPRACH)
    assert a == b == pytest.approx(32 * 6.4)


def test_zero_size_shared_channel_rejected():
    with pytest.raises(ConfigurationError, match="size"):
        message_airtime(0, NORMAL, ChannelKind.NPUSCH)
    with pytest.raises(ConfigurationError, match="size"):
        message_airtime(0, NORMAL, ChannelKind.NPDSCH)


def test_schedule_gaps():
    assert schedule_gap_ms(ChannelKind.NPUSCH) == 8.0
    assert schedule_gap_ms(ChannelKind.NPDSCH) == 4.0
    with pytest.raises(ConfigurationError):
        schedule_gap_ms(ChannelKind.NPRACH)


@given(size1=st.integers(min_value=1, max_value=600),
       size2=st.integers(min_value=1, max_value=600),
       cov=st.sampled_from(["Normal", "Robust", "Extreme"]),
       ch=st.sampled_from([ChannelKind.NPUSCH, ChannelKind.NPDSCH]))
def test_airtime_monotone_in_size(size1, size2, cov, ch):
    c = builtin_coverage_profile(cov)
    lo, hi = min(size1, size2), max(size1, size2)
    assert message_airtime(lo, c, ch) <= message_airtime(hi, c, ch)


@pytest.mark.parametrize("field", ["rep_npusch", "rep_npdsch", "rep_npdcch", "rep_nprach"])
def test_airtime_monotone_in_repetitions(field):
    channel = {"rep_npusch": ChannelKind.NPUSCH, "rep_npdsch": ChannelKind.NPDSCH,
               "rep_npdcch": ChannelKind.NPDCCH, "rep_nprach": ChannelKind.NPRACH}[field]
    base = level("Normal")
    doubled = replace(base, **{field: getattr(base, field) * 2})
    assert message_airtime(64, doubled, channel) >= message_airtime(64, base, channel)


# --- transmit power ----------------------------------------------------------

def test_npusch_power_capped_at_mcl():
    # open loop at the Normal link budget: 10log10(12) - 100 + 144 = 54.8 dBm
    assert npusch_tx_power_dbm(NORMAL, POWER, 144.0) == 23.0


def test_npusch_power_open_loop_single_tone():
    c = level("Normal", ul_subcarriers_per_burst=1)
    assert npusch_tx_power_dbm(c, POWER, 80.0) == pytest.approx(-20.0)


def test_npusch_power_cap_boundary():
    c = level("Normal", ul_subcarriers_per_burst=1)
    assert npusch_tx_power_dbm(c, POWER, 123.0) == pytest.approx(23.0)


def test_npusch_power_many_repetitions_always_max():
    assert npusch_tx_power_dbm(ROBUST, POWER, 10.0) == 23.0


def test_nprach_power():
    assert nprach_tx_power_dbm(POWER, 144.0) == 23.0
    assert nprach_tx_power_dbm(POWER, 80.0) == pytest.approx(-20.0)
    assert nprach_tx_power_dbm(POWER, 123.0) == pytest.approx(23.0)


def test_all_profiles_transmit_at_cap():
    for c in (NORMAL, ROBUST, EXTREME):
        assert npusch_tx_power_dbm(c, POWER, c.target_mcl_db) == 23.0
        assert nprach_tx_power_dbm(POWER, c.target_mcl_db) == 23.0


def test_tx_consumption_endpoints():
    assert tx_power_consumption_mw(POWER, 23.0) == 545.0
    # -20 dBm = 0.01 mW radiated: 3 + 542 * 0.01 / 10^2.3
    expected = 3.0 + 542.0 * (10 ** -2.0) / (10 ** 2.3)
    assert tx_power_consumption_mw(POWER, -20.0) == pytest.approx(expected)
    assert tx_power_consumption_mw(POWER, -20.0) == pytest.approx(3.03, abs=0.01)


def test_tx_consumption_rejects_power_above_cap():
    # both callers clamp to p_cmax, so only a direct call can ask for more
    assert tx_power_consumption_mw(POWER, 23.0 + 1e-10) == 545.0
    with pytest.raises(ConfigurationError, match=r"radiated_dbm=23\.001 exceeds p_cmax=23\.0"):
        tx_power_consumption_mw(POWER, 23.001)


def test_tx_consumption_max_under_power_scaling():
    scaled = replace(POWER, deep_sleep_mw=0.03, inactive_mw=6.0,
                     rx_mw=180.0, tx_max_mw=1090.0)
    assert tx_power_consumption_mw(scaled, scaled.p_cmax_dbm) == 1090.0
