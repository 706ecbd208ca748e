"""TD aggregate behavior: attribute checks, transactions, filters, KOT, handles."""

import dataclasses
import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from alphabet import World
from tdxmodel import md_codec as md
from tdxmodel import status as S
from tdxmodel.catalog import FieldCatalog, MigClass
from tdxmodel.engine import EngineMode, TdxModule
from tdxmodel.envelope import MigrationSessionKey
from tdxmodel.md_codec import MD_CTX_SYS, MD_CTX_TD, MD_CTX_VP, WriteMode
from tdxmodel.scenarios import collect_sequences, decrypted_lists
from tdxmodel.td import (
    ATTR_DEBUG,
    ATTR_MIGRATABLE,
    ATTR_PERFMON,
    ATTR_SEPT_VE_DISABLE,
    LVL_PML4,
    LVL_PML5,
    MAX_EVENT_FILTERS,
    MAX_HP_LOCK_TIMEOUT_USEC,
    MAX_VCPUS_PER_TD,
    MIN_HP_LOCK_TIMEOUT_USEC,
    NOT_STATE,
    TDMR_ENTRY_ALIGNMENT,
    TD_CONFIG_RULES,
    TYPED_TD_FIELDS,
    VIRT_TSC_FREQUENCY_MAX,
    VIRT_TSC_FREQUENCY_MIN,
    XCR0_X87,
    XFAM_ALLOWED,
    XFAM_FIXED1,
    EptpControls,
    EventFilter,
    Kot,
    KotState,
    TdComplex,
    TdExportSource,
    TdImportSink,
    TdParams,
    VcpuState,
    admit_td_config,
    audit_event_filters,
    break_binding_handle,
    check_gpa_validity,
    check_xfam,
    init_event_filters,
    is_event_allowed,
    make_binding_handle,
    read_and_set_td_configurations,
    sept_walk_ok,
    sys_config_reserve_hkid,
    verify_td_attributes,
)


# --- attributes -----------------------------------------------------------------

def test_migratable_import_is_legal():
    assert verify_td_attributes(ATTR_MIGRATABLE, importing=True)


def test_debug_rejected_on_import():
    assert not verify_td_attributes(ATTR_DEBUG, importing=True)


def test_debug_allowed_when_not_migratable_outside_import():
    assert verify_td_attributes(ATTR_DEBUG, importing=False)


@given(attributes=st.integers(0, 2**64 - 1), importing=st.booleans())
@example(attributes=ATTR_MIGRATABLE | ATTR_DEBUG, importing=False)
@example(attributes=ATTR_MIGRATABLE | ATTR_PERFMON, importing=False)
@example(attributes=ATTR_MIGRATABLE, importing=False)
@example(attributes=ATTR_MIGRATABLE | ATTR_SEPT_VE_DISABLE, importing=True)
@example(attributes=ATTR_SEPT_VE_DISABLE, importing=True)
def test_migratable_excludes_debug_and_perfmon(attributes, importing):
    """The ABI's rule: a migratable TD is neither a debug nor a perfmon TD, and an
    import must be migratable.  No other bit of ATTRIBUTES plays a part."""
    migratable = bool(attributes & ATTR_MIGRATABLE)
    debug, perfmon = bool(attributes & ATTR_DEBUG), bool(attributes & ATTR_PERFMON)
    legal = not (migratable and (debug or perfmon)) and (migratable or not importing)
    assert verify_td_attributes(attributes, importing) is legal


# --- init transaction --------------------------------------------------------------

def _fresh_td():
    td = TdComplex(tdr_page=0x103, hkid=1)
    td.sept_root_pa = 0x104
    return td


def _fixed_init(td, params):
    """v1 fixed: the TD configuration through tdh_mng_init, whose rollback is its transaction.

    The TD is UNINITIALIZED and holds its control pages, so the gate admits the
    call.  A refusal must leave the TD's digest unchanged.  A successful init also
    writes VIRTUAL_TSC after the configuration; that store is checked and taken
    out, so the stores compare with the configuration alone.
    """
    td.tdcx_count = TdComplex.MIN_TDCX_PAGES
    before = td.digest()
    status = TdxModule().tdh_mng_init(td, params)
    if status == S.TDX_SUCCESS:
        assert td.td_store.pop("VIRTUAL_TSC")[:2] == [td.tsc_frequency * 0x40, 0]
    else:
        assert td.digest() == before
    return status


def test_vulnerable_init_leaves_partial_state_on_xfam_failure():
    td = _fresh_td()
    td.num_vcpus = 5
    status = read_and_set_td_configurations(td, TdParams(attributes=ATTR_DEBUG, xfam=0))
    assert status == S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_XFAM)
    assert td.attributes & ATTR_DEBUG   # already written, never restored
    assert td.num_vcpus == 0            # zeroed before the checks


def test_fixed_init_is_transactional():
    td = _fresh_td()
    td.num_vcpus = 5
    status = _fixed_init(td, TdParams(attributes=ATTR_DEBUG, xfam=0))
    assert status == S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_XFAM)
    assert td.attributes == 0
    assert td.num_vcpus == 5


@pytest.mark.parametrize("mode", ["vulnerable", "fixed"])
def test_valid_params_accepted(mode):
    td = _fresh_td()
    init = read_and_set_td_configurations if mode == "vulnerable" else _fixed_init
    status = init(td, TdParams(attributes=ATTR_MIGRATABLE))
    assert status == S.TDX_SUCCESS
    assert td.attributes & ATTR_MIGRATABLE
    assert sept_walk_ok(td)


# --- the rule-table build against the two-body reference ------------------------------

def _reference_verify_and_set_td_eptp_controls(td, gpaw, eptp):
    """The EPTP check and store the rule table replaced, kept for the references."""
    if gpaw and eptp.ept_pwl < LVL_PML5:
        return False
    td.gpaw = int(gpaw)
    rooted = EptpControls(
        ept_ps_mt=eptp.ept_ps_mt,
        ept_pwl=eptp.ept_pwl,
        enable_ad_bits=eptp.enable_ad_bits,
        enable_sss_control=eptp.enable_sss_control,
        base_pa=td.sept_root_pa,
    )
    td.eptp_raw = rooted.raw
    return True


def _reference_read_and_set_td_configurations(td, params, write_early):
    """The two-body build the one-loop build replaced, kept as its oracle.

    It checks no HP_LOCK_TIMEOUT; the rule table does.
    """
    attrs = params.attributes
    eptp = EptpControls(ept_pwl=params.ept_pwl)

    if write_early:
        td.num_vcpus = 0
        if not verify_td_attributes(attrs, False):
            return S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_ATTRIBUTES)
        td.attributes = attrs
        if not check_xfam(params.xfam):
            return S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_XFAM)
        td.xfam = params.xfam
        if not _reference_verify_and_set_td_eptp_controls(td, params.gpaw, eptp):
            return S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_EPTP_CONTROLS)
        if not VIRT_TSC_FREQUENCY_MIN <= params.tsc_frequency <= VIRT_TSC_FREQUENCY_MAX:
            return S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_TSC_FREQUENCY)
        td.tsc_frequency = params.tsc_frequency
        td.hp_lock_timeout = params.hp_lock_timeout
        return S.TDX_SUCCESS

    if not verify_td_attributes(attrs, False):
        return S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_ATTRIBUTES)
    if not check_xfam(params.xfam):
        return S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_XFAM)
    if params.gpaw and eptp.ept_pwl < LVL_PML5:
        return S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_EPTP_CONTROLS)
    if not VIRT_TSC_FREQUENCY_MIN <= params.tsc_frequency <= VIRT_TSC_FREQUENCY_MAX:
        return S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_TSC_FREQUENCY)
    td.num_vcpus = 0
    td.attributes = attrs
    td.xfam = params.xfam
    _reference_verify_and_set_td_eptp_controls(td, params.gpaw, eptp)
    td.tsc_frequency = params.tsc_frequency
    td.hp_lock_timeout = params.hp_lock_timeout
    return S.TDX_SUCCESS


_U64S = st.integers(0, 2**64 - 1)
# Host-supplied build parameters: values near each check's edges, and any 64-bit
# value.  ept_pwl is the 3-bit field of the packed controls.
_TD_PARAMS = st.builds(
    TdParams,
    attributes=st.sampled_from([
        0, ATTR_DEBUG, ATTR_PERFMON, ATTR_MIGRATABLE, ATTR_MIGRATABLE | ATTR_SEPT_VE_DISABLE,
        ATTR_MIGRATABLE | ATTR_DEBUG, ATTR_MIGRATABLE | ATTR_PERFMON,
    ]) | _U64S,
    xfam=st.sampled_from([0, 1, XFAM_FIXED1, 0x7, XFAM_ALLOWED, XFAM_ALLOWED + 1]) | _U64S,
    gpaw=st.booleans(),
    ept_pwl=st.integers(0, 7),
    tsc_frequency=st.sampled_from([
        VIRT_TSC_FREQUENCY_MIN - 1, VIRT_TSC_FREQUENCY_MIN, 100, VIRT_TSC_FREQUENCY_MAX,
        VIRT_TSC_FREQUENCY_MAX + 1,
    ]) | _U64S,
    hp_lock_timeout=st.sampled_from([
        0, MIN_HP_LOCK_TIMEOUT_USEC - 1, MIN_HP_LOCK_TIMEOUT_USEC, 1_000_000,
        MAX_HP_LOCK_TIMEOUT_USEC, MAX_HP_LOCK_TIMEOUT_USEC + 1,
    ]) | _U64S,
)
# The configuration a TD holds before the build call, so an untouched field shows
# (GPAW 0, as only gpaw=1 can fail the EPTP check).
_PRIOR = {"ATTRIBUTES": ATTR_DEBUG, "XFAM": 0x7, "EPTP": 0x1234_5678, "GPAW": 0,
          "NUM_VCPUS": 5, "TSC_FREQUENCY": 77, "HP_LOCK_TIMEOUT": 12_345}


def _configured_td():
    td = _fresh_td()
    for name, value in _PRIOR.items():
        td.td_store[name][0] = value
    return td


@pytest.mark.parametrize("write_early", [True, False], ids=["vulnerable", "fixed"])
def test_rule_table_build_matches_the_two_body_reference(write_early):
    @settings(max_examples=300, deadline=None)
    @given(params=_TD_PARAMS)
    @example(params=TdParams(attributes=ATTR_MIGRATABLE))
    @example(params=TdParams(attributes=ATTR_DEBUG, xfam=0))
    @example(params=TdParams(gpaw=True, ept_pwl=LVL_PML4))
    @example(params=TdParams(attributes=ATTR_MIGRATABLE, hp_lock_timeout=0))
    @example(params=TdParams(tsc_frequency=0, hp_lock_timeout=0))
    @example(params=TdParams(attributes=ATTR_MIGRATABLE, ept_pwl=0))
    @example(params=TdParams(gpaw=True, ept_pwl=7))
    def check(params):
        reference, td = _configured_td(), _configured_td()
        if params.ept_pwl & 0x7 in (LVL_PML4, LVL_PML5):
            want = _reference_read_and_set_td_configurations(reference, params, write_early)
        else:
            # The table refuses a walk that is not four or five levels deep, where the
            # reference checks only GPAW; the reference refuses GPAW with PML4 at the
            # same point, after the same stores.
            refused = dataclasses.replace(params, gpaw=True, ept_pwl=LVL_PML4)
            want = _reference_read_and_set_td_configurations(reference, refused, write_early)
        status = (read_and_set_td_configurations if write_early else _fixed_init)(td, params)
        hp_in_range = MIN_HP_LOCK_TIMEOUT_USEC <= params.hp_lock_timeout <= MAX_HP_LOCK_TIMEOUT_USEC
        if hp_in_range or want != S.TDX_SUCCESS:
            assert status == want
        else:
            # The reference stored the out-of-range value; the table refuses it.
            assert status == S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_METADATA_FIELD)
            if write_early:
                reference.hp_lock_timeout = _PRIOR["HP_LOCK_TIMEOUT"]
            else:
                reference = _configured_td()
        assert td.td_store == reference.td_store
        assert (td.gpaw, td.num_vcpus) == (reference.gpaw, reference.num_vcpus)

    check()


def test_build_checks_the_packed_walk_level():
    """ept_pwl must fit the 3-bit field it is stored in: 8 does not, so the EPTP rule refuses it."""
    for init in (read_and_set_td_configurations, _fixed_init):
        td = _configured_td()
        status = init(td, TdParams(gpaw=True, ept_pwl=8))
        assert status == S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_EPTP_CONTROLS)
        assert td.hp_lock_timeout == _PRIOR["HP_LOCK_TIMEOUT"]


# Host values past a field's width: ATTRIBUTES outside 64 bits, GPAW other than its one bit,
# a walk level outside its 3 bits.
_WIDE_PARAMS = st.builds(
    TdParams,
    attributes=st.sampled_from([0, ATTR_MIGRATABLE, (1 << 64) | ATTR_MIGRATABLE,
                                ATTR_MIGRATABLE - (1 << 64), -1]) | st.integers(-(1 << 66), 1 << 66),
    gpaw=st.sampled_from([False, True, 2, 5, -1]),
    ept_pwl=st.sampled_from([LVL_PML4, LVL_PML5, LVL_PML4 + 8, LVL_PML5 + 8, -4])
    | st.integers(-(1 << 66), 1 << 66),
)


@pytest.mark.parametrize("write_early", [True, False], ids=["vulnerable", "fixed"])
@settings(max_examples=150, deadline=None)
@given(params=_WIDE_PARAMS)
@example(params=TdParams(attributes=(1 << 64) | ATTR_MIGRATABLE))
@example(params=TdParams(attributes=ATTR_MIGRATABLE - (1 << 64)))
@example(params=TdParams(gpaw=5, ept_pwl=LVL_PML5))
@example(params=TdParams(attributes=ATTR_MIGRATABLE, ept_pwl=12))
@example(params=TdParams(attributes=ATTR_MIGRATABLE, ept_pwl=-4))
@example(params=TdParams(attributes=ATTR_MIGRATABLE, ept_pwl=11))
def test_a_build_stores_each_params_field_within_its_width(write_early, params):
    """ATTRIBUTES is stored as 64 bits, GPAW as one bit and the walk level as given in its
    3 bits, or the build refuses the field."""
    td = _configured_td()
    status = (read_and_set_td_configurations if write_early else _fixed_init)(td, params)
    assert all(0 <= v <= U64 for values in td.td_store.values() for v in values)
    assert td.gpaw in (0, 1)
    if status == S.TDX_SUCCESS:
        assert EptpControls.from_raw(td.eptp_raw).ept_pwl == params.ept_pwl
    if not 0 <= params.attributes <= U64:
        assert status == S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_ATTRIBUTES)
    elif not 0 <= params.ept_pwl <= 7 and verify_td_attributes(params.attributes, False):
        assert status == S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_EPTP_CONTROLS)
    elif int(params.gpaw) not in (0, 1) and verify_td_attributes(params.attributes, False):
        # The walk-level check before GPAW's reads any such GPAW as set: only PML5 passes it.
        word = S.OPERAND_ID_EXEC_CONTROLS if params.ept_pwl == LVL_PML5 else S.OPERAND_ID_EPTP_CONTROLS
        assert status == S.with_operand(S.TDX_OPERAND_INVALID, word)


def test_every_rule_names_a_special_handling_entry(catalog):
    """The sink applies a rule only to a flagged entry, so an unflagged or misspelt key is dead."""
    for name in TD_CONFIG_RULES:
        entries = [e for ctx in (MD_CTX_TD, MD_CTX_VP) for e in catalog.entries_for(ctx)
                   if e.name == name]
        assert entries and all(e.special_wr_handling for e in entries), name


# A second valid value of each TdParams field, from a base that passes every check.
_PARAMS_BASE = TdParams(attributes=ATTR_MIGRATABLE, ept_pwl=LVL_PML5)
_PARAMS_OTHER = {
    "attributes": ATTR_MIGRATABLE | ATTR_SEPT_VE_DISABLE, "xfam": 0x7, "gpaw": True,
    "ept_pwl": LVL_PML4, "tsc_frequency": 101,
    "hp_lock_timeout": 1_000_001,
}


def test_every_params_field_feeds_a_stored_field():
    assert set(_PARAMS_OTHER) == {f.name for f in dataclasses.fields(TdParams)}
    base = _configured_td()
    assert _fixed_init(base, _PARAMS_BASE) == S.TDX_SUCCESS
    for name, other in _PARAMS_OTHER.items():
        td = _configured_td()
        params = dataclasses.replace(_PARAMS_BASE, **{name: other})
        assert _fixed_init(td, params) == S.TDX_SUCCESS, name
        assert td.td_store != base.td_store, name


# --- eptp ---------------------------------------------------------------------------

def test_eptp_gpaw_requires_pml5():
    td = _fresh_td()
    pml4, pml5 = EptpControls(ept_pwl=LVL_PML4).raw, EptpControls(ept_pwl=LVL_PML5).raw
    assert admit_td_config(td, "EPTP", pml4, True, importing=False) is None
    rooted = admit_td_config(td, "EPTP", pml4, False, importing=False)
    controls = EptpControls.from_raw(rooted)
    assert controls.base_pa == td.sept_root_pa  # re-rooted at the TD's SEPT page
    assert admit_td_config(td, "EPTP", pml5, True, importing=False) is not None


def test_zeroed_eptp_fails_walk_precheck():
    td = _fresh_td()
    assert td.eptp_raw == 0
    assert not sept_walk_ok(td)


def test_eptp_raw_roundtrip():
    controls = EptpControls(ept_ps_mt=6, ept_pwl=LVL_PML5, enable_ad_bits=True, base_pa=0x123)
    assert EptpControls.from_raw(controls.raw) == controls


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_walk_precheck_reads_the_packed_controls(raw):
    td = _fresh_td()
    td.eptp_raw = raw
    controls = EptpControls.from_raw(raw)
    expected = controls.ept_pwl in (LVL_PML4, LVL_PML5) and controls.base_pa != 0
    assert sept_walk_ok(td) is expected


# The two packed records' raw and from_raw as they were written out before their layout tables.
def _eptp_raw_before(c):
    return ((c.ept_ps_mt & 0x7) | ((c.ept_pwl & 0x7) << 3) | (int(c.enable_ad_bits) << 6)
            | (int(c.enable_sss_control) << 7) | ((c.base_pa & ((1 << 40) - 1)) << 12))


def _eptp_from_raw_before(raw):
    return EptpControls(ept_ps_mt=raw & 0x7, ept_pwl=(raw >> 3) & 0x7,
                        enable_ad_bits=bool(raw & (1 << 6)),
                        enable_sss_control=bool(raw & (1 << 7)),
                        base_pa=(raw >> 12) & ((1 << 40) - 1))


def _filter_raw_before(f):
    return ((f.event_select & 0xFF) | ((f.umask & 0xFFFF) << 8) | ((f.negative & 1) << 24)
            | ((f.umask_mask & 0xFFFF) << 32) | ((f.reserved_0 & 0xFFFF) << 48))


def _filter_from_raw_before(raw):
    return EventFilter(event_select=raw & 0xFF, umask=(raw >> 8) & 0xFFFF, negative=(raw >> 24) & 1,
                       umask_mask=(raw >> 32) & 0xFFFF, reserved_0=(raw >> 48) & 0xFFFF)


# Values inside every field's width and far beyond it, negative ones included.
_ANY_WIDTH = st.integers(0, 0xFF) | st.integers(-(1 << 70), 1 << 70)


@given(controls=st.builds(EptpControls, ept_ps_mt=_ANY_WIDTH, ept_pwl=_ANY_WIDTH,
                          enable_ad_bits=st.booleans(), enable_sss_control=st.booleans(),
                          base_pa=_ANY_WIDTH),
       event_filter=st.builds(EventFilter, event_select=_ANY_WIDTH, umask=_ANY_WIDTH,
                              negative=_ANY_WIDTH, umask_mask=_ANY_WIDTH, reserved_0=_ANY_WIDTH),
       raw=_U64S)
def test_layout_tables_pack_as_the_unrolled_reference(controls, event_filter, raw):
    assert controls.raw == _eptp_raw_before(controls)
    assert EptpControls.from_raw(raw) == _eptp_from_raw_before(raw)
    assert event_filter.raw == _filter_raw_before(event_filter)
    assert EventFilter.from_raw(raw) == _filter_from_raw_before(raw)
    assert EptpControls.from_raw(controls.raw).raw == controls.raw


def test_session_key_follows_every_mig_dec_key_change(catalog):
    td = _fresh_td()
    key_entry = catalog.by_name(MD_CTX_TD, "MIG_DEC_KEY")
    for i, quadword in enumerate((1, 2, 3, 4)):
        td.write_element_raw(key_entry, i, quadword)
    key = td.session_key
    assert key == MigrationSessionKey.from_quadwords([1, 2, 3, 4])
    assert td.session_key is key  # built once per key value
    td.write_element_raw(key_entry, 3, 5)
    assert td.session_key == MigrationSessionKey.from_quadwords([1, 2, 3, 5])
    td.td_store["MIG_DEC_KEY"][0] = 9  # a direct store is seen too
    assert td.session_key == MigrationSessionKey.from_quadwords([9, 2, 3, 5])


# The typed property that reads each TD_store field, as a list of its quadwords.
_TYPED_VIEWS = {
    "ATTRIBUTES": lambda td: [td.attributes],
    "XFAM": lambda td: [td.xfam],
    "GPAW": lambda td: [td.gpaw],
    "EPTP": lambda td: [td.eptp_raw],
    "NUM_VCPUS": lambda td: [td.num_vcpus],
    "TSC_FREQUENCY": lambda td: [td.tsc_frequency],
    "HP_LOCK_TIMEOUT": lambda td: [td.hp_lock_timeout],
    "EXPORT_COUNT": lambda td: [td.export_count],
    "TD_UUID": lambda td: list(td.td_uuid),
    "MIG_DEC_KEY": lambda td: [int.from_bytes(td.session_key.key[i : i + 8], "little")
                                for i in range(0, 32, 8)],
}


def test_typed_fields_match_the_catalog(catalog):
    assert set(_TYPED_VIEWS) == set(TYPED_TD_FIELDS)
    td = _fresh_td()
    for name in TYPED_TD_FIELDS:
        assert len(td.td_store[name]) == catalog.by_name(MD_CTX_TD, name).code_span


@given(name=st.sampled_from(sorted(TYPED_TD_FIELDS)), value=st.integers(0, 2**64 - 1),
       data=st.data())
def test_typed_fields_read_the_same_store_as_raw_elements(catalog, name, value, data):
    entry = catalog.by_name(MD_CTX_TD, name)
    position = data.draw(st.integers(0, entry.code_span - 1))
    td = _fresh_td()
    td.write_element_raw(entry, position, value)
    expected = [0] * entry.code_span
    expected[position] = value
    assert _TYPED_VIEWS[name](td) == expected
    assert [td.read_element(entry, k) for k in range(entry.code_span)] == expected
    assert td.mig_dec_key_set is False  # one quadword never arms the key


def test_typed_setters_write_the_store(catalog):
    td = _fresh_td()
    td.attributes = ATTR_MIGRATABLE
    td.td_uuid[:] = (1, 2, 3, 4)
    td.num_vcpus = 7
    assert td.read_element(catalog.by_name(MD_CTX_TD, "ATTRIBUTES"), 0) == ATTR_MIGRATABLE
    td_uuid = catalog.by_name(MD_CTX_TD, "TD_UUID")
    assert [td.read_element(td_uuid, k) for k in range(4)] == [1, 2, 3, 4]
    assert td.read_element(catalog.by_name(MD_CTX_TD, "NUM_VCPUS"), 0) == 7


# --- gpa checks ----------------------------------------------------------------------

def test_gpa_validity():
    assert check_gpa_validity(0x1000, gpaw=False)
    assert not check_gpa_validity(1 << 48, gpaw=False)
    assert not check_gpa_validity(1 << 47, gpaw=False)   # shared bit set
    assert check_gpa_validity(1 << 47, gpaw=True)
    assert not check_gpa_validity(1 << 51, gpaw=True)


# --- event filters ---------------------------------------------------------------------

def _perfmon_td():
    td = _fresh_td()
    td.attributes = ATTR_PERFMON
    return td


def _three_call_construction(td, mode):
    first = [
        EventFilter(event_select=1, umask=1).raw,
        EventFilter(event_select=2, umask=2).raw,
        EventFilter(event_select=3, umask=0x1FF).raw,
    ]
    second = [EventFilter(event_select=5, umask=5).raw,
              EventFilter(event_select=6, negative=1).raw] + [0] * 4
    statuses = [
        init_event_filters(td, True, 3, first, mode),
        init_event_filters(td, True, 6, second, mode),
        init_event_filters(td, False, 0, [], mode),
    ]
    return statuses


def test_three_call_construction_leaves_stale_unsorted_filters():
    td = _perfmon_td()
    statuses = _three_call_construction(td, True)
    assert statuses[0] == S.with_operand(S.TDX_EVENT_FILTER_INVALID, 2)
    assert statuses[1] == S.with_operand(S.TDX_EVENT_FILTER_INVALID, 1)
    assert statuses[2] == S.TDX_SUCCESS
    audit = audit_event_filters(td)
    assert audit["count"] == 6
    assert not audit["sorted"]
    assert audit["zero_entries"] >= 1


def test_fixed_mode_resets_on_every_failure():
    td = _perfmon_td()
    _three_call_construction(td, False)
    assert td.event_filters_num == 0
    assert audit_event_filters(td)["sorted"]


def test_unsorted_input_rejected():
    td = _perfmon_td()
    filters = [EventFilter(event_select=9, umask=1).raw, EventFilter(event_select=3).raw]
    status = init_event_filters(td, True, 2, filters, False)
    assert status == S.with_operand(S.TDX_EVENT_FILTER_ORDER_INVALID, 1)


def test_valid_filters_install_and_search_agrees_with_linear_scan():
    rng = random.Random(11)
    for _ in range(50):
        td = _perfmon_td()
        count = rng.randrange(1, MAX_EVENT_FILTERS)
        keys = sorted(rng.sample(range(1, 0xFFFF), count))
        filters = [EventFilter(event_select=k & 0xFF, umask=(k >> 8) & 0xFF).raw for k in keys]
        internals = sorted({EventFilter.from_raw(f).internal for f in filters})
        filters = [
            EventFilter(event_select=v & 0xFF, umask=(v >> 8) & 0xFF).raw for v in internals
        ]
        status = init_event_filters(td, True, len(filters), filters, False)
        assert status == S.TDX_SUCCESS
        for probe in rng.sample(range(0xFFFF), 32):
            linear = probe in internals
            assert is_event_allowed(td, probe & 0xFF, (probe >> 8) & 0xFF) is linear


def test_no_filters_means_nothing_allowed():
    td = _perfmon_td()
    assert not is_event_allowed(td, 1, 1)


@pytest.mark.parametrize("count_first", [True, False], ids=["vulnerable", "fixed"])
@settings(max_examples=100, deadline=None)
@given(legal=st.integers(0, 4), entry=st.integers(1 << 64, 1 << 70) | st.integers(-(1 << 70), -1))
@example(legal=0, entry=(1 << 64) | EventFilter(event_select=1, umask=1).raw)
@example(legal=2, entry=(1 << 64) | EventFilter(event_select=9, umask=1).raw)
def test_a_filter_entry_outside_64_bits_is_refused(count_first, legal, entry):
    """After ``legal`` sorted legal entries, one outside 64 bits is the first illegal filter."""
    td = _perfmon_td()
    entries = [EventFilter(event_select=k + 1, umask=1).raw for k in range(legal)] + [entry]
    status = init_event_filters(td, True, len(entries), entries, count_first)
    assert status == S.with_operand(S.TDX_EVENT_FILTER_INVALID, legal)
    assert all(0 <= f <= 0xFFFF for f in td.event_filters)


def test_filtering_requires_perfmon():
    td = _fresh_td()  # perfmon clear
    status = init_event_filters(td, True, 1, [EventFilter(event_select=1).raw], True)
    assert status == S.TDX_SUCCESS
    assert td.event_filters_num == 0


def _reference_init_event_filters(td, event_filtering, count, entries, count_first):
    """The two-loop filter install the one loop replaced, kept as its oracle.

    It indexes ``entries`` by the count, so a short list raises IndexError, and it
    accepts a negative count.
    """
    if not (event_filtering and td.attributes & ATTR_PERFMON):
        return S.TDX_SUCCESS
    if count > MAX_EVENT_FILTERS:
        return S.with_operand(S.TDX_EVENT_FILTER_INVALID, 0)

    if count_first:
        td.event_filters_num = count
        for i in range(count):
            entry = EventFilter.from_raw(entries[i])
            if not entry.legal:
                return S.with_operand(S.TDX_EVENT_FILTER_INVALID, i)
            if i != 0 and td.event_filters[i - 1] >= entry.internal:
                return S.with_operand(S.TDX_EVENT_FILTER_ORDER_INVALID, i)
            td.event_filters[i] = entry.internal
        return S.TDX_SUCCESS

    scratch = []
    for i in range(count):
        entry = EventFilter.from_raw(entries[i])
        if not entry.legal:
            td.event_filters_num = 0
            td.event_filters = [0] * MAX_EVENT_FILTERS
            return S.with_operand(S.TDX_EVENT_FILTER_INVALID, i)
        if i != 0 and scratch[i - 1] >= entry.internal:
            td.event_filters_num = 0
            td.event_filters = [0] * MAX_EVENT_FILTERS
            return S.with_operand(S.TDX_EVENT_FILTER_ORDER_INVALID, i)
        scratch.append(entry.internal)
    td.event_filters = scratch + [0] * (MAX_EVENT_FILTERS - len(scratch))
    td.event_filters_num = count
    return S.TDX_SUCCESS


# Filter entries: legal ones in a narrow key range, so sorted runs occur, and raw values.
_FILTER_ENTRIES = st.builds(
    lambda e, u: EventFilter(event_select=e, umask=u).raw, st.integers(0, 7), st.integers(0, 3),
) | st.sampled_from([0, EventFilter(negative=1).raw]) | _U64S


def _filter_td(perfmon, prior):
    td = _fresh_td()
    td.attributes = ATTR_PERFMON if perfmon else 0
    td.event_filters, td.event_filters_num = list(prior), len([v for v in prior if v])
    return td


@pytest.mark.parametrize("count_first", [True, False], ids=["vulnerable", "fixed"])
def test_one_loop_filter_install_matches_the_two_loop_reference(count_first):
    @settings(max_examples=300, deadline=None)
    @given(
        filtering=st.booleans(),
        perfmon=st.booleans(),
        count=st.integers(-3, MAX_EVENT_FILTERS + 3),
        entries=st.lists(_FILTER_ENTRIES, max_size=MAX_EVENT_FILTERS + 2),
        prior=st.lists(st.integers(0, 0xFFFF), min_size=MAX_EVENT_FILTERS,
                       max_size=MAX_EVENT_FILTERS),
    )
    @example(filtering=True, perfmon=True, count=2, entries=[EventFilter(event_select=1).raw],
             prior=[0] * MAX_EVENT_FILTERS)
    @example(filtering=True, perfmon=True, count=-1, entries=[], prior=[0] * MAX_EVENT_FILTERS)
    def check(filtering, perfmon, count, entries, prior):
        td, reference = _filter_td(perfmon, prior), _filter_td(perfmon, prior)
        status = init_event_filters(td, filtering, count, entries, count_first)
        if not (filtering and perfmon) or 0 <= count <= len(entries):
            want = _reference_init_event_filters(reference, filtering, count, entries, count_first)
        elif count < 0:
            # The reference stored a negative count; the one loop refuses it.
            want = S.with_operand(S.TDX_EVENT_FILTER_INVALID, 0)
        else:
            # Past the list the reference raised; the array's missing entries read as zero.
            padded = entries + [0] * MAX_EVENT_FILTERS
            want = _reference_init_event_filters(reference, filtering, count, padded, count_first)
        assert status == want
        assert (td.event_filters, td.event_filters_num) == (
            reference.event_filters, reference.event_filters_num)

    check()


# --- KOT --------------------------------------------------------------------------------

def test_vulnerable_sys_config_leaks_reservations():
    kot = Kot(8)
    for hkid in range(8):
        status = sys_config_reserve_hkid(kot, hkid, [0x1001], True)
        assert status == S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_RCX)
    assert kot.free_count() == 0
    assert all(state is KotState.HKID_RESERVED for state in kot.states)


def test_fixed_sys_config_conserves_free_count():
    kot = Kot(8)
    for hkid in range(8):
        sys_config_reserve_hkid(kot, hkid, [0x1001], False)
        assert kot.free_count() == 8
    status = sys_config_reserve_hkid(kot, 3, [0x1000], False)
    assert status == S.TDX_SUCCESS
    assert kot.states[3] is KotState.HKID_RESERVED
    assert kot.free_count() == 7


def test_reserving_taken_hkid_fails():
    kot = Kot(4)
    assert sys_config_reserve_hkid(kot, 1, [], False) == S.TDX_SUCCESS
    status = sys_config_reserve_hkid(kot, 1, [], False)
    assert S.status_class(status) == S.TDX_HKID_NOT_FREE


_TDMR_ADDRESSES = st.integers(-2**65, 2**65) | st.integers(-2**56, 2**56).map(
    lambda page: page * TDMR_ENTRY_ALIGNMENT)


@settings(max_examples=100, deadline=None)
@given(address=_TDMR_ADDRESSES, bug8=st.booleans())
# Aligned, but outside 64 bits: both once answered TDX_SUCCESS and kept the HKID.
@example(address=TDMR_ENTRY_ALIGNMENT | 1 << 64, bug8=False)
@example(address=-TDMR_ENTRY_ALIGNMENT, bug8=False)
@example(address=-TDMR_ENTRY_ALIGNMENT, bug8=True)
def test_sys_config_admits_only_aligned_64_bit_tdmr_entries(address, bug8):
    """Any other entry answers OPERAND_INVALID naming RCX, as a misaligned one does: the fixed
    error path frees the HKID, bug-8's leaks it."""
    m = TdxModule(EngineMode(bug8=bug8))
    admitted = 0 <= address < 1 << 64 and address % TDMR_ENTRY_ALIGNMENT == 0
    refused = S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_RCX)
    assert m.tdh_sys_config(1, [TDMR_ENTRY_ALIGNMENT, address]) == (
        S.TDX_SUCCESS if admitted else refused)
    assert m.kot.states[1] is (KotState.HKID_RESERVED if admitted or bug8 else KotState.HKID_FREE)


@given(hkid=st.integers(-2**64, 2**64), taken=st.sets(st.integers(0, 7)),
       state=st.sampled_from([KotState.HKID_RESERVED, KotState.HKID_ASSIGNED]))
def test_claim_moves_only_a_free_hkid_of_the_table(hkid, taken, state):
    kot = Kot(8)
    other = KotState.HKID_ASSIGNED if state is KotState.HKID_RESERVED else KotState.HKID_RESERVED
    for i in taken:  # the state not drawn: a claim that overwrote a taken entry shows
        kot.states[i] = other
    before = list(kot.states)
    claimed = kot.claim(hkid, state)
    assert claimed == (0 <= hkid < 8 and hkid not in taken)
    if claimed:
        before[hkid] = state
    assert kot.states == before


# --- binding handles ----------------------------------------------------------------------

def test_zero_handle():
    assert make_binding_handle(0, 0, 0) == 0
    assert break_binding_handle(0, 0) == (0, 0)


def test_handle_pair_from_published_transcript():
    # The toolkit transcript pair; the oracle is plain modular arithmetic.
    handle = 0xE3029DCE5AF581D9
    uuid_q0 = 0x1F1308F0811D80BB
    raw = (handle - uuid_q0) % 2**64
    expected = ((raw >> 12) & (2**40 - 1), raw & 0xFFF)
    assert expected == (0xF94DDD9D80, 0x11E)
    assert break_binding_handle(handle, uuid_q0) == expected
    rebuilt = make_binding_handle(expected[1], expected[0], uuid_q0)
    assert break_binding_handle(rebuilt, uuid_q0) == expected


@given(
    st.integers(min_value=0, max_value=2**12 - 1),
    st.integers(min_value=0, max_value=2**40 - 1),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_make_break_inverse(slot, tdr_page, uuid_q0):
    handle = make_binding_handle(slot, tdr_page, uuid_q0)
    assert break_binding_handle(handle, uuid_q0) == (tdr_page, slot)


def test_make_rejects_out_of_range():
    with pytest.raises(ValueError):
        make_binding_handle(1 << 12, 0, 0)
    with pytest.raises(ValueError):
        make_binding_handle(0, 1 << 40, 0)


# --- import sink ---------------------------------------------------------------------------

def test_sink_special_handlers_validate(catalog):
    td = _fresh_td()
    sink = TdImportSink(td, gpa_checks=False)
    attrs = catalog.by_name(MD_CTX_TD, "ATTRIBUTES")
    assert sink.write_field(attrs, 0, [ATTR_DEBUG], 2**64 - 1) == \
        S.TDX_METADATA_FIELD_VALUE_NOT_VALID
    assert sink.write_field(attrs, 0, [ATTR_MIGRATABLE], 2**64 - 1) == S.TDX_SUCCESS
    assert td.attributes & ATTR_MIGRATABLE

    tsc = catalog.by_name(MD_CTX_TD, "TSC_FREQUENCY")
    assert sink.write_field(tsc, 0, [401], 2**64 - 1) == S.TDX_METADATA_FIELD_VALUE_NOT_VALID
    assert sink.write_field(tsc, 0, [100], 2**64 - 1) == S.TDX_SUCCESS

    vcpus = catalog.by_name(MD_CTX_TD, "NUM_VCPUS")
    assert sink.write_field(vcpus, 0, [0], 2**64 - 1) == S.TDX_METADATA_FIELD_VALUE_NOT_VALID

    hp = catalog.by_name(MD_CTX_TD, "HP_LOCK_TIMEOUT")
    assert sink.write_field(hp, 0, [9_999], 2**64 - 1) == S.TDX_METADATA_FIELD_VALUE_NOT_VALID
    assert sink.write_field(hp, 0, [10_000], 2**64 - 1) == S.TDX_SUCCESS


def test_sink_xcr0_requires_x87(catalog):
    from tdxmodel.td import VcpuState

    td = _fresh_td()
    td.vps.append(VcpuState())
    sink = TdImportSink(td, vp_index=0, gpa_checks=False)
    xcr0 = catalog.by_name(MD_CTX_VP, "XCR0")
    assert sink.write_field(xcr0, 0, [0x6], 2**64 - 1) == S.TDX_METADATA_FIELD_VALUE_NOT_VALID
    assert sink.write_field(xcr0, 0, [0x7], 2**64 - 1) == S.TDX_SUCCESS


def test_sink_accounting_feeds_required_check(catalog):
    from tdxmodel.catalog import MigClass

    td = _fresh_td()
    sink = TdImportSink(td, gpa_checks=False)
    missing = td.missing_required(catalog, {MD_CTX_TD}, {MigClass.MB}, None)
    names = {e.name for e in missing}
    assert "EPTP" in names and "ATTRIBUTES" in names
    attrs = catalog.by_name(MD_CTX_TD, "ATTRIBUTES")
    sink.write_field(attrs, 0, [ATTR_MIGRATABLE], 2**64 - 1)
    missing = td.missing_required(catalog, {MD_CTX_TD}, {MigClass.MB}, None)
    assert "ATTRIBUTES" not in {e.name for e in missing}


def test_a_sink_stores_into_the_tds_current_list_and_ledger(catalog):
    """One sink, one entry, two calls; between them the TD's lists are replaced, as
    tdh_mng_init's rollback replaces them, and so is its ledger.  Each call's store
    lands in the lists and the ledger the TD holds at that call."""
    td = _fresh_td()
    sink = TdImportSink(td, gpa_checks=False)
    for name in ("TD_EPOCH", "MIG_DEC_KEY"):  # a plain entry, and a special one with no rule
        entry = catalog.by_name(MD_CTX_TD, name)
        span = range(entry.code_span)
        for value in (1, 2):
            td.td_store.update({k: list(v) for k, v in td.td_store.items()})
            td.import_written = {}
            assert sink.write_fields(entry, 0, [value] * len(span), U64) == (S.TDX_SUCCESS, 1)
            assert td.read_values(entry) == [value] * len(span)
            assert td.import_written == {td.ledger_key(entry, None): set(span)}
    assert td.mig_dec_key_set and td.session_key == MigrationSessionKey.from_quadwords([2] * 4)


def test_snapshot_mentions_key_fields():
    td = _fresh_td()
    td.attributes = ATTR_DEBUG
    text = td.snapshot()
    assert "op_state: UNINITIALIZED" in text
    assert "(debug)" in text


def test_fixed_mode_filter_store_always_sorted_under_random_calls():
    rng = random.Random(0x3F)
    for _ in range(40):
        td = _perfmon_td()
        for _ in range(rng.randrange(1, 6)):
            count = rng.randrange(0, MAX_EVENT_FILTERS)
            filters = [
                EventFilter(
                    event_select=rng.randrange(0x100),
                    umask=rng.randrange(0x200),          # sometimes illegal
                    negative=rng.randrange(2),
                ).raw
                for _ in range(count)
            ]
            status = init_event_filters(td, rng.random() < 0.9, count, filters, False)
            audit = audit_event_filters(td)
            assert audit["sorted"]
            if status != S.TDX_SUCCESS:
                assert td.event_filters_num == 0


# --- the entry-bound import sink against the per-element reference ---------------------

U64 = 2**64 - 1


class _ReferenceImportSink:
    """The per-element TdImportSink the entry-bound one replaced, kept as its oracle.

    Every element is read and stored through the TD's generic accessors, and
    every field is checked by name through one if/elif chain.  With is_import
    False it is the oracle of tdh_mng_wr's element write (write_elements).
    """

    def __init__(self, td, is_import=True, vp_index=None, gpa_checks=False):
        self.td = td
        self.is_import = is_import
        self.vp_index = vp_index
        self.gpa_checks = gpa_checks
        self.track = is_import

    def write_field(self, entry, field_index, values, combined_mask):
        return self.write_elements(entry, field_index * entry.num_of_elem, values, combined_mask)

    def write_elements(self, entry, base, values, combined_mask):
        masked = [v & combined_mask for v in values]
        status = self._special_check(entry, masked)
        if status != S.TDX_SUCCESS:
            return status
        for k, value in enumerate(masked):
            if entry.special_wr_handling:
                new_value = value
            else:
                old = self.td.read_element(entry, base + k, self.vp_index)
                new_value = (value & combined_mask) | (old & ~combined_mask & U64)
            self.td.write_element_raw(entry, base + k, new_value, self.vp_index)
            if self.track:
                key = (entry.context_code, self.vp_index or 0, entry.class_code, entry.field_code)
                self.td.import_written.setdefault(key, set()).add(base + k)
        return S.TDX_SUCCESS

    def record_skip(self, entry, field_index):
        if self.track:
            key = (entry.context_code, self.vp_index or 0, entry.class_code, entry.field_code)
            self.td.import_written.setdefault(key, set())

    def _special_check(self, entry, values):
        if entry.gpa_private and self.is_import and self.gpa_checks:
            for value in values:
                if not check_gpa_validity(value, self.td.gpaw):
                    return S.TDX_METADATA_FIELD_VALUE_NOT_VALID
        if not entry.special_wr_handling:
            return S.TDX_SUCCESS
        name, value, bad = entry.name, values[0], S.TDX_METADATA_FIELD_VALUE_NOT_VALID
        if name == "ATTRIBUTES":
            if not verify_td_attributes(value, self.is_import):
                return bad
        elif name == "XFAM":
            if not check_xfam(value):
                return bad
        elif name == "EPTP":
            # The walk-level rule, which the reference EPTP check predates.
            if EptpControls.from_raw(value).ept_pwl not in (LVL_PML4, LVL_PML5):
                return bad
            if not _reference_verify_and_set_td_eptp_controls(self.td, self.td.gpaw,
                                                              EptpControls.from_raw(value)):
                return bad
            values[0] = self.td.eptp_raw
        elif name == "NUM_VCPUS":
            if not 0 < value <= MAX_VCPUS_PER_TD:
                return bad
        elif name == "TSC_FREQUENCY":
            if not VIRT_TSC_FREQUENCY_MIN <= value <= VIRT_TSC_FREQUENCY_MAX:
                return bad
        elif name == "HP_LOCK_TIMEOUT":
            if not MIN_HP_LOCK_TIMEOUT_USEC <= value <= MAX_HP_LOCK_TIMEOUT_USEC:
                return bad
        elif name == "XCR0":
            if not value & XCR0_X87:
                return bad
        elif name == "GPAW":
            if value not in (0, 1):
                return bad
        return S.TDX_SUCCESS


# Values that pass some field's check, so walks go past the checked fields.
_FIELD_VALUES = st.one_of(
    st.sampled_from([
        0, 1, XFAM_FIXED1, 0x7, 100, 10_000, ATTR_MIGRATABLE, ATTR_MIGRATABLE | ATTR_DEBUG,
        EptpControls(ept_pwl=LVL_PML4, base_pa=0x55).raw, EptpControls(ept_pwl=LVL_PML5).raw,
        1 << 47, 1 << 51, U64,
    ]),
    st.integers(0, U64),
)


@st.composite
def _metadata_list(draw, catalog, ctx):
    """Honest sequences over the catalog with values that pass checks; sometimes a lying size."""
    body = b""
    count = 0
    for _ in range(draw(st.integers(0, 5))):
        entry = draw(st.sampled_from(catalog.entries_for(ctx)))
        index = draw(st.integers(0, entry.num_of_fields - 1))
        num_fields = draw(st.integers(1, 10))
        wmv = draw(st.booleans())
        header = md.MdFieldId(
            field_code=entry.field_code + index * entry.num_of_elem,
            last_element_in_field=entry.num_of_elem - 1,
            last_field_in_sequence=num_fields - 1,
            write_mask_valid=int(wmv),
            context_code=ctx,
            class_code=entry.class_code,
        ).to_raw()
        elements = 0
        walked, field = entry, index
        for _ in range(num_fields):
            elements += walked.num_of_elem
            field += 1
            if field == walked.num_of_fields:
                walked, field = catalog.next_entry_after(ctx, walked), 0
                if walked is None:
                    break
        values = draw(st.lists(_FIELD_VALUES, min_size=elements, max_size=elements))
        if wmv:
            values.insert(0, draw(st.sampled_from([0, U64, entry.import_mask, 0xFFFF_0000])
                                  | st.integers(0, U64)))
        seq = md.MdSequence(header, values).to_bytes()
        if len(body) + len(seq) > md.LIST_BYTES - md.LIST_HEADER_BYTES:
            break
        body += seq
        count += 1
    exact = md.LIST_HEADER_BYTES + len(body)
    size = draw(st.just(exact) | st.integers(0, 0xFFFF))
    header = md.MdListHeader(list_buff_size=size, num_sequences=count)
    return (header.to_bytes() + body).ljust(md.LIST_BYTES, b"\x00")


@st.composite
def _direct_writes(draw, catalog, ctx):
    """Sink calls made outside a walk: (entry, field index, values, mask, run).

    A call with ``run`` False is one ``write_field``; with ``run`` True it is a
    ``write_fields`` run of whole fields, which the reference takes field by field.
    """
    writes = []
    for _ in range(draw(st.integers(1, 6))):
        entry = draw(st.sampled_from(catalog.entries_for(ctx)))
        field_index = draw(st.integers(0, entry.num_of_fields - 1))
        run = draw(st.booleans())
        if run:
            length = draw(st.integers(1, min(24, entry.num_of_fields - field_index))) * entry.num_of_elem
        else:
            length = draw(st.sampled_from([1, entry.num_of_elem]))
        values = draw(st.lists(_FIELD_VALUES, min_size=length, max_size=length))
        combined = draw(st.sampled_from([U64, entry.import_mask or U64]) | st.integers(1, U64))
        writes.append((entry, field_index, values, combined, run))
    return writes


@st.composite
def _sink_cases(draw, catalog):
    """(gpa_checks, gpaw, ops): each op is a walk or a run of direct writes."""
    ops = []
    for _ in range(draw(st.integers(1, 3))):
        ctx = draw(st.sampled_from([MD_CTX_TD, MD_CTX_VP]))
        if draw(st.integers(0, 3)):
            ops.append(("walk", ctx, draw(_metadata_list(catalog, ctx))))
        else:
            ops.append(("write", ctx, draw(_direct_writes(catalog, ctx))))
    return draw(st.booleans()), draw(st.booleans()), ops


def _sink_td(gpaw):
    td = _fresh_td()
    td.gpaw = int(gpaw)
    td.vps.append(VcpuState())
    return td


def _run_sink_case(sink_cls, catalog, mode, case):
    gpa_checks, gpaw, ops = case
    td = _sink_td(gpaw)
    outcomes = []
    for op, ctx, payload in ops:
        sink = sink_cls(td, vp_index=0 if ctx == MD_CTX_VP else None, gpa_checks=gpa_checks)
        if op == "walk":
            result = md.write_list(catalog, ctx, md.MD_FIELD_ID_NA, md.ParseArena(payload),
                                   sink, mode)
            outcomes.append(result)
        else:
            for entry, field_index, values, combined, run in payload:
                if run:  # the sink's own run call, or the per-field default
                    write_run = getattr(type(sink), "write_fields", md.write_fields)
                    outcomes.append(write_run(sink, entry, field_index, list(values), combined))
                else:
                    outcomes.append(sink.write_field(entry, field_index, list(values), combined))
    return outcomes, td.digest()


def _eptp_list():
    eptp = EptpControls(ept_pwl=LVL_PML4, base_pa=0x55).raw
    seq = md.MdSequence(md.make_sequence_header(MD_CTX_TD, 0x11, 0x4), [eptp])
    return md.build_list([seq]).to_bytes()


def _refused_attributes_list():
    seq = md.MdSequence(md.make_sequence_header(MD_CTX_TD, 0x11, 0x0),
                        [ATTR_MIGRATABLE | ATTR_DEBUG])
    return md.build_list([seq]).to_bytes()


def _masked_run_lists(catalog):
    """Two VP walks over fields 0-3 of one plain entry: all ones, then under mask 0xFFFF_0000."""
    entry = catalog.by_name(MD_CTX_VP, "L2_MSR_BITMAPS")
    walks = []
    for mask in (None, 0xFFFF_0000):
        header = md.make_sequence_header(MD_CTX_VP, entry.class_code, entry.field_code,
                                         num_fields=4, write_mask_valid=mask is not None)
        values = [0x1234_5678_9ABC_DEF0 + i for i in range(4)] if mask else [U64] * 4
        seq = md.MdSequence(header, values if mask is None else [mask, *values])
        walks.append(("walk", MD_CTX_VP, md.build_list([seq]).to_bytes()))
    return walks


def _replay_runs(catalog):
    """The replay workload's heavy runs, whole: XBUFF's 1,536 fields and X2APIC_IDS' 576.

    Each entry is written all ones, then again under a partial mask: XBUFF has
    special write handling and drops the bits outside the mask, X2APIC_IDS keeps them.
    """
    ops = []
    for ctx, name in ((MD_CTX_VP, "XBUFF"), (MD_CTX_TD, "X2APIC_IDS")):
        entry = catalog.by_name(ctx, name)
        masked = [0x1234_5678_9ABC_DEF0 + i for i in range(entry.num_of_fields)]
        ops.append(("write", ctx, [(entry, 0, [U64] * entry.num_of_fields, U64, True),
                                   (entry, 0, masked, 0xFFFF_0000, True)]))
    return ops


def _gpa_refused_mid_run(catalog):
    """bug-9's refusal inside a run: the sixth of eight fields holds a GPA above the guest width.

    No shipped entry with checks has more than one field, so a private-GPA copy
    of X2APIC_IDS stands in, written under a partial mask so the kept bits count.
    """
    vapic = catalog.by_name(MD_CTX_VP, "L2_VAPIC_GPA")
    entry = dataclasses.replace(catalog.by_name(MD_CTX_TD, "X2APIC_IDS"), attributes=vapic.attributes)
    assert entry.gpa_private
    values = [0x1000 * (i + 1) for i in range(8)]
    values[5] = 0xFFFF_8000_0000_0000
    return [("write", MD_CTX_TD, [(entry, 0, [0x7FFF_FFFF_FFFF] * 8, U64, True),
                                  (entry, 0, values, 0xFFFF_FFFF_0000_0000 | 0xF000, True)])]


def _bug9_walk(catalog):
    """bug-9's walk: an XBUFF run, then L2_VAPIC_GPA holding a GPA above the guest width."""
    xbuff = catalog.by_name(MD_CTX_VP, "XBUFF")
    vapic = catalog.by_name(MD_CTX_VP, "L2_VAPIC_GPA")
    seqs = [
        md.MdSequence(md.make_sequence_header(MD_CTX_VP, xbuff.class_code, xbuff.field_code,
                                              num_fields=300), list(range(300))),
        md.MdSequence(md.make_sequence_header(MD_CTX_VP, vapic.class_code, vapic.field_code),
                      [0xFFFF_8000_0000_0000]),
    ]
    return [("walk", MD_CTX_VP, md.build_list(seqs).to_bytes())]


def _mask_slot_run(catalog):
    """A 400-field XBUFF sequence with a partial write mask: a mask-slot run in the pre-fix placement."""
    xbuff = catalog.by_name(MD_CTX_VP, "XBUFF")
    header = md.make_sequence_header(MD_CTX_VP, xbuff.class_code, xbuff.field_code,
                                     num_fields=400, write_mask_valid=True)
    seq = md.MdSequence(header, [0xFFFF_0000] + [0x1111_2222_3333_4444 * (i % 7) for i in range(400)])
    return [("walk", MD_CTX_VP, md.build_list([seq]).to_bytes())]


_WALK_MODES = [WriteMode(*flags) for flags in itertools.product([False, True], repeat=2)]


@pytest.mark.parametrize("mode", _WALK_MODES)
def test_entry_bound_sink_matches_per_element_reference(catalog, mode):
    @settings(max_examples=40, deadline=None)
    @given(case=_sink_cases(catalog))
    # EPTP is stored as re-rooted by its check, not masked again.
    @example(case=(True, False, [("walk", MD_CTX_TD, _eptp_list())]))
    # A refused field leaves no written-position entry behind.
    @example(case=(False, False, [("walk", MD_CTX_TD, _refused_attributes_list())]))
    # A run of one plain entry under a partial mask keeps each field's bits outside it.
    @example(case=(False, False, _masked_run_lists(catalog)))
    # A special-handling entry with no checks, after a plain one, drops the bits outside the mask.
    @example(case=(False, False, [("write", MD_CTX_TD, [
        (catalog.by_name(MD_CTX_TD, "TD_EPOCH"), 0, [U64], U64, False),
        (catalog.by_name(MD_CTX_TD, "MIG_DEC_KEY"), 0, [U64] * 4, U64, False),
        (catalog.by_name(MD_CTX_TD, "MIG_DEC_KEY"), 0, [0x1234, 1, 2, 3], 0xFFFF_0000, False),
    ])]))
    # The replay shapes: whole 1,536- and 576-field runs under a partial mask; a
    # GPA refused inside a run, and in a walk after an XBUFF run (bug-9), each
    # with and without the checks; and a pre-fix mask-slot run.
    @example(case=(False, False, _replay_runs(catalog)))
    @example(case=(True, False, _gpa_refused_mid_run(catalog)))
    @example(case=(False, False, _gpa_refused_mid_run(catalog)))
    @example(case=(True, False, _bug9_walk(catalog)))
    @example(case=(False, False, _bug9_walk(catalog)))
    @example(case=(False, False, _mask_slot_run(catalog)))
    def check(case):
        expected = _run_sink_case(_ReferenceImportSink, catalog, mode, case)
        assert _run_sink_case(TdImportSink, catalog, mode, case) == expected

    check()


# --- tdh_mng_wr: the addressed element, admitted through the rule table ---------------------

@pytest.fixture(scope="module")
def writable_catalog(catalog):
    """The shipped catalog with every TD entry's host write masks set; the shipped ones are zero."""
    return FieldCatalog([
        dataclasses.replace(e, prod_wr_mask=U64, dbg_wr_mask=U64) if ctx == MD_CTX_TD else e
        for ctx in (MD_CTX_SYS, MD_CTX_TD, MD_CTX_VP) for e in catalog.entries_for(ctx)
    ])


def _mng_wr_td(catalog):
    """A built RUNNABLE TD, and its module reading ``catalog``."""
    m = TdxModule(seed=5)
    m.catalog = catalog
    status, td = m.build_td(TdParams(attributes=ATTR_MIGRATABLE), num_vcpus=1, num_pages=1)
    assert status == S.TDX_SUCCESS
    return m, td


def test_mng_wr_writes_the_addressed_element(writable_catalog):
    m, td = _mng_wr_td(writable_catalog)
    td_uuid = writable_catalog.by_name(MD_CTX_TD, "TD_UUID")
    virtual_tsc = writable_catalog.by_name(MD_CTX_TD, "VIRTUAL_TSC")
    before = list(td.td_uuid)
    assert m.tdh_mng_wr(td, td_uuid.field_id_for(0) + 2, 0xAB) == S.TDX_SUCCESS
    assert td.td_uuid == [*before[:2], 0xAB, before[3]]
    assert m.tdh_mng_rd(td, td_uuid.field_id_for(0) + 2) == (S.TDX_SUCCESS, [0xAB])
    before = [td.read_element(virtual_tsc, k) for k in range(2)]
    assert m.tdh_mng_wr(td, virtual_tsc.field_id_for(0) + 1, 0xCD) == S.TDX_SUCCESS
    assert [td.read_element(virtual_tsc, k) for k in range(2)] == [before[0], 0xCD]


def test_mng_wr_partial_mask_keeps_plain_bits_and_clears_special_ones(writable_catalog):
    m, td = _mng_wr_td(writable_catalog)
    epoch = writable_catalog.by_name(MD_CTX_TD, "TD_EPOCH")
    key = writable_catalog.by_name(MD_CTX_TD, "MIG_DEC_KEY")
    for entry in (epoch, key):
        assert m.tdh_mng_wr(td, entry.field_id_for(0), U64) == S.TDX_SUCCESS
        assert m.tdh_mng_wr(td, entry.field_id_for(0), 0x1234_5678, 0xFFFF_0000) == S.TDX_SUCCESS
    assert td.read_element(epoch, 0) == 0xFFFF_FFFF_1234_FFFF
    assert td.read_element(key, 0) == 0x1234_0000
    # A ruled field is admitted as masked: 100 passes the TSC rule, and EPTP is re-rooted.
    tsc = writable_catalog.by_name(MD_CTX_TD, "TSC_FREQUENCY")
    assert m.tdh_mng_wr(td, tsc.field_id_for(0), (1 << 32) | 100, 0xFFFF) == S.TDX_SUCCESS
    assert td.tsc_frequency == 100
    eptp = writable_catalog.by_name(MD_CTX_TD, "EPTP")
    raw = EptpControls(ept_pwl=LVL_PML5, base_pa=0x55).raw
    assert m.tdh_mng_wr(td, eptp.field_id_for(0), raw) == S.TDX_SUCCESS
    assert EptpControls.from_raw(td.eptp_raw) == EptpControls(ept_pwl=LVL_PML5,
                                                              base_pa=td.sept_root_pa)


def test_mng_wr_refused_value_changes_nothing(writable_catalog):
    m, td = _mng_wr_td(writable_catalog)
    for name, value in (("HP_LOCK_TIMEOUT", MIN_HP_LOCK_TIMEOUT_USEC - 1),
                        ("ATTRIBUTES", ATTR_MIGRATABLE | ATTR_DEBUG), ("TSC_FREQUENCY", 0)):
        before, op_state = m.digest(), td.op_state
        entry = writable_catalog.by_name(MD_CTX_TD, name)
        status = m.tdh_mng_wr(td, entry.field_id_for(0), value)
        assert status == S.TDX_METADATA_FIELD_VALUE_NOT_VALID, name
        assert m.digest() == before
        assert (m.last.status, m.last.after, td.op_state) == (status, op_state, op_state)


def test_mng_wr_takes_the_debug_write_mask_on_a_debug_td(catalog):
    epoch = catalog.by_name(MD_CTX_TD, "TD_EPOCH")
    for prod, dbg in ((U64, 0), (0, U64)):
        m = TdxModule(seed=5)
        m.catalog = FieldCatalog([dataclasses.replace(e, prod_wr_mask=prod, dbg_wr_mask=dbg)
                                  if e is epoch else e for ctx in (MD_CTX_SYS, MD_CTX_TD, MD_CTX_VP)
                                  for e in catalog.entries_for(ctx)])
        for debug in (False, True):
            status, td = m.build_td(TdParams(attributes=ATTR_DEBUG if debug else ATTR_MIGRATABLE))
            assert status == S.TDX_SUCCESS
            want = S.TDX_SUCCESS if (dbg if debug else prod) else S.TDX_METADATA_FIELD_NOT_WRITABLE
            assert m.tdh_mng_wr(td, epoch.field_id_for(0), 1) == want, (prod, dbg, debug)


def test_mng_wr_marks_key_quadwords_and_records_no_import(writable_catalog):
    m, td = _mng_wr_td(writable_catalog)
    key = writable_catalog.by_name(MD_CTX_TD, "MIG_DEC_KEY")
    assert not td.mig_dec_key_set
    for i in range(4):
        assert m.tdh_mng_wr(td, key.field_id_for(0) + i, i + 1) == S.TDX_SUCCESS
        assert td._mig_dec_key_written == set(range(i + 1))
    assert td.session_key == MigrationSessionKey.from_quadwords([1, 2, 3, 4])
    assert td.import_written == {}


def _reference_mng_wr(td, entry, position, value, mask):
    """tdh_mng_wr's write of one element, through the per-element reference."""
    wr_mask = entry.dbg_wr_mask if td.attributes & ATTR_DEBUG else entry.prod_wr_mask
    if mask & wr_mask == 0:
        return S.TDX_METADATA_FIELD_NOT_WRITABLE
    sink = _ReferenceImportSink(td, is_import=False)
    return sink.write_elements(entry, position, [value], mask & wr_mask)


@st.composite
def _host_writes(draw, catalog):
    """tdh_mng_wr calls, by entry name: (name, element position, value, mask)."""
    writes = []
    for _ in range(draw(st.integers(1, 6))):
        entry = draw(st.sampled_from(catalog.entries_for(MD_CTX_TD)))
        position = draw(st.integers(0, entry.code_span - 1))
        mask = draw(st.sampled_from([U64, 0xFFFF_0000, entry.import_mask, 0]) | _U64S)
        writes.append((entry.name, position, draw(_FIELD_VALUES), mask))
    return writes


def test_mng_wr_matches_the_per_element_reference(writable_catalog):
    @settings(max_examples=100, deadline=None)
    @given(writes=_host_writes(writable_catalog))
    # A host write still marks the session key's quadwords.
    @example(writes=[("MIG_DEC_KEY", 0, 0x1234, U64)])
    # A one-value write under a partial mask keeps the stored bits outside it.
    @example(writes=[("TD_EPOCH", 0, U64, U64), ("TD_EPOCH", 0, 0x1234, 0xFFFF_0000)])
    def check(writes):
        (m, td), (_, reference) = _mng_wr_td(writable_catalog), _mng_wr_td(writable_catalog)
        for name, position, value, mask in writes:
            entry = writable_catalog.by_name(MD_CTX_TD, name)
            want = _reference_mng_wr(reference, entry, position, value, mask)
            assert m.tdh_mng_wr(td, entry.field_id_for(0) + position, value, mask) == want
        assert td.td_store == reference.td_store
        assert td._mig_dec_key_written == reference._mig_dec_key_written
        assert td.import_written == reference.import_written == {}

    check()


# --- the import ledger's required-field rule against the separate skip set ------------------

def _reference_missing(catalog, written, skipped, context_codes, kinds, vp_index):
    """bug-2's required-field rule as it stood with skips in their own set, kept as the oracle.

    ``written`` maps (context, vp, class, field code) to the positions
    written; ``skipped`` holds (context, vp, class, field code, field index)
    per zero-mask skip.
    """
    def fully_written(entry):
        key = (entry.context_code, vp_index or 0, entry.class_code, entry.field_code)
        return len(written.get(key, ())) == entry.code_span

    missing = []
    for ctx in sorted(context_codes):
        classes_present = {
            key[2] for key in written if key[0] == ctx and key[1] == (vp_index or 0)
        } | {
            item[2] for item in skipped if item[0] == ctx and item[1] == (vp_index or 0)
        }
        required = catalog.required_import_entries(ctx, kinds, classes_present)
        missing.extend(e for e in required if not fully_written(e))
    return missing


# A value each checked field accepts on import; every other field takes it too.
_ACCEPTED = {
    "ATTRIBUTES": ATTR_MIGRATABLE, "XFAM": XFAM_FIXED1, "EPTP": EptpControls(ept_pwl=LVL_PML4).raw,
    "NUM_VCPUS": 1, "TSC_FREQUENCY": 100, "HP_LOCK_TIMEOUT": 1_000_000, "XCR0": 0x7,
}


@st.composite
def _ledger_cases(draw, catalog):
    """(ops, query): field writes and zero-mask skips through sinks of vp None, 0 or 1."""
    ops = []
    if draw(st.booleans()):
        # Write most entries of one scope in full, so some queries find nothing missing.
        vp = draw(st.sampled_from([None, 0, 1]))
        contexts = [MD_CTX_SYS, MD_CTX_TD] + ([MD_CTX_VP] if vp is not None else [])
        entries = [e for ctx in contexts for e in catalog.entries_for(ctx)]
        left_out = draw(st.sets(st.sampled_from(entries), max_size=2))
        for entry in entries:
            if entry not in left_out:
                values = [_ACCEPTED.get(entry.name, 0)] * entry.code_span
                ops.append(("write", entry, 0, values, vp))
    for _ in range(draw(st.integers(0, 8))):
        ctx = draw(st.sampled_from([MD_CTX_SYS, MD_CTX_TD, MD_CTX_VP]))
        entry = draw(st.sampled_from(catalog.entries_for(ctx)))
        field_index = draw(st.integers(0, entry.num_of_fields - 1))
        vp = draw(st.sampled_from([0, 1] if ctx == MD_CTX_VP else [None, 0, 1]))
        if draw(st.booleans()):
            ops.append(("skip", entry, field_index, None, vp))
        else:
            length = draw(st.sampled_from([1, entry.num_of_elem]))
            value = draw(st.just(_ACCEPTED.get(entry.name, 0)) | _FIELD_VALUES)
            ops.append(("write", entry, field_index, [value] * length, vp))
    contexts = draw(st.sets(st.sampled_from([MD_CTX_SYS, MD_CTX_TD, MD_CTX_VP]), min_size=1))
    kinds = draw(st.sampled_from([frozenset({MigClass.MB}), frozenset({MigClass.ME})]))
    return ops, (contexts, kinds, draw(st.sampled_from([None, 0, 1])))


def _ledger_td():
    td = _sink_td(False)
    td.vps.append(VcpuState())
    return td


def test_missing_required_matches_separate_skip_set_rule(catalog):
    x2apic = catalog.by_name(MD_CTX_TD, "X2APIC_IDS")
    td_uuid = catalog.by_name(MD_CTX_TD, "TD_UUID")
    attrs = catalog.by_name(MD_CTX_TD, "ATTRIBUTES")
    mb_td = ({MD_CTX_TD}, frozenset({MigClass.MB}), None)

    @settings(max_examples=150, deadline=None)
    @given(case=_ledger_cases(catalog))
    # A skipped X2APIC field makes its class present, so X2APIC_IDS (MBO) is required.
    @example(case=([("skip", x2apic, 3, None, None)], mb_td))
    # vp_index None and 0 share one ledger.
    @example(case=([("write", attrs, 0, [ATTR_MIGRATABLE], None)],
                   ({MD_CTX_TD}, frozenset({MigClass.MB}), 0)))
    # A partly written TD_UUID is still missing.
    @example(case=([("write", td_uuid, 0, [7, 7], None)], mb_td))
    def check(case):
        ops, (contexts, kinds, vp_index) = case
        td = _ledger_td()
        sinks = {vp: TdImportSink(td, vp_index=vp, gpa_checks=False) for vp in (None, 0, 1)}
        written, skipped = {}, set()
        for op, entry, field_index, values, vp in ops:
            key = (entry.context_code, vp or 0, entry.class_code, entry.field_code)
            if op == "skip":
                sinks[vp].record_skip(entry, field_index)
                skipped.add(key + (field_index,))
                continue
            if sinks[vp].write_field(entry, field_index, list(values), U64) == S.TDX_SUCCESS:
                base = field_index * entry.num_of_elem
                written.setdefault(key, set()).update(range(base, base + len(values)))
        want = _reference_missing(catalog, written, skipped, contexts, kinds, vp_index)
        assert td.missing_required(catalog, contexts, kinds, vp_index) == want

    check()


def test_ledger_examples_hold(catalog):
    """The differential's @examples, checked against their stated outcome."""
    mb = {MigClass.MB}
    td = _ledger_td()
    sink = TdImportSink(td, gpa_checks=False)
    sink.record_skip(catalog.by_name(MD_CTX_TD, "X2APIC_IDS"), 3)
    assert "X2APIC_IDS" in {e.name for e in td.missing_required(catalog, {MD_CTX_TD}, mb, None)}
    TdImportSink(td, gpa_checks=False).write_field(
        catalog.by_name(MD_CTX_TD, "TD_UUID"), 0, [7, 7], U64)
    for vp_index in (None, 0):
        names = {e.name for e in td.missing_required(catalog, {MD_CTX_TD}, mb, vp_index)}
        assert "TD_UUID" in names and "X2APIC_IDS" in names
    assert "X2APIC_IDS" not in {e.name for e in td.missing_required(catalog, {MD_CTX_TD}, mb, 1)}


# --- run reads on export ---------------------------------------------------------------------

class _PerFieldSource:
    """Reads one field per call, element by element, as the export source once did."""

    def __init__(self, td, vp_index=None, sys_store=None):
        self.td = td
        self.vp_index = vp_index
        self.sys_store = sys_store

    def read_field(self, entry, field_index, count=1):
        values = []
        for index in range(field_index, field_index + count):
            base = index * entry.num_of_elem
            for position in range(base, base + entry.num_of_elem):
                if entry.context_code == MD_CTX_SYS and self.sys_store is not None:
                    value = self.sys_store.get(entry.name, [0] * entry.code_span)[position]
                else:
                    value = self.td.read_element(entry, position, self.vp_index)
                values.append(value & entry.export_mask)
        return values


def _pack_per_element(mdlist):
    """List bytes with every u64 packed on its own."""
    out = mdlist.header.to_bytes()
    for seq in mdlist.sequences:
        out += seq.header_raw.to_bytes(8, "little")
        out += b"".join(value.to_bytes(8, "little") for value in seq.elements)
    return out.ljust(md.LIST_BYTES, b"\x00")


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dump_with_run_reads_matches_per_field_source(catalog, data):
    ctx = data.draw(st.sampled_from([MD_CTX_SYS, MD_CTX_TD, MD_CTX_VP]))
    exportable = [e for e in catalog.entries_for(ctx) if e.exportable]
    entries = data.draw(st.lists(st.sampled_from(exportable), unique=True, max_size=6))
    if ctx == MD_CTX_TD and data.draw(st.booleans()):
        entries.append(catalog.by_name(MD_CTX_TD, "X2APIC_IDS"))
    if ctx == MD_CTX_VP and data.draw(st.booleans()):
        entries.append(catalog.by_name(MD_CTX_VP, "XBUFF"))
    td = _sink_td(False)
    sys_store = {} if data.draw(st.booleans()) else None
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    for entry in exportable:
        if rng.random() < 0.7:
            values = [rng.getrandbits(64) for _ in range(entry.code_span)]
            if ctx == MD_CTX_SYS and sys_store is not None:
                sys_store[entry.name] = values
            else:
                td._scope_values(entry, 0)[:] = values
    vp_index = 0 if ctx == MD_CTX_VP else None
    got = md.dump_lists(ctx, entries, TdExportSource(td, vp_index, sys_store))
    want = md.dump_lists(ctx, entries, _PerFieldSource(td, vp_index, sys_store))
    assert [item.to_bytes() for item in got] == [_pack_per_element(item) for item in want]


@given(st.lists(st.integers(-1, 2**64), max_size=8), st.integers(0, 2**64 - 1))
def test_sequence_pack_matches_per_element_packer(elements, header_raw):
    seq = md.MdSequence(header_raw, elements)
    try:
        want = header_raw.to_bytes(8, "little") + b"".join(
            value.to_bytes(8, "little") for value in elements
        )
    except OverflowError:
        # A value outside 64 bits is refused as an EncodingError, which the
        # CLI reports with exit code 2 like every other ValueError.
        with pytest.raises(md.EncodingError):
            seq.to_bytes()
    else:
        assert seq.to_bytes() == want


# --- the state digest --------------------------------------------------------------------------

def test_every_name_the_digest_leaves_out_is_an_attribute_of_its_class():
    """NOT_STATE cannot go stale: a name it leaves out that its class no longer has fails here."""
    w = World(54)
    holders = {"TdxModule": w.m, "TdComplex": w.dst, "CpuidLookup": w.m.cpuid,
               "MigrationSessionKey": w.dst.session_key}
    for holder, names in NOT_STATE.items():
        for name in names:
            assert name in vars(holders[holder]), f"{holder}.{name}"


def test_the_digest_sees_a_store_no_list_names():
    """A scratch subclass's new store is in the digest, alone and in a module; its log is not."""

    class ScratchTd(TdComplex):
        def __init__(self, tdr_page, hkid):
            super().__init__(tdr_page, hkid)
            self.ledger = {}

    m = TdxModule(seed=5)
    td = m.tds[0x200] = ScratchTd(0x200, 3)
    before, alone = m.digest(), td.digest()
    td.trace.append("a step")
    assert (m.digest(), td.digest()) == (before, alone)
    td.ledger[1] = {2}
    assert [path for path, value in td.digest().items() if alone.get(path) != value] == ["ledger"]
    assert [path for path, value in m.digest().items() if before.get(path) != value] == [
        "tds[0x200].ledger"]


def test_a_read_of_a_field_never_stored_stores_nothing():
    """Reading a field no call has written answers 0 and leaves every store as it was."""
    m = TdxModule(seed=9)
    status, td = m.build_td(TdParams(attributes=ATTR_DEBUG))
    assert status == S.TDX_SUCCESS
    cr2 = m.catalog.by_name(MD_CTX_VP, "CR2")
    td_epoch = m.catalog.by_name(MD_CTX_TD, "TD_EPOCH")
    assert cr2.name not in td.vps[0].store and td_epoch.name not in td.td_store
    before = m.digest()
    assert m.tdh_vp_rd(td, 0, cr2.field_id_for(0)) == (S.TDX_SUCCESS, 0)
    assert m.tdh_mng_rd(td, td_epoch.field_id_for(0)) == (S.TDX_SUCCESS, [0])
    assert TdExportSource(td, 0).read_field(cr2, 0) == [0]
    assert m.digest() == before


def test_an_honest_vp_import_stores_each_xbuff_sequence_with_one_run_call():
    """The walk hands TdImportSink each XBUFF sequence whole, in one write_fields call.

    XBUFF's 1,536 fields span several lists, one sequence in each; no field
    goes through write_field.
    """
    w = World(28)
    xbuff = w.m.catalog.by_name(MD_CTX_VP, "XBUFF")
    bundle = w.env["bundle_vps"][0]
    headers = [md.decode_field_id(seq.header_raw)
               for seq in collect_sequences(decrypted_lists(w.env, bundle))]
    sequences = [(xbuff.field_index_of(fid.field_code), fid.num_fields) for fid in headers
                 if fid.class_code == xbuff.class_code and xbuff.covers(fid.field_code)]
    runs, fields = [], []
    write_fields, write_field = TdImportSink.write_fields, TdImportSink.write_field

    def logged_write_fields(sink, entry, first, values, combined_mask):
        if entry is xbuff:
            runs.append((first, len(values)))
        return write_fields(sink, entry, first, values, combined_mask)

    def logged_write_field(sink, entry, *args):
        fields.append(entry.name)
        return write_field(sink, entry, *args)

    with mock.patch.object(TdImportSink, "write_fields", logged_write_fields), \
            mock.patch.object(TdImportSink, "write_field", logged_write_field):
        assert w.m.tdh_import_state_vp(w.dst, 0, bundle) == S.TDX_SUCCESS
    assert fields == []
    assert runs == sequences
    assert len(runs) > 1 and sum(count for _, count in runs) == xbuff.num_of_fields
