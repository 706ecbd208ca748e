"""TD aggregate behavior: attribute checks, transactions, filters, KOT, handles."""

import random

import pytest
from hypothesis import given, strategies as st

from tdxmodel import status as S
from tdxmodel.md_codec import MD_CTX_TD, MD_CTX_VP
from tdxmodel.td import (
    ATTR_DEBUG,
    ATTR_MIGRATABLE,
    ATTR_PERFMON,
    LVL_PML4,
    LVL_PML5,
    MAX_EVENT_FILTERS,
    TYPED_TD_FIELDS,
    EptpControls,
    EventFilter,
    Kot,
    KotState,
    TdAttributes,
    TdComplex,
    TdImportSink,
    TdParams,
    audit_event_filters,
    break_binding_handle,
    check_gpa_validity,
    init_event_filters,
    is_event_allowed,
    make_binding_handle,
    missing_required_fields,
    read_and_set_td_configurations,
    sept_walk_ok,
    sys_config_reserve_hkid,
    verify_td_attributes,
)


# --- attributes -----------------------------------------------------------------

def test_migratable_import_is_legal():
    assert verify_td_attributes(TdAttributes(ATTR_MIGRATABLE), is_import=True)


def test_debug_rejected_on_import():
    assert not verify_td_attributes(TdAttributes(ATTR_DEBUG), is_import=True)


def test_debug_allowed_when_not_migratable_outside_import():
    assert verify_td_attributes(TdAttributes(ATTR_DEBUG), is_import=False)


def test_migratable_excludes_debug_and_perfmon():
    assert not verify_td_attributes(TdAttributes(ATTR_MIGRATABLE | ATTR_DEBUG), False)
    assert not verify_td_attributes(TdAttributes(ATTR_MIGRATABLE | ATTR_PERFMON), False)
    assert verify_td_attributes(TdAttributes(ATTR_MIGRATABLE), False)


# --- init transaction --------------------------------------------------------------

def _fresh_td():
    td = TdComplex(tdr_page=0x103, hkid=1)
    td.sept_root_pa = 0x104
    return td


def test_vulnerable_init_leaves_partial_state_on_xfam_failure():
    td = _fresh_td()
    td.num_vcpus = 5
    status = read_and_set_td_configurations(
        td, TdParams(attributes=ATTR_DEBUG, xfam=0), True
    )
    assert status == S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_XFAM)
    assert td.attributes.debug          # already written, never restored
    assert td.num_vcpus == 0            # zeroed before the checks


def test_fixed_init_is_transactional():
    td = _fresh_td()
    td.num_vcpus = 5
    status = read_and_set_td_configurations(
        td, TdParams(attributes=ATTR_DEBUG, xfam=0), False
    )
    assert status == S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_XFAM)
    assert td.attributes.raw == 0
    assert td.num_vcpus == 5


@pytest.mark.parametrize("mode", ["vulnerable", "fixed"])
def test_valid_params_accepted(mode):
    td = _fresh_td()
    status = read_and_set_td_configurations(td, TdParams(attributes=ATTR_MIGRATABLE), mode == "vulnerable")
    assert status == S.TDX_SUCCESS
    assert td.attributes.migratable
    assert sept_walk_ok(td)


# --- eptp ---------------------------------------------------------------------------

def test_eptp_gpaw_requires_pml5():
    from tdxmodel.td import verify_and_set_td_eptp_controls

    td = _fresh_td()
    assert not verify_and_set_td_eptp_controls(td, True, EptpControls(ept_pwl=LVL_PML4))
    assert verify_and_set_td_eptp_controls(td, False, EptpControls(ept_pwl=LVL_PML4))
    controls = EptpControls.from_raw(td.eptp_raw)
    assert controls.base_pa == td.sept_root_pa  # re-rooted at the TD's SEPT page
    assert verify_and_set_td_eptp_controls(td, True, EptpControls(ept_pwl=LVL_PML5))


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


def test_session_key_follows_every_mig_dec_key_change(catalog):
    td = _fresh_td()
    key_entry = catalog.by_name(MD_CTX_TD, "MIG_DEC_KEY")
    for i, quadword in enumerate((1, 2, 3, 4)):
        td.write_element_raw(key_entry, i, quadword)
    key = td.session_key
    assert key.to_quadwords() == [1, 2, 3, 4]
    assert td.session_key is key  # built once per key value
    td.write_element_raw(key_entry, 3, 5)
    assert td.session_key.to_quadwords() == [1, 2, 3, 5]
    td.mig_dec_key[0] = 9  # a direct store is seen too
    assert td.session_key.to_quadwords() == [9, 2, 3, 5]


# The typed property that reads each TD_store field, as a list of its quadwords.
_TYPED_VIEWS = {
    "ATTRIBUTES": lambda td: [td.attributes.raw],
    "XFAM": lambda td: [td.xfam],
    "GPAW": lambda td: [td.gpaw],
    "EPTP": lambda td: [td.eptp_raw],
    "NUM_VCPUS": lambda td: [td.num_vcpus],
    "TSC_FREQUENCY": lambda td: [td.tsc_frequency],
    "HP_LOCK_TIMEOUT": lambda td: [td.hp_lock_timeout],
    "EXPORT_COUNT": lambda td: [td.export_count],
    "TD_UUID": lambda td: list(td.td_uuid),
    "MIG_DEC_KEY": lambda td: list(td.mig_dec_key),
}


def test_typed_fields_match_the_catalog(catalog):
    assert set(_TYPED_VIEWS) == set(TYPED_TD_FIELDS)
    for name, span in TYPED_TD_FIELDS.items():
        assert catalog.by_name(MD_CTX_TD, name).code_span == span


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
    assert td.read_field(entry, 0) == expected
    assert td.mig_dec_key_set is False  # one quadword never arms the key


def test_typed_setters_write_the_store(catalog):
    td = _fresh_td()
    td.attributes = TdAttributes(ATTR_MIGRATABLE)
    td.td_uuid[:] = (1, 2, 3, 4)
    td.num_vcpus = 7
    assert td.read_element(catalog.by_name(MD_CTX_TD, "ATTRIBUTES"), 0) == ATTR_MIGRATABLE
    assert td.read_field(catalog.by_name(MD_CTX_TD, "TD_UUID"), 0) == [1, 2, 3, 4]
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
    td.attributes = TdAttributes(ATTR_PERFMON)
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


def test_filtering_requires_perfmon():
    td = _fresh_td()  # perfmon clear
    status = init_event_filters(td, True, 1, [EventFilter(event_select=1).raw], True)
    assert status == S.TDX_SUCCESS
    assert td.event_filters_num == 0


# --- KOT --------------------------------------------------------------------------------

def test_vulnerable_sys_config_leaks_reservations():
    kot = Kot(8)
    for hkid in range(8):
        status = sys_config_reserve_hkid(kot, hkid, [0x1001], True)
        assert status == S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_RCX)
    assert kot.free_count() == 0
    assert all(e.state is KotState.HKID_RESERVED for e in kot.entries)


def test_fixed_sys_config_conserves_free_count():
    kot = Kot(8)
    for hkid in range(8):
        sys_config_reserve_hkid(kot, hkid, [0x1001], False)
        assert kot.free_count() == 8
    status = sys_config_reserve_hkid(kot, 3, [0x1000], False)
    assert status == S.TDX_SUCCESS
    assert kot.entries[3].state is KotState.HKID_RESERVED
    assert kot.free_count() == 7


def test_reserving_taken_hkid_fails():
    kot = Kot(4)
    assert sys_config_reserve_hkid(kot, 1, [], False) == S.TDX_SUCCESS
    status = sys_config_reserve_hkid(kot, 1, [], False)
    assert S.status_class(status) == S.TDX_HKID_NOT_FREE


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
    sink = TdImportSink(td, catalog, is_import=True)
    attrs = catalog.by_name(MD_CTX_TD, "ATTRIBUTES")
    assert sink.write_field(attrs, 0, [ATTR_DEBUG], 2**64 - 1) == \
        S.TDX_METADATA_FIELD_VALUE_NOT_VALID
    assert sink.write_field(attrs, 0, [ATTR_MIGRATABLE], 2**64 - 1) == S.TDX_SUCCESS
    assert td.attributes.migratable

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
    td.vps.append(VcpuState(0))
    sink = TdImportSink(td, catalog, is_import=True, vp_index=0)
    xcr0 = catalog.by_name(MD_CTX_VP, "XCR0")
    assert sink.write_field(xcr0, 0, [0x6], 2**64 - 1) == S.TDX_METADATA_FIELD_VALUE_NOT_VALID
    assert sink.write_field(xcr0, 0, [0x7], 2**64 - 1) == S.TDX_SUCCESS


def test_sink_accounting_feeds_required_check(catalog):
    from tdxmodel.catalog import MigClass

    td = _fresh_td()
    sink = TdImportSink(td, catalog, is_import=True)
    missing = missing_required_fields(td, catalog, MD_CTX_TD, {MigClass.MB}, set())
    names = {e.name for e in missing}
    assert "EPTP" in names and "ATTRIBUTES" in names
    attrs = catalog.by_name(MD_CTX_TD, "ATTRIBUTES")
    sink.write_field(attrs, 0, [ATTR_MIGRATABLE], 2**64 - 1)
    missing = missing_required_fields(td, catalog, MD_CTX_TD, {MigClass.MB}, set())
    assert "ATTRIBUTES" not in {e.name for e in missing}


def test_snapshot_mentions_key_fields():
    td = _fresh_td()
    td.attributes = TdAttributes(ATTR_DEBUG)
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
