"""Catalog lookups, published masks and flags, and the CPUID next-entry search."""

from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from tdxmodel.catalog import (
    CONTEXT_NAMES,
    CPUID_CLASS_CODE,
    MAX_NUM_CPUID_LOOKUP,
    CpuidLookup,
    FieldCatalog,
    MigClass,
    bundled_catalog,
    next_cpuid_entry,
)
from tdxmodel.engine import EngineMode, TdxModule
from tdxmodel.md_codec import (
    MD_CTX_SYS,
    MD_CTX_TD,
    MD_CTX_VP,
    MD_FIELD_ID_NA,
    MdFieldId,
    decode_field_id,
)
from tdxmodel.scenarios import all_scenarios, replay

FULL = 0xFFFFFFFFFFFFFFFF
CONTEXTS = (MD_CTX_SYS, MD_CTX_TD, MD_CTX_VP)


def test_find_attributes_entry(catalog):
    entry = catalog.find_entry(MD_CTX_TD, decode_field_id(0x1110000300000000))
    assert entry.name == "ATTRIBUTES"
    assert entry.special_wr_handling is True
    assert entry.export_mask == FULL and entry.import_mask == FULL
    assert entry.mig_export is MigClass.MB and entry.mig_import is MigClass.MB


def test_find_xbuff_entry(catalog):
    entry = catalog.find_entry(MD_CTX_VP, decode_field_id(0x1220000300000000))
    assert entry.name == "XBUFF"
    assert entry.num_of_fields == 1536
    assert entry.num_of_elem == 1
    assert entry.prod_rd_mask == 0 and entry.prod_wr_mask == 0
    assert entry.dbg_rd_mask == FULL and entry.dbg_wr_mask == FULL
    assert entry.special_wr_handling is True
    assert entry.mig_export is MigClass.ME and entry.mig_import is MigClass.ME


def test_eptp_entry_kept_verbatim(catalog):
    entry = catalog.find_entry(MD_CTX_TD, decode_field_id(0x111000300000004))
    assert entry.name == "EPTP"
    assert entry.field_id_raw == 0x111000300000004
    assert entry.import_mask == 0xFFF0000000000FFF
    assert entry.export_mask == 0xFFF0000000000FFF
    assert entry.migtd_rd_mask == 0xFFF0000000000FFF


def test_x2apic_entry(catalog):
    entry = catalog.find_entry(MD_CTX_TD, decode_field_id(0x9C10000200000000))
    assert entry.name == "X2APIC_IDS"
    assert entry.num_of_fields == 576
    assert entry.import_mask == 0xFFFFFFFFF
    assert entry.mig_import is MigClass.MBO


def test_mig_dec_key_entry(catalog):
    entry = catalog.find_entry(MD_CTX_TD, decode_field_id(0x9810000300000010))
    assert entry.name == "MIG_DEC_KEY"
    assert entry.num_of_elem == 4
    assert entry.prod_rd_mask == 0       # host readable only on a debug TD
    assert entry.dbg_rd_mask == FULL
    assert entry.migtd_wr_mask == FULL
    # quadword ids ...10 through ...13 land inside the same entry
    for i in range(4):
        assert catalog.find_entry(MD_CTX_TD, decode_field_id(0x9810000300000010 + i)) is entry


@pytest.mark.parametrize(
    "name,ctx",
    [
        ("ATTRIBUTES", MD_CTX_TD), ("EPTP", MD_CTX_TD), ("XFAM", MD_CTX_TD),
        ("NUM_VCPUS", MD_CTX_TD), ("TSC_FREQUENCY", MD_CTX_TD),
        ("HP_LOCK_TIMEOUT", MD_CTX_TD), ("EXPORT_COUNT", MD_CTX_TD),
        ("MIG_DEC_KEY", MD_CTX_TD), ("X2APIC_IDS", MD_CTX_TD),
        ("XBUFF", MD_CTX_VP), ("XCR0", MD_CTX_VP),
    ],
)
def test_finding_sourced_entries_present(catalog, name, ctx):
    assert catalog.by_name(ctx, name) is not None


def test_unknown_field_not_found(catalog):
    assert catalog.find_entry(MD_CTX_TD, decode_field_id(0x3F100003000000AA)) is None


def test_next_entry_ordering(catalog):
    for ctx in (MD_CTX_SYS, MD_CTX_TD, MD_CTX_VP):
        entries = catalog.entries_for(ctx)
        for first, second in zip(entries, entries[1:]):
            assert (first.class_code, first.field_code) < (second.class_code, second.field_code)
            assert catalog.next_entry_after(ctx, first) is second
        assert catalog.next_entry_after(ctx, entries[-1]) is None


def test_next_entry_of_attributes_matches_fixture_file(catalog):
    # Derive the expected successor straight from the shipped fixture text.
    text = resources.files("tdxmodel.data").joinpath("field_catalog.txt").read_text()
    names = [
        line.split()[1]
        for line in text.splitlines()
        if line.strip() and not line.startswith("#") and line.split()[0] == "td"
    ]
    expected = names[names.index("ATTRIBUTES") + 1]
    attributes = catalog.find_entry(MD_CTX_TD, decode_field_id(0x1110000300000000))
    successor = catalog.next_entry_after(MD_CTX_TD, attributes)
    assert successor.name == expected


def test_required_import_sets(catalog):
    td_required = {e.name for e in catalog.required_import_entries(MD_CTX_TD, {MigClass.MB})}
    assert td_required == {
        "GPAW", "EPTP", "NUM_VCPUS", "TD_UUID", "ATTRIBUTES", "XFAM",
        "TSC_FREQUENCY", "HP_LOCK_TIMEOUT", "EXPORT_COUNT",
    }
    with_x2apic = {
        e.name
        for e in catalog.required_import_entries(MD_CTX_TD, {MigClass.MB}, {0x1C})
    }
    assert with_x2apic == td_required | {"X2APIC_IDS"}
    vp_required = {e.name for e in catalog.required_import_entries(MD_CTX_VP, {MigClass.ME})}
    assert vp_required == {"XCR0", "TSC_DEADLINE", "XBUFF"}


def test_catalog_rejects_unordered_entries():
    lines = [
        "td B 0x1110000300000008 1 1 0x0 0x0 0x0 0x0 0x0 0x0 0x0 0x0 0x0 0x0 0x0 0x0 0 0 MB MB",
        "td A 0x1110000300000000 1 1 0x0 0x0 0x0 0x0 0x0 0x0 0x0 0x0 0x0 0x0 0x0 0x0 0 0 MB MB",
    ]
    with pytest.raises(ValueError, match="ordered"):
        FieldCatalog.load("\n".join(lines))


# --- load-time entry codes -------------------------------------------------------

def _catalog_lines() -> list[str]:
    text = resources.files("tdxmodel.data").joinpath("field_catalog.txt").read_text()
    return [line for line in text.splitlines() if line.strip() and not line.startswith("#")]


def test_duplicate_name_in_a_context_rejected():
    # Metadata stores are keyed by field name, so a name must be unique.
    lines = [line.replace("TD_EPOCH ", "NUM_VCPUS", 1) for line in _catalog_lines()]
    with pytest.raises(ValueError, match="twice"):
        FieldCatalog.load("\n".join(lines))


@pytest.mark.parametrize("columns", [20, 22])
def test_a_row_without_21_columns_is_refused(columns):
    # An entry keeps only the columns the model reads, so the column count
    # is what keeps each data row whole.
    parts = _catalog_lines()[0].split()
    row = " ".join((parts + ["0"])[:columns])
    with pytest.raises(ValueError, match=f"has {columns} columns, expected 21"):
        FieldCatalog.load(row)


def test_entry_codes_are_the_decoded_raw_id(catalog):
    for ctx in CONTEXTS:
        for entry in catalog.entries_for(ctx):
            fid = decode_field_id(entry.field_id_raw)
            assert (entry.class_code, entry.field_code) == (fid.class_code, fid.field_code)


def test_entry_built_twice_is_equal_and_hashes_equal():
    for line in _catalog_lines():
        ctx = CONTEXT_NAMES[line.split()[0]]
        first = FieldCatalog.load(line).entries_for(ctx)[0]
        second = FieldCatalog.load(line).entries_for(ctx)[0]
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)


# --- find_entry against the scan it replaced -----------------------------------------

def _scan_find_entry(catalog, context_code, class_code, field_code):
    """The context's first entry of the class covering the code: find_entry as a linear scan."""
    for entry in catalog.entries_for(context_code):
        if entry.class_code == class_code and entry.covers(field_code):
            return entry
    return None


_ROW = " 0x0 0x0 0x0 0x0 0x0 0x0 0x0 0x0 0x0 0x0 0x0 0x0 0 0 MB MB"
# A catalog loaded from text: one TD class of adjacent spans and a gap, multi-element
# fields, and a SYS and a VP entry at codes the TD class also covers.
_LOADED = FieldCatalog.load("\n".join(row + _ROW for row in [
    "sys S 0x1100000300000000 1 1", "td A 0x1110000300000000 2 1", "td B 0x1110000300000002 2 2",
    "td C 0x1110000300000008 1 4", "td D 0x3F10000300FFFFFE 1 1", "vp E 0x1120000300000001 3 1",
]))
_CATALOGS = {"bundled": bundled_catalog(), "loaded": _LOADED}


def _probe_codes(catalog, class_code):
    """Code 0, and each code inside, just before and just past each span of the class in any context."""
    codes = {0}
    for entry in (e for ctx in CONTEXTS for e in catalog.entries_for(ctx)):
        if entry.class_code == class_code:
            codes.update(range(max(entry.field_code - 1, 0), entry.field_code + entry.code_span + 1))
    return sorted(codes)


@pytest.mark.parametrize("name", _CATALOGS)
def test_find_entry_answers_as_the_linear_scan(name):
    catalog = _CATALOGS[name]
    for class_code in range(64):
        for code in _probe_codes(catalog, class_code):
            for ctx in CONTEXTS:
                want = _scan_find_entry(catalog, ctx, class_code, code)
                fid = MdFieldId(field_code=code, context_code=ctx, class_code=class_code)
                assert catalog.find_entry(ctx, fid) is want, (name, ctx, class_code, code)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(_CATALOGS)), raw=st.integers(0, FULL), ctx=st.integers(0, 7),
       data=st.data())
def test_find_entry_of_any_raw_id_answers_as_the_linear_scan(name, raw, ctx, data):
    """Whatever a raw id's other bits, its lookup is the scan's, at a probe code of its class."""
    catalog = _CATALOGS[name]
    class_code = decode_field_id(raw).class_code
    code = data.draw(st.sampled_from(_probe_codes(catalog, class_code)))
    raw = raw & ~((1 << 24) - 1) | code
    want = _scan_find_entry(catalog, ctx, class_code, code)
    assert catalog.find_entry(ctx, decode_field_id(raw)) is want


# --- CPUID lookup ---------------------------------------------------------------

def test_cpuid_table_is_one_tuple_shared_by_every_lookup():
    first, second = CpuidLookup(), CpuidLookup()
    assert type(first.table) is tuple
    assert first.table is second.table
    assert first.access_log is not second.access_log


def test_bug4_access_logs_stay_per_module():
    scenario = all_scenarios()["bug-4-cpuid-lookup-oob"]
    first, second = (TdxModule(EngineMode(bug4=True)) for _ in range(2))
    assert replay(scenario, first, True)[0]
    assert first.cpuid.oob_accesses() == [79]
    assert second.cpuid.access_log == []
    logged = list(first.cpuid.access_log)
    assert replay(scenario, second, True)[0]
    assert second.cpuid.access_log == logged
    assert first.cpuid.access_log == logged  # the second replay logged nothing here


def test_cpuid_table_shape():
    lookup = CpuidLookup()
    assert len(lookup.table) == 79
    assert MAX_NUM_CPUID_LOOKUP == 79
    last = lookup.table[78]
    assert (last.leaf, last.subleaf) == (0x80000002, 0xFFFFFFFF)
    assert last.valid_entry is True


def test_next_cpuid_from_last_entry_vulnerable_logs_one_oob():
    lookup = CpuidLookup()
    start = lookup.field_id_for(lookup.lookup_index(0x80000002, 0xFFFFFFFF))
    result = next_cpuid_entry(lookup, start, True)
    assert result == MD_FIELD_ID_NA
    assert lookup.oob_accesses() == [79]


def test_next_cpuid_from_last_entry_fixed_no_oob():
    lookup = CpuidLookup()
    start = lookup.field_id_for(lookup.lookup_index(0x80000002, 0xFFFFFFFF))
    result = next_cpuid_entry(lookup, start, False)
    assert result == MD_FIELD_ID_NA
    assert lookup.oob_accesses() == []


@pytest.mark.parametrize("mode", ["vulnerable", "fixed"])
def test_next_cpuid_interior_step(mode):
    lookup = CpuidLookup()
    assert lookup.table[1].valid_entry
    result = next_cpuid_entry(lookup, lookup.field_id_for(0), mode == "vulnerable")
    assert result == lookup.field_id_for(1)
    assert lookup.oob_accesses() == []


_CPUID_IDS = st.integers(0, FULL) | st.integers(0, 2 * MAX_NUM_CPUID_LOOKUP).map(
    CpuidLookup().field_id_for)


@settings(max_examples=100, deadline=None)
@given(field_id=_CPUID_IDS, bug4=st.booleans())
@example(field_id=0, bug4=False)
@example(field_id=1 << 63, bug4=True)
@example(field_id=0xDEADBEEF, bug4=False)
@example(field_id=CpuidLookup().field_id_for(MAX_NUM_CPUID_LOOKUP - 1), bug4=True)
@example(field_id=CpuidLookup().field_id_for(5000), bug4=True)
@example(field_id=CpuidLookup().field_id_for(MAX_NUM_CPUID_LOOKUP - 1) | 1 << 24, bug4=True)
def test_cpuid_search_answers_an_int_for_every_64_bit_id(field_id, bug4):
    """Any id answers a word; one with a reserved bit set or that names no slot answers
    MD_FIELD_ID_NA with no table read.

    Only bug4's search from the last slot reads out of bounds, one index past the table.
    """
    m = TdxModule(EngineMode(bug4=bug4))
    result = m.md_next_cpuid_field(field_id)
    assert type(result) is int
    fid = decode_field_id(field_id)
    in_class = (fid.context_code, fid.class_code, fid.has_reserved_bits) == (
        MD_CTX_TD, CPUID_CLASS_CODE, False)
    if not in_class or fid.field_code >= MAX_NUM_CPUID_LOOKUP:
        assert (result, m.cpuid.access_log) == (MD_FIELD_ID_NA, [])
    last = in_class and fid.field_code == MAX_NUM_CPUID_LOOKUP - 1
    assert m.cpuid.oob_accesses() == ([MAX_NUM_CPUID_LOOKUP] if bug4 and last else [])


@settings(max_examples=50, deadline=None)
@given(slot=st.integers(0, MAX_NUM_CPUID_LOOKUP), high=st.integers(-3, 3).filter(bool),
       bug4=st.booleans())
# Slot 0's id with bit 64 set, and less 2**64: both once answered slot 1's id.
@example(slot=0, high=1, bug4=False)
@example(slot=0, high=-1, bug4=True)
def test_cpuid_search_answers_na_for_an_id_outside_64_bits(slot, high, bug4):
    """An id outside [0, 2**64) names no slot, whatever its low 64 bits: MD_FIELD_ID_NA, no read."""
    m = TdxModule(EngineMode(bug4=bug4))
    before = m.digest()
    assert m.md_next_cpuid_field(m.cpuid.field_id_for(slot) + (high << 64)) == MD_FIELD_ID_NA
    assert (m.cpuid.access_log, m.digest()) == ([], before)
