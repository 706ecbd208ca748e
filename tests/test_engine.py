"""Engine flows: build ordering, interruptible imports, exports, and round-trips."""

import ast
import dataclasses
import functools
import inspect
import pathlib
import random
import struct

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from alphabet import (BEFORE_ANY_TD, BOUNDED_CALLS, BUNDLE_LEAVES, FORGED_START, GUEST_LEAVES,
                      LEAVES, NO_PAGE, OPERAND_WORDS, OPERANDS, PAGE, STREAM_LEAVES, SUCCEED_LEAVES,
                      OUT_OF_WALK, PUBLIC, VALUES, WALKED, World, admitting, args, build, bundle_type,
                      values)
from tdxmodel import engine, md_codec as md
from tdxmodel import status as S
from tdxmodel.catalog import CPUID_CLASS_CODE, MAX_NUM_CPUID_LOOKUP, CpuidLookup, FieldCatalog
from tdxmodel.engine import (
    OUTCOMES,
    TDR_BUSY,
    FINDING_TOGGLES,
    EngineMode,
    EpochToken,
    TdxModule,
    seal_for,
)
from tdxmodel.envelope import STREAM_BUSY, BundleType, MigStreamContext
from tdxmodel.md_codec import MD_CTX_TD, MD_CTX_VP
from tdxmodel.scenarios import (
    ATTRIBUTES_ID,
    MIG_DEC_KEY_ID,
    crafted_vp_list,
    decrypted_lists,
    export_blackout,
    finish_import,
    import_to_state_import,
    migration_env,
    new_template,
    standard_setup,
)
from tdxmodel.states import (
    Leaf,
    OpState,
    PermissionMatrix,
    TraceStep,
    transition,
    validate_trace,
)
from tdxmodel.td import (
    ATTR_DEBUG,
    ATTR_MIGRATABLE,
    ATTR_PERFMON,
    ATTR_SEPT_VE_DISABLE,
    LVL_PML4,
    LVL_PML5,
    MAX_HP_LOCK_TIMEOUT_USEC,
    MAX_VCPUS_PER_TD,
    MIN_HP_LOCK_TIMEOUT_USEC,
    U64,
    VIRT_TSC_FREQUENCY_MAX,
    VIRT_TSC_FREQUENCY_MIN,
    XCR0_X87,
    XFAM_ALLOWED,
    XFAM_FIXED1,
    EptpControls,
    EventFilter,
    KotState,
    TdComplex,
    TdParams,
)

ALL_VULNERABLE = EngineMode(**dict.fromkeys(FINDING_TOGGLES, True))


def test_build_reaches_runnable():
    m = TdxModule(seed=1)
    status, td = m.build_td(TdParams(attributes=ATTR_MIGRATABLE), num_vcpus=2)
    assert status == S.TDX_SUCCESS
    assert td.op_state is OpState.RUNNABLE
    assert td.num_vcpus == 2
    assert len(td.measurement) == 48  # running SHA-384 digest
    assert validate_trace(m.matrix, td.trace, True) == []


def test_build_stops_at_the_first_failing_call():
    """One VP past the limit: VP_CREATE refuses it, and no VP_ADDCX or VP_INIT follows."""
    tdvpr_invalid = S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_TDVPR)
    m = TdxModule(seed=1)
    status, td = m.build_td(TdParams(), num_vcpus=MAX_VCPUS_PER_TD + 1)
    assert status == tdvpr_invalid
    state = OpState.INITIALIZED
    assert td.trace[-1] == TraceStep(Leaf.TDH_VP_CREATE, state, state, tdvpr_invalid)
    assert [step.status for step in td.trace[:-1]] == [S.TDX_SUCCESS] * (len(td.trace) - 1)
    assert len(td.vps) == MAX_VCPUS_PER_TD and td.pages == {} and td.op_state is state
    hkid_not_free, tds = S.with_operand(S.TDX_HKID_NOT_FREE, S.OPERAND_ID_RCX), dict(m.tds)
    assert [m.build_td(TdParams(), hkid=h) for h in (-1, len(m.kot))] == [(hkid_not_free, None)] * 2
    assert m.tds == tds  # an HKID outside the key table is refused before any TD exists


def test_mng_init_requires_control_pages():
    m = TdxModule(seed=1)
    _, td = m.tdh_mng_create(hkid=0)
    m.tdh_mng_key_config(td)
    status = m.tdh_mng_init(td, TdParams())
    assert status == S.TDX_TDCX_NUM_INCORRECT
    assert td.op_state is OpState.UNINITIALIZED


@pytest.mark.parametrize("bug3", [True, False], ids=["vulnerable", "fixed"])
def test_mng_init_refuses_a_filter_count_outside_the_array_as_a_step(bug3):
    """A count past the one filter given, or below zero: a refusal with its trace step."""
    filter_ok = EventFilter(event_select=1, umask=1).raw
    for count, word in ((2, S.with_operand(S.TDX_EVENT_FILTER_INVALID, 1)),
                        (-1, S.with_operand(S.TDX_EVENT_FILTER_INVALID, 0))):
        m = TdxModule(EngineMode(bug3=bug3), seed=1)
        _, td = m.tdh_mng_create(hkid=0)
        m.tdh_mng_key_config(td)
        for _ in range(TdComplex.MIN_TDCX_PAGES):
            m.tdh_mng_addcx(td)
        status = m.tdh_mng_init(td, TdParams(attributes=ATTR_PERFMON), event_filtering=True,
                                event_filters_num=count, event_filters=[filter_ok])
        assert status == word and td.trace[-1] is m.last
        assert (m.last.leaf, m.last.status) == (Leaf.TDH_MNG_INIT, word)
        assert td.event_filters_num == (count if bug3 and count >= 0 else 0)


def test_mem_add_before_init_is_state_error():
    m = TdxModule(seed=1)
    _, td = m.tdh_mng_create(hkid=0)
    status = m.tdh_mem_page_add(td, 0x1000, 0xAA)
    assert status == S.TDX_OP_STATE_INCORRECT


def test_debug_build_is_legal_but_not_exportable():
    m = TdxModule(seed=2)
    status, td = m.build_td(TdParams(attributes=ATTR_DEBUG))
    assert status == S.TDX_SUCCESS
    m.tdh_mig_stream_create(td)
    status, bundle = m.tdh_export_state_immutable(td)
    assert status == S.TDX_TD_NOT_MIGRATABLE
    assert bundle is None


def test_migratable_build_is_exportable():
    m = TdxModule(seed=3)
    env = standard_setup(m, num_vcpus=1)
    assert env["src"].op_state is OpState.LIVE_EXPORT
    assert len(env["bundle_immutable"].data) == 3 * 4096


def test_export_state_td_requires_pause():
    m = TdxModule(seed=4)
    env = standard_setup(m, num_vcpus=1)
    status, _ = m.tdh_export_state_td(env["src"])
    assert status == S.TDX_OP_STATE_INCORRECT  # LIVE_EXPORT, not paused
    m.tdh_export_pause(env["src"])
    status, bundle = m.tdh_export_state_td(env["src"])
    assert status == S.TDX_SUCCESS and bundle is not None


def test_export_abort_restores_runnable():
    w = World(5)  # the source is paused
    assert w.m.tdh_export_abort(w.src) == S.TDX_SUCCESS
    assert w.src.op_state is OpState.RUNNABLE


def test_export_mem_advances_counter_even_on_abort():
    w = World(6)  # the source is paused
    m, src, migsc = w.m, w.src, w.src.migsc[0]
    before = migsc.iv_counter
    status, bundle = m.tdh_export_mem(src, 0x1000, abort=True)
    assert status == S.TDX_INTERRUPTED_RESUMABLE and bundle is None
    assert migsc.iv_counter == before + 1
    status, bundle = m.tdh_export_mem(src, 0x1000)
    assert status == S.TDX_SUCCESS
    assert migsc.iv_counter == before + 2


def test_import_interrupt_and_resume_cursor():
    m = TdxModule(seed=7)
    env = standard_setup(m, num_vcpus=1)
    dst = env["dst"]
    status = m.tdh_import_state_immutable(dst, env["bundle_immutable"], interrupt_after=0)
    assert status == S.TDX_INTERRUPTED_RESUMABLE
    assert dst.migsc[0].interrupted_state.cursor == 1
    assert dst.op_state is OpState.START_IMPORT  # fixed mode first touch
    status = m.tdh_import_state_immutable(dst, env["bundle_immutable"], resume=True)
    assert status == S.TDX_SUCCESS
    assert dst.op_state is OpState.MEMORY_IMPORT
    assert dst.attributes & ATTR_MIGRATABLE


def test_import_walks_split_between_interrupted_and_resumed_steps():
    m = TdxModule(seed=7)
    env = standard_setup(m, num_vcpus=1)
    dst, bundle = env["dst"], env["bundle_immutable"]
    lists = decrypted_lists(env, bundle)
    assert len(lists) > 2
    status = m.tdh_import_state_immutable(dst, bundle, interrupt_after=1)
    assert status == S.TDX_INTERRUPTED_RESUMABLE
    interrupted = dst.trace[-1]
    assert m.tdh_import_state_immutable(dst, bundle, resume=True) == S.TDX_SUCCESS
    resumed = dst.trace[-1]
    assert len(interrupted.walks) == 2  # lists 0 and 1
    assert len(resumed.walks) == len(lists) - 2
    # Together the two steps walk every list once, in order, each from its own arena.
    walks = interrupted.walks + resumed.walks
    assert [arena.buffer[: md.LIST_BYTES] for arena, _ in walks] == lists
    assert all(result.status == S.TDX_SUCCESS for _, result in walks)


# A list whose header claims less than itself: every mode stops its walk there.
_BROKEN_LIST = md.MdListHeader(list_buff_size=0, num_sequences=1).to_bytes().ljust(md.LIST_BYTES, b"\x00")
IMMUTABLE_LISTS = 3  # SYS, then two TD lists: the immutable bundle of a standard source


def _immutable_import(mode, seed, broken, interrupt_after):
    """(words, module digest) of an immutable import and its resume."""
    m = TdxModule(mode, seed=seed)
    env = standard_setup(m, num_vcpus=1)
    dst, bundle = env["dst"], env["bundle_immutable"]
    lists = decrypted_lists(env, bundle)
    assert len(lists) == IMMUTABLE_LISTS
    if broken is not None:
        lists[broken] = _BROKEN_LIST
        bundle = seal_for(dst, BundleType.IMMUTABLE, lists)
    words = [m.tdh_import_state_immutable(dst, bundle, interrupt_after=interrupt_after)]
    if words[0] == S.TDX_INTERRUPTED_RESUMABLE:
        words.append(m.tdh_import_state_immutable(dst, bundle, resume=True))
    return words, m.digest()


@settings(max_examples=40, deadline=None)
@given(
    interrupt_after=st.none() | st.integers(-1, IMMUTABLE_LISTS),
    mode=st.sampled_from([EngineMode(), EngineMode(v1=True), EngineMode(bug2=True), ALL_VULNERABLE]),
    seed=st.integers(0, 2**16),
    broken=st.none() | st.integers(0, IMMUTABLE_LISTS - 1),
)
@example(interrupt_after=None, mode=EngineMode(), seed=0, broken=None)
@example(interrupt_after=-1, mode=EngineMode(), seed=0, broken=None)
@example(interrupt_after=0, mode=EngineMode(), seed=0, broken=None)
@example(interrupt_after=1, mode=EngineMode(), seed=0, broken=1)
@example(interrupt_after=2, mode=EngineMode(), seed=0, broken=None)
@example(interrupt_after=3, mode=EngineMode(), seed=0, broken=None)
def test_interrupt_and_resume_equal_one_uninterrupted_immutable_import(
    interrupt_after, mode, seed, broken
):
    whole = _immutable_import(mode, seed, broken, None)
    assert len(whole[0]) == 1
    got = _immutable_import(mode, seed, broken, interrupt_after)
    if interrupt_after is not None and 0 <= interrupt_after < IMMUTABLE_LISTS - 1:
        # Interrupted after its list, then resumed from the next one.
        assert got[0][0] == S.TDX_INTERRUPTED_RESUMABLE
        got = (got[0][1:],) + got[1:]
    assert got == whole


def test_import_busy_when_stream_held():
    m = TdxModule(seed=8)
    env = standard_setup(m, num_vcpus=1)
    export_blackout(m, env)
    dst, migsc = env["dst"], env["dst"].migsc[0]
    busy = S.with_operand(S.TDX_OPERAND_BUSY, S.OPERAND_ID_MIGSC)

    def busy_then_admitted(call):
        state, written = dst.op_state, dict(dst.import_written)
        migsc.locked = True  # another owner holds the stream
        assert call() == busy
        assert dst.op_state is state and dst.import_written == written
        migsc.locked = False
        assert call() == S.TDX_SUCCESS and not migsc.locked

    busy_then_admitted(lambda: m.tdh_import_state_immutable(dst, env["bundle_immutable"]))
    busy_then_admitted(lambda: m.tdh_import_state_td(dst, env["bundle_td"]))
    m.tdh_vp_create(dst)
    m.tdh_vp_addcx(dst, 0)
    busy_then_admitted(lambda: m.tdh_import_state_vp(dst, 0, env["bundle_vps"][0]))
    assert dst.num_migrated_vcpus == 1


def test_import_rejects_wrong_bundle_type():
    m = TdxModule(seed=9)
    env = standard_setup(m, num_vcpus=1)
    export_blackout(m, env)
    status = m.tdh_import_state_immutable(env["dst"], env["bundle_td"])
    assert status == S.TDX_INVALID_MBMD


def test_import_detects_tampered_ciphertext():
    m = TdxModule(seed=10)
    env = standard_setup(m, num_vcpus=1)
    bundle = env["bundle_immutable"]
    tampered = bytearray(bundle.data)
    tampered[0] ^= 1
    bundle.data = bytes(tampered)
    status = m.tdh_import_state_immutable(env["dst"], bundle)
    assert status == S.TDX_INCORRECT_MBMD_MAC
    assert env["dst"].op_state is OpState.FAILED_IMPORT


@pytest.mark.parametrize("name", BUNDLE_LEAVES, ids=lambda name: name.rsplit("_", 1)[1])
def test_every_import_leaf_fails_the_td_on_a_bad_mac(name):
    """An unauthenticated bundle takes the failure edge, so no second forgery is tried."""
    w = World(10)
    m, dst = w.m, w.dst
    dst.op_state = admitting(m.matrix, Leaf[name.upper()])
    assert getattr(m, name)(dst, *args(w, name, bundle=w.tampered(name))) == S.TDX_INCORRECT_MBMD_MAC
    assert dst.op_state is OpState.FAILED_IMPORT
    for td in m.tds.values():
        assert validate_trace(m.matrix, td.trace, True) == []


def test_servtd_write_blocked_during_blackout():
    w = World(11)  # the source is paused
    m, env = w.m, w.env
    status, _ = m.tdg_servtd_wr(env["migtd"], env["src_handle"], 0x9810000300000010, 0x1)
    assert status == S.TDX_OP_STATE_INCORRECT
    status, _ = m.tdg_servtd_rd(env["migtd"], env["src_handle"], 0x9810000300000010)
    assert status == S.TDX_SUCCESS  # reads stay allowed


def test_host_write_of_private_gpa_field_always_checked():
    m = TdxModule(EngineMode(bug9=True), seed=12)
    env = standard_setup(m, num_vcpus=1)
    export_blackout(m, env)
    assert import_to_state_import(m, env) == S.TDX_SUCCESS
    assert finish_import(m, env) == S.TDX_SUCCESS
    td = env["dst"]
    # Host-side writes keep the validity check even with the import-path skip.
    vapic = m.catalog.by_name(MD_CTX_VP, "L2_VAPIC_GPA")
    sinkless = m.tdh_mng_wr(td, vapic.field_id_raw, 0xFFFF_8000_0000_0000)
    assert S.status_class(sinkless) in (
        S.TDX_METADATA_FIELD_NOT_WRITABLE,  # vp field via mng_wr: not a td field
        S.TDX_OPERAND_INVALID,
    )


def test_full_migration_roundtrip_reproduces_catalog_fields():
    rng = random.Random(13)
    for seed in (21, 22, 23):
        m = TdxModule(seed=seed)
        env = standard_setup(m, num_vcpus=2, num_pages=3)
        src = env["src"]
        # Randomize exportable state beyond the build defaults.
        td_epoch = m.catalog.by_name(MD_CTX_TD, "TD_EPOCH")
        src.write_element_raw(td_epoch, 0, rng.getrandbits(64))
        xbuff = m.catalog.by_name(MD_CTX_VP, "XBUFF")
        for vp_index in range(len(src.vps)):
            values = src._scope_values(xbuff, vp_index)
            for i in rng.sample(range(1536), 16):
                values[i] = rng.getrandbits(64)

        export_blackout(m, env, pages=list(src.pages))
        dst = env["dst"]
        assert import_to_state_import(m, env, mem=env["bundle_mem"]) == S.TDX_SUCCESS
        assert finish_import(m, env) == S.TDX_SUCCESS
        assert dst.op_state is OpState.RUNNABLE

        for entry in m.catalog.entries_for(MD_CTX_TD):
            if not entry.exportable:
                continue
            for position in range(entry.code_span):
                src_value = src.read_element(entry, position) & entry.export_mask
                dst_value = dst.read_element(entry, position) & entry.export_mask
                assert src_value == dst_value, (entry.name, position)
        for entry in m.catalog.entries_for(MD_CTX_VP):
            if not entry.exportable or entry.mig_export.value != "ME":
                continue
            for vp_index in range(2):
                for position in range(entry.code_span):
                    src_value = src.read_element(entry, position, vp_index) & entry.export_mask
                    dst_value = dst.read_element(entry, position, vp_index) & entry.export_mask
                    assert src_value == dst_value, (entry.name, vp_index, position)
        assert dst.pages == src.pages
        for td in m.tds.values():
            assert validate_trace(m.matrix, td.trace, True) == []


def test_import_track_requires_matching_vcpu_counts():
    w = World(14, num_vcpus=2)
    m, env, dst = w.m, w.env, w.dst
    assert m.tdh_import_state_vp(dst, 0, env["bundle_vps"][0]) == S.TDX_SUCCESS
    status = m.tdh_import_track(dst, env["start_token"])
    assert status == S.TDX_SOME_VCPUS_NOT_MIGRATED  # 1 of 2 migrated
    assert m.tdh_import_state_vp(dst, 1, env["bundle_vps"][1]) == S.TDX_SUCCESS
    assert m.tdh_import_track(dst, env["start_token"]) == S.TDX_SUCCESS
    assert dst.op_state is OpState.POST_IMPORT


def test_non_start_token_keeps_state():
    m = TdxModule(seed=15)
    env = standard_setup(m, num_vcpus=1)
    status = m.tdh_import_state_immutable(env["dst"], env["bundle_immutable"])
    assert status == S.TDX_SUCCESS
    status = m.tdh_import_track(env["dst"], EpochToken(start=False))
    assert status == S.TDX_SUCCESS
    assert env["dst"].op_state is OpState.MEMORY_IMPORT


def test_mig_dec_key_readable_only_on_debug_td():
    m = TdxModule(seed=18)
    env = standard_setup(m, num_vcpus=1)
    status, _ = m.tdh_mng_rd(env["src"], 0x9810000300000010, count=4)
    assert status == S.TDX_METADATA_FIELD_NOT_READABLE
    status, debug_td = m.build_td(TdParams(attributes=ATTR_DEBUG))
    assert status == S.TDX_SUCCESS
    m.tdh_mig_stream_create(debug_td)
    _, handle = m.tdh_servtd_bind(debug_td, 0, env["migtd"])
    m.tdg_servtd_wr(env["migtd"], handle, 0x9810000300000010, 0x1234)
    status, values = m.tdh_mng_rd(debug_td, 0x9810000300000010)
    assert status == S.TDX_SUCCESS and values == [0x1234]


def test_latched_error_surfaces_first_failure():
    m = TdxModule(seed=19)
    env = standard_setup(m, num_vcpus=1)
    export_blackout(m, env)
    assert m.tdh_import_state_immutable(env["dst"], env["bundle_immutable"]) == S.TDX_SUCCESS

    from tdxmodel.md_codec import MdListHeader, MdSequence, make_sequence_header, build_list

    # List 0 fails with a context mismatch; list 1 fails with a short header.
    vp_seq = MdSequence(make_sequence_header(MD_CTX_VP, 0x11, 0x20), [3])
    first = build_list([vp_seq]).to_bytes()
    second = (MdListHeader(list_buff_size=2, num_sequences=1).to_bytes()).ljust(4096, b"\x00")
    bundle = seal_for(env["dst"], BundleType.TD, [first, second])
    status = m.tdh_import_state_td(env["dst"], bundle)
    assert S.status_class(status) == S.TDX_METADATA_FIELD_ID_INCORRECT  # the first one
    assert env["dst"].trace[-1].ext_err_info == (vp_seq.header_raw, 0)
    assert env["dst"].op_state is OpState.FAILED_IMPORT


def _subset_import(bundle_type, kept):
    """(honest list count, word, destination) of a fixed-mode import of the honest lists whose
    indexes are in ``kept``, sealed as one bundle, at the point of a round trip where it goes."""
    m = TdxModule(seed=23)
    env = standard_setup(m, num_vcpus=1)
    export_blackout(m, env)
    dst = env["dst"]
    honest = {BundleType.IMMUTABLE: env["bundle_immutable"], BundleType.TD: env["bundle_td"],
              BundleType.VP: env["bundle_vps"][0]}[bundle_type]
    if bundle_type is not BundleType.IMMUTABLE:
        assert m.tdh_import_state_immutable(dst, env["bundle_immutable"]) == S.TDX_SUCCESS
    if bundle_type is BundleType.VP:
        assert m.tdh_import_state_td(dst, env["bundle_td"]) == S.TDX_SUCCESS
        m.tdh_vp_create(dst)
        m.tdh_vp_addcx(dst, 0)
    lists = decrypted_lists(env, honest)
    bundle = seal_for(dst, bundle_type, [item for i, item in enumerate(lists) if i in kept])
    leaf = {BundleType.IMMUTABLE: m.tdh_import_state_immutable, BundleType.TD: m.tdh_import_state_td,
            BundleType.VP: lambda td, b: m.tdh_import_state_vp(td, 0, b)}[bundle_type]
    return len(lists), leaf(dst, bundle), dst


STATE_BUNDLE_TYPES = [BundleType.IMMUTABLE, BundleType.TD, BundleType.VP]


@settings(max_examples=30, deadline=None)
@given(bundle_type=st.sampled_from(STATE_BUNDLE_TYPES), kept=st.frozensets(st.integers(0, 4)))
@example(bundle_type=BundleType.IMMUTABLE, kept=frozenset())
@example(bundle_type=BundleType.IMMUTABLE, kept=frozenset({0}))  # the SYS list alone
@example(bundle_type=BundleType.TD, kept=frozenset())
@example(bundle_type=BundleType.VP, kept=frozenset())
@example(bundle_type=BundleType.VP, kept=frozenset(range(5)))
def test_a_state_import_completes_only_with_every_honest_list(bundle_type, kept):
    """A bundle that leaves out any honest list is refused fatally, the empty bundle too.

    Each honest list holds a required entry, or part of one, of a context of
    the bundle type.  So only the whole set completes, whichever contexts the
    lists it carries cover.
    """
    count, status, dst = _subset_import(bundle_type, kept)
    if set(range(count)) <= kept:
        assert status == S.TDX_SUCCESS
    else:
        assert status & S.TDX_FATAL_FLAG_MASK, hex(status)
        assert dst.op_state is OpState.FAILED_IMPORT


def test_fatal_step_reports_its_own_registers():
    m = TdxModule(seed=19)
    env = standard_setup(m, num_vcpus=1)
    export_blackout(m, env)
    src, dst = env["src"], env["dst"]
    assert m.tdh_import_state_immutable(dst, env["bundle_immutable"]) == S.TDX_SUCCESS
    vp_seq = md.MdSequence(md.make_sequence_header(MD_CTX_VP, 0x11, 0x20), [3])
    bundle = seal_for(dst, BundleType.TD, [md.build_list([vp_seq]).to_bytes()])
    status = m.tdh_import_state_td(dst, bundle)
    assert S.status_class(status) == S.TDX_METADATA_FIELD_ID_INCORRECT
    failed = dst.trace[-1]
    assert failed.ext_err_info == (vp_seq.header_raw, 0)
    # A later fatal call on another TD returns no extended error information
    # of its own, and leaves the failed import's step as it was.
    src.fatal = True
    assert m.tdh_export_pause(src) == S.TDX_TD_FATAL
    assert m.last is src.trace[-1] and m.last.ext_err_info == (0, 0)
    assert dst.trace[-1] is failed and failed.ext_err_info == (vp_seq.header_raw, 0)


TD_FIELD_IDS = {entry.field_id_raw for entry in FieldCatalog.load().entries_for(MD_CTX_TD)}


@st.composite
def hostile_lists(draw):
    """One list from criterion 2's mix: a random page, a lying header or a crafted list."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(("page", "header", "crafted")))
    if kind == "page":
        return rng.randbytes(md.LIST_BYTES)
    size = draw(st.integers(0, 0xFFFF))
    if kind == "header":
        header = md.MdListHeader(list_buff_size=size, num_sequences=draw(st.integers(0, 31)))
        body = header.to_bytes() + rng.randbytes(rng.randrange(0, md.LIST_BYTES - 8))
        return body.ljust(md.LIST_BYTES, b"\x00")
    data = bytearray(crafted_vp_list(True, num_fields=draw(st.integers(1, 512))))
    data[0:2] = size.to_bytes(2, "little")
    return bytes(data)


@settings(max_examples=50, deadline=None)
@given(data=hostile_lists())
# An empty list walks cleanly, so the import fails on its first missing field.
@example(data=md.MdListHeader(list_buff_size=8, num_sequences=0).to_bytes().ljust(md.LIST_BYTES, b"\x00"))
def test_hostile_td_import_records_its_walk_and_registers(data):
    m = TdxModule(seed=31)  # all fixed
    env = standard_setup(m, num_vcpus=1, num_pages=1)
    dst = env["dst"]
    assert m.tdh_import_state_immutable(dst, env["bundle_immutable"]) == S.TDX_SUCCESS
    status = m.tdh_import_state_td(dst, seal_for(dst, BundleType.TD, [data]))
    step = dst.trace[-1]
    assert step is m.last and step.status == status
    (arena, result), = step.walks
    assert not arena.oob_reads()
    if status & S.TDX_FATAL_FLAG_MASK:
        if status == S.as_fatal(S.TDX_REQUIRED_METADATA_FIELD_MISSING):
            assert step.ext_err_info[0] in TD_FIELD_IDS
        else:
            assert step.ext_err_info == tuple(result.ext_err_info)


def _random_call(w, rng, name):
    """Call ``name``'s head and operands, each drawn from its in-range and hostile values;
    a host leaf's head is a TD of the world, one the matrix admits it on where there is one."""
    def draw(param):
        return build(w, name, rng.choice(sum(values(name, param), [])))

    if name in GUEST_LEAVES:
        head = [draw("caller"), draw("handle")]
    elif name in BEFORE_ANY_TD:
        head = []
    else:
        tds = list(w.m.tds.values())
        admitted = [td for td in tds if w.m.matrix.is_allowed(td.op_state, Leaf[name.upper()])]
        head = [rng.choice(admitted or tds)]
    return head, [draw(param) for param in OPERANDS[name]]


WALK_SEEDS = (31, 32, 33)


def _random_walk(mode, seed, after_call):
    """120 random calls over the whole walked alphabet; ``after_call(m, name, head, result,
    before)`` runs after each, with the module digest from before it.  Returns the module."""
    rng = random.Random(seed)
    w = World(seed, mode=mode)
    m = w.m
    new_template(m, w.env)  # a keyed destination the immutable import can start on
    for _ in range(120):
        name = rng.choice(WALKED)
        head, operands = _random_call(w, rng, name)
        before = m.digest()
        result = getattr(m, name)(*head, *operands)
        assert type(result if type(result) is int else result[0]) is int, (seed, name, result)
        after_call(m, name, head, result, before)
    return m


def test_fixed_mode_random_walk_safety_invariants():
    """Random calls over the whole alphabet in fixed mode never produce an unsafe TD.

    Checked after every call: it answers an int and raises nothing; a leaf's
    refusal changes no store but its designed writes, and any other call
    changes no store at all; no TD is simultaneously debug and migratable, and
    any TD that completed an immutable import holds import-valid attributes.
    Every trace validates.
    """
    from tdxmodel.td import verify_td_attributes

    import_states = {
        OpState.MEMORY_IMPORT, OpState.STATE_IMPORT, OpState.POST_IMPORT,
        OpState.LIVE_IMPORT,
    }
    called = set()
    for seed in WALK_SEEDS:
        completed_import = set()

        def check(m, name, head, result, before):
            called.add(name)
            status = result if type(result) is int else result[0]
            if name in LEAVES:
                _refusal_law(name, status, before, m)
            else:
                assert m.digest() == before, name
            if name == "tdh_import_state_immutable" and status == S.TDX_SUCCESS:
                completed_import.add(head[0].tdr_page)
            for candidate in m.tds.values():
                assert not (candidate.attributes & ATTR_DEBUG and candidate.attributes & ATTR_MIGRATABLE)
                if candidate.tdr_page in completed_import or candidate.op_state in import_states:
                    assert verify_td_attributes(candidate.attributes, importing=True), (
                        seed, candidate.snapshot(),
                    )

        m = _random_walk(EngineMode(), seed, check)
        for td in m.tds.values():
            assert validate_trace(m.matrix, td.trace, True) == []
    assert called == set(WALKED)  # the seeds reach every call of the alphabet


def test_vulnerable_mode_random_walk_answers_every_call():
    """The same walk with every toggle vulnerable: each call answers an int and none raises."""
    for seed in WALK_SEEDS:
        _random_walk(ALL_VULNERABLE, seed, lambda *_: None)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_module_last_is_the_step_its_call_appended_or_none(seed):
    """After every call, ``m.last`` is the step that call appended, with its status, or None.

    Every leaf is called once, in a random order with random operands; then
    the CPUID search, which records no step either.
    """
    rng = random.Random(seed)
    w = World(47)
    m = w.m
    for name in rng.sample(LEAVES, len(LEAVES)):
        head, operands = _random_call(w, rng, name)
        steps = {id(td): len(td.trace) for td in m.tds.values()}
        result = getattr(m, name)(*head, *operands)
        appended = [td.trace[-1] for td in m.tds.values() if len(td.trace) != steps.get(id(td), 0)]
        if m.last is None:
            assert appended == [], name
        else:
            assert len(appended) == 1 and appended[0] is m.last, name
            assert m.last.status == (result if type(result) is int else result[0]), name
    m.tdh_export_pause(w.src)
    assert m.last is w.src.trace[-1]
    m.md_next_cpuid_field(m.cpuid.field_id_for(0))
    assert m.last is None


def test_export_write_block_leaves_are_permission_gated():
    m = TdxModule(seed=24)
    env = standard_setup(m, num_vcpus=1)
    assert m.tdh_export_blockw(env["src"]) == S.TDX_SUCCESS      # LIVE_EXPORT
    assert m.tdh_export_unblockw(env["src"]) == S.TDX_SUCCESS
    assert m.tdh_export_restore(env["src"]) == S.TDX_OP_STATE_INCORRECT  # RUNNABLE only
    m.tdh_export_abort(env["src"])
    assert m.tdh_export_restore(env["src"]) == S.TDX_SUCCESS
    assert m.tdh_export_blockw(env["src"]) == S.TDX_OP_STATE_INCORRECT


def test_vp_index_bounds_are_status_errors():
    w = World(25)
    m, env, dst = w.m, w.env, w.dst
    status = m.tdh_import_state_vp(dst, 9, env["bundle_vps"][0])
    assert status == S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_TDVPR)
    assert m.tdh_vp_init(env["src"], 9) == S.TDX_OP_STATE_INCORRECT  # src is paused
    status, src2 = m.build_td(TdParams(attributes=ATTR_MIGRATABLE))
    assert m.tdh_vp_enter(src2, 9) == S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_TDVPR)


def test_vp_create_bound_holds_on_the_build_and_the_import_path():
    refused = S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_TDVPR)
    w = World(30)
    m, dst = w.m, w.dst
    status, td = m.build_td(TdParams(attributes=ATTR_MIGRATABLE), MAX_VCPUS_PER_TD + 1, 0)
    assert status == refused
    assert len(td.vps) == td.num_vcpus == MAX_VCPUS_PER_TD
    assert td.op_state is OpState.INITIALIZED
    num_vcpus = dst.num_vcpus
    assert dst.op_state is OpState.STATE_IMPORT and len(dst.vps) == 1
    for index in range(1, MAX_VCPUS_PER_TD):
        assert m.tdh_vp_create(dst) == (S.TDX_SUCCESS, index)
    assert m.tdh_vp_create(dst) == (refused, None)
    assert m.last == TraceStep(Leaf.TDH_VP_CREATE, OpState.STATE_IMPORT, OpState.STATE_IMPORT, refused)
    assert len(dst.vps) == MAX_VCPUS_PER_TD and dst.num_vcpus == num_vcpus


def test_export_mem_refuses_a_gpa_the_td_has_no_page_at():
    w = World(31)  # the source is paused
    m, src, migsc = w.m, w.src, w.src.migsc[0]
    state, before, counter = src.op_state, m.digest(), migsc.iv_counter
    missing = 0x99000
    assert missing not in src.pages
    refused = S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_RCX)
    for abort in (False, True):
        assert m.tdh_export_mem(src, missing, abort=abort) == (refused, None)
        assert m.last == TraceStep(Leaf.TDH_EXPORT_MEM, state, state, refused)
    # The stream guard still answers first.
    assert m.tdh_export_mem(src, missing, 1) == (S.TDX_MIGRATION_STREAM_STATE_INCORRECT, None)
    assert m.digest() == before and len(migsc.iv_history) == counter
    status, bundle = m.tdh_export_mem(src, 0x1000)
    assert status == S.TDX_SUCCESS and bundle.mbmd.iv_counter == counter + 1


@settings(max_examples=30, deadline=None)
@given(count=st.integers(max_value=0))
@example(count=0)
@example(count=-1)
def test_mng_rd_refuses_a_count_below_one(count):
    m = TdxModule(seed=32)
    status, td = m.build_td(TdParams(attributes=ATTR_DEBUG), num_vcpus=1, num_pages=1)
    assert status == S.TDX_SUCCESS
    attributes = m.catalog.by_name(MD_CTX_TD, "ATTRIBUTES")
    field_id = attributes.field_id_for(0)
    state, trace_len = td.op_state, len(td.trace)
    refused = S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_RDX)
    assert m.tdh_mng_rd(td, field_id, count) == (refused, [])
    assert m.last == TraceStep(Leaf.TDH_MNG_RD, state, state, refused)
    value = td.read_element(attributes, 0) & attributes.dbg_rd_mask
    assert m.tdh_mng_rd(td, field_id, 1) == m.tdh_mng_rd(td, field_id) == (S.TDX_SUCCESS, [value])
    assert td.op_state is state and len(td.trace) == trace_len + 3


# A field id that no catalog entry covers, in either metadata context.
_CATALOG = FieldCatalog.load()
UNCOVERED_IDS = st.integers(0, U64).filter(
    lambda raw: all(_CATALOG.find_entry(ctx, md.decode_field_id(raw)) is None
                    for ctx in (MD_CTX_TD, MD_CTX_VP))
)


@settings(max_examples=40, deadline=None)
@given(field_id=UNCOVERED_IDS)
@example(field_id=0)
@example(field_id=_CATALOG.by_name(MD_CTX_TD, "ATTRIBUTES").field_id_for(0) + 1)
def test_metadata_leaves_refuse_an_uncovered_field_id_naming_rdx(field_id):
    """The five metadata leaves take the field id in RDX, and name it when they refuse it."""
    refused = S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_RDX)
    w = World(33)
    m, migtd, dst, handle = w.m, w.migtd, w.dst, w.env["dst_handle"]
    status, td = m.build_td(TdParams(attributes=ATTR_DEBUG), num_vcpus=1, num_pages=1)
    assert status == S.TDX_SUCCESS
    key, measurement = list(dst.td_store["MIG_DEC_KEY"]), td.measurement
    calls = [
        (dst, lambda: m.tdg_servtd_rd(migtd, handle, field_id), (refused, 0)),
        (dst, lambda: m.tdg_servtd_wr(migtd, handle, field_id, 1), (refused, 0)),
        (td, lambda: m.tdh_mng_rd(td, field_id), (refused, [])),
        (td, lambda: m.tdh_mng_wr(td, field_id, 1), refused),
        (td, lambda: m.tdh_vp_rd(td, 0, field_id), (refused, 0)),
    ]
    for target, call, expected in calls:
        state = target.op_state
        assert call() == expected
        assert target.trace[-1] is m.last
        assert m.last.status == refused and target.op_state is state
    assert dst.td_store["MIG_DEC_KEY"] == key and td.measurement == measurement


def test_import_track_refuses_a_vp_that_was_never_imported():
    w = World(34)
    m, env, dst = w.m, w.env, w.dst
    assert m.tdh_vp_create(dst) == (S.TDX_SUCCESS, 1)
    assert m.tdh_import_state_vp(dst, 0, env["bundle_vps"][0]) == S.TDX_SUCCESS
    state = dst.op_state
    assert (len(dst.vps), dst.num_vcpus, dst.num_migrated_vcpus) == (2, 1, 1)
    assert m.tdh_import_track(dst, env["start_token"]) == S.TDX_SOME_VCPUS_NOT_MIGRATED
    assert m.last == TraceStep(Leaf.TDH_IMPORT_TRACK, state, state, S.TDX_SOME_VCPUS_NOT_MIGRATED)
    assert m.tdh_import_commit(dst) != S.TDX_SUCCESS
    assert dst.op_state is state is not OpState.RUNNABLE
    # The honest import of the same source still completes.
    other = new_template(m, env)["dst"]
    assert import_to_state_import(m, env, dst=other) == S.TDX_SUCCESS
    assert finish_import(m, env, dst=other) == S.TDX_SUCCESS
    assert other.op_state is OpState.RUNNABLE


def _initialized_td(m, gpaw=False):
    """A TD between TDH.MNG.INIT and TDH.MR.FINALIZE: the state that adds pages."""
    _, td = m.tdh_mng_create(hkid=m.kot.free_hkids()[0])
    m.tdh_mng_key_config(td)
    for _ in range(TdComplex.MIN_TDCX_PAGES):
        m.tdh_mng_addcx(td)
    params = TdParams(gpaw=gpaw, ept_pwl=LVL_PML5 if gpaw else LVL_PML4)
    assert m.tdh_mng_init(td, params) == S.TDX_SUCCESS
    assert td.op_state is OpState.INITIALIZED and td.gpaw == gpaw
    return td


WIDE = st.integers(-(1 << 70), 1 << 70)


@settings(max_examples=80, deadline=None)
@given(gpa=WIDE | st.integers(0, 1 << 53).map(lambda g: g & ~0xFFF),
       token=WIDE | st.integers(0, U64), gpaw=st.booleans())
@example(gpa=0x3001, token=1, gpaw=False)
@example(gpa=-5, token=1, gpaw=False)
@example(gpa=-0x1000, token=1, gpaw=False)
@example(gpa=-(1 << 48), token=1, gpaw=False)
@example(gpa=1 << 47, token=1, gpaw=False)
@example(gpa=1 << 47, token=1, gpaw=True)
@example(gpa=1 << 64, token=1, gpaw=True)
@example(gpa=0x1000, token=U64 + 1, gpaw=False)
@example(gpa=0x1000, token=-1, gpaw=False)
@example(gpa=0x1000, token=U64, gpaw=False)
def test_page_add_admits_an_aligned_private_gpa_and_a_64_bit_token(gpa, token, gpaw):
    """A refused page leaves no page behind, so TDH.MR.EXTEND refuses its GPA too.

    TDH.MEM.SEPT.ADD admits its GPA by the same rule, and moves nothing when it refuses.
    """
    gpa_invalid = S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_RCX)
    m = TdxModule(seed=35)
    td = _initialized_td(m, gpaw)
    # Private: below the shared bit of the guest width (bit 51 with GPAW, else bit 47).
    gpa_ok = 0 <= gpa < 1 << (51 if gpaw else 47) and gpa % 0x1000 == 0
    sept = S.TDX_SUCCESS if gpa_ok else gpa_invalid
    assert m.tdh_mem_sept_add(td, gpa) == sept
    assert m.last == TraceStep(Leaf.TDH_MEM_SEPT_ADD, OpState.INITIALIZED, OpState.INITIALIZED, sept)
    if not gpa_ok:
        expected = gpa_invalid
    elif not 0 <= token <= U64:
        expected = S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_R9)
    else:
        expected = S.TDX_SUCCESS
    measurement = td.measurement
    assert m.tdh_mem_page_add(td, gpa, token) == expected
    assert m.last.status == expected and td.op_state is OpState.INITIALIZED
    if expected == S.TDX_SUCCESS:
        assert td.pages == {gpa: token}
        assert m.tdh_mr_extend(td, gpa) == S.TDX_SUCCESS and td.measurement != measurement
    else:
        assert td.pages == {}
        assert m.tdh_mr_extend(td, gpa) == gpa_invalid and td.measurement == measurement
    assert not td.fatal


@pytest.mark.parametrize("gpa", [0x800000003001, 0x3001, 1 << 47, U64 & ~0xFFF, 0x1000])
def test_import_mem_stores_only_a_page_gpa(gpa):
    """A MEM bundle sealed with the session key still carries a GPA the page rule must admit."""
    gpa_invalid = S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_RCX)
    w = World(38)
    m, dst = w.m, w.dst
    state, pages, before = dst.op_state, dict(dst.pages), m.digest()
    payload = struct.pack("<QQ", gpa, 0xAA).ljust(md.LIST_BYTES, b"\x00")
    status = m.tdh_import_mem(dst, seal_for(dst, BundleType.MEM, [payload]))
    if gpa == 0x1000:
        assert status == S.TDX_SUCCESS and dst.pages == {**pages, gpa: 0xAA}
        return
    assert status == gpa_invalid
    assert m.last == TraceStep(Leaf.TDH_IMPORT_MEM, state, state, gpa_invalid)
    assert m.digest() == before


def test_mr_extend_refuses_a_gpa_the_td_has_no_page_at():
    gpa_invalid = S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_RCX)
    m = TdxModule(seed=36)
    td = _initialized_td(m)
    assert m.tdh_mem_page_add(td, 0x1000, 0xAA) == S.TDX_SUCCESS
    measurement = td.measurement
    assert m.tdh_mr_extend(td, 0x2000) == gpa_invalid
    assert m.last == TraceStep(Leaf.TDH_MR_EXTEND, OpState.INITIALIZED, OpState.INITIALIZED, gpa_invalid)
    assert td.measurement == measurement and td.pages == {0x1000: 0xAA}
    assert m.tdh_mr_extend(td, 0x1000) == S.TDX_SUCCESS and td.measurement != measurement


# --- the compiled gate and the cached session key -------------------------------

V1_MODES = (True, False)
_MODULES = {v1: TdxModule(EngineMode(v1=v1)) for v1 in V1_MODES}


def _gate_agrees_with_matrix(matrix, state, leaf, outcome, v1):
    """The compiled gate admits exactly the matrix's calls and moves as transition() does."""
    m = _MODULES[v1]
    key = (state, leaf)
    allowed = matrix.is_allowed(state, leaf)
    assert (key in m._edges) is allowed
    if allowed:
        expected = transition(matrix, state, leaf, outcome, not m.mode.v1)
        assert m._edges[key][outcome] is expected


@pytest.mark.parametrize("v1", V1_MODES)
def test_succeed_leaves_step_along_the_matrix_from_every_state(matrix, v1):
    m = _MODULES[v1]
    for name in SUCCEED_LEAVES:
        leaf = Leaf[name.upper()]
        for state in OpState:
            td = TdComplex(tdr_page=1, hkid=0)
            td.op_state = state
            status = getattr(m, name)(td)
            if matrix.is_allowed(state, leaf):
                expected = transition(matrix, state, leaf, "success", not m.mode.v1)
                assert status == S.TDX_SUCCESS
                assert td.op_state is expected
                assert td.trace == [TraceStep(leaf, state, expected, S.TDX_SUCCESS)]
            else:
                assert status == S.TDX_OP_STATE_INCORRECT
                assert td.op_state is state
                assert td.trace == [TraceStep(leaf, state, state, S.TDX_OP_STATE_INCORRECT)]


@pytest.mark.parametrize("flag,refusal", [("fatal", S.TDX_TD_FATAL), ("locked", TDR_BUSY)])
def test_fatal_or_locked_td_is_refused_by_a_real_leaf(flag, refusal):
    m = TdxModule(seed=26)
    status, td = m.build_td(TdParams(attributes=ATTR_MIGRATABLE), num_vcpus=1)
    assert status == S.TDX_SUCCESS and td.op_state is OpState.RUNNABLE
    setattr(td, flag, True)
    calls = (
        (Leaf.TDH_EXPORT_PAUSE, lambda: m.tdh_export_pause(td), refusal),
        (Leaf.TDH_EXPORT_STATE_IMMUTABLE, lambda: m.tdh_export_state_immutable(td),
         (refusal, None)),
        # No RUNNABLE row: the fatal and busy checks answer before the row's.
        (Leaf.TDH_IMPORT_END, lambda: m.tdh_import_end(td), refusal),
    )
    for leaf, call, answer in calls:
        steps = len(td.trace)
        assert call() == answer
        assert td.op_state is OpState.RUNNABLE
        assert td.trace[steps:] == [TraceStep(leaf, OpState.RUNNABLE, OpState.RUNNABLE, refusal)]
        assert m.last is td.trace[-1]
    assert validate_trace(m.matrix, td.trace, True) == []


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from([name for name in LEAVES if name not in BEFORE_ANY_TD]),
       state=st.sampled_from(list(OpState)),
       fatal=st.booleans(), locked=st.booleans())
@example(name="tdg_servtd_rd", state=OpState.RUNNABLE, fatal=True, locked=False)
@example(name="tdg_servtd_wr", state=OpState.RUNNABLE, fatal=True, locked=True)
@example(name="tdg_servtd_wr", state=OpState.PAUSED_EXPORT, fatal=False, locked=False)
@example(name="tdh_vp_rd", state=OpState.RUNNABLE, fatal=False, locked=True)
@example(name="tdh_mem_sept_add", state=OpState.MEMORY_IMPORT, fatal=True, locked=False)
@example(name="tdh_mng_rd", state=OpState.PAUSED_EXPORT, fatal=False, locked=True)
@example(name="tdg_servtd_rd", state=OpState.STATE_IMPORT, fatal=False, locked=True)
@example(name="tdh_export_pause", state=OpState.RUNNABLE, fatal=True, locked=False)
@example(name="tdh_export_pause", state=OpState.RUNNABLE, fatal=False, locked=True)
@example(name="tdh_export_state_immutable", state=OpState.RUNNABLE, fatal=True, locked=False)
@example(name="tdh_export_state_immutable", state=OpState.RUNNABLE, fatal=False, locked=True)
# No RUNNABLE row: the fatal and busy checks answer before the row's.
@example(name="tdh_import_end", state=OpState.RUNNABLE, fatal=True, locked=False)
@example(name="tdh_import_end", state=OpState.RUNNABLE, fatal=False, locked=True)
def test_every_leaf_is_refused_fatal_then_busy_then_off_the_matrix(name, state, fatal, locked):
    """Host or guest, a refused call answers one word and records one step that moves nothing."""
    w = World(45)
    m, td, leaf = w.m, w.src, Leaf[name.upper()]
    td.op_state, td.fatal, td.locked = state, fatal, locked
    admitted = m.matrix.is_allowed(state, leaf)
    assume(fatal or locked or not admitted)
    word = S.TDX_TD_FATAL if fatal else TDR_BUSY if locked else S.TDX_OP_STATE_INCORRECT
    head = (w.migtd, w.env["src_handle"]) if name in GUEST_LEAVES else (td,)
    before, steps = m.digest(), len(td.trace)
    result = getattr(m, name)(*head, *args(w, name))
    assert (result if type(result) is int else result[0]) == word, S.status_str(word)
    assert td.trace[steps:] == [TraceStep(leaf, state, state, word)]
    assert validate_trace(m.matrix, td.trace[steps:], True) == []
    assert m.last is td.trace[-1]
    assert m.digest() == before


@settings(max_examples=400, deadline=None)
@given(
    state=st.sampled_from(list(OpState)),
    leaf=st.sampled_from(list(Leaf)),
    outcome=st.sampled_from(OUTCOMES),
    v1=st.sampled_from(V1_MODES),
)
@example(OpState.UNINITIALIZED, Leaf.TDH_IMPORT_STATE_IMMUTABLE, "interrupted", False)
@example(OpState.UNINITIALIZED, Leaf.TDH_IMPORT_STATE_IMMUTABLE, "failure", False)
@example(OpState.START_IMPORT, Leaf.TDH_IMPORT_STATE_IMMUTABLE, "success", False)
def test_gate_and_next_state_agree_with_matrix(matrix, state, leaf, outcome, v1):
    _gate_agrees_with_matrix(matrix, state, leaf, outcome, v1)


def test_gate_and_next_state_agree_with_matrix_everywhere(matrix):
    for state in OpState:
        for leaf in Leaf:
            for outcome in OUTCOMES:
                for v1 in V1_MODES:
                    _gate_agrees_with_matrix(matrix, state, leaf, outcome, v1)


def test_modules_share_one_parse_of_each_fixture():
    first, second = TdxModule(seed=1), TdxModule(ALL_VULNERABLE, seed=2)
    assert first.catalog is second.catalog
    assert first.matrix is second.matrix
    # An explicit load is still a fresh parse.
    assert FieldCatalog.load() is not first.catalog
    assert PermissionMatrix.load() is not first.matrix


def test_rekey_between_mem_exports_seals_next_bundle_under_new_key():
    m = TdxModule(seed=26)
    env = standard_setup(m, num_vcpus=1, num_pages=2)
    src, old_key = env["src"], env["key"]
    status, first = m.tdh_export_mem(src, 0x1000)
    assert status == S.TDX_SUCCESS
    key_entry = m.catalog.by_name(MD_CTX_TD, "MIG_DEC_KEY")
    new_key = list(old_key)
    new_key[2] ^= 0xFF
    status, _ = m.tdg_servtd_wr(env["migtd"], env["src_handle"],
                                key_entry.field_id_for(0) + 2, new_key[2])
    assert status == S.TDX_SUCCESS
    status, second = m.tdh_export_mem(src, 0x2000)
    assert status == S.TDX_SUCCESS
    assert decrypted_lists({"key": old_key}, first)
    with pytest.raises(AssertionError, match="TDX_INCORRECT_MBMD_MAC"):
        decrypted_lists({"key": new_key}, first)
    assert decrypted_lists({"key": new_key}, second)[0][:8] == (0x2000).to_bytes(8, "little")
    with pytest.raises(AssertionError, match="TDX_INCORRECT_MBMD_MAC"):
        decrypted_lists({"key": old_key}, second)


def test_rekey_on_destination_applies_to_next_import():
    w = World(27)  # the first page's bundle imports
    m, env, dst = w.m, w.env, w.dst
    _, second = m.tdh_export_mem(w.src, 0x2000)
    key_entry = m.catalog.by_name(MD_CTX_TD, "MIG_DEC_KEY")
    status, _ = m.tdg_servtd_wr(env["migtd"], env["dst_handle"],
                                key_entry.field_id_for(0), env["key"][0] ^ 1)
    assert status == S.TDX_SUCCESS
    assert m.tdh_import_mem(dst, second) == S.TDX_INCORRECT_MBMD_MAC


def test_partly_written_key_is_decryption_key_not_set():
    m = TdxModule(seed=28)
    status, td = m.build_td(TdParams(attributes=ATTR_MIGRATABLE), num_vcpus=1)
    assert status == S.TDX_SUCCESS
    migtd = m.new_servtd()
    m.tdh_mig_stream_create(td)
    _, handle = m.tdh_servtd_bind(td, 0, migtd)
    key_entry = m.catalog.by_name(MD_CTX_TD, "MIG_DEC_KEY")
    for i in range(3):
        status, _ = m.tdg_servtd_wr(migtd, handle, key_entry.field_id_for(0) + i, 0x11 * (i + 1))
        assert status == S.TDX_SUCCESS
    assert not td.mig_dec_key_set
    status, _ = m.tdh_export_state_immutable(td)
    assert status == S.TDX_MIGRATION_DECRYPTION_KEY_NOT_SET
    migsc = td.migsc[0]
    unset = S.TDX_MIGRATION_DECRYPTION_KEY_NOT_SET
    td.op_state = OpState.LIVE_EXPORT  # direct placement: the key check follows the gate
    assert m.tdh_export_mem(td, 0x1000) == (unset, None)
    td.op_state = OpState.PAUSED_EXPORT
    assert m.tdh_export_state_td(td) == (unset, None)
    assert m.tdh_export_state_vp(td, 0) == (unset, None)
    # Each import is handed a bundle of its own type, so only the key refuses it.
    for name in BUNDLE_LEAVES:
        leaf = Leaf[name.upper()]
        td.op_state = state = admitting(m.matrix, leaf)
        vp = [0] if "vp_index" in OPERANDS[name] else []
        assert getattr(m, name)(td, *vp, seal_for(td, bundle_type(name), [])) == unset, leaf
        assert m.last == TraceStep(leaf, state, state, unset)
    assert migsc.iv_counter == 0 and not migsc.locked


def test_export_state_td_and_vp_busy_when_stream_held():
    m = TdxModule(seed=29)
    env = standard_setup(m, num_vcpus=1)
    src = env["src"]
    migsc = src.migsc[0]
    busy = S.with_operand(S.TDX_OPERAND_BUSY, S.OPERAND_ID_MIGSC)
    assert busy == STREAM_BUSY
    # A second immutable export starts from RUNNABLE (direct placement).
    src.op_state = OpState.RUNNABLE
    counter, exports = migsc.iv_counter, src.export_count
    assert not migsc.locked
    migsc.locked = True  # another owner holds the stream
    assert m.tdh_export_state_immutable(src) == (busy, None)
    assert migsc.iv_counter == counter and src.export_count == exports
    assert src.op_state is OpState.RUNNABLE
    migsc.locked = False
    src.op_state = OpState.LIVE_EXPORT
    assert m.tdh_export_pause(src) == S.TDX_SUCCESS
    assert not migsc.locked
    migsc.locked = True  # another owner holds the stream
    for call in (
        lambda: m.tdh_export_state_td(src),
        lambda: m.tdh_export_state_vp(src, 0),
        lambda: m.tdh_export_mem(src, 0x1000),
        lambda: m.tdh_export_mem(src, 0x1000, abort=True),
    ):
        assert call() == (busy, None)
    assert migsc.iv_counter == counter and src.op_state is OpState.PAUSED_EXPORT
    migsc.locked = False
    status, bundle = m.tdh_export_state_td(src)
    assert status == S.TDX_SUCCESS and bundle.mbmd.iv_counter == counter + 1
    status, bundle = m.tdh_export_state_vp(src, 0)
    assert status == S.TDX_SUCCESS and bundle.mbmd.iv_counter == counter + 2
    assert not migsc.locked


def test_service_td_key_write_is_a_trace_step():
    # The destination rekey sequence: the service TD's write sits between the imports.
    m = TdxModule(seed=27)
    env = standard_setup(m, num_vcpus=1, num_pages=2)
    dst = env["dst"]
    export_blackout(m, env, pages=[0x1000, 0x2000])
    first, second = env["bundle_mem"]
    assert m.tdh_import_state_immutable(dst, env["bundle_immutable"]) == S.TDX_SUCCESS
    start = len(dst.trace)
    assert m.tdh_import_mem(dst, first) == S.TDX_SUCCESS
    key_entry = m.catalog.by_name(MD_CTX_TD, "MIG_DEC_KEY")
    m.tdg_servtd_wr(env["migtd"], env["dst_handle"], key_entry.field_id_for(0), env["key"][0] ^ 1)
    assert m.tdh_import_mem(dst, second) == S.TDX_INCORRECT_MBMD_MAC
    assert dst.trace[start:] == [
        TraceStep(Leaf.TDH_IMPORT_MEM, OpState.MEMORY_IMPORT, OpState.MEMORY_IMPORT, S.TDX_SUCCESS),
        TraceStep(Leaf.TDG_SERVTD_WR, OpState.MEMORY_IMPORT, OpState.MEMORY_IMPORT, S.TDX_SUCCESS),
        TraceStep(Leaf.TDH_IMPORT_MEM, OpState.MEMORY_IMPORT, OpState.FAILED_IMPORT,
                  S.TDX_INCORRECT_MBMD_MAC),
    ]
    assert validate_trace(m.matrix, dst.trace, True) == []
    # A handle that names no bound TD leaves no step anywhere.
    steps = {id(td): len(td.trace) for td in m.tds.values()}
    status, _ = m.tdg_servtd_rd(env["migtd"], env["dst_handle"] + (1 << 30), key_entry.field_id_for(0))
    assert status == S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_TDR)
    assert {id(td): len(td.trace) for td in m.tds.values()} == steps


def test_import_mem_rejects_a_state_bundle_before_decrypting():
    w = World(30)
    m, dst = w.m, w.dst
    before = m.digest()
    assert m.tdh_import_mem(dst, w.bundles[BundleType.VP]) == S.TDX_INVALID_MBMD
    assert m.digest() == before and dst.op_state is OpState.STATE_IMPORT


def test_import_mem_busy_when_stream_held():
    w = World(31)
    m, src, dst, migsc = w.m, w.src, w.dst, w.dst.migsc[0]
    _, mem = m.tdh_export_mem(src, 0x2000)  # a page the destination does not hold yet
    assert not migsc.locked
    migsc.locked = True  # another owner holds the stream
    busy = S.with_operand(S.TDX_OPERAND_BUSY, S.OPERAND_ID_MIGSC)
    assert m.tdh_import_mem(dst, mem) == busy
    assert 0x2000 not in dst.pages and dst.op_state is OpState.STATE_IMPORT
    migsc.locked = False
    assert m.tdh_import_mem(dst, mem) == S.TDX_SUCCESS
    assert dst.pages[0x2000] == src.pages[0x2000] and not migsc.locked


def test_import_refuses_a_bundle_sealed_for_another_stream():
    w = World(34)
    m, dst, migsc = w.m, w.dst, w.dst.migsc[0]
    for name in BUNDLE_LEAVES:
        leaf, call = Leaf[name.upper()], getattr(m, name)
        own = w.honest(name)
        dst.op_state = state = admitting(m.matrix, leaf)
        before = m.digest()
        assert call(dst, *args(w, name, bundle=w.cross_stream(name))) == S.TDX_INVALID_MBMD, leaf
        assert m.last == TraceStep(leaf, state, state, S.TDX_INVALID_MBMD)
        assert m.digest() == before and not migsc.locked
        # The same lists sealed for the stream that opens them import.
        assert call(dst, *args(w, name, bundle=own)) == S.TDX_SUCCESS, leaf


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(STREAM_LEAVES), stream=st.sampled_from(["index", "key", "held"]),
       own=st.sampled_from(["type", "stream", "page", "eptp", "none"]))
@example(name="tdh_import_state_immutable", stream="held", own="type")
@example(name="tdh_export_mem", stream="held", own="page")
@example(name="tdh_import_mem", stream="held", own="eptp")
@example(name="tdh_import_mem", stream="key", own="type")
def test_a_stream_refusal_answers_before_the_leafs_own(name, stream, own):
    """No such stream, no full key, a held stream: the stream's word comes first, and nothing moves."""
    w = World(35)
    m, dst, migsc, leaf = w.m, w.dst, w.dst.migsc[0], Leaf[name.upper()]
    # The leaf's own refusal, where it takes the operand: a bundle of another
    # type or for another stream, or a GPA with no page.
    refused = {"type": {"bundle": World.wrong_type}, "stream": {"bundle": World.cross_stream},
               "page": {"gpa": NO_PAGE}}.get(own, {})
    operands = args(w, name, migsc_index=len(dst.migsc) if stream == "index" else 0, **refused)
    dst.op_state = state = admitting(m.matrix, leaf)
    if own == "eptp":
        dst.eptp_raw = 0
    if stream == "key":
        dst._mig_dec_key_written.discard(0)  # direct placement: the key is not written in full
    migsc.locked = stream == "held"  # another owner holds the stream
    word = {"index": S.TDX_MIGRATION_STREAM_STATE_INCORRECT,
            "key": S.TDX_MIGRATION_DECRYPTION_KEY_NOT_SET,
            "held": S.with_operand(S.TDX_OPERAND_BUSY, S.OPERAND_ID_MIGSC)}[stream]
    before, steps = m.digest(), len(dst.trace)
    result = getattr(m, name)(dst, *operands)
    assert (result if type(result) is int else result[0]) == word, S.status_str(word)
    assert dst.trace[steps:] == [TraceStep(leaf, state, state, word)]
    assert m.digest() == before


def test_each_stream_step_has_one_home():
    """Only _stream refuses a held stream, only _open decrypts and only _seal encrypts.

    No engine code sets a stream's ``locked``: only an outside owner does.  No
    engine code stores a ``key`` and a stream has none: the TD's key has one home.
    """
    homes = {"STREAM_BUSY": "_stream", "decrypt_bundle": "_open", "encrypt_bundle": "_seal"}
    uses = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = getattr(child, "attr", None) or getattr(child, "id", None)
            if name in homes:
                uses.append((name, owner))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else owner)

    with open(engine.__file__) as source:
        tree = ast.parse(source.read())
    visit(tree, None)
    assert sorted(uses) == sorted(homes.items())
    assert not [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and node.attr in ("locked", "key") and isinstance(node.ctx, ast.Store)]
    assert "key" not in vars(MigStreamContext(0))


def test_vp_rd_refuses_a_vp_the_td_does_not_have():
    m = TdxModule(seed=26)
    status, td = m.build_td(TdParams(attributes=ATTR_DEBUG), num_vcpus=1)
    assert status == S.TDX_SUCCESS
    xcr0 = m.catalog.by_name(MD_CTX_VP, "XCR0")
    assert m.tdh_vp_rd(td, 0, xcr0.field_id_raw) == (S.TDX_SUCCESS, td.xfam | XCR0_X87)
    refused = S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_TDVPR)
    for vp_index in (1, 7):
        assert m.tdh_vp_rd(td, vp_index, xcr0.field_id_raw) == (refused, 0)
        assert td.trace[-1] is m.last
        assert m.last == TraceStep(Leaf.TDH_VP_RD, td.op_state, td.op_state, refused)


# --- build <=> honest round trip, all fixed -------------------------------------------------

# Each build parameter of a migratable TD as (in range, out of range) draws; gpaw
# and ept_pwl are drawn as one pair, since the EPTP rule reads both.
_BUILD_FIELDS = {
    "attributes": (st.sampled_from([ATTR_MIGRATABLE, ATTR_MIGRATABLE | ATTR_SEPT_VE_DISABLE]),
                   st.sampled_from([ATTR_MIGRATABLE | ATTR_DEBUG, ATTR_MIGRATABLE | ATTR_PERFMON])),
    "xfam": (st.sampled_from([XFAM_FIXED1, 0x7, XFAM_ALLOWED]),
             st.sampled_from([0, 1]) | st.integers(XFAM_ALLOWED + 1, U64)),
    "eptp": (st.sampled_from([(False, LVL_PML4), (False, LVL_PML5), (True, LVL_PML5)]),
             st.tuples(st.booleans(), st.sampled_from([0, 1, 2, 5, 6, 7]))
             | st.just((True, LVL_PML4))),
    "tsc_frequency": (st.integers(VIRT_TSC_FREQUENCY_MIN, VIRT_TSC_FREQUENCY_MAX),
                      st.integers(0, VIRT_TSC_FREQUENCY_MIN - 1)
                      | st.integers(VIRT_TSC_FREQUENCY_MAX + 1, U64)),
    "hp_lock_timeout": (st.integers(MIN_HP_LOCK_TIMEOUT_USEC, MAX_HP_LOCK_TIMEOUT_USEC),
                        st.integers(0, MIN_HP_LOCK_TIMEOUT_USEC - 1)
                        | st.integers(MAX_HP_LOCK_TIMEOUT_USEC + 1, U64)),
}


@st.composite
def _migratable_params(draw):
    """Migratable TdParams with no, one or two fields out of range, so builds both pass and fail."""
    broken = draw(st.sets(st.sampled_from(sorted(_BUILD_FIELDS)), max_size=2))
    values = {name: draw(bad if name in broken else good)
              for name, (good, bad) in _BUILD_FIELDS.items()}
    gpaw, ept_pwl = values.pop("eptp")
    return TdParams(gpaw=gpaw, ept_pwl=ept_pwl, **values)


def _holding(m, params):
    """A TD built from valid parameters, then given ``params``' configuration directly."""
    status, td = m.build_td(TdParams(attributes=ATTR_MIGRATABLE), num_vcpus=1, num_pages=2)
    assert status == S.TDX_SUCCESS
    td.attributes = params.attributes
    td.xfam = params.xfam
    td.gpaw = int(params.gpaw)
    td.eptp_raw = EptpControls(ept_pwl=params.ept_pwl, base_pa=td.sept_root_pa).raw
    td.tsc_frequency = params.tsc_frequency
    td.hp_lock_timeout = params.hp_lock_timeout
    return td


def _honest_round_trip(m, src):
    """Export ``src`` and its pages on one stream and import them into a fresh template.

    Returns the destination's op_state after the first call that does not succeed,
    or after import end.
    """
    env = migration_env(m, src)
    export_blackout(m, env, pages=list(src.pages))
    if import_to_state_import(m, env, mem=env["bundle_mem"]) == S.TDX_SUCCESS:
        finish_import(m, env)
    return env["dst"].op_state


@settings(max_examples=100, deadline=None)
@given(params=_migratable_params())
@example(params=TdParams(attributes=ATTR_MIGRATABLE))
@example(params=TdParams(attributes=ATTR_MIGRATABLE, hp_lock_timeout=0))
@example(params=TdParams(attributes=ATTR_MIGRATABLE, hp_lock_timeout=MAX_HP_LOCK_TIMEOUT_USEC + 1))
@example(params=TdParams(attributes=ATTR_MIGRATABLE, ept_pwl=0))
def test_fixed_build_succeeds_exactly_when_the_honest_round_trip_ends_runnable(params):
    m = TdxModule(seed=41)
    status, td = m.build_td(params, num_vcpus=1, num_pages=2)
    built = status == S.TDX_SUCCESS
    src = td if built else _holding(m, params)
    assert (_honest_round_trip(m, src) is OpState.RUNNABLE) == built, S.status_str(status)


def test_build_and_import_refuse_a_walk_level_other_than_pml4_or_pml5():
    refused = S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_EPTP_CONTROLS)
    for ept_pwl in (0, 1, 2, 5, 6, 7):
        m = TdxModule(seed=42)
        params = TdParams(attributes=ATTR_MIGRATABLE, ept_pwl=ept_pwl)
        status, td = m.build_td(params, num_vcpus=1, num_pages=2)
        assert status == refused and not td.fatal, ept_pwl
        # A source holding such an EPTP: the destination refuses it before any page.
        src = _holding(m, params)
        assert _honest_round_trip(m, src) is OpState.FAILED_IMPORT
        dst = m.tds[max(m.tds)]
        assert Leaf.TDH_IMPORT_MEM not in {step.leaf for step in dst.trace}
        assert dst.trace[-1].leaf is Leaf.TDH_IMPORT_STATE_IMMUTABLE and not dst.fatal


# --- out-of-range operands, all fixed -----------------------------------------------------

def test_bounded_calls_are_found_from_the_signatures():
    names = {name for name, _ in BOUNDED_CALLS}
    assert {"tdh_mng_create", "tdh_sys_config", "tdh_vp_rd", "tdh_export_state_vp",
            "tdh_import_state_vp", "tdh_import_mem"} <= names
    assert {param for _, param in BOUNDED_CALLS} == set(OPERAND_WORDS)


@settings(max_examples=150, deadline=None)
@given(call=st.sampled_from(BOUNDED_CALLS),
       offset=st.integers(-2**64, -1) | st.just(0) | st.integers(1, 2**64),
       by_keyword=st.booleans())
@example(call=("tdh_export_state_td", "migsc_index"), offset=-1, by_keyword=False)
@example(call=("tdh_import_state_vp", "vp_index"), offset=-1, by_keyword=False)
@example(call=("tdh_import_state_vp", "migsc_index"), offset=-1, by_keyword=True)
@example(call=("tdh_mng_create", "hkid"), offset=-1, by_keyword=True)
@example(call=("tdh_sys_config", "hkid"), offset=-1, by_keyword=False)
def test_out_of_range_operand_is_refused_and_changes_nothing(call, offset, by_keyword):
    """A negative, first-past-the-end or large index: the operand's word, no state change.

    ``offset`` below zero is the index itself; otherwise the index is that far past the end.
    """
    name, bounded = call
    w = World(43, num_vcpus=2)
    m, td = w.m, w.src
    limit = {"vp_index": len(td.vps), "migsc_index": len(td.migsc), "hkid": len(m.kot)}[bounded]
    index = offset if offset < 0 else limit + offset
    passed = dict(zip(OPERANDS[name], args(w, name, **{bounded: index})))
    host_leaf = name not in BEFORE_ANY_TD
    if host_leaf:
        leaf = Leaf[name.upper()]
        td.op_state = state = admitting(m.matrix, leaf)
    before, steps = m.digest(), len(td.trace)
    method = getattr(m, name)
    head = (td,) if host_leaf else ()
    result = method(*head, **passed) if by_keyword else method(*head, *passed.values())
    word = OPERAND_WORDS[bounded]
    assert (result if type(result) is int else result[0]) == word, S.status_str(word)
    assert m.digest() == before
    if host_leaf:
        assert td.trace[steps:] == [TraceStep(leaf, state, state, word)]
    else:
        assert len(td.trace) == steps


def test_bind_refuses_a_slot_outside_twelve_bits():
    m = TdxModule(seed=44)
    status, td = m.build_td(TdParams(attributes=ATTR_MIGRATABLE), num_vcpus=1)
    assert status == S.TDX_SUCCESS
    migtd = m.new_servtd()
    refused = S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_R8)
    for slot in (-1, -(1 << 12), 1 << 12, 5000, 2**64):
        assert m.tdh_servtd_bind(td, slot, migtd) == (refused, None), slot
        assert m.last == TraceStep(Leaf.TDH_SERVTD_BIND, td.op_state, td.op_state, refused)
    assert td.servtd_bindings == {}
    status, handle = m.tdh_servtd_bind(td, (1 << 12) - 1, migtd)
    assert status == S.TDX_SUCCESS and td.servtd_bindings == {(1 << 12) - 1: migtd.uuid}
    key_entry = m.catalog.by_name(MD_CTX_TD, "MIG_DEC_KEY")
    assert m.tdg_servtd_rd(migtd, handle, key_entry.field_id_for(0))[0] == S.TDX_SUCCESS


# --- the host-call alphabet, and the fixed-mode holes it pins -----------------------------

def test_every_leaf_operand_has_values_in_the_alphabet():
    """A new public method, or a new parameter of one, fails here until the alphabet gives it
    values or ``OUT_OF_WALK`` names why the walk leaves the method out.

    A defaulted parameter's first in-range value is its default, so ``args``
    calls a leaf as its defaults do, and every table entry names a parameter
    some leaf takes.
    """
    assert set(OUT_OF_WALK) <= set(PUBLIC) and all(OUT_OF_WALK.values())
    assert set(WALKED) == set(PUBLIC) - set(OUT_OF_WALK) and "md_next_cpuid_field" in WALKED
    named = set()
    for name in WALKED:
        params = list(inspect.signature(getattr(TdxModule, name)).parameters.values())[1:]
        for param in params:
            if param.name == "td":
                continue
            key = f"{name}.{param.name}" if f"{name}.{param.name}" in VALUES else param.name
            assert key in VALUES, f"{name}: no values for {param.name}"
            named.add(key)
            in_range, _ = values(name, param.name)
            assert in_range, key
            if param.default is not inspect.Parameter.empty:
                assert in_range[0] == param.default, key
    assert set(VALUES) == named


class HoleOpen(Exception):
    """A known hole's final check found it open: the one error its strict xfail admits, so a
    failing set-up fails the test instead of passing as expected."""


def hole_closed(closed: bool, why: str = "") -> None:
    if not closed:
        raise HoleOpen(why)


known_hole = functools.partial(pytest.mark.xfail, strict=True, raises=HoleOpen)


@known_hole(reason="ROADMAP item 1(a): one VP bundle imports into two VPs")
def test_one_vp_bundle_does_not_complete_a_two_vp_import():
    w = World(48, num_vcpus=2)
    m, dst = w.m, w.dst
    for vp_index in (0, 1):  # both from vCPU 0's bundle
        m.tdh_import_state_vp(dst, *args(w, "tdh_import_state_vp", vp_index=vp_index))
    m.tdh_import_track(dst, *args(w, "tdh_import_track"))
    m.tdh_import_commit(dst)
    m.tdh_import_end(dst)
    hole_closed(dst.op_state is not OpState.RUNNABLE)


@known_hole(reason="ROADMAP item 1(b): an older MEM bundle rolls a page back")
def test_an_older_mem_bundle_does_not_roll_a_page_back():
    w = World(49)
    m, src, dst = w.m, w.src, w.dst
    older = w.bundles[BundleType.MEM]  # imported once already, by the set-up
    src.pages[PAGE] ^= 1  # the page changes after its first export
    status, newer = m.tdh_export_mem(src, *args(w, "tdh_export_mem"))
    assert status == S.TDX_SUCCESS
    for bundle in (newer, older, older):
        m.tdh_import_mem(dst, *args(w, "tdh_import_mem", bundle=bundle))
    hole_closed(dst.pages[PAGE] == src.pages[PAGE])


@known_hole(reason="ROADMAP item 11: a forged start token completes an import")
def test_a_forged_start_token_does_not_complete_an_import():
    w = World(50)
    m, dst = w.m, w.dst
    assert m.tdh_import_state_vp(dst, *args(w, "tdh_import_state_vp")) == S.TDX_SUCCESS
    m.tdh_import_track(dst, *args(w, "tdh_import_track", token=FORGED_START))
    m.tdh_import_commit(dst)
    m.tdh_import_end(dst)
    hole_closed(dst.op_state is not OpState.RUNNABLE)


@known_hole(reason="ROADMAP item 11: a source aborts an export already completed")
def test_a_migrated_td_has_one_runnable_copy():
    w = World(51)
    assert finish_import(w.m, w.env) == S.TDX_SUCCESS and w.dst.op_state is OpState.RUNNABLE
    w.m.tdh_export_abort(w.src)
    hole_closed(w.src.op_state is not OpState.RUNNABLE)


@known_hole(reason="ROADMAP item 12: a resume takes another TD's bundle")
def test_an_interrupted_import_resumes_only_its_own_bundle():
    w = World(52)
    m, dst = w.m, new_template(w.m, w.env)["dst"]
    name = "tdh_import_state_immutable"
    status = m.tdh_import_state_immutable(dst, *args(w, name, interrupt_after=0))
    assert status == S.TDX_INTERRUPTED_RESUMABLE
    status = m.tdh_import_state_immutable(dst, *args(w, name, bundle=w.other_immutable, resume=True))
    hole_closed(status != S.TDX_SUCCESS, S.status_str(status))


# --- the refusal law: a refused call changes no store ---------------------------------------

# The leaves that walk the SEPT, and answer TD_FATAL from an EPTP the walk cannot use.
SEPT_LEAVES = tuple(name for name in LEAVES
                    if "sept_walk_ok(td)" in inspect.getsource(getattr(TdxModule, name)))

# (leaf, word) -> (the stores a call refused with that word may change, why).
# A refusal no row names leaves every store of TdxModule.digest() as it was.
DESIGNED_WRITES = {
    ("tdh_export_mem", S.TDX_INTERRUPTED_RESUMABLE):
        ({"migsc"}, "an aborted export spends its IV, so no IV seals two payloads"),
    ("tdh_import_state_immutable", S.TDX_INTERRUPTED_RESUMABLE):
        ({"op_state", "td_store", "sys_store", "import_written", "migsc"},
         "an interrupted import keeps the lists it wrote and the cursor it resumes from"),
    **{(name, S.TDX_TD_FATAL):
       ({"fatal"}, "a SEPT walk from an unusable EPTP, or an xcr0 without x87, is the "
                   "machine-check or #GP(0) analog: the TD goes fatal")
       for name in SEPT_LEAVES},
    **{(name, S.TDX_INCORRECT_MBMD_MAC):
       ({"op_state"}, "a bundle that fails its MAC moves the TD to FAILED_IMPORT")
       for name in BUNDLE_LEAVES},
}


def _refusal_law(name, status, before, m):
    """The law for one call of leaf ``name`` that answered ``status``; ``before`` is the digest."""
    if status == S.TDX_SUCCESS:
        return
    after = m.digest()
    changed = sorted(path for path in before.keys() | after.keys()
                     if before.get(path) != after.get(path))
    allowed = DESIGNED_WRITES.get((name, status), (set(),))[0]
    assert {path.rsplit(".", 1)[-1] for path in changed} <= allowed, (
        f"{name} answered {S.status_str(status)} and changed {changed}")


@st.composite
def _any_call(draw):
    """A leaf, its target (src or dst) and raw operands, each from all of its alphabet values."""
    name = draw(st.sampled_from(LEAVES))

    def pick(param):
        return draw(st.sampled_from(sum(values(name, param), [])))

    head = (pick("caller"), pick("handle")) if name in GUEST_LEAVES else ()
    return name, draw(st.sampled_from(["src", "dst"])), head, tuple(map(pick, OPERANDS[name]))


_PERFMON = TdParams(attributes=ATTR_PERFMON)


@settings(max_examples=200, deadline=None)
@given(call=_any_call())
# A refused init wrote the TD configuration: a zero filter, a count below zero, a filter short.
@example(call=("tdh_mng_init", "src", (), (_PERFMON, True, 1, [0])))
@example(call=("tdh_mng_init", "src", (), (_PERFMON, True, -1, None)))
@example(call=("tdh_mng_init", "dst", (), (_PERFMON, True, 2, [EventFilter(1, 1).raw])))
def test_a_refused_call_changes_no_store_but_its_designed_writes(call):
    """All fixed, on a fresh world, with the target placed where the matrix admits the leaf."""
    name, target, head, operands = call
    w = World(53)
    td = getattr(w, target)
    if name not in BEFORE_ANY_TD:
        td.op_state = admitting(w.m.matrix, Leaf[name.upper()])
    head = [build(w, name, v) for v in head] or ([] if name in BEFORE_ANY_TD else [td])
    operands = [build(w, name, v) for v in operands]  # before the digest: a value may build a TD
    before = w.m.digest()
    result = getattr(w.m, name)(*head, *operands)
    _refusal_law(name, result if type(result) is int else result[0], before, w.m)


# --- the SEPT-walk freeze --------------------------------------------------------------------

# An EPTP the SEPT walk refuses: a level other than PML4 or PML5, or root page 0.
UNWALKABLE = st.integers(0, U64).filter(
    lambda raw: (raw >> 3) & 7 not in (LVL_PML4, LVL_PML5) or (raw >> 12) & ((1 << 40) - 1) == 0)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(SEPT_LEAVES), eptp=UNWALKABLE)
@example(name="tdh_mem_page_add", eptp=0)
@example(name="tdh_import_mem", eptp=0)
@example(name="tdh_import_mem", eptp=EptpControls(ept_pwl=2, base_pa=0x55).raw)
def test_a_sept_walk_from_an_unusable_eptp_freezes_the_td(name, eptp):
    """Each SEPT-walking leaf, admitted, answers TD_FATAL and changes only ``fatal``; then the gate
    refuses the TD with TD_FATAL."""
    w = World(55)
    m, dst, leaf = w.m, w.dst, Leaf[name.upper()]
    dst.op_state = state = admitting(m.matrix, leaf)
    dst.eptp_raw = eptp
    operands = args(w, name)
    before = m.digest()
    assert getattr(m, name)(dst, *operands) == S.TDX_TD_FATAL
    assert dst.fatal and m.last is dst.trace[-1]
    assert m.last == TraceStep(leaf, state, state, S.TDX_TD_FATAL)
    after = m.digest()
    changed = {path for path in before if before[path] != after[path]}
    assert changed == {f"tds[{dst.tdr_page:#x}].fatal"}
    _refusal_law(name, S.TDX_TD_FATAL, before, m)
    assert getattr(m, name)(dst, *operands) == S.TDX_TD_FATAL
    assert dst.trace[-1] == TraceStep(leaf, state, state, S.TDX_TD_FATAL) and m.digest() == after


# --- the three read leaves share one body ------------------------------------------------------

# The three bodies as they were written before they shared TdxModule._read, as the leaf answers.
def _mng_rd_before(m, td, field_id_raw, count):
    if count < 1:
        return S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_RDX), []
    values = []
    fid = md.decode_field_id(field_id_raw)
    code = fid.field_code
    for i in range(count):
        entry = m.catalog.find_entry(MD_CTX_TD, dataclasses.replace(fid, field_code=code + i))
        if entry is None:
            return S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_RDX), values
        mask = entry.dbg_rd_mask if td.attributes & ATTR_DEBUG else entry.prod_rd_mask
        if mask == 0:
            return S.TDX_METADATA_FIELD_NOT_READABLE, values
        values.append(td.read_element(entry, (code + i) - entry.field_code) & mask)
    return S.TDX_SUCCESS, values


def _vp_rd_before(m, td, vp_index, field_id_raw):
    fid = md.decode_field_id(field_id_raw)
    entry = m.catalog.find_entry(MD_CTX_VP, fid)
    if entry is None:
        return S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_RDX), 0
    mask = entry.dbg_rd_mask if td.attributes & ATTR_DEBUG else entry.prod_rd_mask
    if mask == 0:
        return S.TDX_METADATA_FIELD_NOT_READABLE, 0
    value = td.read_element(entry, fid.field_code - entry.field_code, vp_index) & mask
    return S.TDX_SUCCESS, value


def _servtd_rd_before(m, td, field_id_raw):
    fid = md.decode_field_id(field_id_raw)
    entry = m.catalog.find_entry(MD_CTX_TD, fid)
    if entry is None:
        return S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_RDX), 0
    if entry.migtd_rd_mask == 0:
        return S.TDX_METADATA_FIELD_NOT_READABLE, 0
    position = fid.field_code - entry.field_code
    return S.TDX_SUCCESS, td.read_element(entry, position) & entry.migtd_rd_mask


# The shipped catalog with every other entry of each context unreadable: its three read masks zero.
# No shipped TD entry has a zero service-TD read mask.
_UNREADABLE = FieldCatalog([
    dataclasses.replace(e, prod_rd_mask=0, dbg_rd_mask=0, migtd_rd_mask=0) if i % 2 else e
    for ctx in (md.MD_CTX_SYS, MD_CTX_TD, MD_CTX_VP)
    for i, e in enumerate(_CATALOG.entries_for(ctx))
])
_READ_IDS = sorted({*sum(values("tdh_mng_rd", "field_id_raw"), []),
                    *sum(values("tdh_vp_rd", "field_id_raw"), []),
                    *(e.field_id_for(0) + k for ctx in (MD_CTX_TD, MD_CTX_VP)
                      for e in _CATALOG.entries_for(ctx) for k in (0, e.code_span - 1))})


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(["tdh_mng_rd", "tdh_vp_rd", "tdg_servtd_rd"]),
       field_id=st.sampled_from(_READ_IDS) | st.integers(0, U64),
       count=st.integers(0, 4), debug=st.booleans(), unreadable=st.booleans())
@example(name="tdg_servtd_rd", field_id=_UNREADABLE.entries_for(MD_CTX_TD)[1].field_id_for(0),
         count=1, debug=False, unreadable=True)
@example(name="tdh_mng_rd", field_id=_UNREADABLE.entries_for(MD_CTX_TD)[0].field_id_for(0),
         count=4, debug=True, unreadable=True)
@example(name="tdh_mng_rd", field_id=MIG_DEC_KEY_ID, count=4, debug=True, unreadable=False)
@example(name="tdh_vp_rd", field_id=_CATALOG.by_name(MD_CTX_VP, "XCR0").field_id_raw, count=1,
         debug=False, unreadable=False)
@example(name="tdh_mng_rd", field_id=ATTRIBUTES_ID | 1 << 55, count=1, debug=False,
         unreadable=False)
@example(name="tdh_vp_rd", field_id=ATTRIBUTES_ID, count=1, debug=True, unreadable=False)
def test_the_read_leaves_answer_as_their_three_bodies_did(name, field_id, count, debug, unreadable):
    """tdh_mng_rd, tdh_vp_rd and tdg_servtd_rd, each admitted: the same word, values and step."""
    w = World(56)
    m, td, leaf = w.m, w.dst, Leaf[name.upper()]
    if unreadable:
        m.catalog = _UNREADABLE
    if debug:
        td.attributes |= ATTR_DEBUG
    td.op_state = state = admitting(m.matrix, leaf)
    call, before = {
        "tdh_mng_rd": (lambda: m.tdh_mng_rd(td, field_id, count),
                       lambda: _mng_rd_before(m, td, field_id, count)),
        "tdh_vp_rd": (lambda: m.tdh_vp_rd(td, 0, field_id),
                      lambda: _vp_rd_before(m, td, 0, field_id)),
        "tdg_servtd_rd": (lambda: m.tdg_servtd_rd(w.migtd, w.env["dst_handle"], field_id),
                          lambda: _servtd_rd_before(m, td, field_id)),
    }[name]
    expected = before()
    # The shared body refuses first an id outside its register, with a reserved bit set
    # (bits 24-31, 47-49, 55 and 62), or of another context than the leaf's.
    context = MD_CTX_VP if name == "tdh_vp_rd" else MD_CTX_TD
    reserved = 0xFF << 24 | 0b111 << 47 | 1 << 55 | 1 << 62
    if not 0 <= field_id <= U64 or field_id & reserved or field_id >> 52 & 0b111 != context:
        expected = (S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_RDX),
                    [] if name == "tdh_mng_rd" else 0)
    assert call() == expected
    after = m._edges[state, leaf]["success"] if expected[0] == S.TDX_SUCCESS else state
    assert m.last == TraceStep(leaf, state, after, expected[0]) and m.last is td.trace[-1]


# The register each metadata operand travels in, as the word refusing a value outside its 64 bits.
_REGISTER_WORDS = {"field_id_raw": S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_RDX),
                   "value": S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_R8),
                   "mask": S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_R9)}


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(["tdh_mng_rd", "tdh_vp_rd", "tdg_servtd_rd", "tdh_mng_wr",
                             "tdg_servtd_wr"]),
       operand=st.sampled_from(sorted(_REGISTER_WORDS)),
       raw=st.sampled_from([-1, 1 << 64]) | st.integers(1 << 64, 1 << 70)
       | st.integers(-(1 << 70), -1))
@example(name="tdh_mng_rd", operand="field_id_raw", raw=ATTRIBUTES_ID | 1 << 64)
@example(name="tdh_mng_rd", operand="field_id_raw", raw=ATTRIBUTES_ID - (1 << 64))
@example(name="tdg_servtd_wr", operand="field_id_raw", raw=MIG_DEC_KEY_ID | 1 << 64)
@example(name="tdg_servtd_wr", operand="value", raw=(1 << 64) | 7)
@example(name="tdg_servtd_wr", operand="value", raw=-1)
@example(name="tdg_servtd_wr", operand="mask", raw=-1)
def test_a_metadata_operand_outside_64_bits_is_refused_with_its_register(name, operand, raw):
    """A field id (RDX), or a write's value (R8) or mask (R9), outside its 64-bit register:
    that register's word, a step with no edge, and no store changed."""
    assume(operand in OPERANDS[name])
    w = World(59)
    m, td, leaf = w.m, w.dst, Leaf[name.upper()]
    td.op_state = state = admitting(m.matrix, leaf)
    head = [w.migtd, w.env["dst_handle"]] if name in GUEST_LEAVES else [td]
    operands = args(w, name, **{"field_id_raw": MIG_DEC_KEY_ID, operand: raw})
    before = m.digest()
    result = getattr(m, name)(*head, *operands)
    word = _REGISTER_WORDS[operand]
    assert (result if type(result) is int else result[0]) == word, S.status_str(word)
    assert m.last == TraceStep(leaf, state, state, word) and m.last is td.trace[-1]
    assert m.digest() == before


# --- one admission rule for every field id ---------------------------------------------------

# Each caller handed a field id: the context it admits, the call on a World's destination, and
# the answer for an id it cannot use.
_FIELD_ID_INVALID = S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_RDX)
_ID_CALLERS = {
    "tdh_mng_rd": (MD_CTX_TD, lambda w, raw: w.m.tdh_mng_rd(w.dst, raw), (_FIELD_ID_INVALID, [])),
    "tdh_mng_wr": (MD_CTX_TD, lambda w, raw: w.m.tdh_mng_wr(w.dst, raw, 7), _FIELD_ID_INVALID),
    "tdh_vp_rd": (MD_CTX_VP, lambda w, raw: w.m.tdh_vp_rd(w.dst, 0, raw), (_FIELD_ID_INVALID, 0)),
    "tdg_servtd_rd": (MD_CTX_TD, lambda w, raw: w.m.tdg_servtd_rd(w.migtd, w.env["dst_handle"], raw),
                      (_FIELD_ID_INVALID, 0)),
    "tdg_servtd_wr": (MD_CTX_TD,
                      lambda w, raw: w.m.tdg_servtd_wr(w.migtd, w.env["dst_handle"], raw, 7),
                      (_FIELD_ID_INVALID, 0)),
    "md_next_cpuid_field": (MD_CTX_TD, lambda w, raw: w.m.md_next_cpuid_field(raw),
                            md.MD_FIELD_ID_NA),
}
_CPUID_ID = CpuidLookup().field_id_for
# The ids drawn ids start from: each TD and VP entry's first field, and the CPUID table's ends.
_BASE_IDS = [e.field_id_for(0) for ctx in (MD_CTX_TD, MD_CTX_VP) for e in _CATALOG.entries_for(ctx)]
_BASE_IDS += [_CPUID_ID(0), _CPUID_ID(MAX_NUM_CPUID_LOOKUP - 2), _CPUID_ID(MAX_NUM_CPUID_LOOKUP - 1)]


@st.composite
def _field_ids(draw):
    """A base id with up to two FIELD_ID_LAYOUT subfields redrawn over their whole width, the
    reserved ranges and the context code among them; then perhaps moved outside 64 bits."""
    raw = draw(st.sampled_from(_BASE_IDS))
    for _, shift, width in draw(st.lists(st.sampled_from(md.FIELD_ID_LAYOUT), max_size=2)):
        raw = raw & ~(((1 << width) - 1) << shift) | draw(st.integers(0, (1 << width) - 1)) << shift
    return raw + draw(st.sampled_from([0, 0, 1 << 64, -(1 << 64)]))


def _answer_and_lookups(call):
    """The call's answer, and each field id it looked up in a catalog."""
    looked_up, find_entry = [], FieldCatalog.find_entry

    def spy(catalog, context_code, fid):
        looked_up.append(fid)
        return find_entry(catalog, context_code, fid)

    FieldCatalog.find_entry = spy
    try:
        return call(), looked_up
    finally:
        FieldCatalog.find_entry = find_entry


_TSC_FREQUENCY_ID = _CATALOG.by_name(MD_CTX_TD, "TSC_FREQUENCY").field_id_raw


@settings(max_examples=120, deadline=None)
@given(raw=_field_ids(), debug=st.booleans())
@example(raw=ATTRIBUTES_ID | 1 << 24, debug=False)
@example(raw=ATTRIBUTES_ID | 1 << 47, debug=False)
@example(raw=ATTRIBUTES_ID | 1 << 55, debug=False)
@example(raw=ATTRIBUTES_ID | 1 << 62, debug=False)
@example(raw=MIG_DEC_KEY_ID | 1 << 24, debug=False)
@example(raw=_CATALOG.by_name(MD_CTX_VP, "XCR0").field_id_raw, debug=False)
@example(raw=_CATALOG.by_name(MD_CTX_VP, "CR2").field_id_raw, debug=False)
@example(raw=_TSC_FREQUENCY_ID, debug=True)
@example(raw=_CPUID_ID(0) | 1 << 24, debug=False)
def test_a_field_id_gets_past_admission_exactly_by_the_one_rule(raw, debug):
    """The five metadata leaves and the CPUID search admit an id exactly when it fits 64 bits,
    sets no reserved bit (24-31, 47-49, 55, 62) and names the caller's context.  An admitted
    id is looked up, and a leaf refuses it only if no entry covers it; a refused id answers the
    caller's word, records the step it records for any such word, and changes no store."""
    reserved = 0xFF << 24 | 0b111 << 47 | 1 << 55 | 1 << 62
    w = World(63)
    m, td = w.m, w.dst
    if debug:
        td.attributes |= ATTR_DEBUG
    for name, (context, call, refused) in _ID_CALLERS.items():
        admitted = 0 <= raw <= U64 and not raw & reserved and raw >> 52 & 0b111 == context
        leaf = Leaf.__members__.get(name.upper())
        if leaf:
            td.op_state = state = admitting(m.matrix, leaf)
        before, steps, reads = m.digest(), len(td.trace), len(m.cpuid.access_log)
        answer, looked_up = _answer_and_lookups(lambda: call(w, raw))
        if not leaf:  # the CPUID search: past admission, an id of the class finds a next slot
            slot, class_code = raw & 0xFFFFFF, raw >> 56 & 0x3F
            in_table = class_code == CPUID_CLASS_CODE and slot < MAX_NUM_CPUID_LOOKUP - 1
            assert (answer != md.MD_FIELD_ID_NA) == (admitted and in_table), name
        elif admitted:
            covered = _CATALOG.find_entry(context, md.decode_field_id(raw)) is not None
            word = answer if type(answer) is int else answer[0]
            assert looked_up and (word != _FIELD_ID_INVALID) == covered, name
        if admitted:
            continue
        assert answer == refused and not looked_up, name
        assert m.digest() == before, name
        if leaf:
            assert td.trace[steps:] == [TraceStep(leaf, state, state, _FIELD_ID_INVALID)], name
            assert m.last is td.trace[-1]
        else:
            assert m.last is None and len(m.cpuid.access_log) == reads


@pytest.mark.parametrize("count", [0, 2])
def test_a_mem_bundle_not_of_one_list_is_refused_before_it_opens(count, monkeypatch):
    """A MEM bundle holds one page: one sealed over no list or two is INVALID_MBMD with no edge,
    before decryption, and changes no store."""
    w = World(64)
    m, dst = w.m, w.dst
    page = decrypted_lists(w.env, w.bundles[BundleType.MEM])
    bundle = seal_for(dst, BundleType.MEM, page * count)
    dst.op_state = state = admitting(m.matrix, Leaf.TDH_IMPORT_MEM)
    before, steps = m.digest(), len(dst.trace)
    monkeypatch.setattr(engine, "decrypt_bundle", None)  # a call would raise TypeError
    assert m.tdh_import_mem(dst, bundle) == S.TDX_INVALID_MBMD
    assert dst.trace[steps:] == [TraceStep(Leaf.TDH_IMPORT_MEM, state, state, S.TDX_INVALID_MBMD)]
    assert m.digest() == before


def test_field_id_admission_has_one_home():
    """engine.py decodes no field id itself, and only the four places handed one admit it."""
    calls = []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                name = getattr(child.func, "attr", None) or getattr(child.func, "id", None)
                calls.append((module, name, owner))
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, module, child.name if is_def else owner)

    for path in sorted(pathlib.Path(engine.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text()), path.name, None)
    assert not [call for call in calls if call[:2] == ("engine.py", "decode_field_id")]
    assert sorted(owner for _, name, owner in calls if name == "admit_field_id") == [
        "_read", "_write_target", "next_cpuid_entry", "print_lists", "write_list"]


def test_build_with_no_free_hkid_is_refused_by_mng_create():
    """build_td has no word of its own: tdh_mng_create refuses the HKID past the table."""
    m = TdxModule(seed=57)
    assert m.build_td(TdParams())[0] == S.TDX_SUCCESS and m.last is not None
    for hkid in m.kot.free_hkids():
        assert m.kot.claim(hkid, KotState.HKID_RESERVED)
    before = m.digest()
    assert m.build_td(TdParams()) == (S.with_operand(S.TDX_HKID_NOT_FREE, S.OPERAND_ID_RCX), None)
    assert m.last is None and m.digest() == before


def test_finish_import_answers_the_word_that_refused_it():
    """A second finish of one import is refused at its first VP import, from RUNNABLE."""
    w = World(58)
    assert finish_import(w.m, w.env) == S.TDX_SUCCESS and w.dst.op_state is OpState.RUNNABLE
    assert finish_import(w.m, w.env) == S.TDX_OP_STATE_INCORRECT
    assert w.m.last == TraceStep(Leaf.TDH_IMPORT_STATE_VP, OpState.RUNNABLE, OpState.RUNNABLE,
                                 S.TDX_OP_STATE_INCORRECT)
