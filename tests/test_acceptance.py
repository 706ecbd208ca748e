"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines on a green run.
"""

import random
import time
from importlib import resources

from tdxmodel import md_codec as md
from tdxmodel import status as S
from tdxmodel.catalog import CpuidLookup, next_cpuid_entry
from tdxmodel.engine import EngineMode, TdxModule
from tdxmodel.envelope import (
    MSK_BYTES,
    BundleType,
    Mbmd,
    MigrationSessionKey,
    MigStreamContext,
    decrypt_bundle,
    encrypt_bundle,
)
from tdxmodel.md_codec import MD_CTX_TD, MD_CTX_VP, ParseArena, WriteMode
from tdxmodel.scenarios import (
    LEAK_SENTINEL,
    all_scenarios,
    crafted_vp_list,
    export_blackout,
    finish_import,
    import_to_state_import,
    list_header_underflow_list,
    run_scenario,
    standard_setup,
)
from tdxmodel.states import Leaf, OpState
from tdxmodel.td import make_binding_handle, break_binding_handle

from conftest import DictSink

SCENARIOS = all_scenarios()


def _report(number: int, text: str) -> None:
    print(f"criterion {number:2d}: PASS  {text}")


def _run(name: str, mode: str, seed: int = 7):
    run = run_scenario(SCENARIOS[name], mode, seed)
    assert run.ok, run.transcript
    return run


def test_criterion_01_v1_replay():
    started = time.perf_counter()
    vulnerable = _run("cve-2025-30513", "vulnerable")
    elapsed = time.perf_counter() - started
    lines = [l for l in vulnerable.transcript.splitlines() if l.startswith("TDX STATUS:")]
    assert lines[0].startswith("TDX STATUS: 0x8000000300000000")
    assert lines[1].startswith("TDX STATUS: 0xc000010000000041")
    assert lines[2].startswith("TDX STATUS: 0x0 ")
    assert "destination ATTRIBUTES is 0x1 (debug): yes" in vulnerable.transcript
    assert "MIG_DEC_KEY quadwords leaked to the host: yes" in vulnerable.transcript
    assert "num_vcpus zeroed by the interleaved init: yes" in vulnerable.transcript
    assert "import_track passed with zero vcpus (POST_IMPORT): yes" in vulnerable.transcript
    fixed = _run("cve-2025-30513", "fixed")
    assert "TDX_OP_STATE_INCORRECT" in fixed.transcript
    assert "MIG_DEC_KEY quadwords leaked to the host: no" in fixed.transcript
    assert elapsed < 1.0
    _report(1, f"V1 replay exact status sequence, key leak, side effects ({elapsed:.2f}s)")


def test_criterion_02_v2_replay_and_fuzz(catalog):
    vulnerable = _run("cve-2025-32007", "vulnerable")
    assert "extended error info 1 carries the planted sentinel: yes" in vulnerable.transcript
    assert "maximum out-of-bounds span is exactly 8192 bytes: yes" in vulnerable.transcript
    assert "copied into attacker-readable XBUFF state: yes" in vulnerable.transcript
    fixed = _run("cve-2025-32007", "fixed")
    assert "TDX_METADATA_LIST_OVERFLOW" in fixed.transcript
    assert "no out-of-bounds arena reads logged: yes" in fixed.transcript

    # Exhaustive span sweep over the <=512-field construction.
    spans = []
    for num_fields in range(1, 513):
        arena = ParseArena(
            crafted_vp_list(extra_oob_header=True, num_fields=num_fields),
            plants={4088 + 16 * num_fields: LEAK_SENTINEL},
        )
        md.write_list(catalog, MD_CTX_VP, md.MD_FIELD_ID_NA, arena, DictSink(),
                      WriteMode.vulnerable())
        spans.append(arena.max_oob_span())
    assert spans == [16 * n for n in range(1, 513)]
    assert max(spans) == 8192

    # Fixed-mode fuzz corpus: no walk ever reads past the list.
    rng = random.Random(0xF2)
    checked = 0
    for _ in range(10_000):
        choice = rng.random()
        if choice < 0.4:
            data = rng.randbytes(4096)
        elif choice < 0.7:
            header = md.MdListHeader(
                list_buff_size=rng.randrange(0, 0x10000),
                num_sequences=rng.randrange(0, 32),
            )
            data = (header.to_bytes() + rng.randbytes(rng.randrange(0, 4088))).ljust(4096, b"\x00")
        else:
            data = bytearray(crafted_vp_list(True, num_fields=rng.randrange(1, 513)))
            data[0:2] = rng.randrange(0, 0x10000).to_bytes(2, "little")
            data = bytes(data)
        arena = ParseArena(data)
        md.write_list(catalog, MD_CTX_VP, md.MD_FIELD_ID_NA, arena, DictSink(),
                      WriteMode.fixed())
        assert not arena.oob_reads()
        checked += 1
    _report(2, f"V2 replay: sentinel leak, span exactly 8192, {checked} fuzz cases clean")


def test_criterion_03_list_header_underflow(catalog):
    for lbs in range(8):
        expected = (lbs - 8) % 2**16  # independent wrapping oracle
        data = bytearray(list_header_underflow_list())
        data[0:2] = lbs.to_bytes(2, "little")
        arena = ParseArena(bytes(data))
        result = md.write_list(catalog, MD_CTX_TD, md.MD_FIELD_ID_NA, arena, DictSink(),
                               WriteMode.vulnerable())
        assert result.initial_remaining == expected
        assert arena.oob_reads()
        fixed_arena = ParseArena(bytes(data))
        fixed_result = md.write_list(catalog, MD_CTX_TD, md.MD_FIELD_ID_NA, fixed_arena,
                                     DictSink(), WriteMode.fixed())
        assert S.status_class(fixed_result.status) == S.TDX_METADATA_LIST_OVERFLOW
        assert len(fixed_arena.reads) == 1
    _run("bug-1-list-header-underflow", "vulnerable")
    _run("bug-1-list-header-underflow", "fixed")
    _report(3, "list_buff_size 0..7 wraps per oracle (0 -> 65528), fixed rejects up front")


def test_criterion_04_skippable_required_entries():
    vulnerable = _run("bug-2-skippable-required-entries", "vulnerable")
    for marker in (
        "SEPT walk froze the TD (machine-check analog): yes",
        "vp_enter froze the TD on xcr0 without x87: yes",
        "out-of-range zeros in TSC_FREQUENCY/HP_LOCK_TIMEOUT: yes",
        "POST_IMPORT reached with zero imported VPs: yes",
        "TDX_MAX_EXPORTS_EXCEEDED",
    ):
        assert marker in vulnerable.transcript, marker
    fixed = _run("bug-2-skippable-required-entries", "fixed")
    assert "TDX_REQUIRED_METADATA_FIELD_MISSING" in fixed.transcript
    assert "completion failure names the missing field (EPTP): yes" in fixed.transcript
    from tdxmodel.td import (
        MAX_EXPORT_COUNT,
        MIN_HP_LOCK_TIMEOUT_USEC,
        MAX_HP_LOCK_TIMEOUT_USEC,
    )
    assert (MIN_HP_LOCK_TIMEOUT_USEC, MAX_HP_LOCK_TIMEOUT_USEC) == (10_000, 100_000_000)
    assert MAX_EXPORT_COUNT == 0x7FFFFFFF
    _report(4, "zero-write-mask skips: EPTP/XCR0 fatal, value ranges, export cap")


def test_criterion_05_state_matrix_conformance(matrix):
    text = resources.files("tdxmodel.data").joinpath("op_state_matrix.txt").read_text()
    expected = set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        iface, state, leaf, _, _, _ = line.split()
        expected.add((iface, state, leaf))
    observed = {
        (iface, state.value, leaf.name)
        for iface in ("host", "guest")
        for state in OpState
        for leaf in Leaf
        if matrix.is_allowed(state, leaf) and leaf.guest == (iface == "guest")
    }
    assert observed == expected, observed.symmetric_difference(expected)
    for state in OpState:
        assert matrix.is_allowed(state, Leaf.TDG_SERVTD_RD)
        blocked = state in (OpState.PAUSED_EXPORT, OpState.POST_EXPORT)
        assert matrix.is_allowed(state, Leaf.TDG_SERVTD_WR) is not blocked
    _report(5, f"matrix enumeration equals fixture ({len(expected)} rows), guest rule holds")


def test_criterion_06_crypto():
    rng = random.Random(0xC6)
    key = MigrationSessionKey(rng.randbytes(MSK_BYTES))

    # AEAD round-trip on 10^3 random bundles.
    ctx = MigStreamContext(0)
    for _ in range(1_000):
        lists = [rng.randbytes(4096) for _ in range(rng.randrange(1, 3))]
        mbmd, ciphertext = encrypt_bundle(ctx, BundleType.MEM, lists, key)
        status, out = decrypt_bundle(key, mbmd, ciphertext)
        assert status == S.TDX_SUCCESS and out == lists

    # 100% detection of single-bit flips in the ciphertext and the record.
    mbmd, ciphertext = encrypt_bundle(ctx, BundleType.TD, [rng.randbytes(4096)], key)
    detected = 0
    trials = 0
    for _ in range(256):
        flipped = bytearray(ciphertext)
        bit = rng.randrange(len(flipped) * 8)
        flipped[bit // 8] ^= 1 << (bit % 8)
        status, _ = decrypt_bundle(key, mbmd, bytes(flipped))
        trials += 1
        detected += status != S.TDX_SUCCESS
    record = mbmd.to_bytes()
    for bit in range(len(record) * 8):
        flipped = bytearray(record)
        flipped[bit // 8] ^= 1 << (bit % 8)
        trials += 1
        try:
            tampered = Mbmd.from_bytes(bytes(flipped))
        except ValueError:
            detected += 1  # structurally rejected
            continue
        status, _ = decrypt_bundle(key, tampered, ciphertext)
        detected += status != S.TDX_SUCCESS
    assert detected == trials

    # IV multiset over 10^4 mixed encrypt/abort operations has no duplicates.
    ctx = MigStreamContext(1)
    payload = [rng.randbytes(4096)]
    for _ in range(10_000):
        if rng.random() < 0.5:
            ctx.next_iv()
        else:
            encrypt_bundle(ctx, BundleType.MEM, payload, key)
    assert len(ctx.iv_history) == len(set(ctx.iv_history))
    _report(6, f"10^3 AEAD round-trips, {trials}/{trials} bit flips detected, 10^4 IVs unique")


def test_criterion_07_event_filters():
    vulnerable = _run("bug-3-event-filter-init", "vulnerable")
    assert "fails the sortedness audit with filters_num > 0: yes" in vulnerable.transcript
    fixed = _run("bug-3-event-filter-init", "fixed")
    assert "filters_num reset to 0 after every failure: yes" in fixed.transcript

    from tdxmodel.td import (
        ATTR_PERFMON,
        EventFilter,
        MAX_EVENT_FILTERS,
        TdComplex,
        init_event_filters,
        is_event_allowed,
    )

    rng = random.Random(0xB3)
    for _ in range(1_000):
        td = TdComplex(1, 1)
        td.attributes = ATTR_PERFMON
        count = rng.randrange(1, MAX_EVENT_FILTERS)
        internals = sorted(rng.sample(range(1, 0x10000), count))
        filters = [
            EventFilter(event_select=v & 0xFF, umask=(v >> 8) & 0xFF).raw for v in internals
        ]
        assert init_event_filters(td, True, count, filters, False) == S.TDX_SUCCESS
        probe = rng.randrange(0x10000)
        linear = probe in internals  # linear-scan oracle
        assert is_event_allowed(td, probe & 0xFF, (probe >> 8) & 0xFF) is linear
    _report(7, "3-call corruption audited, search matches linear oracle on 10^3 tables")


def test_criterion_08_hkid_exhaustion():
    vulnerable = _run("bug-8-hkid-exhaustion", "vulnerable")
    assert "all KOT entries left HKID_RESERVED (no TD creatable): yes" in vulnerable.transcript
    fixed = _run("bug-8-hkid-exhaustion", "fixed")
    assert "free-entry count conserved across failing calls: yes" in fixed.transcript
    module = TdxModule(EngineMode())
    size = len(module.kot)
    for hkid in range(size):
        module.tdh_sys_config(hkid, [0x1001])
        assert module.kot.free_count() == size
    _report(8, "K failing sys_config calls: zero free (vulnerable), conserved (fixed)")


def test_criterion_09_cpuid_oob():
    lookup = CpuidLookup()
    start = lookup.field_id_for(78)
    assert next_cpuid_entry(lookup, start, True) == md.MD_FIELD_ID_NA
    assert lookup.oob_accesses() == [79]
    lookup = CpuidLookup()
    assert next_cpuid_entry(lookup, start, False) == md.MD_FIELD_ID_NA
    assert lookup.oob_accesses() == []
    _run("bug-4-cpuid-lookup-oob", "vulnerable")
    _run("bug-4-cpuid-lookup-oob", "fixed")
    _report(9, "index 78 search: one OOB access (79) vulnerable, none fixed, both NA")


def test_criterion_10_binding_handles():
    vulnerable = _run("bug-6-binding-handle-oracle", "vulnerable")
    assert "probe statuses reveal whether a TDR lives at the address: yes" in vulnerable.transcript
    fixed = _run("bug-6-binding-handle-oracle", "fixed")
    assert "probe statuses reveal whether a TDR lives at the address: no" in fixed.transcript
    rng = random.Random(0xB6)
    for _ in range(10_000):
        slot = rng.randrange(1 << 12)
        page = rng.randrange(1 << 40)
        uuid_q0 = rng.getrandbits(64)
        assert break_binding_handle(make_binding_handle(slot, page, uuid_q0), uuid_q0) == (
            page, slot,
        )
    _report(10, "probe oracle gated by mode, make/break inverse over 10^4 triples")


def test_criterion_11_gpa_check_skip():
    vulnerable = _run("bug-9-gpa-check-skip", "vulnerable")
    assert "invalid private GPA accepted and stored: yes" in vulnerable.transcript
    fixed = _run("bug-9-gpa-check-skip", "fixed")
    assert "TDX_METADATA_FIELD_VALUE_NOT_VALID" in fixed.transcript
    _report(11, "import write of invalid private GPA accepted (vuln) / rejected (fixed)")


def test_criterion_12_end_to_end_roundtrip():
    module = TdxModule(seed=0xE2E)
    env = standard_setup(module, num_vcpus=2, num_pages=4)
    src = env["src"]
    export_blackout(module, env, pages=list(src.pages))
    dst = env["dst"]
    assert import_to_state_import(module, env, mem=env["bundle_mem"]) == S.TDX_SUCCESS
    assert finish_import(module, env) == S.TDX_SUCCESS
    assert dst.op_state is OpState.RUNNABLE

    compared = 0
    for ctx, vp_indexes in ((MD_CTX_TD, [None]), (MD_CTX_VP, [0, 1])):
        for entry in module.catalog.entries_for(ctx):
            if not entry.exportable:
                continue
            for vp_index in vp_indexes:
                for position in range(entry.code_span):
                    src_val = src.read_element(entry, position, vp_index) & entry.export_mask
                    dst_val = dst.read_element(entry, position, vp_index) & entry.export_mask
                    assert src_val == dst_val, (entry.name, vp_index, position)
                    compared += 1
    assert dst.pages == src.pages

    # Every scenario's op_state trace is a path in the permission-matrix graph.
    for name in SCENARIOS:
        for mode in ("vulnerable", "fixed"):
            run = run_scenario(SCENARIOS[name], mode, seed=7)
            assert run.ok and "op_state traces: valid" in run.transcript
    _report(12, f"export/import round-trip identical over {compared} element slots")
