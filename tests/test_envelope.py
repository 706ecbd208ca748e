"""Envelope sealing: AEAD round-trips, tamper detection, and IV discipline."""

import dataclasses
import json
import os
import pathlib
import random
import struct
import subprocess
import sys

import pytest
from cryptography.exceptions import InvalidTag
from hypothesis import example, given, settings, strategies as st

from tdxmodel import status as S
from tdxmodel.envelope import (
    LIST_BYTES,
    MBMD_BYTES,
    MSK_BYTES,
    BundleType,
    Mbmd,
    MigrationSessionKey,
    MigStreamContext,
    _IV,
    decrypt_bundle,
    encrypt_bundle,
)


def fresh_ctx(seed=1, stream_index=0):
    """A new stream, and a session key drawn from ``seed``."""
    key = MigrationSessionKey(random.Random(seed).randbytes(MSK_BYTES))
    return MigStreamContext(stream_index), key


def some_lists(rng, count=2):
    return [rng.randbytes(4096) for _ in range(count)]


def test_key_quadword_roundtrip():
    quadwords = [0xDE, 0x7E, 0xC7, 0xED]
    key = MigrationSessionKey.from_quadwords(quadwords)
    assert len(key.key) == 32
    assert [int.from_bytes(key.key[i : i + 8], "little") for i in range(0, 32, 8)] == quadwords


def test_mbmd_record_layout():
    mbmd = Mbmd(BundleType.VP, payload_size=8192, stream_index=3, iv_counter=9)
    raw = mbmd.to_bytes()
    assert len(raw) == MBMD_BYTES
    assert raw[:4] == b"MBMD"
    assert Mbmd.from_bytes(raw) == mbmd


@given(
    bundle_type=st.sampled_from(list(BundleType)),
    payload_size=st.integers(min_value=0, max_value=2**32 - 1),
    stream_index=st.integers(min_value=0, max_value=2**32 - 1),
    iv_counter=st.integers(min_value=0, max_value=2**64 - 1),
    mac=st.binary(min_size=16, max_size=16),
)
def test_aad_is_the_record_with_its_mac_zeroed(
    bundle_type, payload_size, stream_index, iv_counter, mac
):
    mbmd = Mbmd(bundle_type, payload_size, stream_index, iv_counter, mac=mac)
    raw = mbmd.to_bytes()
    assert mbmd.aad() == raw[:-16] + bytes(16)
    assert Mbmd.from_bytes(raw) == mbmd


def test_session_key_is_immutable():
    key = MigrationSessionKey.from_quadwords([1, 2, 3, 4])
    # The cipher is built with the key, so the key must not change under it.
    with pytest.raises(dataclasses.FrozenInstanceError):
        key.key = bytes(32)
    assert key == MigrationSessionKey.from_quadwords([1, 2, 3, 4])


def test_roundtrip():
    rng = random.Random(2)
    ctx, key = fresh_ctx()
    lists = some_lists(rng, 3)
    mbmd, ciphertext = encrypt_bundle(ctx, BundleType.IMMUTABLE, lists, key)
    status, out = decrypt_bundle(key, mbmd, ciphertext)
    assert status == S.TDX_SUCCESS
    assert out == lists


def test_same_plaintext_twice_differs():
    rng = random.Random(3)
    ctx, key = fresh_ctx()
    lists = some_lists(rng, 1)
    _, first = encrypt_bundle(ctx, BundleType.TD, lists, key)
    _, second = encrypt_bundle(ctx, BundleType.TD, lists, key)
    assert first != second  # distinct IVs


def test_ciphertext_bit_flip_detected():
    rng = random.Random(4)
    ctx, key = fresh_ctx()
    mbmd, ciphertext = encrypt_bundle(ctx, BundleType.TD, some_lists(rng, 1), key)
    tampered = bytearray(ciphertext)
    tampered[100] ^= 0x10
    status, out = decrypt_bundle(key, mbmd, bytes(tampered))
    assert status == S.TDX_INCORRECT_MBMD_MAC
    assert out is None


@pytest.mark.parametrize("field,delta", [
    ("bundle_type", BundleType.VP),
    ("stream_index", 1),
    ("iv_counter", 2),
])
def test_mbmd_field_tamper_detected(field, delta):
    rng = random.Random(5)
    ctx, key = fresh_ctx()
    mbmd, ciphertext = encrypt_bundle(ctx, BundleType.TD, some_lists(rng, 1), key)
    setattr(mbmd, field, delta)
    status, _ = decrypt_bundle(key, mbmd, ciphertext)
    assert status == S.TDX_INCORRECT_MBMD_MAC


def test_payload_size_mismatch_is_invalid_mbmd():
    rng = random.Random(6)
    ctx, key = fresh_ctx()
    mbmd, ciphertext = encrypt_bundle(ctx, BundleType.TD, some_lists(rng, 1), key)
    status, _ = decrypt_bundle(key, mbmd, ciphertext + b"\x00" * 4096)
    assert status == S.TDX_INVALID_MBMD


def test_counter_starts_at_zero_and_ivs_step_by_one():
    ctx, _ = fresh_ctx(stream_index=7)
    assert ctx.iv_counter == 0
    first = ctx.next_iv()
    second = ctx.next_iv()
    assert first == _IV.pack(7, 1) and second == _IV.pack(7, 2)
    assert first[:4] == second[:4]  # only the counter field differs
    assert int.from_bytes(second[4:], "little") - int.from_bytes(first[4:], "little") == 1


def test_counter_advances_even_when_output_discarded():
    ctx, key = fresh_ctx()
    ctx.next_iv()  # aborted operation: output never used
    before = ctx.iv_counter
    rng = random.Random(7)
    mbmd, _ = encrypt_bundle(ctx, BundleType.MEM, some_lists(rng, 1), key)
    assert before == 1
    assert mbmd.iv_counter == 2


def test_counter_advances_once_per_bundle():
    rng = random.Random(8)
    lists = some_lists(rng, 3)
    per_bundle, key = fresh_ctx()
    encrypt_bundle(per_bundle, BundleType.IMMUTABLE, lists, key)
    assert per_bundle.iv_counter == 1


def test_iv_multiset_has_no_duplicates_across_encrypt_and_abort():
    rng = random.Random(9)
    ctx, key = fresh_ctx()
    payload = some_lists(rng, 1)
    for _ in range(2000):
        if rng.random() < 0.5:
            ctx.next_iv()  # abort path
        else:
            encrypt_bundle(ctx, BundleType.MEM, payload, key)
    assert len(ctx.iv_history) == len(set(ctx.iv_history))


def test_reencrypting_same_page_never_repeats_ciphertext():
    # The ciphertext-comparison oracle: same page, same key, fresh counter.
    rng = random.Random(10)
    ctx, key = fresh_ctx()
    page = some_lists(rng, 1)
    seen = set()
    for _ in range(64):
        _, ciphertext = encrypt_bundle(ctx, BundleType.MEM, page, key)
        assert ciphertext not in seen
        seen.add(ciphertext)


# Runs in a fresh interpreter, so nothing an earlier test imported is loaded.
# First the codec-only CLI paths, which must not load the AES-GCM bindings;
# then the first key of the process, whose open must still name a bad tag.
_LAZY_AEAD_SCRIPT = """
import io, json, pathlib, random, sys
import tdxmodel, tdxmodel.cli, tdxmodel.scenarios
from tdxmodel import md_codec as md
from tdxmodel.cli import main
plain = pathlib.Path(sys.argv[1])
sequence = md.MdSequence(md.make_sequence_header(md.MD_CTX_TD, 0x10, 0), [0x5A])
plain.write_bytes(md.build_list([sequence]).to_bytes())
codes = [main(argv, io.StringIO()) for argv in (
    ["bundle", "parse", str(plain)],
    ["state", "matrix"],
    ["scenario", "run", "bug-4-cpuid-lookup-oob"],
)]
loaded = sorted(name for name in sys.modules if name.partition(".")[0] == "cryptography")
from tdxmodel.envelope import (
    MSK_BYTES, BundleType, MigrationSessionKey, MigStreamContext, decrypt_bundle, encrypt_bundle,
)
key = MigrationSessionKey(random.Random(1).randbytes(MSK_BYTES))
mbmd, data = encrypt_bundle(MigStreamContext(0), BundleType.MEM, [bytes(4096)], key)
status, lists = decrypt_bundle(key, mbmd, bytes([data[0] ^ 1]) + data[1:])
print(json.dumps({"codes": codes, "loaded": loaded, "status": status, "lists": lists}))
"""


def test_codec_only_run_loads_no_aead_and_the_first_key_catches_a_bad_tag(tmp_path):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_AEAD_SCRIPT, str(tmp_path / "plain.data")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0]
    assert result["loaded"] == []
    assert result["status"] == S.TDX_INCORRECT_MBMD_MAC and result["lists"] is None


def test_rejects_partial_lists():
    ctx, key = fresh_ctx()
    with pytest.raises(ValueError):
        encrypt_bundle(ctx, BundleType.TD, [b"\x00" * 100], key)


# --- differential: the one-pass seal against the envelope it replaced -------------

def _reference_make_iv(stream_index, counter):
    return stream_index.to_bytes(4, "little") + counter.to_bytes(8, "little")


def _reference_encrypt_bundle(ctx, bundle_type, lists, key):
    """The earlier seal: next_iv inline, the record built, its AAD packed, then the MAC set."""
    for item in lists:
        if len(item) != LIST_BYTES:
            raise ValueError("payload must be whole 4KB lists")
    plaintext = b"".join(lists)
    ctx.iv_counter += 1
    iv = _reference_make_iv(ctx.stream_index, ctx.iv_counter)
    ctx.iv_history.append(iv)
    mbmd = Mbmd(
        bundle_type=bundle_type,
        payload_size=len(plaintext),
        stream_index=ctx.stream_index,
        iv_counter=ctx.iv_counter,
    )
    sealed = key.aead.encrypt(iv, plaintext, mbmd.aad())
    ciphertext, tag = sealed[:-16], sealed[-16:]
    mbmd.mac = tag
    return mbmd, ciphertext


def _reference_decrypt_bundle(key, mbmd, ciphertext):
    if mbmd.payload_size != len(ciphertext) or mbmd.payload_size % LIST_BYTES != 0:
        return S.TDX_INVALID_MBMD, None
    iv = _reference_make_iv(mbmd.stream_index, mbmd.iv_counter)
    try:
        plaintext = key.aead.decrypt(iv, ciphertext + mbmd.mac, mbmd.aad())
    except InvalidTag:
        return S.TDX_INCORRECT_MBMD_MAC, None
    lists = [plaintext[i : i + LIST_BYTES] for i in range(0, len(plaintext), LIST_BYTES)]
    return S.TDX_SUCCESS, lists


U32_MAX, U64_MAX = 2**32 - 1, 2**64 - 1
# A tamper is (what, index, value): a record field set to value, or byte
# index (mod its length) of the MAC or ciphertext xored with a nonzero value.
_TAMPERS = st.one_of(
    st.none(),
    st.tuples(st.just("bundle_type"), st.just(0), st.sampled_from(list(BundleType))),
    st.tuples(st.just("payload_size"), st.just(0), st.integers(0, U32_MAX)),
    st.tuples(st.just("stream_index"), st.just(0), st.integers(0, U32_MAX)),
    st.tuples(st.just("iv_counter"), st.just(0), st.integers(0, U64_MAX)),
    st.tuples(st.just("version"), st.just(0), st.integers(0, 0xFFFF)),
    st.tuples(st.just("mac"), st.integers(0, 15), st.integers(1, 255)),
    st.tuples(st.just("ciphertext"), st.integers(0, 3 * LIST_BYTES),
              st.sampled_from([1 << bit for bit in range(8)])),
)


def _tampered(mbmd, ciphertext, tamper):
    mbmd = dataclasses.replace(mbmd)
    if tamper is None:
        return mbmd, ciphertext
    what, index, value = tamper
    if what == "ciphertext":
        flipped = bytearray(ciphertext)
        flipped[index % len(flipped)] ^= value
        return mbmd, bytes(flipped)
    if what == "mac":
        mac = bytearray(mbmd.mac)
        mac[index] ^= value
        value = bytes(mac)
    setattr(mbmd, what, value)
    return mbmd, ciphertext


@settings(max_examples=150, deadline=None)
@given(
    key_seed=st.integers(0, 2**32),
    stream_index=st.integers(0, U32_MAX),
    counter=st.integers(0, U64_MAX - 1),
    bundle_type=st.sampled_from(list(BundleType)),
    list_seeds=st.lists(st.integers(0, 2**32), min_size=1, max_size=3),
    tamper=_TAMPERS,
)
@example(key_seed=0, stream_index=U32_MAX, counter=U64_MAX - 1, bundle_type=BundleType.MEM,
         list_seeds=[0], tamper=None)
@example(key_seed=0, stream_index=0, counter=0, bundle_type=BundleType.VP,
         list_seeds=[1, 2], tamper=("ciphertext", 2 * LIST_BYTES - 1, 1))
def test_seal_and_open_match_the_reference_envelope(
    key_seed, stream_index, counter, bundle_type, list_seeds, tamper
):
    lists = [random.Random(seed).randbytes(LIST_BYTES) for seed in list_seeds]
    (ctx, key), (ref_ctx, ref_key) = (fresh_ctx(key_seed, stream_index) for _ in range(2))
    ctx.iv_counter = ref_ctx.iv_counter = counter

    mbmd, ciphertext = encrypt_bundle(ctx, bundle_type, lists, key)
    ref_mbmd, ref_ciphertext = _reference_encrypt_bundle(ref_ctx, bundle_type, lists, ref_key)
    assert mbmd.to_bytes() == ref_mbmd.to_bytes() and mbmd == ref_mbmd
    assert type(ciphertext) is bytes and ciphertext == ref_ciphertext
    assert ctx.iv_counter == ref_ctx.iv_counter == counter + 1
    assert ctx.iv_history == ref_ctx.iv_history == [_IV.pack(stream_index, counter + 1)]
    assert _IV.pack(stream_index, counter + 1) == _reference_make_iv(stream_index, counter + 1)

    opened = decrypt_bundle(key, *_tampered(mbmd, ciphertext, tamper))
    assert opened == _reference_decrypt_bundle(ref_key, *_tampered(mbmd, ciphertext, tamper))
    if tamper is None:
        assert opened == (S.TDX_SUCCESS, lists)


@given(stream_index=st.integers(-(2**40), 2**40), counter=st.integers(-(2**70), 2**70))
@example(stream_index=2**32, counter=0)
@example(stream_index=0, counter=2**64)
@example(stream_index=-1, counter=0)
def test_next_iv_raises_where_the_reference_did(stream_index, counter):
    ctx = MigStreamContext(0)
    ctx.stream_index, ctx.iv_counter = stream_index, counter - 1
    fits = 0 <= stream_index <= U32_MAX and 0 <= counter <= U64_MAX
    if fits:
        assert ctx.next_iv() == _reference_make_iv(stream_index, counter)
        return
    with pytest.raises(OverflowError):
        _reference_make_iv(stream_index, counter)
    with pytest.raises(struct.error):
        ctx.next_iv()
