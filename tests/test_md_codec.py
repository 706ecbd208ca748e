"""Codec walk behavior: wrap arithmetic, OOB spans, skips, and dump round-trips."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from tdxmodel import md_codec as md
from tdxmodel import status as S
from tdxmodel.md_codec import (
    MD_CTX_TD,
    MD_CTX_VP,
    MdListHeader,
    MdSequence,
    ParseArena,
    WriteMode,
    build_list,
    decode_field_id,
    make_sequence_header,
    parse_list,
)
from tdxmodel.scenarios import (
    LEAK_SENTINEL,
    crafted_vp_list,
    list_header_underflow_list,
    zero_mask_entry,
)

from conftest import DictSink

# Each sentinel region's (start, end) in the arena: the regions follow the list in REGIONS order.
_STARTS = itertools.accumulate([size for _, size in ParseArena.REGIONS], initial=md.LIST_BYTES)
REGION_SPANS = {name: (start, start + size) for (name, size), start in zip(ParseArena.REGIONS, _STARTS)}


# --- arena -------------------------------------------------------------------

def test_arena_logs_and_flags_reads():
    arena = ParseArena(b"\xaa" * 64)
    arena.read_u64(0)
    arena.read_u64(4088)
    arena.read_u64(4096)
    assert arena.reads == [(0, 8), (4088, 8), (4096, 8)]
    assert arena.oob_reads() == [(4096, 8)]
    assert arena.max_oob_span() == 8


def test_arena_sentinels_self_identify():
    arena = ParseArena(b"")
    start, end = REGION_SPANS["shadow_stack"]
    pattern = ParseArena.region_pattern("shadow_stack", end - start)
    assert bytes(arena.buffer[start:end]) == pattern
    assert bytes(arena.buffer[start:end]) != ParseArena.region_pattern("canary", end - start)


def test_arena_plant_and_reads_past_buffer():
    arena = ParseArena(b"", plants={12280: LEAK_SENTINEL})
    assert arena.peek_u64s(12280, 1) == [LEAK_SENTINEL]
    assert arena.read_u64(len(arena.buffer) + 64) == 0
    assert arena.reads == arena.oob_reads() == [(len(arena.buffer) + 64, 8)]


@pytest.mark.parametrize("back", [0, 1, 5, 8])
def test_arena_read_at_or_across_the_end_is_zero_padded_and_logged_once(back):
    arena = ParseArena(b"")
    end = len(arena.buffer)
    data = arena.read(end - back, 8)
    assert data == bytes(arena.buffer[end - back:]) + bytes(8 - back)
    assert len(data) == 8
    assert arena.reads == arena.oob_reads() == [(end - back, 8)]


# --- list container ----------------------------------------------------------

def test_list_serializes_to_4096_zero_padded():
    seq = MdSequence(make_sequence_header(MD_CTX_TD, 0x11, 0), [0x1234])
    data = build_list([seq]).to_bytes()
    assert len(data) == 4096
    assert data[24:] == b"\x00" * (4096 - 24)
    parsed = parse_list(data)
    assert parsed.header.list_buff_size == 24
    assert parsed.sequences[0].elements == [0x1234]


def test_header_is_eight_bytes():
    header = MdListHeader(list_buff_size=24, num_sequences=1)
    assert len(header.to_bytes()) == 8
    assert MdListHeader.from_bytes(header.to_bytes()) == header


# --- write_list basic cases ----------------------------------------------------

def _arena_for(header: MdListHeader, body: bytes) -> ParseArena:
    return ParseArena((header.to_bytes() + body).ljust(4096, b"\x00"))


def test_empty_list_succeeds(catalog, sink):
    arena = _arena_for(MdListHeader(list_buff_size=8, num_sequences=0), b"")
    result = md.write_list(catalog, MD_CTX_TD, md.MD_FIELD_ID_NA, arena, sink, WriteMode.fixed())
    assert result.status == S.TDX_SUCCESS
    assert sink.values == {}


@pytest.mark.parametrize("lbs", range(8))
def test_header_underflow_wraps_per_oracle(catalog, sink, lbs):
    # Independent oracle: 16-bit wrapping subtraction of the 8-byte header.
    expected = (lbs - 8) % 2**16
    data = bytearray(list_header_underflow_list())
    data[0:2] = lbs.to_bytes(2, "little")
    arena = ParseArena(bytes(data))
    result = md.write_list(catalog, MD_CTX_TD, md.MD_FIELD_ID_NA, arena, sink,
                           WriteMode.vulnerable())
    assert result.initial_remaining == expected
    assert arena.oob_reads(), "walk must cross the list end"


@pytest.mark.parametrize("lbs", range(8))
def test_fixed_mode_rejects_small_header_before_sequences(catalog, sink, lbs):
    data = bytearray(list_header_underflow_list())
    data[0:2] = lbs.to_bytes(2, "little")
    arena = ParseArena(bytes(data))
    result = md.write_list(catalog, MD_CTX_TD, md.MD_FIELD_ID_NA, arena, sink, WriteMode.fixed())
    assert S.status_class(result.status) == S.TDX_METADATA_LIST_OVERFLOW
    assert len(arena.reads) == 1  # only the list header was read
    assert not arena.oob_reads()


def test_fixed_mode_rejects_every_out_of_range_size_after_one_header_read(catalog):
    rng = random.Random(0x14)
    sizes = [size for size in range(0x10000) if not 8 <= size <= md.LIST_BYTES]
    for size in sizes:
        header = MdListHeader(list_buff_size=size, num_sequences=rng.randrange(0x10000))
        arena = ParseArena(header.to_bytes().ljust(md.LIST_BYTES, b"\x00"))
        result = md.write_list(catalog, MD_CTX_VP, md.MD_FIELD_ID_NA, arena, DictSink(),
                               WriteMode.fixed())
        assert result == md.WriteResult(status=md.LIST_OVERFLOW), size
        assert arena.reads == [(0, 8)], size
        assert arena.oob_reads() == [], size


def test_context_mismatch_reports_header_and_index(catalog, sink):
    seq = MdSequence(make_sequence_header(MD_CTX_VP, 0x11, 0x20), [3])  # vp id in a td list
    arena = ParseArena(build_list([seq]).to_bytes())
    result = md.write_list(catalog, MD_CTX_TD, md.MD_FIELD_ID_NA, arena, sink, WriteMode.fixed())
    assert result.status == S.with_l2_details(S.TDX_METADATA_FIELD_ID_INCORRECT, 0xFFFF, 0)
    assert result.ext_err_info[0] == seq.header_raw


def _reserved_bit_list(bit: int) -> bytes:
    """A VP list of two XCR0 sequences, the second's header with reserved bit ``bit`` set."""
    xcr0 = make_sequence_header(MD_CTX_VP, 0x11, 0x20)
    return build_list([MdSequence(xcr0, [7]), MdSequence(xcr0 | 1 << bit, [9])]).to_bytes()


@pytest.mark.parametrize("mode", [WriteMode.fixed(), WriteMode.vulnerable()],
                         ids=["fixed", "vulnerable"])
@pytest.mark.parametrize("bit", [24, 47, 55, 62])
def test_a_header_with_a_reserved_bit_is_refused_like_a_context_miss(catalog, sink, mode, bit):
    """The second sequence's header is covered but for one reserved bit: the walk refuses it at
    sequence 1, names it, and reads nothing past it."""
    arena = ParseArena(_reserved_bit_list(bit))
    result = md.write_list(catalog, MD_CTX_VP, md.MD_FIELD_ID_NA, arena, sink, mode)
    assert result.status == S.with_l2_details(S.TDX_METADATA_FIELD_ID_INCORRECT, 0xFFFF, 1)
    assert result.ext_err_info[0] == make_sequence_header(MD_CTX_VP, 0x11, 0x20) | 1 << bit
    assert arena.reads[-1] == (24, 8) and max(offset for offset, _ in arena.reads) == 24
    assert sink.values == {("XCR0", 0): [7]}


def test_unknown_field_is_field_id_incorrect(catalog, sink):
    seq = MdSequence(make_sequence_header(MD_CTX_TD, 0x3F, 0x99), [1])
    arena = ParseArena(build_list([seq]).to_bytes())
    result = md.write_list(catalog, MD_CTX_TD, md.MD_FIELD_ID_NA, arena, sink, WriteMode.fixed())
    assert S.status_class(result.status) == S.TDX_METADATA_FIELD_ID_INCORRECT


# --- write_sequence ------------------------------------------------------------

def _sequence_walk(catalog, sink, body: bytes, remaining: int, mode: WriteMode,
                   ctx: int = MD_CTX_VP):
    arena = ParseArena(body.ljust(4096, b"\x00"))
    header_raw = arena.read_u64(0)
    fid = decode_field_id(header_raw)
    entry = catalog.find_entry(ctx, fid)
    status, elements_read, at = md.write_sequence(
        arena, 0, fid, header_raw, remaining, catalog, entry, sink, mode
    )
    return status, elements_read, arena, at


def test_exact_fit_single_field(catalog, sink):
    seq = MdSequence(make_sequence_header(MD_CTX_VP, 0x11, 0x20), [0x7])  # XCR0
    status, elements_read, arena, at = _sequence_walk(
        catalog, sink, seq.to_bytes(), 16, WriteMode.fixed()
    )
    assert status == S.TDX_SUCCESS
    assert elements_read == 1
    assert at == catalog.by_name(MD_CTX_VP, "CR2").field_id_raw  # the next entry's first field
    assert sink.values[("XCR0", 0)] == [0x7]


def test_sequence_too_small_is_overflow(catalog, sink):
    seq = MdSequence(make_sequence_header(MD_CTX_VP, 0x11, 0x20), [0x7])
    status, _, _, at = _sequence_walk(catalog, sink, seq.to_bytes(), 15, WriteMode.fixed())
    assert S.status_class(status) == S.TDX_METADATA_LIST_OVERFLOW
    assert at == seq.header_raw  # XCR0 itself, the field that does not fit


def test_zero_write_mask_skip_is_recorded_in_vulnerable_mode(catalog):
    sink = DictSink()
    seq = MdSequence(
        make_sequence_header(MD_CTX_VP, 0x11, 0x20, write_mask_valid=True), [0, 0x7]
    )
    status, _, _, _ = _sequence_walk(catalog, sink, seq.to_bytes(), 24, WriteMode.vulnerable())
    assert status == S.TDX_SUCCESS
    assert sink.values == {}
    assert sink.skips == [("XCR0", 0)]


def test_zero_write_mask_skip_is_recorded_in_fixed_mode(catalog):
    sink = DictSink()
    seq = MdSequence(
        make_sequence_header(MD_CTX_VP, 0x11, 0x20, write_mask_valid=True), [0, 0x7]
    )
    status, _, _, _ = _sequence_walk(catalog, sink, seq.to_bytes(), 24, WriteMode.fixed())
    assert status == S.TDX_SUCCESS
    assert sink.skips == [("XCR0", 0)]


def test_sequence_cannot_cross_classes(catalog, sink):
    # CR2 (0x28) is the last class-0x11 vp field before TSC_DEADLINE; claiming
    # more fields than the class holds trips the class-change check.
    seq = MdSequence(
        make_sequence_header(MD_CTX_VP, 0x11, 0x30, num_fields=2), [1, 2]
    )
    status, _, _, at = _sequence_walk(catalog, sink, seq.to_bytes(), 4000, WriteMode.fixed())
    assert status == S.TDX_METADATA_FIELD_ID_INCORRECT
    assert at == seq.header_raw


# --- the crafted underflow walks -------------------------------------------------

def _oracle_read_offsets(num_fields: int) -> list[tuple[int, int]]:
    """Independent wrap-arithmetic model of the crafted walk's reads.

    Returns (offset, length) pairs expected in the arena log for the crafted
    tail sequence at 4080 plus the out-of-place header read that follows.
    """
    reads = [(0, 8)]  # list header
    reads.append((8, 8))  # filler 1 header
    reads.extend((16 + 8 * i, 8) for i in range(506))  # filler 1 elements
    reads.append((4064, 8))  # filler 2 header (CR2)
    reads.append((4072, 8))  # filler 2 element
    reads.append((4080, 8))  # crafted sequence header
    for i in range(num_fields):
        reads.append((4088, 8))              # write mask re-read each field
        reads.append((4096 + 16 * i, 8))     # the field's element
    reads.append((4088 + 16 * num_fields, 8))  # next sequence header, out of place
    return reads


@pytest.mark.parametrize("num_fields", range(1, 513))
def test_vulnerable_walk_matches_wrap_oracle_bit_for_bit(catalog, num_fields):
    sink = DictSink()
    data = crafted_vp_list(extra_oob_header=True, num_fields=num_fields)
    plant_at = 4088 + 16 * num_fields
    arena = ParseArena(data, plants={plant_at: LEAK_SENTINEL})
    result = md.write_list(catalog, MD_CTX_VP, md.MD_FIELD_ID_NA, arena, sink,
                           WriteMode.vulnerable())
    oracle = _oracle_read_offsets(num_fields)
    assert arena.reads == oracle
    assert result.ext_err_info[0] == LEAK_SENTINEL
    assert S.status_class(result.status) == S.TDX_METADATA_FIELD_ID_INCORRECT
    assert result.status & 0xFFFF0000 == 0xFFFF0000  # operand 0xffff
    assert arena.max_oob_span() == 16 * num_fields
    assert arena.oob_reads() == [(o, n) for o, n in oracle if o >= md.LIST_BYTES]
    assert arena.max_oob_span() == max(o + n for o, n in oracle) - md.LIST_BYTES


def test_fixed_mode_stops_crafted_walk_without_oob(catalog, sink):
    arena = ParseArena(crafted_vp_list(extra_oob_header=True))
    result = md.write_list(catalog, MD_CTX_VP, md.MD_FIELD_ID_NA, arena, sink, WriteMode.fixed())
    assert S.status_class(result.status) == S.TDX_METADATA_LIST_OVERFLOW
    assert not arena.oob_reads()


def _loop_underflow_list():
    """A valid list header; only the in-loop mask deduction wraps the 32-bit size."""
    pad = MdSequence(make_sequence_header(MD_CTX_VP, 0x12, 0, num_fields=505), [0] * 505)
    cr2 = MdSequence(make_sequence_header(MD_CTX_VP, 0x11, 0x28), [0])
    tail = MdSequence(
        make_sequence_header(MD_CTX_VP, 0x12, 505, num_fields=512, write_mask_valid=True),
        [0xFFFFFFFFFFFFFFFF, 0xAAAA],
    )
    return build_list([pad, cr2, tail]).to_bytes()


def _with_buff_size(data, size):
    """``data`` with its list header's size field set to ``size``."""
    return size.to_bytes(2, "little") + data[2:]


def test_pure_loop_underflow_with_valid_header(catalog, sink):
    data = _loop_underflow_list()

    vulnerable = WriteMode(header_underflow=False, loop_underflow=True)
    arena = ParseArena(data)
    result = md.write_list(catalog, MD_CTX_VP, md.MD_FIELD_ID_NA, arena, sink, vulnerable)
    assert result.status == S.TDX_SUCCESS
    assert arena.oob_reads()

    arena2 = ParseArena(data)
    result2 = md.write_list(catalog, MD_CTX_VP, md.MD_FIELD_ID_NA, arena2, DictSink(),
                            WriteMode.fixed())
    assert S.status_class(result2.status) == S.TDX_METADATA_LIST_OVERFLOW
    assert not arena2.oob_reads()


def test_fixed_mode_never_reads_oob_on_fuzzed_lists(catalog):
    rng = random.Random(0x7D)
    for _ in range(500):
        if rng.random() < 0.5:
            data = rng.randbytes(4096)
        else:
            header = MdListHeader(
                list_buff_size=rng.randrange(0, 0x10000),
                num_sequences=rng.randrange(0, 64),
            )
            data = (header.to_bytes() + rng.randbytes(rng.randrange(0, 4088))).ljust(4096, b"\x00")
        arena = ParseArena(data)
        md.write_list(catalog, MD_CTX_VP, md.MD_FIELD_ID_NA, arena, DictSink(), WriteMode.fixed())
        assert not arena.oob_reads()
        assert arena.reads[0] == (0, 8)  # the list header comes first
        assert arena.oob_reads() == [(o, n) for o, n in arena.reads if o >= md.LIST_BYTES]
        assert arena.max_oob_span() == 0


# --- the walk kernel against the per-field reference -------------------------------

def _reference_write_sequence(arena, seq_off, fid, header_raw, buff_size, catalog, entry, sink,
                              mode):
    """The per-field walk write_sequence replaced, kept as the oracle for it.

    Its position is (entry, field_index), stepped one field at a time; each
    exit reads ``at`` off it, or returns the header on a class change.
    """
    field_index = entry.field_index_of(fid.field_code)

    def at():
        return md.MD_FIELD_ID_NA if entry is None else entry.field_id_for(field_index)

    if buff_size < md.SEQUENCE_HEADER_BYTES + md.ELEMENT_BYTES:
        return S.with_l2_details(S.TDX_METADATA_LIST_OVERFLOW, 0xFFFF, 0), 0, at()

    num_fields = fid.num_fields
    buff_size = (buff_size - md.SEQUENCE_HEADER_BYTES) & 0xFFFFFFFF
    elements_base = seq_off + md.SEQUENCE_HEADER_BYTES
    sequence_idx = 0
    wr_mask = 0xFFFFFFFFFFFFFFFF

    if not mode.loop_underflow and fid.write_mask_valid:
        if buff_size < md.ELEMENT_BYTES:
            return S.with_l2_details(S.TDX_METADATA_LIST_OVERFLOW, 0xFFFF, 0), sequence_idx, at()
        wr_mask = arena.read_u64(elements_base)
        sequence_idx += 1
        buff_size -= md.ELEMENT_BYTES

    for i in range(num_fields):
        if mode.loop_underflow and fid.write_mask_valid:
            wr_mask = arena.read_u64(elements_base)
            sequence_idx += 1
            buff_size = (buff_size - md.ELEMENT_BYTES) & 0xFFFFFFFF

        if buff_size < entry.num_of_elem * md.ELEMENT_BYTES:
            return S.with_l2_details(S.TDX_METADATA_LIST_OVERFLOW, 0xFFFF, 0), sequence_idx, at()

        if entry.importable:
            combined = wr_mask & entry.import_mask
            if combined == 0:
                status = S.TDX_METADATA_FIELD_NOT_WRITABLE
            else:
                values = [
                    arena.read_u64(elements_base + (sequence_idx + k) * md.ELEMENT_BYTES)
                    for k in range(entry.num_of_elem)
                ]
                status = sink.write_field(entry, field_index, values, combined)
            if status != S.TDX_SUCCESS:
                if status != S.TDX_METADATA_FIELD_NOT_WRITABLE:
                    return status, sequence_idx, at()
                sink.record_skip(entry, field_index)

        buff_size = (buff_size - entry.num_of_elem * md.ELEMENT_BYTES) & 0xFFFFFFFF
        sequence_idx += entry.num_of_elem
        prev_class = entry.class_code
        if field_index + 1 < entry.num_of_fields:
            field_index += 1
        else:
            entry, field_index = catalog.next_entry_after(entry.context_code, entry), 0
        if i < num_fields - 1 and (entry is None or entry.class_code != prev_class):
            return S.TDX_METADATA_FIELD_ID_INCORRECT, sequence_idx, header_raw

    return S.TDX_SUCCESS, sequence_idx, at()


# A field id's reserved bits: 24-31, 47-49, 55 and 62.
_RESERVED_BITS = 0xFF << 24 | 0b111 << 47 | 1 << 55 | 1 << 62


def _reference_write_list(catalog, ctx, arena, sink, mode):
    """The list walk around the reference sequence walk, kept apart from write_list as the
    oracle for write_list's own exits; returns the result and each sequence walk's tuple."""
    result, walks = md.WriteResult(), []
    header = MdListHeader.from_bytes(arena.read(0, 8))
    overflow = S.with_l2_details(S.TDX_METADATA_LIST_OVERFLOW, 0xFFFF, 0)
    if not mode.header_underflow and not 8 <= header.list_buff_size <= md.LIST_BYTES:
        result.status = overflow
        return result, walks
    remaining = result.initial_remaining = (header.list_buff_size - 8) % 2**16
    offset, at = 8, md.MD_FIELD_ID_NA  # at: where the last walk stopped
    for i in range(header.num_sequences):
        if not mode.header_underflow and remaining < 16:
            result.status, result.ext_err_info[0] = overflow, at
            break
        header_raw = arena.read_u64(offset)
        fid = decode_field_id(header_raw)
        admitted = fid.context_code == ctx and not header_raw & _RESERVED_BITS
        entry = catalog.find_entry(ctx, fid) if admitted else None
        if entry is None:
            result.status = S.with_l2_details(S.TDX_METADATA_FIELD_ID_INCORRECT, 0xFFFF, i)
            result.ext_err_info[0] = header_raw
            break
        walks.append(_reference_write_sequence(arena, offset, fid, header_raw, remaining,
                                               catalog, entry, sink, mode))
        status, elements_read, at = walks[-1]
        if status != S.TDX_SUCCESS:
            result.status, result.ext_err_info[0] = status, at
            break
        remaining = (remaining - 8 - 8 * elements_read) % 2**16
        offset += 8 + 8 * elements_read
    return result, walks


class CallLogSink:
    """Logs every sink call; refuses the fields whose index hits `refusals`."""

    def __init__(self, refusals: dict[int, int]):
        self.refusals = refusals
        self.calls = []

    def write_field(self, entry, field_index, values, combined_mask):
        self.calls.append(("write", entry.name, field_index, tuple(values), combined_mask))
        return self.refusals.get(field_index % 7, S.TDX_SUCCESS)

    def record_skip(self, entry, field_index):
        self.calls.append(("skip", entry.name, field_index))


class RunCallLogSink(CallLogSink):
    """A CallLogSink taking each field run in one call, logged as the fields it reached."""

    def write_field(self, entry, field_index, values, combined_mask):
        raise AssertionError("the walk hands a run sink whole runs")

    def write_fields(self, entry, first, values, combined_mask):
        n = entry.num_of_elem
        assert values and len(values) % n == 0
        for index in range(first, first + len(values) // n):
            at = (index - first) * n
            self.calls.append(("write", entry.name, index, tuple(values[at : at + n]), combined_mask))
            status = self.refusals.get(index % 7, S.TDX_SUCCESS)
            if status != S.TDX_SUCCESS:
                return status, index
        return S.TDX_SUCCESS, first + len(values) // n


U64_VALUES = st.integers(0, 2**64 - 1)


@st.composite
def import_lists(draw, catalog):
    """A list of sequences over the catalog, with random masks and lying headers."""
    ctx = draw(st.sampled_from([MD_CTX_TD, MD_CTX_VP]))
    entries = catalog.entries_for(ctx)
    body = b""
    count = 0
    for _ in range(draw(st.integers(0, 6))):
        mask = b""
        if draw(st.integers(0, 9)) == 0:
            header_raw = draw(U64_VALUES)  # usually a context or catalog miss
            elements = draw(st.integers(0, 4))
        else:
            entry = draw(st.sampled_from(entries))
            index = draw(st.integers(0, entry.num_of_fields - 1))
            num_fields = draw(st.one_of(st.integers(1, 24), st.integers(1, 512)))
            wmv = draw(st.booleans())
            header_raw = md.MdFieldId(
                field_code=entry.field_code + index * entry.num_of_elem,
                last_element_in_field=draw(st.integers(0, 15)),
                last_field_in_sequence=num_fields - 1,
                write_mask_valid=int(wmv),
                context_code=ctx,
                class_code=entry.class_code,
            ).to_raw()
            if draw(st.integers(0, 9)) == 0:  # a reserved bit set: refused like a context miss
                header_raw |= 1 << draw(st.sampled_from([24, 47, 55, 62]))
            elements = num_fields * entry.num_of_elem
            if wmv:
                value = draw(st.sampled_from([0, 2**64 - 1, entry.import_mask]) | U64_VALUES)
                mask = value.to_bytes(8, "little")
        seed = draw(st.integers(0, 2**32))
        seq = header_raw.to_bytes(8, "little") + mask + random.Random(seed).randbytes(8 * elements)
        if len(body) + len(seq) > md.LIST_BYTES - md.LIST_HEADER_BYTES:
            break
        body += seq
        count += 1
    exact = md.LIST_HEADER_BYTES + len(body)
    size = draw(st.sampled_from([exact]) | st.integers(0, exact) | st.integers(0, 0xFFFF))
    extra = draw(st.integers(0, 2))
    header = MdListHeader(list_buff_size=size, num_sequences=count + extra)
    return ctx, (header.to_bytes() + body).ljust(md.LIST_BYTES, b"\x00")


def _walk_with(kernel, catalog, ctx, data, mode, refusals, sink_cls=CallLogSink):
    """One walk of ``data``: write_list, each write_sequence call's returned tuple recorded,
    if ``kernel``, else the reference; its result, reads, OOB span, sink calls and walks."""
    arena = ParseArena(data)
    sink = sink_cls(refusals)
    if not kernel:
        result, walks = _reference_write_list(catalog, ctx, arena, sink, mode)
        return result, arena.reads, arena.oob_reads(), arena.max_oob_span(), sink.calls, walks
    walks, write_sequence = [], md.write_sequence

    def recording(*args):
        walks.append(write_sequence(*args))
        return walks[-1]

    with mock.patch.object(md, "write_sequence", recording):
        result = md.write_list(catalog, ctx, md.MD_FIELD_ID_NA, arena, sink, mode)
    return result, arena.reads, arena.oob_reads(), arena.max_oob_span(), sink.calls, walks


def _one_run_list(catalog, name="L2_MSR_BITMAPS", first=0, num_fields=8, claimed=1):
    """A VP list whose one sequence covers ``num_fields`` fields of one entry from ``first``,
    one run; its header claims ``claimed`` sequences, so past one the residue is refused."""
    entry = catalog.by_name(MD_CTX_VP, name)
    header = make_sequence_header(MD_CTX_VP, entry.class_code, entry.field_code + first,
                                  num_fields=num_fields)
    data = build_list([MdSequence(header, [0x100 + i for i in range(num_fields)])]).to_bytes()
    return MD_CTX_VP, data[:2] + claimed.to_bytes(2, "little") + data[4:]


# The three fields a residue refusal can name: one inside an entry, the next
# entry's first field, and MD_FIELD_ID_NA past the context's last entry.
RESIDUE_CASES = [
    (("L2_MSR_BITMAPS", 0, 8), lambda c: c.by_name(MD_CTX_VP, "L2_MSR_BITMAPS").field_id_for(8)),
    (("XCR0", 0, 1), lambda c: c.by_name(MD_CTX_VP, "CR2").field_id_raw),
    (("L2_MSR_BITMAPS", 504, 8), lambda c: md.MD_FIELD_ID_NA),
]


@pytest.mark.parametrize("sequence,named", RESIDUE_CASES, ids=["inside", "next_entry", "na"])
def test_a_residue_refusal_names_where_the_last_sequence_stopped(catalog, sequence, named):
    ctx, data = _one_run_list(catalog, *sequence, claimed=2)
    sink = DictSink()
    result = md.write_list(catalog, ctx, md.MD_FIELD_ID_NA, ParseArena(data), sink,
                           WriteMode.fixed())
    assert result.status == md.LIST_OVERFLOW
    assert result.ext_err_info == [named(catalog), 0]
    assert len(sink.values) == sequence[2]  # the sequence itself was stored


ALL_MODES = [WriteMode(*flags) for flags in itertools.product([False, True], repeat=2)]

# Each mode runs against two sinks: one whose refusals are all NOT_WRITABLE,
# which the walk passes over, and one that may also refuse a value, which ends it.
_SKIPPED = (S.TDX_METADATA_FIELD_NOT_WRITABLE,)
REFUSAL_WORDS = {True: _SKIPPED, False: _SKIPPED + (S.TDX_METADATA_FIELD_VALUE_NOT_VALID,)}
MODE_CASES = [(mode, only_skips) for mode in ALL_MODES for only_skips in (True, False)]


@pytest.mark.parametrize("mode,only_skips", MODE_CASES)
def test_walk_kernel_matches_per_field_reference(catalog, mode, only_skips):
    @settings(max_examples=40, deadline=None)
    @given(
        case=import_lists(catalog),
        refusals=st.dictionaries(
            st.integers(0, 6), st.sampled_from(REFUSAL_WORDS[only_skips]), max_size=3
        ),
    )
    # A NOT_WRITABLE refusal at field 3 of an 8-field run: the walk goes on past it.
    @example(case=_one_run_list(catalog), refusals={3: S.TDX_METADATA_FIELD_NOT_WRITABLE})
    # A value refusal at field 3 of the same run ends the walk: the log stops after field 3.
    @example(case=_one_run_list(catalog), refusals={3: S.TDX_METADATA_FIELD_VALUE_NOT_VALID})
    # NOT_WRITABLE at the run's first and last fields (0 and 7): a run sink is called
    # again from field 1, and not again after field 7.
    @example(case=_one_run_list(catalog), refusals={0: S.TDX_METADATA_FIELD_NOT_WRITABLE})
    # The header claims a second sequence: the post-fix walk refuses the residue, naming
    # a field inside the entry, the next entry's first field, or MD_FIELD_ID_NA.
    @example(case=_one_run_list(catalog, "L2_MSR_BITMAPS", 0, 8, claimed=2), refusals={})
    @example(case=_one_run_list(catalog, "XCR0", 0, 1, claimed=2), refusals={})
    @example(case=_one_run_list(catalog, "L2_MSR_BITMAPS", 504, 8, claimed=2), refusals={})
    # Under header_underflow a run crosses the list end into the sentinel regions.
    @example(case=(MD_CTX_TD, list_header_underflow_list()), refusals={})
    # The oob_sweep shapes: the crafted walk at its shortest and longest.  The walk
    # enters the crafted sequence with 61,457 bytes left, so no n wraps the mask
    # deduction there ...
    @example(case=(MD_CTX_VP, crafted_vp_list(extra_oob_header=True, num_fields=1)), refusals={})
    @example(case=(MD_CTX_VP, crafted_vp_list(extra_oob_header=True, num_fields=512)),
             refusals={})
    # ... until its size field is 4104: then n = 2, the first n whose mask deduction
    # wraps, drives the deduction through zero at the second field.
    @example(case=(MD_CTX_VP, _with_buff_size(crafted_vp_list(extra_oob_header=True,
                                                              num_fields=2), 4104)),
             refusals={})
    # A valid list header, and the deduction wraps inside the tail sequence.
    @example(case=(MD_CTX_VP, _loop_underflow_list()), refusals={})
    # The second header is covered but for a reserved bit: refused at sequence 1.
    @example(case=(MD_CTX_VP, _reserved_bit_list(47)), refusals={})
    def check(case, refusals):
        ctx, data = case
        expected = _walk_with(False, catalog, ctx, data, mode, refusals)
        # Through the per-field default, and through a sink's own run call, expanded per field.
        for sink_cls in (CallLogSink, RunCallLogSink):
            assert _walk_with(True, catalog, ctx, data, mode, refusals, sink_cls) == expected

    check()


@pytest.mark.parametrize("mode,only_skips", MODE_CASES)
def test_every_logged_read_is_one_read_call(catalog, mode, only_skips):
    # The walk logs through the two logging calls alone: each read call logs
    # its one read, and each log_u64s call the element reads its run stands
    # for, each mask re-read it places at mask_at included.  Nothing may reach
    # the log another way, and no call may log a read that the walk then takes
    # back.
    real_read = ParseArena.read
    real_log_u64s = ParseArena.log_u64s
    calls = []

    def counting_read(arena, offset, length):
        calls.append((offset, length))
        return real_read(arena, offset, length)

    def counting_log_u64s(arena, offset, count, mask_at=None, stride=1):
        calls.extend((mask_at if mask_at is not None and k % stride == 0 else offset + 8 * k, 8)
                     for k in range(count))
        return real_log_u64s(arena, offset, count, mask_at, stride)

    @settings(max_examples=40, deadline=None)
    @given(
        case=import_lists(catalog),
        refusals=st.dictionaries(
            st.integers(0, 6), st.sampled_from(REFUSAL_WORDS[only_skips]), max_size=3
        ),
    )
    def check(case, refusals):
        ctx, data = case
        arena = ParseArena(data)
        calls.clear()
        with mock.patch.object(ParseArena, "read", counting_read), \
                mock.patch.object(ParseArena, "log_u64s", counting_log_u64s):
            md.write_list(catalog, ctx, md.MD_FIELD_ID_NA, arena, CallLogSink(refusals), mode)
        assert calls == arena.reads

    check()


# --- arena image copies -------------------------------------------------------

def test_planting_in_one_arena_leaves_others_untouched():
    first = ParseArena(b"")
    second = ParseArena(b"")
    offsets = [start for start, _ in REGION_SPANS.values()]
    before = [second.peek_u64s(offset, 1)[0] for offset in offsets]
    for offset in offsets:
        first.plant(offset, LEAK_SENTINEL)
    assert [first.peek_u64s(offset, 1)[0] for offset in offsets] == [LEAK_SENTINEL] * len(offsets)
    assert [second.peek_u64s(offset, 1)[0] for offset in offsets] == before
    assert [ParseArena(b"").peek_u64s(offset, 1)[0] for offset in offsets] == before


ARENA_BYTES = len(md._BLANK_ARENA)


@settings(max_examples=200, deadline=None)
@given(offset=st.integers(-ARENA_BYTES, ARENA_BYTES + 16), value=U64_VALUES)
@example(offset=-8, value=LEAK_SENTINEL)
@example(offset=-1, value=LEAK_SENTINEL)
@example(offset=ARENA_BYTES - 8, value=LEAK_SENTINEL)
@example(offset=ARENA_BYTES - 7, value=LEAK_SENTINEL)
def test_a_plant_lands_inside_the_arena_or_raises(offset, value):
    """A plant raises, changing nothing, or leaves the image 16,384 bytes long with the
    value at its offset."""
    arena = ParseArena(bytes(md.LIST_BYTES))
    before = bytes(arena.buffer)
    try:
        arena.plant(offset, value)
    except ValueError:
        assert not 0 <= offset <= ARENA_BYTES - 8 and arena.buffer == before
        return
    assert len(arena.buffer) == ARENA_BYTES == 16384
    assert arena.buffer[offset : offset + 8] == value.to_bytes(8, "little")


class EagerArena:
    """Reference arena: the whole image copied at construction, every read
    sliced from it, and ``oob_reads``/``max_oob_span`` scanning the whole log."""

    def __init__(self, list_bytes, plants=None):
        if len(list_bytes) > md.LIST_BYTES:
            raise ValueError("list larger than 4KB")
        buf = bytearray(md._BLANK_ARENA)
        buf[: len(list_bytes)] = list_bytes
        self.buffer = buf
        self.reads = []
        for offset, value in (plants or {}).items():
            self.plant(offset, value)

    def plant(self, offset, value):
        end = offset + 8
        if offset < 0 or end > len(self.buffer):
            raise ValueError("plant outside arena")
        self.buffer[offset:end] = value.to_bytes(8, "little")

    def read(self, offset, length):
        self.reads.append((offset, length))
        chunk = self.buffer[offset : offset + length]
        if len(chunk) < length:
            chunk += bytes(length - len(chunk))
        return chunk

    def peek_u64(self, offset):
        chunk = bytes(self.buffer[offset : offset + 8])
        return int.from_bytes(chunk + b"\x00" * (8 - len(chunk)), "little")

    def oob_reads(self):
        return [(offset, length) for offset, length in self.reads if offset >= md.LIST_BYTES]

    def max_oob_span(self):
        return max((offset + length - md.LIST_BYTES for offset, length in self.reads
                    if offset >= md.LIST_BYTES), default=0)


@st.composite
def arena_reads(draw):
    """One read: inside the list, across its end, past it, or across the arena end."""
    kind = draw(st.sampled_from(["in_list", "straddle", "past_list", "past_arena"]))
    if kind == "in_list":
        offset = draw(st.integers(0, md.LIST_BYTES - 1))
        return offset, draw(st.integers(1, min(64, md.LIST_BYTES - offset)))
    if kind == "straddle":
        offset = draw(st.integers(md.LIST_BYTES - 64, md.LIST_BYTES - 1))
        return offset, draw(st.integers(md.LIST_BYTES - offset + 1, 128))
    if kind == "past_list":
        return draw(st.integers(md.LIST_BYTES, ARENA_BYTES - 1)), draw(st.integers(1, 64))
    return draw(st.integers(ARENA_BYTES - 16, ARENA_BYTES + 16)), draw(st.integers(1, 32))


@st.composite
def arena_runs(draw):
    """One run of 8-byte elements: inside the list, across its end, past it, or across the arena end."""
    kind = draw(st.sampled_from(["in_list", "straddle", "past_list", "past_arena"]))
    if kind == "in_list":
        offset = draw(st.integers(0, md.LIST_BYTES - 8))
        return offset, draw(st.integers(1, (md.LIST_BYTES - offset) // 8))
    if kind == "straddle":
        offset = draw(st.integers(md.LIST_BYTES - 64, md.LIST_BYTES - 1))
        return offset, draw(st.integers((md.LIST_BYTES - offset) // 8 + 1, 16))
    if kind == "past_list":
        return draw(st.integers(md.LIST_BYTES, ARENA_BYTES - 8)), draw(st.integers(1, 16))
    return draw(st.integers(ARENA_BYTES - 64, ARENA_BYTES + 16)), draw(st.integers(1, 16))


@settings(max_examples=200, deadline=None)
@given(
    data=st.binary(max_size=md.LIST_BYTES) | st.binary(min_size=md.LIST_BYTES,
                                                       max_size=md.LIST_BYTES),
    as_bytearray=st.booleans(),
    plants=st.none() | st.dictionaries(st.integers(0, ARENA_BYTES - 8),
                                       st.integers(0, 2**64 - 1), max_size=3),
    reads=st.lists(st.tuples(arena_reads(), st.just(False))
                   | st.tuples(arena_runs(), st.just(True))
                   | st.tuples(arena_runs(), st.tuples(arena_runs().map(lambda run: run[0]),
                                                       st.integers(1, 4))),
                   max_size=8),
)
@example(data=bytes(range(256)) * 16, as_bytearray=False, plants=None,
         reads=[((0, 8), False), ((4088, 8), False)])
@example(data=b"\xaa" * 100, as_bytearray=True, plants=None,
         reads=[((4092, 8), False), ((4096, 8), False)])
@example(data=bytes(range(256)) * 16, as_bytearray=False, plants=None,
         reads=[((8, 511), True), ((4080, 3), True), ((ARENA_BYTES - 8, 2), True)])
# The crafted walk's shape: the mask re-read at 4088 heads each field, the values run
# past the list, and the last slot is the overflowing field's mask re-read.
@example(data=bytes(range(256)) * 16, as_bytearray=False, plants=None,
         reads=[((4080, 7), (4088, 2)), ((4096, 3), (4088, 1)), ((8, 4), (ARENA_BYTES, 3))])
# A lone mask re-read: the run's own slot, past the list, is not read.
@example(data=b"", as_bytearray=False, plants=None, reads=[((4104, 1), (0, 2))])
def test_lazy_arena_matches_the_eager_reference(data, as_bytearray, plants, reads):
    # Each read is ((offset, length), False), one read call; or ((offset, count), True),
    # a run of count 8-byte elements, logged with log_u64s and decoded with peek_u64s,
    # which the reference reads element by element; or ((offset, count), (mask_at,
    # stride)), such a run whose every stride-th element, from the first, is read at
    # mask_at instead.  The summaries must match the reference's full scans after
    # every draw.
    given_bytes = bytearray(data) if as_bytearray else data
    arena = ParseArena(given_bytes, plants)
    reference = EagerArena(data, plants)
    if as_bytearray:
        given_bytes[:] = bytes(0xFF - b for b in given_bytes)  # the arena keeps its own copy

    spans = []
    for (offset, size), run in reads:
        if run:
            mask_at, stride = (None, 1) if run is True else run
            logged = [mask_at if mask_at is not None and k % stride == 0 else offset + 8 * k
                      for k in range(size)]
            for at in logged:
                reference.read(at, 8)
            arena.log_u64s(offset, size, mask_at, stride)
            assert arena.oob_reads() == reference.oob_reads()  # logged alone, before any peek
            assert arena.peek_u64s(offset, size) == [reference.peek_u64(at) for at in
                                                     range(offset, offset + 8 * size, 8)]
            spans += [(offset, 8 * size)] + [(at, 8) for at in logged]
        else:
            got = arena.read(offset, size)
            assert bytes(got) == bytes(reference.read(offset, size))
            assert len(got) == size
            spans.append((offset, size))
        assert arena.reads == reference.reads
        assert arena.oob_reads() == reference.oob_reads()
        assert arena.max_oob_span() == reference.max_oob_span()
    assert arena.reads == reference.reads
    assert arena.oob_reads() == reference.oob_reads()
    assert arena.max_oob_span() == reference.max_oob_span()
    # The image is built only by a plant, or by a read, run or peek past the list.
    past_list = any(offset + length > md.LIST_BYTES for offset, length in spans)
    assert (arena._image is None) == (not plants and not past_list)

    starts = [0, md.LIST_BYTES - 4] + [start for start, _ in REGION_SPANS.values()]
    assert [arena.peek_u64s(at, 1)[0] for at in starts] == [reference.peek_u64(at) for at in starts]
    assert arena.buffer == reference.buffer
    assert arena.oob_reads() == reference.oob_reads()


# --- dump side -------------------------------------------------------------------

class MapSource:
    def __init__(self, values=None):
        self.values = values or {}

    def read_field(self, entry, field_index, count=1):
        base = field_index * entry.num_of_elem
        return [
            self.values.get((entry.name, base + k), 0) & entry.export_mask
            for k in range(count * entry.num_of_elem)
        ]


def test_dump_empty_selection_is_header_only():
    lists = md.dump_lists(MD_CTX_TD, [], MapSource())
    assert len(lists) == 1
    assert lists[0].header.list_buff_size == 8
    assert lists[0].to_bytes() == MdListHeader(8, 0).to_bytes().ljust(4096, b"\x00")


def test_dump_then_import_is_identity(catalog):
    rng = random.Random(9)
    entries = [
        catalog.by_name(MD_CTX_TD, "TD_EPOCH"),
        catalog.by_name(MD_CTX_TD, "VIRTUAL_TSC"),
    ]
    values = {}
    for entry in entries:
        for position in range(entry.code_span):
            values[(entry.name, position)] = rng.getrandbits(64)
    lists = md.dump_lists(MD_CTX_TD, entries, MapSource(values))
    sink = DictSink()
    for item in lists:
        arena = ParseArena(item.to_bytes())
        result = md.write_list(catalog, MD_CTX_TD, md.MD_FIELD_ID_NA, arena, sink,
                               WriteMode.fixed())
        assert result.status == S.TDX_SUCCESS
        assert not arena.oob_reads()
    assert sink.values[("TD_EPOCH", 0)] == [values[("TD_EPOCH", 0)]]
    assert sink.values[("VIRTUAL_TSC", 0)] == [
        values[("VIRTUAL_TSC", 0)], values[("VIRTUAL_TSC", 1)]
    ]


def test_dump_splits_wide_entries_across_lists(catalog):
    entry = catalog.by_name(MD_CTX_VP, "XBUFF")
    lists = md.dump_lists(MD_CTX_VP, [entry], MapSource())
    total_fields = 0
    for item in lists:
        for seq in item.sequences:
            fid = decode_field_id(seq.header_raw)
            assert fid.num_fields <= 512
            assert not decode_field_id(seq.header_raw).has_reserved_bits
            total_fields += fid.num_fields
    assert total_fields == 1536
    assert len(lists) == 4


def test_parse_rejects_truncated_sequences():
    header = MdListHeader(list_buff_size=16, num_sequences=2)
    seq = MdSequence(make_sequence_header(MD_CTX_TD, 0x11, 0), [])
    data = (header.to_bytes() + seq.to_bytes()).ljust(4096, b"\x00")
    with pytest.raises(ValueError):
        parse_list(data)


def test_dump_rejects_non_exportable_selection(catalog):
    entry = catalog.by_name(MD_CTX_TD, "MIG_DEC_KEY")  # export mask 0
    with pytest.raises(md.ExportError, match="MIG_DEC_KEY"):
        md.dump_lists(MD_CTX_TD, [entry], MapSource())


def test_sequence_size_cap_matches_field_count_cap():
    seq = MdSequence(
        make_sequence_header(MD_CTX_VP, 0x12, 0, num_fields=512), [0] * 512
    )
    assert seq.size == 512 * 8 + 8 == md.MAX_SEQUENCE_BYTES


def test_patch_element_skips_the_write_mask_slot(catalog):
    xcr0 = MdSequence(make_sequence_header(MD_CTX_VP, 0x11, 0x20), [0x7])
    xbuff = MdSequence(make_sequence_header(MD_CTX_VP, 0x12, 0, num_fields=4), [10, 11, 12, 13])
    masked = zero_mask_entry([xcr0, xbuff], catalog, MD_CTX_VP, "XBUFF")
    assert masked[1].elements == [0, 10, 11, 12, 13]
    original = build_list(masked).to_bytes()
    entry = catalog.by_name(MD_CTX_VP, "XBUFF")

    for k in range(4):
        lists = [bytearray(original)]
        assert md.patch_element(lists, entry.field_id_for(0), k, 0xAB)
        elements = parse_list(bytes(lists[0])).sequences[1].elements
        assert elements[0] == 0  # the mask stays
        assert elements[1:] == [0xAB if i == k else 10 + i for i in range(4)]
    lists = [bytearray(original)]
    assert md.patch_element(lists, entry.field_id_for(2), 1, 0xCD)
    assert parse_list(bytes(lists[0])).sequences[1].elements == [0, 10, 11, 12, 0xCD]

    lists = [bytearray(original)]
    assert not md.patch_element(lists, entry.field_id_for(0), 4, 0xAB)  # past the sequence end
    assert not md.patch_element(lists, entry.field_id_for(3), 1, 0xAB)
    other_context = make_sequence_header(MD_CTX_TD, entry.class_code, entry.field_code)
    assert not md.patch_element(lists, other_context, 0, 0xAB)
    assert bytes(lists[0]) == original
