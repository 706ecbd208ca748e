"""Metadata list codec: field ids, list headers, sequences, and the import walk.

The import-side walk (write_list / write_sequence) has two switches, the two
fields of WriteMode, one per finding.  Their pre-fix settings reproduce the
production module's size arithmetic bit-for-bit: a 16-bit subtraction when
the list header is consumed (header_underflow) and a 32-bit subtraction per
write-mask element inside the field loop (loop_underflow), both of which
wrap.  The fixed settings bounds-check the header up front and hoist the
write-mask handling out of the loop.  In every mode a field refused as not
writable is skipped and recorded on the sink; what the import does with the
records (the required-field check) is the engine's business.

All parsing reads go through a ParseArena so out-of-bounds accesses are
observable instead of faulting: the arena holds the 4KB list at offset 0
followed by labeled sentinel regions whose contents self-identify.

Everything here is a pure function over caller-owned arenas and sinks; with
disjoint data, calls are safe from multiple threads.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass, field as dc_field
from itertools import repeat
from typing import Iterable, Optional, Protocol

from .status import (
    TDX_METADATA_FIELD_ID_INCORRECT,
    TDX_METADATA_FIELD_NOT_WRITABLE,
    TDX_METADATA_LIST_OVERFLOW,
    TDX_SUCCESS,
    with_l2_details,
)

LIST_BYTES = 4096
LIST_HEADER_BYTES = 8
SEQUENCE_HEADER_BYTES = 8
ELEMENT_BYTES = 8
MAX_FIELDS_PER_SEQUENCE = 512
MAX_SEQUENCE_BYTES = MAX_FIELDS_PER_SEQUENCE * ELEMENT_BYTES + SEQUENCE_HEADER_BYTES

MD_FIELD_ID_NA = 0xFFFFFFFFFFFFFFFF

# The walk's overflow word: level-2 details 0xFFFF and sequence 0.
LIST_OVERFLOW = with_l2_details(TDX_METADATA_LIST_OVERFLOW, 0xFFFF, 0)

MD_CTX_SYS = 0
MD_CTX_TD = 1
MD_CTX_VP = 2

# The 64-bit field id, one (subfield, shift, width) row per bit range, low
# bits first.  Every pack, unpack and range check reads this table.
FIELD_ID_LAYOUT = (
    ("field_code", 0, 24),
    ("reserved_0", 24, 8),
    ("element_size_code", 32, 2),
    ("last_element_in_field", 34, 4),
    ("last_field_in_sequence", 38, 9),
    ("reserved_1", 47, 3),
    ("inc_size", 50, 1),
    ("write_mask_valid", 51, 1),
    ("context_code", 52, 3),
    ("reserved_2", 55, 1),
    ("class_code", 56, 6),
    ("reserved_3", 62, 1),
    ("ignored", 63, 1),
)
_RESERVED = tuple(name for name, _, _ in FIELD_ID_LAYOUT if name.startswith("reserved_"))
_UNPACK = tuple((shift, (1 << width) - 1) for _, shift, width in FIELD_ID_LAYOUT)

# The only element size the model serializes: 64-bit values.
ELEMENT_SIZE_CODE_8B = 3


class EncodingError(ValueError):
    """A field id subfield is out of range or a reserved range is nonzero."""


@dataclass(frozen=True, slots=True)
class MdFieldId:
    """Unpacked view of a 64-bit metadata field identifier, fields in FIELD_ID_LAYOUT order."""

    field_code: int = 0
    reserved_0: int = 0
    element_size_code: int = ELEMENT_SIZE_CODE_8B
    last_element_in_field: int = 0
    last_field_in_sequence: int = 0
    reserved_1: int = 0
    inc_size: int = 0
    write_mask_valid: int = 0
    context_code: int = MD_CTX_SYS
    reserved_2: int = 0
    class_code: int = 0
    reserved_3: int = 0
    ignored: int = 0

    @property
    def num_fields(self) -> int:
        return self.last_field_in_sequence + 1

    @property
    def has_reserved_bits(self) -> bool:
        return any(getattr(self, name) for name in _RESERVED)

    def to_raw(self) -> int:
        """Lossless repack, including any reserved bits carried from a decode."""
        raw = 0
        for name, shift, _ in FIELD_ID_LAYOUT:
            raw |= getattr(self, name) << shift
        return raw


def encode_field_id(parts: MdFieldId) -> int:
    """Pack subfields to the raw 64-bit id, rejecting overflow and reserved bits."""
    for name, _, width in FIELD_ID_LAYOUT:
        value = getattr(parts, name)
        if name not in _RESERVED and not 0 <= value < 1 << width:
            raise EncodingError(f"{name} out of range: {value:#x}")
    for name in _RESERVED:
        if getattr(parts, name):
            raise EncodingError(f"{name} must be zero in emitted field ids")
    return parts.to_raw()


@functools.lru_cache(maxsize=1024)
def decode_field_id(raw: int) -> MdFieldId:
    """Lossless unpack; reserved bit contents are preserved and reported.

    Cached, bounded as hostile lists carry arbitrary headers: every call with
    one raw returns one shared frozen instance, to ``replace``, never mutate.
    """
    return MdFieldId(*[(raw >> shift) & mask for shift, mask in _UNPACK])


def admit_field_id(raw: int, context_code: int) -> Optional[MdFieldId]:
    """A handed id, decoded, if it fits 64 bits, sets no reserved bit and names the context."""
    if not 0 <= raw < 1 << 64:
        return None
    fid = decode_field_id(raw)
    return None if fid.has_reserved_bits or fid.context_code != context_code else fid


@functools.cache
def make_sequence_header(
    context_code: int,
    class_code: int,
    field_code: int,
    num_fields: int = 1,
    num_elements: int = 1,
    write_mask_valid: bool = False,
) -> int:
    """Canonical emitted header: reserved bits zero, 8-byte element size code.

    Cached: a pure function of its integer arguments.  An out-of-range
    argument raises EncodingError, which the cache does not keep, so every
    such call raises again.
    """
    return encode_field_id(
        MdFieldId(
            field_code=field_code,
            last_element_in_field=num_elements - 1,
            last_field_in_sequence=num_fields - 1,
            write_mask_valid=1 if write_mask_valid else 0,
            context_code=context_code,
            class_code=class_code,
        )
    )


# The 8-byte list header: list_buff_size (u16), num_sequences (u16), reserved (u32).
_LIST_HEADER = struct.Struct("<HHI")


@dataclass
class MdListHeader:
    list_buff_size: int = LIST_HEADER_BYTES
    num_sequences: int = 0
    reserved: int = 0

    def to_bytes(self) -> bytes:
        return _LIST_HEADER.pack(self.list_buff_size, self.num_sequences, self.reserved)

    @classmethod
    def from_bytes(cls, data: bytes) -> "MdListHeader":
        """The header in the first 8 bytes of ``data``; bytes it lacks read as zero."""
        head = bytes(data[:LIST_HEADER_BYTES]).ljust(LIST_HEADER_BYTES, b"\x00")
        return cls(*_LIST_HEADER.unpack(head))


@dataclass
class MdSequence:
    """One packed sequence: a header id followed by 64-bit elements."""

    header_raw: int
    elements: list[int]

    def to_bytes(self) -> bytes:
        """The header and every element, each a little-endian u64, packed in one call."""
        try:
            return _u64s(1 + len(self.elements)).pack(self.header_raw, *self.elements)
        except struct.error as exc:
            raise EncodingError(f"sequence value outside 64 bits: {exc}") from exc

    @property
    def size(self) -> int:
        return SEQUENCE_HEADER_BYTES + len(self.elements) * ELEMENT_BYTES


@functools.lru_cache(maxsize=LIST_BYTES // ELEMENT_BYTES)
def _u64s(count: int) -> struct.Struct:
    """The packer of ``count`` little-endian u64 values.

    A 4 KB list holds fewer than 512 of them, so the cache keeps one packer
    per sequence or field-run length a list can carry.
    """
    return struct.Struct(f"<{count}Q")


@dataclass
class MdList:
    header: MdListHeader
    sequences: list[MdSequence]

    def to_bytes(self) -> bytes:
        """Serialize to exactly 4096 bytes, zero padded after the last sequence."""
        out = bytearray(self.header.to_bytes())
        for seq in self.sequences:
            out += seq.to_bytes()
        if len(out) > LIST_BYTES:
            raise EncodingError(f"list content {len(out)} exceeds {LIST_BYTES} bytes")
        out += b"\x00" * (LIST_BYTES - len(out))
        return bytes(out)


def build_list(sequences: Iterable[MdSequence]) -> MdList:
    seqs = list(sequences)
    size = LIST_HEADER_BYTES + sum(s.size for s in seqs)
    return MdList(MdListHeader(list_buff_size=size, num_sequences=len(seqs)), seqs)


def _sequence_spans(data) -> tuple[MdListHeader, list[tuple[int, int, MdFieldId, int]]]:
    """Bounds-check a serialized list and locate its sequences.

    Returns the list header and, per sequence, ``(offset, header_raw, fid,
    count)``: where its header sits, the header decoded once, and how many
    elements (write mask included) follow it.  Raises ValueError as soon as a
    header or its elements leave ``list_buff_size``.
    """
    if len(data) < LIST_HEADER_BYTES:
        raise ValueError("list shorter than its header")
    header = MdListHeader.from_bytes(data[:LIST_HEADER_BYTES])
    if header.list_buff_size < LIST_HEADER_BYTES or header.list_buff_size > min(len(data), LIST_BYTES):
        raise ValueError(f"bad list_buff_size {header.list_buff_size}")
    off = LIST_HEADER_BYTES
    spans = []
    for _ in range(header.num_sequences):
        if off + SEQUENCE_HEADER_BYTES > header.list_buff_size:
            raise ValueError("sequence header outside list_buff_size")
        raw = int.from_bytes(data[off : off + 8], "little")
        fid = decode_field_id(raw)
        count = fid.num_fields * (fid.last_element_in_field + 1) + fid.write_mask_valid
        end = off + SEQUENCE_HEADER_BYTES + count * ELEMENT_BYTES
        if end > header.list_buff_size:
            raise ValueError("sequence elements outside list_buff_size")
        spans.append((off, raw, fid, count))
        off = end
    return header, spans


def parse_list(data: bytes) -> MdList:
    """Structured bounds-checked parse of a serialized list (export/tooling side).

    Trailing padding is ignored.  This is not the import walk; it trusts the
    element-count bits in each sequence header instead of catalog lookups, so
    it can pretty-print or patch arbitrary well-formed lists.
    """
    header, spans = _sequence_spans(data)
    sequences = [
        MdSequence(raw, list(_u64s(count).unpack_from(data, off + SEQUENCE_HEADER_BYTES)))
        for off, raw, _, count in spans
    ]
    return MdList(header, sequences)


def patch_element(lists: list[bytearray], field_id: int, element: int, value: int) -> bool:
    """Patch one 64-bit element of the sequence holding field_id, in place.

    An element outside that sequence's values counts as not found.  Each list
    is bounds-checked whole before it is searched, so a malformed list raises
    ValueError even when the field sits before the fault.
    """
    wanted = decode_field_id(field_id)
    for data in lists:
        _, spans = _sequence_spans(data)
        for offset, _, fid, count in spans:
            span = fid.num_fields * (fid.last_element_in_field + 1)
            slot = (wanted.field_code - fid.field_code) + element
            if (
                fid.context_code == wanted.context_code
                and fid.class_code == wanted.class_code
                and fid.field_code <= wanted.field_code < fid.field_code + span
                and element >= 0
                and slot < count - fid.write_mask_valid
            ):
                position = offset + 8 + (fid.write_mask_valid + slot) * 8
                data[position : position + 8] = value.to_bytes(8, "little")
                return True
    return False


class ParseArena:
    """Bounded byte arena: the list at offset 0, labeled sentinels after it.

    Every read is logged; reads starting at or beyond the 4KB list region are
    flagged out-of-bounds and served from the sentinel regions, mirroring the
    fact that adjacent stack data is readable rather than faulting.  Reads past
    the arena itself return zeros.

    The log keeps one record per logging call, led by where its farthest read starts:
    ``read``'s ``(offset, length)``, or a ``log_u64s`` run of 8-byte reads (a mask
    re-read heading each field, if asked) as ``(farthest, offset, count, mask_at,
    stride)``.  ``reads`` expands the log into a fresh list on each access, one ``(offset,
    length)`` per read in read order, that callers must not mutate.  ``max_oob_span`` is
    kept as the log grows; ``oob_reads`` expands only the records that read past the list.

    The list is kept as immutable bytes, zero-padded to 4KB; a whole 4KB
    ``bytes`` list is kept as given, with no copy.  The full image (the list,
    then the sentinel regions, hashed once at import) is built on the first
    read that runs past the list, on the first ``plant``, or on the first
    access to ``buffer``, which is that image.

    ``read`` returns a copy of exactly ``length`` bytes: ``bytes`` sliced from
    the list for a read inside it, a ``bytearray`` sliced from the image once
    that is built, zero-padded only past the arena end; ``peek_u64s`` decodes
    a run served the same way, unlogged.  Offsets count from the list start
    and are never negative, and lengths and counts are positive.
    """

    REGIONS = (
        ("canary", 64),
        ("fake_return_address", 64),
        ("shadow_stack", 4096),
        ("adjacent_frame", 8064),
    )

    def __init__(self, list_bytes: bytes, plants: Optional[dict[int, int]] = None):
        if len(list_bytes) > LIST_BYTES:
            raise ValueError("list larger than 4KB")
        # What reads slice: the list until the image is built, then the image.
        self._bytes = bytes(list_bytes).ljust(LIST_BYTES, b"\x00")
        self._image: Optional[bytearray] = None
        self._log: list[tuple] = []
        self._oob_span = 0
        for offset, value in (plants or {}).items():
            self.plant(offset, value)

    @property
    def buffer(self) -> bytearray:
        """The arena image: the list, then the sentinel regions; built on first use."""
        if self._image is None:
            image = bytearray(_BLANK_ARENA)
            image[:LIST_BYTES] = self._bytes
            self._bytes = self._image = image
        return self._image

    @staticmethod
    def region_pattern(name: str, size: int) -> bytes:
        """Deterministic per-region fill so leaked bytes self-identify."""
        tile = hashlib.sha256(name.encode()).digest()
        return (tile * (size // len(tile) + 1))[:size]

    def plant(self, offset: int, value: int) -> None:
        """Place an 8-byte little-endian sentinel value at an arena offset."""
        buffer = self.buffer
        if not 0 <= offset <= len(buffer) - 8:
            raise ValueError("plant outside arena")
        buffer[offset : offset + 8] = value.to_bytes(8, "little")

    def read(self, offset: int, length: int) -> bytes | bytearray:
        """Log one read and return a copy of exactly ``length`` bytes.

        A read the list serves whole is one slice of it.  A read that comes
        back short ran past the list: it is served from the image, built on
        this first such read, and zero-padded if it runs past the arena end.
        """
        self._log.append((offset, length))
        if offset >= LIST_BYTES and offset + length - LIST_BYTES > self._oob_span:
            self._oob_span = offset + length - LIST_BYTES
        chunk = self._bytes[offset : offset + length]
        if len(chunk) < length:
            chunk = self.buffer[offset : offset + length]
            chunk += bytes(length - len(chunk))
        return chunk

    def peek_u64s(self, offset: int, count: int) -> list[int]:
        """Unlogged: ``count`` little-endian u64s from ``offset``, served as ``read`` serves bytes.

        The walk decodes a field run with it; assertions about what a walk
        should have seen use it too.
        """
        end = offset + count * ELEMENT_BYTES
        data = self._bytes
        if end > len(data):  # past the list: from the image, zero-padded past its end
            data, offset = self.buffer[offset:end].ljust(end - offset, b"\x00"), 0
        return list(_u64s(count).unpack_from(data, offset))

    def log_u64s(self, offset: int, count: int, mask_at: Optional[int] = None,
                 stride: int = 1) -> None:
        """Log ``count`` 8-byte reads from ``offset`` on, as one record ``reads`` expands.

        With ``mask_at``, the reads come in groups of ``stride`` slots, and the
        first read of each group is at ``mask_at`` instead of its own slot: the
        pre-fix walk's per-field mask re-read, ahead of the field's values.
        """
        # The farthest read: the mask re-read, or the last slot that is read in place.
        last = max([offset + k * ELEMENT_BYTES for k in (count - 2, count - 1)
                    if k >= 0 and (mask_at is None or k % stride)] + [mask_at or 0])
        self._log.append((last, offset, count, mask_at, stride))
        if last + ELEMENT_BYTES > LIST_BYTES:
            self.buffer  # builds the image, as a read past the list would
            if last >= LIST_BYTES:
                self._oob_span = max(self._oob_span, last + ELEMENT_BYTES - LIST_BYTES)

    @property
    def reads(self) -> list[tuple[int, int]]:
        """Every logged read, one ``(offset, length)`` each, in read order: a fresh list."""
        return [read for record in self._log for read in _expand(record)]

    def read_u64(self, offset: int) -> int:
        return int.from_bytes(self.read(offset, 8), "little")

    def oob_reads(self) -> list[tuple[int, int]]:
        """The logged reads that start at or past the list end, in read order."""
        if not self._oob_span:
            return []
        return [read for record in self._log if record[0] >= LIST_BYTES
                for read in _expand(record) if read[0] >= LIST_BYTES]

    def max_oob_span(self) -> int:
        """Bytes past the list end reached by the farthest out-of-bounds read."""
        return self._oob_span


def _expand(record: tuple) -> Iterable[tuple[int, int]]:
    """The ``(offset, length)`` reads a log record stands for, in read order."""
    if len(record) == 2:
        return (record,)
    _, offset, count, mask_at, stride = record
    offsets = list(range(offset, offset + count * ELEMENT_BYTES, ELEMENT_BYTES))
    if mask_at is not None:
        offsets[::stride] = [mask_at] * len(offsets[::stride])
    return zip(offsets, repeat(ELEMENT_BYTES))


# An arena image before any list is copied in: a zero list region, then the
# sentinel regions.
_BLANK_ARENA = bytes(LIST_BYTES) + b"".join(
    ParseArena.region_pattern(name, size) for name, size in ParseArena.REGIONS
)


@dataclass
class WriteMode:
    """Per-finding variant switches for the import walk.

    Flags are True when the corresponding pre-fix behavior is active:
      header_underflow  unchecked 16-bit header subtraction
      loop_underflow    write-mask element deducted inside the field loop
    """

    header_underflow: bool = False
    loop_underflow: bool = False

    @classmethod
    def vulnerable(cls) -> "WriteMode":
        return cls(header_underflow=True, loop_underflow=True)

    @classmethod
    def fixed(cls) -> "WriteMode":
        return cls()


class MetadataSink(Protocol):
    """Destination for imported field values (a TD, or a plain dict in tests).

    The walk stores a field run with its class's ``write_fields(entry, first,
    values, combined_mask)``, the fields' values back to back; it returns the
    word and index of the first field refused, or TDX_SUCCESS and the index
    past the run.  A class without one gets the module's, a ``write_field`` per field.
    """

    def write_field(self, entry, field_index: int, values: list[int], combined_mask: int) -> int:
        """Store values for one field; returns a status word."""

    def record_skip(self, entry, field_index: int) -> None:
        """Note a field the walk passed over because the sink refused it as not writable."""


def write_fields(sink: MetadataSink, entry, first: int, values: list[int],
                 combined_mask: int) -> tuple[int, int]:
    """The run call of a sink that has none: its ``write_field`` per field, up to a refusal."""
    write_field, num_of_elem = sink.write_field, entry.num_of_elem
    for at in range(0, len(values), num_of_elem):
        status = write_field(entry, first, values[at : at + num_of_elem], combined_mask)
        if status != TDX_SUCCESS:
            return status, first
        first += 1
    return TDX_SUCCESS, first


@dataclass
class WriteResult:
    status: int = TDX_SUCCESS
    ext_err_info: list[int] = dc_field(default_factory=lambda: [0, 0])
    initial_remaining: int = 0


def write_list(
    catalog,
    context_code: int,
    expected_raw: int,
    arena: ParseArena,
    sink: MetadataSink,
    mode: WriteMode,
) -> WriteResult:
    """Import one metadata list from the arena into the sink.

    A refusal names a field id in ext_err_info[0]: the raw header that
    ``admit_field_id`` refuses or no catalog entry covers, with the sequence
    index in the low status word; the ``at`` of a sequence walk that fails; and
    on a residue refusal, the ``at`` of the last sequence walked (MD_FIELD_ID_NA
    before the first).
    """
    result = WriteResult()
    list_buff_size, num_sequences, _ = _LIST_HEADER.unpack(arena.read(0, LIST_HEADER_BYTES))

    if not mode.header_underflow:
        if list_buff_size < LIST_HEADER_BYTES or list_buff_size > LIST_BYTES:
            result.status = LIST_OVERFLOW
            return result

    # The pre-fix module stores this in a uint16_t with no lower-bound check.
    remaining = (list_buff_size - LIST_HEADER_BYTES) & 0xFFFF
    result.initial_remaining = remaining
    seq_off = LIST_HEADER_BYTES
    at = MD_FIELD_ID_NA

    for i in range(num_sequences):
        if not mode.header_underflow and remaining < SEQUENCE_HEADER_BYTES + ELEMENT_BYTES:
            # Post-fix walks check the residue before touching the next header,
            # so a lying num_sequences cannot push a read past the list.
            result.status, result.ext_err_info[0] = LIST_OVERFLOW, at
            return result
        header_raw = arena.read_u64(seq_off)
        fid = admit_field_id(header_raw, context_code)
        entry = fid and catalog.find_entry(context_code, fid)
        if entry is None:
            result.ext_err_info[0] = header_raw
            result.status = with_l2_details(TDX_METADATA_FIELD_ID_INCORRECT, 0xFFFF, i)
            return result

        status, elements_read, at = write_sequence(
            arena, seq_off, fid, header_raw, remaining, catalog, entry, sink, mode
        )
        if status != TDX_SUCCESS:
            result.status, result.ext_err_info[0] = status, at
            return result

        consumed = SEQUENCE_HEADER_BYTES + elements_read * ELEMENT_BYTES
        remaining = (remaining - consumed) & 0xFFFF
        seq_off += consumed

    return result


def write_sequence(
    arena: ParseArena,
    seq_off: int,
    fid: MdFieldId,
    header_raw: int,
    buff_size: int,
    catalog,
    entry,
    sink: MetadataSink,
    mode: WriteMode,
) -> tuple[int, int, int]:
    """Import one sequence, from the field ``fid`` names; returns (status, elements_read, at).

    ``entry`` is the catalog entry that holds that field.
    ``at`` is the field id where the walk stops: the refused or overflowing
    field; on success the field after the sequence, which is the next
    entry's first field when the sequence ends an entry, or MD_FIELD_ID_NA
    past the context's last entry; or ``header_raw`` when the sequence would
    cross into another class.  It is the walk's one position.

    buff_size is 32-bit arithmetic.  In the pre-fix variant the write-mask
    element is re-read and deducted on every loop iteration, so a sequence that
    ends near the list boundary drives buff_size through zero and the walk
    continues into the sentinel regions.

    The walk runs per catalog entry in both placements: how many fields fit
    is settled first (pre-fix, by the per-field wrapping deduction), then the
    run is decoded with one ``peek_u64s`` and logged with one ``log_u64s``,
    mask re-reads placed, up to a refusal or the overflowing field's mask
    re-read; the sink gets the run, mask slots dropped, in one ``write_fields``
    call (again from the field after each one it skips).  The next entry is
    looked up, and the class-change check made, only after an entry's last
    field.

    A field of an entry that is not importable is passed over; one refused as
    not writable is skipped and recorded through ``sink.record_skip``; any
    other refusal ends the walk.
    """
    field_index = entry.field_index_of(fid.field_code)
    if buff_size < SEQUENCE_HEADER_BYTES + ELEMENT_BYTES:
        return LIST_OVERFLOW, 0, entry.field_id_for(field_index)

    # At least one element is left, so the post-fix mask element always fits.
    buff_size = (buff_size - SEQUENCE_HEADER_BYTES) & 0xFFFFFFFF
    elements_base = seq_off + SEQUENCE_HEADER_BYTES
    sequence_idx = 0
    wr_mask = 0xFFFFFFFFFFFFFFFF
    # A mask re-read takes the slot ahead of each field's values: 1 in the pre-fix placement.
    slot = int(mode.loop_underflow and fid.write_mask_valid)
    mask_at = elements_base if slot else None

    if slot:
        wr_mask = arena.peek_u64s(elements_base, 1)[0]
    elif fid.write_mask_valid:
        # Post-fix placement: consume the mask element once, before the loop.
        wr_mask = arena.read_u64(elements_base)
        sequence_idx += 1
        buff_size -= ELEMENT_BYTES

    write_run = getattr(type(sink), "write_fields", write_fields)
    fields_left = fid.num_fields
    while True:
        # Per-entry values; they change only when the walk crosses an entry.
        num_of_elem = entry.num_of_elem
        field_bytes = num_of_elem * ELEMENT_BYTES
        last_index = entry.num_of_fields - 1
        first = field_index
        stop = min(last_index + 1, first + fields_left)
        fields_left -= stop - first

        if slot:
            # Pre-fix placement, the finding: a per-field wrapping deduction of the mask.
            fit = first
            while fit < stop:
                buff_size = (buff_size - ELEMENT_BYTES) & 0xFFFFFFFF
                if buff_size < field_bytes:
                    break
                buff_size -= field_bytes
                fit += 1
        else:
            fit = min(stop, first + buff_size // field_bytes)
            buff_size -= (fit - first) * field_bytes

        # One run: the fields that fit are decoded, written and logged.
        stride = slot + num_of_elem
        offset = elements_base + sequence_idx * ELEMENT_BYTES
        combined = wr_mask & entry.import_mask
        logged = slot  # reads logged per field
        if entry.importable and combined == 0:
            for field_index in range(first, fit):
                sink.record_skip(entry, field_index)
        elif entry.importable:
            logged = stride
            run = arena.peek_u64s(offset, (fit - first) * stride)
            if slot:
                del run[::stride]  # the mask re-reads: the sink gets the values alone
            while field_index < fit:
                values = run[(field_index - first) * num_of_elem :] if field_index > first else run
                status, field_index = write_run(sink, entry, field_index, values, combined)
                if status == TDX_SUCCESS:
                    break
                past = slot + (field_index - first + 1) * stride  # past the refused field
                if status != TDX_METADATA_FIELD_NOT_WRITABLE:
                    arena.log_u64s(offset, past - slot, mask_at, stride)
                    return status, sequence_idx + past - stride, entry.field_id_for(field_index)
                sink.record_skip(entry, field_index)
                field_index += 1
        sequence_idx += (fit - first) * stride
        overflow = fit < stop
        count = (fit - first) * logged + overflow * slot  # with the overflowing field's mask
        if count:
            arena.log_u64s(offset, count, mask_at, logged)
        if overflow:
            return LIST_OVERFLOW, sequence_idx + slot, entry.field_id_for(fit)
        if stop <= last_index:  # the sequence ended inside this entry
            return TDX_SUCCESS, sequence_idx, entry.field_id_for(stop)

        following = catalog.next_entry_after(entry.context_code, entry)
        if not fields_left:
            return TDX_SUCCESS, sequence_idx, following.first_field_id if following else MD_FIELD_ID_NA
        if following is None or following.class_code != entry.class_code:
            return TDX_METADATA_FIELD_ID_INCORRECT, sequence_idx, header_raw
        entry, field_index = following, 0


class MetadataSource(Protocol):
    """Value provider for the export-side serializer."""

    def read_field(self, entry, field_index: int, count: int = 1) -> list[int]:
        """Return the element values of ``count`` consecutive fields from ``field_index``.

        Fields come in order, ``count * entry.num_of_elem`` values in all,
        already export-masked: each must be a 64-bit unsigned value.
        """


class ExportError(ValueError):
    """A selected field is not exportable."""


def dump_lists(context_code: int, entries, source: MetadataSource) -> list[MdList]:
    """Serialize the selected entries to canonical lists.

    Fields are packed greedily: a sequence never exceeds 512 fields and never
    crosses a list boundary, but one entry's fields may continue in a fresh
    sequence in the next list.  Emitted headers are canonical (reserved bits
    zero, 8-byte element size code).
    """
    lists: list[MdList] = []
    pending: list[MdSequence] = []
    room = LIST_BYTES - LIST_HEADER_BYTES

    def flush():
        nonlocal pending, room
        if pending:
            lists.append(build_list(pending))
            pending = []
            room = LIST_BYTES - LIST_HEADER_BYTES

    for entry in entries:
        if not entry.exportable:
            raise ExportError(f"field {entry.name} is not exportable")
        field_bytes = entry.num_of_elem * ELEMENT_BYTES
        index = 0
        while index < entry.num_of_fields:
            if room < SEQUENCE_HEADER_BYTES + field_bytes:
                flush()
            capacity = (room - SEQUENCE_HEADER_BYTES) // field_bytes
            count = min(entry.num_of_fields - index, MAX_FIELDS_PER_SEQUENCE, capacity)
            header = make_sequence_header(
                context_code,
                entry.class_code,
                entry.field_code + index * entry.num_of_elem,
                num_fields=count,
                num_elements=entry.num_of_elem,
            )
            seq = MdSequence(header, source.read_field(entry, index, count))
            pending.append(seq)
            room -= seq.size
            index += count
    flush()
    if not lists:
        lists.append(build_list([]))
    return lists
