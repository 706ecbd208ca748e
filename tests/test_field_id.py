"""Field id packing: bit positions pinned against published raw values."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from tdxmodel.md_codec import (
    MD_CTX_TD,
    MD_CTX_VP,
    EncodingError,
    MdFieldId,
    decode_field_id,
    encode_field_id,
    make_sequence_header,
)

ATTRIBUTES_ID = 0x1110000300000000
XBUFF_ID = 0x1220000300000000
X2APIC_IDS_ID = 0x9C10000200000000


def test_attributes_id_encodes():
    parts = MdFieldId(field_code=0, element_size_code=3, context_code=MD_CTX_TD, class_code=0x11)
    assert encode_field_id(parts) == ATTRIBUTES_ID


def test_all_zero_parts_encode_to_zero():
    assert encode_field_id(MdFieldId(element_size_code=0, context_code=0)) == 0


def test_xbuff_id_encodes():
    parts = MdFieldId(field_code=0, element_size_code=3, context_code=MD_CTX_VP, class_code=0x12)
    assert encode_field_id(parts) == XBUFF_ID


def test_x2apic_decode():
    fid = decode_field_id(X2APIC_IDS_ID)
    assert fid.class_code == 0x1C
    assert fid.context_code == MD_CTX_TD
    assert fid.field_code == 0
    assert fid.element_size_code == 2
    assert fid.ignored == 1


def test_write_mask_bit_51():
    assert decode_field_id(1 << 51).write_mask_valid == 1
    assert decode_field_id(~(1 << 51) & (2**64 - 1)).write_mask_valid == 0


def test_decode_reports_reserved_bits():
    assert not decode_field_id(ATTRIBUTES_ID).has_reserved_bits
    assert decode_field_id(1 << 24).has_reserved_bits
    assert decode_field_id(1 << 47).has_reserved_bits
    assert decode_field_id(1 << 55).has_reserved_bits
    assert decode_field_id(1 << 62).has_reserved_bits


def test_encode_rejects_overflow_naming_the_field():
    with pytest.raises(EncodingError, match="field_code"):
        encode_field_id(MdFieldId(field_code=1 << 24))
    with pytest.raises(EncodingError, match="last_field_in_sequence"):
        encode_field_id(MdFieldId(last_field_in_sequence=512))
    with pytest.raises(EncodingError, match="reserved_1"):
        encode_field_id(MdFieldId(reserved_1=1))


def test_num_fields_range():
    assert MdFieldId(last_field_in_sequence=0).num_fields == 1
    assert MdFieldId(last_field_in_sequence=511).num_fields == 512


RESERVED_MASK = (0xFF << 24) | (0x7 << 47) | (1 << 55) | (1 << 62)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_roundtrip_with_reserved_cleared(raw):
    raw &= ~RESERVED_MASK
    assert encode_field_id(decode_field_id(raw)) == raw


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_decode_is_lossless(raw):
    assert decode_field_id(raw).to_raw() == raw


def test_thousand_random_roundtrips():
    import random

    rng = random.Random(0x1D)
    for _ in range(1000):
        raw = rng.getrandbits(64) & ~RESERVED_MASK
        assert encode_field_id(decode_field_id(raw)) == raw


# --- the layout table against the hand-unrolled codec it replaced -------------
#
# These references keep the bit positions written out field by field, as the
# codec had them before FIELD_ID_LAYOUT.  A table that swapped two subfields'
# names consistently would still round-trip; it would not match these.

REFERENCE_RESERVED = ("reserved_0", "reserved_1", "reserved_2", "reserved_3")
# The range-checked subfields, in the order encode checks them, with their masks.
REFERENCE_WIDTHS = (
    ("field_code", 0xFFFFFF),
    ("element_size_code", 0x3),
    ("last_element_in_field", 0xF),
    ("last_field_in_sequence", 0x1FF),
    ("inc_size", 1),
    ("write_mask_valid", 1),
    ("context_code", 0x7),
    ("class_code", 0x3F),
    ("ignored", 1),
)


def _reference_decode(raw: int) -> dict:
    return dict(
        field_code=(raw >> 0) & 0xFFFFFF,
        reserved_0=(raw >> 24) & 0xFF,
        element_size_code=(raw >> 32) & 0x3,
        last_element_in_field=(raw >> 34) & 0xF,
        last_field_in_sequence=(raw >> 38) & 0x1FF,
        reserved_1=(raw >> 47) & 0x7,
        inc_size=(raw >> 50) & 1,
        write_mask_valid=(raw >> 51) & 1,
        context_code=(raw >> 52) & 0x7,
        reserved_2=(raw >> 55) & 1,
        class_code=(raw >> 56) & 0x3F,
        reserved_3=(raw >> 62) & 1,
        ignored=(raw >> 63) & 1,
    )


def _reference_to_raw(p: dict) -> int:
    return (
        p["field_code"]
        | (p["reserved_0"] << 24)
        | (p["element_size_code"] << 32)
        | (p["last_element_in_field"] << 34)
        | (p["last_field_in_sequence"] << 38)
        | (p["reserved_1"] << 47)
        | (p["inc_size"] << 50)
        | (p["write_mask_valid"] << 51)
        | (p["context_code"] << 52)
        | (p["reserved_2"] << 55)
        | (p["class_code"] << 56)
        | (p["reserved_3"] << 62)
        | (p["ignored"] << 63)
    )


def _reference_encode(p: dict) -> int:
    for name, mask in REFERENCE_WIDTHS:
        value = p[name]
        if value < 0 or value > mask:
            raise EncodingError(f"{name} out of range: {value:#x}")
    for name in REFERENCE_RESERVED:
        if p[name]:
            raise EncodingError(f"{name} must be zero in emitted field ids")
    return _reference_to_raw(p)


def _outcome(encode, arg):
    """("ok", raw) or ("error", message): what one encode call did."""
    try:
        return "ok", encode(arg)
    except EncodingError as exc:
        return "error", str(exc)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_layout_table_decodes_as_the_unrolled_reference(raw):
    fid = decode_field_id(raw)
    expected = _reference_decode(raw)
    assert dataclasses.asdict(fid) == expected
    assert fid.has_reserved_bits == any(expected[name] for name in REFERENCE_RESERVED)
    assert fid.to_raw() == _reference_to_raw(expected) == raw
    assert _outcome(encode_field_id, fid) == _outcome(_reference_encode, expected)
    # Decodes share one instance per raw, so no caller may change it.
    assert decode_field_id(raw) == fid
    with pytest.raises(dataclasses.FrozenInstanceError):
        fid.write_mask_valid = 1


# Each subfield drawn in range and a little outside it, both sides.
_SUBFIELD_WIDTHS = dict(REFERENCE_WIDTHS, reserved_0=0xFF, reserved_1=0x7, reserved_2=1,
                        reserved_3=1)
subfields = st.fixed_dictionaries({
    name: st.one_of(st.integers(0, mask), st.integers(-2, 2 * mask + 2))
    for name, mask in _SUBFIELD_WIDTHS.items()
})


@given(subfields)
def test_layout_table_encodes_as_the_unrolled_reference(parts):
    fid = MdFieldId(**parts)
    assert _outcome(encode_field_id, fid) == _outcome(_reference_encode, parts)
    if min(parts.values()) >= 0:
        assert fid.to_raw() == _reference_to_raw(parts)


# --- the cached canonical sequence header -------------------------------------

@given(
    context_code=st.integers(0, 7),
    class_code=st.integers(0, 0x3F),
    field_code=st.integers(0, (1 << 24) - 1),
    num_fields=st.integers(1, 512),
    num_elements=st.integers(1, 16),
    write_mask_valid=st.booleans(),
)
def test_sequence_header_equals_the_encoded_field_id(context_code, class_code, field_code,
                                                     num_fields, num_elements, write_mask_valid):
    expected = encode_field_id(MdFieldId(
        field_code=field_code,
        last_element_in_field=num_elements - 1,
        last_field_in_sequence=num_fields - 1,
        write_mask_valid=int(write_mask_valid),
        context_code=context_code,
        class_code=class_code,
    ))
    args = (context_code, class_code, field_code, num_fields, num_elements, write_mask_valid)
    assert make_sequence_header(*args) == expected
    assert make_sequence_header(*args) == expected  # answered from the cache


@pytest.mark.parametrize("args,subfield", [
    ((8, 0x11, 0), "context_code"),
    ((MD_CTX_TD, 0x40, 0), "class_code"),
    ((MD_CTX_TD, 0x11, 1 << 24), "field_code"),
    ((MD_CTX_TD, 0x11, 0, 513), "last_field_in_sequence"),
    ((MD_CTX_TD, 0x11, 0, 0), "last_field_in_sequence"),
    ((MD_CTX_VP, 0x12, 0, 1, 17), "last_element_in_field"),
])
def test_out_of_range_sequence_header_raises_on_every_call(args, subfield):
    for _ in range(3):
        with pytest.raises(EncodingError, match=subfield):
            make_sequence_header(*args)
