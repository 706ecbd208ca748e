"""The input checks of the codec, the fixtures and the envelope: each refuses its bad input."""

import dataclasses
import io
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from tdxmodel import md_codec as md
from tdxmodel.catalog import CpuidLookup, FieldCatalog, bundled_catalog
from tdxmodel.cli import main
from tdxmodel.engine import TdxModule
from tdxmodel.envelope import MigrationSessionKey
from tdxmodel.md_codec import MD_CTX_TD, MdListHeader, MdSequence
from tdxmodel.scenarios import decrypted_lists, standard_setup
from tdxmodel.states import Leaf, OpState, PermissionMatrix, bundled_matrix, transition

_TD_UUID = bundled_catalog().by_name(MD_CTX_TD, "TD_UUID")  # four quadwords: a range to overlap
_ROW = "host LIVE_EXPORT TDH_EXPORT_PAUSE PAUSED_EXPORT - prose"


def _header_only(size: int, sequences: int) -> bytes:
    return MdListHeader(size, sequences).to_bytes().ljust(md.LIST_BYTES, b"\0")


# What is refused, the call that refuses it, and the error it raises.
REFUSALS = {
    "list-over-4kb": (lambda: md.MdList(MdListHeader(8, 1), [MdSequence(0, [0] * 512)]).to_bytes(),
                      md.EncodingError, "list content 4112 exceeds 4096 bytes"),
    "list-shorter-than-header": (lambda: md.parse_list(bytes(4)), ValueError,
                                 "list shorter than its header"),
    "list-size-below-header": (lambda: md.parse_list(_header_only(4, 0)), ValueError,
                               "bad list_buff_size 4"),
    "list-size-past-list": (lambda: md.parse_list(_header_only(md.LIST_BYTES + 8, 0)), ValueError,
                            "bad list_buff_size 4104"),
    "sequence-header-past-size": (lambda: md.parse_list(_header_only(8, 1)), ValueError,
                                  "sequence header outside list_buff_size"),
    "arena-over-4kb": (lambda: md.ParseArena(bytes(md.LIST_BYTES + 1)), ValueError,
                       "list larger than 4KB"),
    "plant-past-arena": (lambda: md.ParseArena(b"", plants={1 << 20: 1}), ValueError,
                         "plant outside arena"),
    "plant-before-arena": (lambda: md.ParseArena(b"", plants={-8: 1}), ValueError,
                           "plant outside arena"),
    "catalog-ranges-overlap": (
        lambda: FieldCatalog([_TD_UUID, dataclasses.replace(
            _TD_UUID, name="OVERLAP", field_id_raw=_TD_UUID.field_id_raw + 1)]),
        ValueError, "catalog ranges overlap at OVERLAP"),
    "cpuid-leaf-unknown": (lambda: CpuidLookup().lookup_index(0x12345, 0), KeyError,
                           "cpuid (0x12345, 0x0) not in table"),
    "matrix-row-twice": (lambda: PermissionMatrix.load(f"{_ROW}\n{_ROW}\n"), ValueError,
                         "duplicate matrix row"),
    "outcome-unknown": (lambda: transition(bundled_matrix(), OpState.LIVE_EXPORT,
                                           Leaf.TDH_EXPORT_PAUSE, "sideways", True),
                        ValueError, "unknown outcome: 'sideways'"),
    "session-key-short": (lambda: MigrationSessionKey(bytes(16)), ValueError,
                          "session key must be 32 bytes"),
    "session-key-three-quadwords": (lambda: MigrationSessionKey.from_quadwords([1, 2, 3]),
                                    ValueError, "session key is four quadwords"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_each_bad_input_is_refused_with_its_error(name):
    call, error, message = REFUSALS[name]
    with pytest.raises(error, match=message.replace("(", r"\(").replace(")", r"\)")):
        call()


# Honest lists to edit: a 1-vCPU source's immutable bundle, opened.
_ENV = standard_setup(TdxModule(seed=59), num_vcpus=1)
_HONEST = decrypted_lists(_ENV, _ENV["bundle_immutable"])
_HOSTILE_LISTS = st.one_of(
    st.builds(lambda seed: random.Random(seed).randbytes(md.LIST_BYTES), st.integers(0, 2**32)),
    st.builds(lambda data, edits: bytes(_edit(bytearray(data), edits)), st.sampled_from(_HONEST),
              st.lists(st.tuples(st.integers(0, md.LIST_BYTES - 1), st.integers(0, 255)),
                       min_size=1, max_size=8)),
)


def _edit(data: bytearray, edits) -> bytearray:
    for offset, value in edits:
        data[offset] = value
    return data


@settings(max_examples=150, deadline=None)
@given(data=_HOSTILE_LISTS, cut=st.integers(0, md.LIST_BYTES + 8))
@example(data=_HONEST[0], cut=md.LIST_BYTES)
@example(data=_HONEST[1], cut=7)
def test_parse_list_returns_or_raises_value_error(data, cut):
    """Random, byte-edited or truncated bytes: a parsed list or a ValueError, no other error."""
    try:
        md.parse_list(data[:cut])
    except ValueError:
        pass


@settings(max_examples=60, deadline=None)
@given(lists=st.lists(_HOSTILE_LISTS, min_size=1, max_size=3))
@example(lists=_HONEST)
def test_bundle_parse_of_hostile_lists_exits_0_or_2(tmp_path_factory, lists):
    path = tmp_path_factory.getbasetemp() / "hostile.data"
    path.write_bytes(b"".join(lists))
    out = io.StringIO()
    assert main(["bundle", "parse", str(path)], out) in (0, 2), out.getvalue()
