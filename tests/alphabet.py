"""One alphabet of host calls: every public call, values for each of its operands, and a world to call it in.

The calls are the public methods of ``TdxModule``, found from the class and its signatures, less
``OUT_OF_WALK``'s, each named with its reason; the leaves are its ``tdh_*``/``tdg_*`` ones.
``VALUES`` is a plain table, with no hypothesis.  A callable value is built as ``value(world, leaf
name)`` only when it is used, so a second TD costs only the calls that draw it.
"""

import functools
import inspect

from tdxmodel import status as S
from tdxmodel.catalog import CPUID_CLASS_CODE, MAX_NUM_CPUID_LOOKUP, bundled_catalog
from tdxmodel.engine import Bundle, EpochToken, Servtd, TdxModule, seal_for
from tdxmodel.envelope import BundleType
from tdxmodel.md_codec import MD_CTX_TD, MD_CTX_VP, make_sequence_header
from tdxmodel.scenarios import ATTRIBUTES_ID, MIG_DEC_KEY_ID, decrypted_lists, export_blackout
from tdxmodel.scenarios import import_to_state_import, standard_setup
from tdxmodel.states import OpState
from tdxmodel.td import ATTR_DEBUG, ATTR_MIGRATABLE, ATTR_PERFMON, LVL_PML5, TDMR_ENTRY_ALIGNMENT, U64
from tdxmodel.td import EventFilter, TdParams

PUBLIC = tuple(sorted(name for name in vars(TdxModule) if not name.startswith("_")))
# The public methods the walk leaves out, each with its reason.
OUT_OF_WALK = {
    "alloc_page": "takes no operand: it hands out the next page number",
    "new_servtd": "takes no operand: it draws a service TD from the module's seed",
    "digest": "takes no operand and changes nothing: the walk reads it around every call",
    "build_td": "a composite of leaves, each of which the walk calls on its own",
}
WALKED = tuple(name for name in PUBLIC if name not in OUT_OF_WALK)
LEAVES = tuple(name for name in WALKED if name.startswith(("tdh_", "tdg_")))
_PARAMS = {n: list(inspect.signature(getattr(TdxModule, n)).parameters)[1:] for n in WALKED}
# The leaves a service TD calls as (caller, handle, ...), and the calls that take no TD.
GUEST_LEAVES = tuple(name for name in LEAVES if _PARAMS[name][0] == "caller")
BEFORE_ANY_TD = tuple(name for name in WALKED if _PARAMS[name][:1] not in (["td"], ["caller"]))
# Each call's operands: its parameters after the TD, after (caller, handle), or all of them.
OPERANDS = {n: tuple(_PARAMS[n][2 if n in GUEST_LEAVES else n not in BEFORE_ANY_TD:]) for n in WALKED}
# The leaves whose body is TdxModule._succeed: the gate and the edge are the whole call.
SUCCEED_LEAVES = tuple(n for n in LEAVES if inspect.unwrap(getattr(TdxModule, n)) is TdxModule._succeed)
STREAM_LEAVES = tuple(name for name in LEAVES if "migsc_index" in OPERANDS[name])
BUNDLE_LEAVES = tuple(name for name in LEAVES if "bundle" in OPERANDS[name])
# The word that refuses each bounded operand, and every (leaf, bounded operand).
OPERAND_WORDS = {"vp_index": S.with_operand(S.TDX_OPERAND_INVALID, S.OPERAND_ID_TDVPR),
                 "migsc_index": S.TDX_MIGRATION_STREAM_STATE_INCORRECT,
                 "hkid": S.with_operand(S.TDX_HKID_NOT_FREE, S.OPERAND_ID_RCX)}
BOUNDED_CALLS = tuple((n, p) for n in LEAVES for p in OPERANDS[n] if p in OPERAND_WORDS)
PAGE, NO_PAGE = 0x1000, 0x9000  # a page both TDs of a world hold, and a GPA neither holds


def bundle_type(name: str) -> BundleType:  # a stream leaf's, from the last word of its name
    return BundleType[name.rsplit("_", 1)[1].upper()]


class World:
    """A paused migratable source and a keyed destination at STATE_IMPORT holding one page."""

    def __init__(self, seed: int, num_vcpus: int = 1, mode=None):
        self.m = m = TdxModule(mode, seed=seed)
        self.env = env = standard_setup(m, num_vcpus, num_pages=2)
        self.src, self.dst, self.migtd, self.key = env["src"], env["dst"], env["migtd"], env["key"]
        export_blackout(m, env, pages=[PAGE])
        assert import_to_state_import(m, env, mem=env["bundle_mem"]) == S.TDX_SUCCESS
        # The source's bundle of each type, as exported: the destination opened all but the VP one.
        self.bundles = dict(zip(BundleType, (env["bundle_immutable"], env["bundle_td"],
                                             env["bundle_vps"][0], env["bundle_mem"][0])))

    def honest(self, name: str, migsc_index: int = 0) -> Bundle:  # resealed for the next counter
        lists = decrypted_lists(self.env, self.bundles[bundle_type(name)])
        return seal_for(self.dst, bundle_type(name), lists, migsc_index)

    def tampered(self, name: str) -> Bundle:  # one ciphertext bit flipped
        bundle = self.honest(name)
        data = bytearray(bundle.data)
        data[len(data) // 2] ^= 0x40
        return Bundle(bundle.mbmd, bytes(data))

    def cross_stream(self, name: str) -> Bundle:  # sealed for a stream the destination lacks
        return self.honest(name, len(self.dst.migsc))

    def wrong_type(self, name: str) -> Bundle:  # the TD bundle for a MEM leaf, else the MEM one
        return self.bundles[BundleType.TD if bundle_type(name) is BundleType.MEM else BundleType.MEM]

    @functools.cached_property
    def other_immutable(self) -> Bundle:
        """A second source's (one VP more) immutable lists, sealed for the destination."""
        other = standard_setup(self.m, len(self.src.vps) + 1)
        lists = decrypted_lists(other, other["bundle_immutable"])
        return seal_for(self.dst, BundleType.IMMUTABLE, lists)


def _cpuid_id(slot: int) -> int:
    return make_sequence_header(MD_CTX_TD, CPUID_CLASS_CODE, slot)


def _vp_id(name: str) -> int:
    return bundled_catalog().by_name(MD_CTX_VP, name).field_id_raw


XCR0_ID = _vp_id("XCR0")
RESERVED_BITS = (24, 47, 55, 62)  # the lowest bit of each reserved range of a field id


FORGED_START, NON_START = EpochToken(start=True), EpochToken(start=False)
STRANGER = Servtd(uuid=(1, 2, 3, 4))  # a service TD the module never issued

# Parameter name -> (in-range values, boundary or hostile values).  A leaf's own
# entry, "leaf.param", wins over the parameter's.  A defaulted parameter's first
# in-range value is its default.
VALUES = {
    "hkid": ([lambda w, _: w.m.kot.free_hkids()[0]],
             [-1, lambda w, _: len(w.m.kot), lambda w, _: w.src.hkid]),
    "tdmr_entries": ([[], [TDMR_ENTRY_ALIGNMENT]],  # misaligned, then outside 64 bits
                     [[1], [TDMR_ENTRY_ALIGNMENT | 1 << 64], [-TDMR_ENTRY_ALIGNMENT]]),
    "caller": ([lambda w, _: w.migtd], [STRANGER]),
    "handle": ([lambda w, _: w.env["dst_handle"], lambda w, _: w.env["src_handle"]],
               [lambda w, _: w.env["dst_handle"] + (1 << 30)]),
    "params": ([TdParams(attributes=ATTR_MIGRATABLE), TdParams(), TdParams(attributes=ATTR_DEBUG)],
               [TdParams(attributes=ATTR_DEBUG | ATTR_MIGRATABLE), TdParams(attributes=ATTR_PERFMON),
                TdParams(attributes=ATTR_DEBUG, xfam=0), TdParams(ept_pwl=0),
                # Past a field's width: ATTRIBUTES outside 64 bits, GPAW not one bit.
                TdParams(attributes=(1 << 64) | ATTR_MIGRATABLE),
                TdParams(attributes=ATTR_MIGRATABLE - (1 << 64)), TdParams(gpaw=5, ept_pwl=LVL_PML5),
                # A walk level outside its 3 bits.
                *(TdParams(attributes=ATTR_MIGRATABLE, ept_pwl=p) for p in (12, -4, 11))]),
    "event_filtering": ([False, True], []),
    "event_filters_num": ([0, 1], [-1, 2]),
    "event_filters": ([None, [EventFilter(event_select=1, umask=1).raw]],
                      [[0], [(1 << 64) | EventFilter(event_select=1, umask=1).raw]]),
    "vp_index": ([0], [-1, lambda w, _: len(w.dst.vps)]),
    "gpa": ([PAGE], [PAGE + 1, 1 << 47, NO_PAGE]),  # unaligned, shared, no page
    "token": ([1], [-1, U64 + 1]),
    "tdh_import_track.token": ([lambda w, _: w.env["start_token"]], [FORGED_START, NON_START]),
    "slot": ([1], [-1, 1 << 12]),
    "servtd": ([lambda w, _: w.migtd], [STRANGER]),
    # The TD leaves': a TD and a key field; then ids no catalog entry covers, ids outside 64
    # bits, a covered id with a bit set in each reserved range, and a VP id.
    "field_id_raw": ([ATTRIBUTES_ID, MIG_DEC_KEY_ID],
                     [0, ATTRIBUTES_ID + 1, ATTRIBUTES_ID | 1 << 64, ATTRIBUTES_ID - (1 << 64),
                      MIG_DEC_KEY_ID | 1 << 64, *(ATTRIBUTES_ID | 1 << b for b in RESERVED_BITS),
                      MIG_DEC_KEY_ID | 1 << 24, XCR0_ID]),
    # tdh_vp_rd's: two VP fields; then the same hostile kinds, and a TD id.
    "tdh_vp_rd.field_id_raw": ([XCR0_ID, _vp_id("CR2")],
                               [0, XCR0_ID + 1, XCR0_ID | 1 << 64, XCR0_ID - (1 << 64),
                                *(XCR0_ID | 1 << b for b in RESERVED_BITS), ATTRIBUTES_ID]),
    # The CPUID table's first and last slots; then the slot past it, an id of another class,
    # slot 0's id outside 64 bits, and slot 0's id with a reserved bit set.
    "md_next_cpuid_field.field_id_raw": ([_cpuid_id(0), _cpuid_id(MAX_NUM_CPUID_LOOKUP - 1)],
                                         [_cpuid_id(MAX_NUM_CPUID_LOOKUP), ATTRIBUTES_ID,
                                          _cpuid_id(0) | 1 << 64, _cpuid_id(0) - (1 << 64),
                                          _cpuid_id(0) | 1 << 24]),
    "value": ([1], [0, U64, 1 << 64, -1]),
    "mask": ([U64], [0, 1, -1]),
    "count": ([1, 4], [0, -1]),
    "migsc_index": ([0], [-1, lambda w, _: len(w.dst.migsc)]),
    "abort": ([False], [True]),
    "start": ([False, True], []),
    "bundle": ([World.honest], [World.tampered, World.cross_stream, World.wrong_type,
                                lambda w, _: w.other_immutable]),
    "interrupt_after": ([None, 0, 1], [-1, 2, 3]),
    "resume": ([False], [True]),
}


def values(name: str, param: str) -> tuple[list, list]:
    """(in-range, boundary or hostile) values of one parameter of leaf ``name``."""
    return VALUES.get(f"{name}.{param}") or VALUES[param]


def build(world: World, name: str, value):
    return value(world, name) if callable(value) else value


def args(world: World, name: str, **override) -> list:
    """Leaf ``name``'s operands, each its first in-range value or its override (built alike).

    An override the leaf does not take is left out, so one serves a family of leaves.
    """
    return [build(world, name, override[p] if p in override else values(name, p)[0][0])
            for p in OPERANDS[name]]


def admitting(matrix, leaf) -> OpState:
    """The first op_state whose matrix row admits ``leaf``, for direct placement."""
    return next(state for state in OpState if matrix.is_allowed(state, leaf))
