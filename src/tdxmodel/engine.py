"""Host-API surface: build, export, and interruptible import flows.

A TdxModule instance plays the role of one platform's module: it owns the key
ownership table, the TD registry, and the permission matrix, and dispatches
API calls one at a time.  Per-finding behavior toggles select vulnerable or
fixed variants independently, defaulting to all fixed.  A leaf body that
returns has succeeded, and what it returns is the leaf's value; every other
answer is a raised ``StatusError``, which only the dispatcher turns into a
status word, an op_state edge and a trace step.

Interrupt storms are replaced by one list index on the immutable import
(``interrupt_after``), so an exploit's "interrupt the import after the second
list" step is an exact, replayable event; ``resume=True`` continues it from the
next list, and only with the bundle it interrupted.  The TD and VP state
imports run whole.  Every call appends to the owning TD's op-state trace, which
scenario runs validate against the permission-matrix fixture.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import random
import struct
from dataclasses import dataclass, fields as dc_fields, replace
from typing import Optional

from . import md_codec as md
from .catalog import CpuidLookup, MigClass, bundled_catalog, next_cpuid_entry
from .envelope import (
    STREAM_BUSY,
    BundleType,
    InterruptedState,
    Mbmd,
    MigStreamContext,
    decrypt_bundle,
    encrypt_bundle,
)
from .md_codec import MD_CTX_SYS, MD_CTX_TD, MD_CTX_VP, MD_FIELD_ID_NA, ParseArena, WriteMode
from .states import (
    OUTCOMES,
    Leaf,
    LifecycleState,
    OpState,
    PermissionMatrix,
    TraceStep,
    bundled_matrix,
    transition,
)
from .status import (
    OPERAND_ID_R8,
    OPERAND_ID_R9,
    OPERAND_ID_RCX,
    OPERAND_ID_RDX,
    OPERAND_ID_TDR,
    OPERAND_ID_TDVPR,
    TDR_BUSY,
    TDX_HKID_NOT_FREE,
    TDX_INTERRUPTED_RESUMABLE,
    TDX_INVALID_MBMD,
    TDX_LIFECYCLE_STATE_INCORRECT,
    TDX_MAX_EXPORTS_EXCEEDED,
    TDX_METADATA_FIELD_NOT_READABLE,
    TDX_METADATA_FIELD_NOT_WRITABLE,
    TDX_METADATA_FIELD_VALUE_NOT_VALID,
    TDX_MIGRATION_DECRYPTION_KEY_NOT_SET,
    TDX_MIGRATION_STREAM_STATE_INCORRECT,
    TDX_OPERAND_INVALID,
    TDX_OP_STATE_INCORRECT,
    TDX_REQUIRED_METADATA_FIELD_MISSING,
    TDX_SERVTD_UUID_MISMATCH,
    TDX_SOME_VCPUS_NOT_MIGRATED,
    TDX_SUCCESS,
    TDX_TDCX_NUM_INCORRECT,
    TDX_TD_FATAL,
    TDX_TD_NOT_MIGRATABLE,
    StatusError,
    as_fatal,
    with_operand,
)
from .td import (
    ATTR_DEBUG,
    ATTR_MIGRATABLE,
    BINDING_SLOT_BITS,
    MAX_EXPORT_COUNT,
    MAX_VCPUS_PER_TD,
    PAGE_GPA_BITS,
    U64,
    Kot,
    KotState,
    TdComplex,
    TdExportSource,
    TdImportSink,
    TdParams,
    VcpuState,
    XCR0_X87,
    admit_td_config,
    init_event_filters,
    make_binding_handle,
    break_binding_handle,
    read_and_set_td_configurations,
    sept_walk_ok,
    sys_config_reserve_hkid,
)


@dataclass(frozen=True)
class EngineMode:
    """Per-finding switches, all fixed by default; True runs the pre-fix code."""

    v1: bool = False
    v2: bool = False
    bug1: bool = False
    bug2: bool = False
    bug3: bool = False
    bug4: bool = False
    bug6: bool = False
    bug8: bool = False
    bug9: bool = False

    def __post_init__(self):
        for name in FINDING_TOGGLES:
            value = getattr(self, name)
            if not isinstance(value, bool):
                raise TypeError(f"{name} must be a bool, not {value!r}")


FINDING_TOGGLES = tuple(f.name for f in dc_fields(EngineMode))


@dataclass
class Bundle:
    mbmd: Mbmd
    data: bytes


@dataclass
class EpochToken:
    start: bool


@dataclass
class Servtd:
    uuid: tuple[int, int, int, int]


# The word for a VP index the TD has no VP at, and for a VP past MAX_VCPUS_PER_TD.
TDVPR_INVALID = with_operand(TDX_OPERAND_INVALID, OPERAND_ID_TDVPR)
# The word for a metadata field id not admitted or not covered by a catalog entry, or a
# read count below 1: the metadata leaves take the field id, and with it the count, in RDX.
FIELD_ID_INVALID = with_operand(TDX_OPERAND_INVALID, OPERAND_ID_RDX)
# The words for a metadata write's field id (RDX), value (R8) and mask (R9) outside 64 bits.
_WIDE_WRITE_WORDS = (FIELD_ID_INVALID, with_operand(TDX_OPERAND_INVALID, OPERAND_ID_R8),
                     with_operand(TDX_OPERAND_INVALID, OPERAND_ID_R9))
# The word for a page GPA (RCX) no rule admits, and for a GPA the TD has no page at.
GPA_INVALID = with_operand(TDX_OPERAND_INVALID, OPERAND_ID_RCX)
# A page's (gpa, token) as measured and as a MEM bundle carries it, zero-padded
# to one list.
_GPA_TOKEN = struct.Struct("<QQ")
_MEM_PAD = bytes(md.LIST_BYTES - _GPA_TOKEN.size)


@functools.cache
def _edge_table(matrix: PermissionMatrix, start_import: bool) -> dict:
    """The matrix compiled for the gate, once per (matrix, START_IMPORT rule).

    Each allowed (op_state, leaf) maps every outcome to the next op_state that
    transition() gives for it, so one dict lookup both admits a call and fixes
    where each of its outcomes lands.
    """
    return {
        key: {outcome: transition(matrix, *key, outcome, start_import) for outcome in OUTCOMES}
        for key, _ in matrix.items()
    }


def _stream(td: TdComplex, index: int) -> MigStreamContext:
    """The stream ``index`` names; a refusal raises its word and changes nothing.

    The refusals: no such stream, then no full key, then a stream another owner
    holds (``locked``, which only that owner sets).
    """
    if not 0 <= index < len(td.migsc):
        raise StatusError(TDX_MIGRATION_STREAM_STATE_INCORRECT)
    if not td.mig_dec_key_set:
        raise StatusError(TDX_MIGRATION_DECRYPTION_KEY_NOT_SET)
    migsc = td.migsc[index]
    if migsc.locked:
        raise StatusError(STREAM_BUSY)
    return migsc


def _open(td: TdComplex, migsc: MigStreamContext, bundle: Bundle,
          bundle_type: BundleType) -> list:
    """The lists a bundle opens to on the TD's stream, under its session key.

    A bundle of another type or stream, or a MEM bundle not of one list, raises INVALID_MBMD
    with no edge, before it is decrypted; one that does not open takes the failure edge.
    """
    mbmd = bundle.mbmd
    if (mbmd.bundle_type is not bundle_type or mbmd.stream_index != migsc.stream_index
            or bundle_type is BundleType.MEM and mbmd.payload_size != md.LIST_BYTES):
        raise StatusError(TDX_INVALID_MBMD)
    status, lists = decrypt_bundle(td.session_key, mbmd, bundle.data)
    if status != TDX_SUCCESS:
        raise StatusError(status, "failure")
    return lists


def _seal(td: TdComplex, migsc: MigStreamContext, bundle_type: BundleType, lists: list[bytes]) -> Bundle:
    """Seal whole lists on the stream, under the TD's session key."""
    return Bundle(*encrypt_bundle(migsc, bundle_type, lists, td.session_key))


def seal_for(td: TdComplex, bundle_type: BundleType, lists: list[bytes], migsc_index: int = 0) -> Bundle:
    """Seal lists as the sending end of the TD's stream ``migsc_index`` would: under the TD's
    session key, at the counter that stream opens next (its first, on a stream the TD lacks)."""
    start = td.migsc[migsc_index].last_opened if migsc_index < len(td.migsc) else 0
    return _seal(td, MigStreamContext(migsc_index, start), bundle_type, lists)


def _nothing() -> None:
    """The value a (status, value) leaf answers with a raised word that carries none."""


def _leaf(leaf: Leaf, returns=None):
    """Dispatch one leaf, host or guest: the gate, the body, and one trace step.

    A guest (service-TD) leaf is called as ``(caller, handle, ...)``; it first
    resolves the binding handle, and a handle that names no bound TD answers
    (status, returns()) with no step and ``module.last`` None; then both run alike.
    The step is built first, as ``module.last``, for the body to record on.
    The gate refuses a fatal or locked TD, a call with no matrix row and,
    where the body's first operand after the TD is ``vp_index``, a VP the TD
    does not have; otherwise the body runs.  A body that returns has succeeded:
    it takes the success edge, and what it returns is the leaf's value.  Every
    other answer, the gate's included, is a raised StatusError: its status, its
    edge (none leaves the op_state in place) and its value.  A TD_FATAL answer
    freezes the TD: the gate refuses every later call with TD_FATAL.  A leaf
    given ``returns`` answers (status, value), where ``returns()`` is the value
    of an answer that carries none; any other leaf answers its status.
    """
    def wrap(body):
        takes_vp = list(inspect.signature(body).parameters)[2:3] == ["vp_index"]
        def dispatch(self, td, *args, **kwargs):
            before = td.op_state
            self.last = step = TraceStep(leaf, before, before, TDX_SUCCESS)
            # One lookup both admits the call and fixes where each outcome lands.
            edges = self._edges.get((before, leaf))
            try:
                if td.fatal:
                    raise StatusError(TDX_TD_FATAL)
                if td.locked:
                    raise StatusError(TDR_BUSY)
                if edges is None:
                    raise StatusError(TDX_OP_STATE_INCORRECT)
                if takes_vp and not 0 <= (args[0] if args else kwargs["vp_index"]) < len(td.vps):
                    raise StatusError(TDVPR_INVALID)
                value = body(self, td, *args, **kwargs)
                status, outcome = TDX_SUCCESS, "success"
            except StatusError as answer:
                status, outcome, value = answer.status, answer.outcome, answer.value
                if status == TDX_TD_FATAL:
                    td.fatal = True
            if outcome is not None:
                td.op_state = step.after = edges[outcome]
            step.status = status
            td.trace.append(step)
            return status if returns is None else (status, returns() if value is None else value)
        if not leaf.guest:
            return functools.wraps(body)(dispatch)
        def guest(self, caller: Servtd, handle: int, *args, **kwargs):
            self.last = None  # until the handle names a bound TD and dispatch records a step
            td = self._servtd_locate(handle, caller.uuid)
            return (td, returns()) if type(td) is int else dispatch(self, td, *args, **kwargs)
        # Its signature reads (self, caller, handle) and then the body's operands.
        sig = inspect.signature(body)
        head = list(inspect.signature(guest).parameters.values())[:3]
        guest.__signature__ = sig.replace(parameters=head + list(sig.parameters.values())[2:])
        return functools.wraps(body)(guest)
    return wrap


SYS_DEFAULTS = {
    "BUILD_DATE": 20260210,
    "BUILD_NUM": 0x32C,
    "VENDOR_ID": 0x8086,
    "MODULE_VERSION": 0x0105,
    "TDX_FEATURES0": 0x1,
}


class TdxModule:
    """One platform's module instance: registry, KOT, and API dispatch."""

    def __init__(self, mode: Optional[EngineMode] = None, seed: int = 0):
        self.mode = mode or EngineMode()
        self.catalog = bundled_catalog()
        self.matrix = bundled_matrix()
        # The START_IMPORT rule v1 picks: the gate runs on it, and traces are validated with it.
        self.start_import = not self.mode.v1
        self._edges = _edge_table(self.matrix, self.start_import)
        self._codec_mode = WriteMode(header_underflow=self.mode.bug1, loop_underflow=self.mode.v2)
        self.kot = Kot()
        self.cpuid = CpuidLookup()
        self.rng = random.Random(seed)
        self.tds: dict[int, TdComplex] = {}
        self.sys_store: dict = {name: [value] for name, value in SYS_DEFAULTS.items()}
        self._next_page = 0x100
        self.arena_plants: dict[int, int] = {}
        # The trace step of the most recent call, or None when it recorded none.
        self.last: Optional[TraceStep] = None

    digest = TdComplex.digest  # one digest of state, for a module or a bare TD

    # -- plumbing ----------------------------------------------------------

    def alloc_page(self) -> int:
        page = self._next_page
        self._next_page += 1
        return page

    def new_servtd(self) -> Servtd:
        uuid = tuple(self.rng.getrandbits(64) for _ in range(4))
        self.rng.getrandbits(64)  # the service TD's info hash: drawn for every later td_uuid
        return Servtd(uuid=uuid)

    def _succeed(self, td: TdComplex) -> int:
        """A leaf with no desk-scale state of its own: the gate and the edge are the call."""

    # -- lifecycle and build -------------------------------------------------

    def tdh_mng_create(self, hkid: int) -> tuple[int, Optional[TdComplex]]:
        self.last = None  # no TD before the call, so it records no step
        if not self.kot.claim(hkid, KotState.HKID_ASSIGNED):
            return with_operand(TDX_HKID_NOT_FREE, OPERAND_ID_RCX), None
        td = TdComplex(tdr_page=self.alloc_page(), hkid=hkid)
        td.sept_root_pa = self.alloc_page()
        td.td_uuid[:] = [self.rng.getrandbits(64) for _ in range(4)]
        self.tds[td.tdr_page] = td
        return TDX_SUCCESS, td

    @_leaf(Leaf.TDH_MNG_KEY_CONFIG)
    def tdh_mng_key_config(self, td: TdComplex) -> int:
        if td.lifecycle is not LifecycleState.TD_HKID_ASSIGNED:
            raise StatusError(TDX_LIFECYCLE_STATE_INCORRECT)
        td.lifecycle = LifecycleState.TD_KEYS_CONFIGURED

    @_leaf(Leaf.TDH_MNG_ADDCX)
    def tdh_mng_addcx(self, td: TdComplex) -> int:
        td.tdcx_count += 1

    @_leaf(Leaf.TDH_MNG_INIT)
    def tdh_mng_init(
        self,
        td: TdComplex,
        params: TdParams,
        event_filtering: bool = False,
        event_filters_num: int = 0,
        event_filters: Optional[list[int]] = None,
    ) -> int:
        if td.tdcx_count < TdComplex.MIN_TDCX_PAGES:
            raise StatusError(TDX_TDCX_NUM_INCORRECT)
        # v1's fixed variant is one transaction: a refused init restores td_store.
        kept = {} if self.mode.v1 else {name: list(v) for name, v in td.td_store.items()}
        status = read_and_set_td_configurations(td, params)
        if status == TDX_SUCCESS:
            status = init_event_filters(td, event_filtering, event_filters_num,
                                        event_filters or [], self.mode.bug3)
        if status != TDX_SUCCESS:
            td.td_store.update(kept)
            raise StatusError(status, "failure")
        virtual_tsc = self.catalog.by_name(MD_CTX_TD, "VIRTUAL_TSC")
        td.write_element_raw(virtual_tsc, 0, td.tsc_frequency * 0x40)
        td.write_element_raw(virtual_tsc, 1, 0)

    @_leaf(Leaf.TDH_VP_CREATE, _nothing)
    def tdh_vp_create(self, td: TdComplex) -> tuple[int, Optional[int]]:
        index = len(td.vps)
        if index >= MAX_VCPUS_PER_TD:
            raise StatusError(TDVPR_INVALID)
        if td.op_state is OpState.INITIALIZED:
            # Build path: the vcpu counter tracks created VPs.
            td.num_vcpus += 1
            x2apic = self.catalog.by_name(MD_CTX_TD, "X2APIC_IDS")
            td.write_element_raw(x2apic, index, index)
        td.vps.append(VcpuState())
        return index

    @_leaf(Leaf.TDH_VP_ADDCX)
    def tdh_vp_addcx(self, td: TdComplex, vp_index: int) -> int:
        """Adding a VP's TDCX page changes no desk-scale state: the gate is the call."""

    @_leaf(Leaf.TDH_VP_INIT)
    def tdh_vp_init(self, td: TdComplex, vp_index: int) -> int:
        xcr0 = self.catalog.by_name(MD_CTX_VP, "XCR0")
        td.write_element_raw(xcr0, 0, td.xfam | XCR0_X87, vp_index)
        deadline = self.catalog.by_name(MD_CTX_VP, "TSC_DEADLINE")
        td.write_element_raw(deadline, 0, 0, vp_index)

    @_leaf(Leaf.TDH_MEM_SEPT_ADD)
    def tdh_mem_sept_add(self, td: TdComplex, gpa: int) -> int:
        if gpa & PAGE_GPA_BITS[not td.gpaw]:
            raise StatusError(GPA_INVALID)
        if not sept_walk_ok(td):
            raise StatusError(TDX_TD_FATAL)

    @_leaf(Leaf.TDH_MEM_PAGE_ADD)
    def tdh_mem_page_add(self, td: TdComplex, gpa: int, token: int) -> int:
        # A private GPA on a 4 KB boundary, and a source page (R9) of 64 bits.
        if gpa & PAGE_GPA_BITS[not td.gpaw]:
            raise StatusError(GPA_INVALID)
        if not 0 <= token <= U64:
            raise StatusError(with_operand(TDX_OPERAND_INVALID, OPERAND_ID_R9))
        if not sept_walk_ok(td):
            raise StatusError(TDX_TD_FATAL)
        td.pages[gpa] = token

    @_leaf(Leaf.TDH_MR_EXTEND)
    def tdh_mr_extend(self, td: TdComplex, gpa: int) -> int:
        if gpa not in td.pages:
            raise StatusError(GPA_INVALID)
        td.measurement = hashlib.sha384(
            td.measurement + _GPA_TOKEN.pack(gpa, td.pages[gpa])
        ).digest()

    tdh_mr_finalize = _leaf(Leaf.TDH_MR_FINALIZE)(_succeed)

    @_leaf(Leaf.TDH_VP_ENTER)
    def tdh_vp_enter(self, td: TdComplex, vp_index: int) -> int:
        xcr0 = self.catalog.by_name(MD_CTX_VP, "XCR0")
        # Loading a guest xcr0 without x87 raises #GP(0) inside the module.
        if not sept_walk_ok(td) or not td.read_element(xcr0, 0, vp_index) & XCR0_X87:
            raise StatusError(TDX_TD_FATAL)

    def build_td(
        self,
        params: TdParams,
        num_vcpus: int = 2,
        num_pages: int = 4,
        hkid: Optional[int] = None,
    ) -> tuple[int, Optional[TdComplex]]:
        """Composite build sequence, stopping at the first failing call."""
        if hkid is None:  # the first free HKID; with none free, one past the table, refused
            hkid = (self.kot.free_hkids() or [len(self.kot)])[0]
        status, td = self.tdh_mng_create(hkid)
        if status != TDX_SUCCESS:
            return status, None

        def calls():
            yield self.tdh_mng_key_config(td)
            for _ in range(TdComplex.MIN_TDCX_PAGES):
                yield self.tdh_mng_addcx(td)
            yield self.tdh_mng_init(td, params)
            for i in range(num_vcpus):
                yield self.tdh_vp_create(td)[0]
                yield self.tdh_vp_addcx(td, i)
                yield self.tdh_vp_init(td, i)
            for i in range(num_pages):
                gpa = 0x1000 * (i + 1)
                yield self.tdh_mem_sept_add(td, gpa)
                yield self.tdh_mem_page_add(td, gpa, self.rng.getrandbits(64))
                yield self.tdh_mr_extend(td, gpa)
            yield self.tdh_mr_finalize(td)

        for status in calls():
            if status != TDX_SUCCESS:
                break
        return status, td

    # -- streams and service TDs --------------------------------------------

    @_leaf(Leaf.TDH_MIG_STREAM_CREATE)
    def tdh_mig_stream_create(self, td: TdComplex) -> int:
        td.migsc.append(MigStreamContext(stream_index=len(td.migsc)))

    @_leaf(Leaf.TDH_SERVTD_BIND, _nothing)
    def tdh_servtd_bind(
        self, td: TdComplex, slot: int, servtd: Servtd
    ) -> tuple[int, Optional[int]]:
        if not 0 <= slot < 1 << BINDING_SLOT_BITS:
            raise StatusError(with_operand(TDX_OPERAND_INVALID, OPERAND_ID_R8))
        td.servtd_bindings[slot] = servtd.uuid
        return make_binding_handle(slot, td.tdr_page, servtd.uuid[0])

    def _servtd_locate(self, handle: int, caller_uuid: tuple) -> TdComplex | int:
        """The TD the handle binds the caller to, or the word refusing it (bug6 picks the word)."""
        tdr_page, slot = break_binding_handle(handle, caller_uuid[0])
        td = self.tds.get(tdr_page)
        if td is not None and td.servtd_bindings.get(slot) == caller_uuid:
            return td
        if td is not None and self.mode.bug6:
            # Distinguishable from the no-TDR case: an HPA oracle.
            return TDX_SERVTD_UUID_MISMATCH
        return with_operand(TDX_OPERAND_INVALID, OPERAND_ID_TDR)

    @_leaf(Leaf.TDG_SERVTD_RD, int)
    def tdg_servtd_rd(self, td: TdComplex, field_id_raw: int) -> tuple[int, int]:
        """Read target-TD metadata from a bound service TD."""
        return self._read(td, MD_CTX_TD, field_id_raw, mask="migtd_rd_mask")[0]

    @_leaf(Leaf.TDG_SERVTD_WR, int)
    def tdg_servtd_wr(
        self, td: TdComplex, field_id_raw: int, value: int, mask: int = U64
    ) -> tuple[int, int]:
        """Write target-TD metadata from a bound service TD; returns old contents."""
        entry, position, combined = self._write_target(field_id_raw, value, mask, "migtd_wr_mask")
        previous = td.read_element(entry, position)
        td.write_element_raw(entry, position, (value & combined) | (previous & ~combined & U64))
        return previous

    def _write_target(self, field_id_raw: int, value: int, mask: int, wr_mask: str) -> tuple:
        """The TD entry, field position and combined mask a write names, or a raised refusal:
        an operand outside 64 bits, then an id not admitted or covered, then no bit both masks let."""
        for operand, word in zip((field_id_raw, value, mask), _WIDE_WRITE_WORDS):
            if not 0 <= operand <= U64:
                raise StatusError(word)
        fid = md.admit_field_id(field_id_raw, MD_CTX_TD)
        entry = fid and self.catalog.find_entry(MD_CTX_TD, fid)
        if entry is None:
            raise StatusError(FIELD_ID_INVALID)
        combined = mask & getattr(entry, wr_mask)
        if combined == 0:
            raise StatusError(TDX_METADATA_FIELD_NOT_WRITABLE)
        return entry, fid.field_code - entry.field_code, combined

    def _read(self, td: TdComplex, context_code: int, field_id_raw: int, count: int = 1,
              mask: Optional[str] = None, vp_index: Optional[int] = None) -> list[int]:
        """The read leaves' body: ``count`` fields from the id on, each under the entry's ``mask``.

        ``mask`` names a FieldEntry mask, by default the host's (the debug one on a debug TD).
        A count below 1 or an id ``admit_field_id`` refuses reads nothing; a field no entry
        covers or a zero mask ends the read: it raises its word, with the values read, if any.
        """
        mask = mask or ("dbg_rd_mask" if td.attributes & ATTR_DEBUG else "prod_rd_mask")
        fid = md.admit_field_id(field_id_raw, context_code) if count > 0 else None
        if fid is None:
            raise StatusError(FIELD_ID_INVALID)
        values = []
        for code in range(fid.field_code, fid.field_code + count):
            entry = self.catalog.find_entry(context_code, replace(fid, field_code=code))
            if entry is None:
                raise StatusError(FIELD_ID_INVALID, value=values or None)
            if (bits := getattr(entry, mask)) == 0:
                raise StatusError(TDX_METADATA_FIELD_NOT_READABLE, value=values or None)
            values.append(td.read_element(entry, code - entry.field_code, vp_index) & bits)
        return values

    # -- host metadata access -------------------------------------------------

    @_leaf(Leaf.TDH_MNG_RD, list)
    def tdh_mng_rd(self, td: TdComplex, field_id_raw: int, count: int = 1) -> tuple[int, list[int]]:
        return self._read(td, MD_CTX_TD, field_id_raw, count)

    @_leaf(Leaf.TDH_MNG_WR)
    def tdh_mng_wr(self, td: TdComplex, field_id_raw: int, value: int, mask: int = U64) -> int:
        wr_mask = "dbg_wr_mask" if td.attributes & ATTR_DEBUG else "prod_wr_mask"
        entry, position, combined = self._write_target(field_id_raw, value, mask, wr_mask)
        # Special-handling fields drop the stored bits outside the mask; others keep them.
        value &= combined
        if not entry.special_wr_handling:
            value |= td.read_element(entry, position) & ~combined
        else:
            value = admit_td_config(td, entry.name, value, td.gpaw, importing=False)
            if value is None:
                raise StatusError(TDX_METADATA_FIELD_VALUE_NOT_VALID)
        td.write_element_raw(entry, position, value)

    @_leaf(Leaf.TDH_VP_RD, int)
    def tdh_vp_rd(self, td: TdComplex, vp_index: int, field_id_raw: int) -> tuple[int, int]:
        return self._read(td, MD_CTX_VP, field_id_raw, vp_index=vp_index)[0]

    # -- export side -----------------------------------------------------------

    def _dump(self, context_code: int, kinds: tuple[MigClass, ...], source) -> list[bytes]:
        """The context's entries of the given migration classes, dumped as whole lists."""
        entries = [e for e in self.catalog.entries_for(context_code) if e.mig_export in kinds]
        return [l.to_bytes() for l in md.dump_lists(context_code, entries, source)]

    @_leaf(Leaf.TDH_EXPORT_STATE_IMMUTABLE, _nothing)
    def tdh_export_state_immutable(
        self, td: TdComplex, migsc_index: int = 0
    ) -> tuple[int, Optional[Bundle]]:
        if not td.attributes & ATTR_MIGRATABLE:
            raise StatusError(TDX_TD_NOT_MIGRATABLE)
        if td.export_count >= MAX_EXPORT_COUNT:
            raise StatusError(TDX_MAX_EXPORTS_EXCEEDED)
        migsc = _stream(td, migsc_index)
        # Counted before the dump so the bundle carries the lineage's tally.
        td.export_count += 1
        source = TdExportSource(td, sys_store=self.sys_store)
        lists = self._dump(MD_CTX_SYS, tuple(MigClass), source) + self._dump(
            MD_CTX_TD, (MigClass.MB, MigClass.MBO), source)
        return _seal(td, migsc, BundleType.IMMUTABLE, lists)

    tdh_export_pause = _leaf(Leaf.TDH_EXPORT_PAUSE)(_succeed)

    def _export_mutable(self, td: TdComplex, migsc_index: int, context_code: int,
                        bundle_type: BundleType, vp_index: Optional[int] = None):
        """Shared body of the mutable-state export leaves: seal the context's ME entries."""
        migsc = _stream(td, migsc_index)
        lists = self._dump(context_code, (MigClass.ME,), TdExportSource(td, vp_index))
        return _seal(td, migsc, bundle_type, lists)

    @_leaf(Leaf.TDH_EXPORT_STATE_TD, _nothing)
    def tdh_export_state_td(self, td: TdComplex, migsc_index: int = 0) -> tuple[int, Optional[Bundle]]:
        return self._export_mutable(td, migsc_index, MD_CTX_TD, BundleType.TD)

    @_leaf(Leaf.TDH_EXPORT_STATE_VP, _nothing)
    def tdh_export_state_vp(
        self, td: TdComplex, vp_index: int, migsc_index: int = 0
    ) -> tuple[int, Optional[Bundle]]:
        return self._export_mutable(td, migsc_index, MD_CTX_VP, BundleType.VP, vp_index)

    @_leaf(Leaf.TDH_EXPORT_MEM, _nothing)
    def tdh_export_mem(
        self, td: TdComplex, gpa: int, migsc_index: int = 0, abort: bool = False
    ) -> tuple[int, Optional[Bundle]]:
        """Export one page; the IV counter advances even when the call aborts."""
        migsc = _stream(td, migsc_index)
        if gpa not in td.pages:
            raise StatusError(GPA_INVALID)
        if abort:
            # Increment the counter first so an aborted call never reuses an IV.
            migsc.next_iv()
            raise StatusError(TDX_INTERRUPTED_RESUMABLE)
        payload = _GPA_TOKEN.pack(gpa, td.pages[gpa]) + _MEM_PAD
        return _seal(td, migsc, BundleType.MEM, [payload])

    @_leaf(Leaf.TDH_EXPORT_TRACK, _nothing)
    def tdh_export_track(self, td: TdComplex, start: bool = False) -> tuple[int, Optional[EpochToken]]:
        return EpochToken(start=start)

    # Write-block bookkeeping: permission-checked, no desk-scale state.
    tdh_export_abort = _leaf(Leaf.TDH_EXPORT_ABORT)(_succeed)
    tdh_export_blockw = _leaf(Leaf.TDH_EXPORT_BLOCKW)(_succeed)
    tdh_export_unblockw = _leaf(Leaf.TDH_EXPORT_UNBLOCKW)(_succeed)
    tdh_export_restore = _leaf(Leaf.TDH_EXPORT_RESTORE)(_succeed)

    # -- import side -----------------------------------------------------------

    # Per state bundle: its contexts, the first for list 0 and the last for every
    # later list, and the migration classes whose required fields the import must
    # have written in full in each of them.
    _STATE_BUNDLES = {
        BundleType.IMMUTABLE: ((MD_CTX_SYS, MD_CTX_TD), frozenset({MigClass.MB})),
        BundleType.TD: ((MD_CTX_TD,), frozenset({MigClass.ME})),
        BundleType.VP: ((MD_CTX_VP,), frozenset({MigClass.ME})),
    }

    def _import_lists(
        self,
        td: TdComplex,
        bundle: Bundle,
        migsc_index: int,
        bundle_type: BundleType,
        vp_index: Optional[int] = None,
        interrupt_after: Optional[int] = None,
        resume: bool = False,
    ):
        """Shared body of the state-import leaves: interrupt, first failure and completion.

        The call is interrupted after list ``interrupt_after``, unless that is
        the bundle's last list, and a resume takes only the bundle it interrupted.
        Each walk and a fatal completion's ext_err_info go on the call's step.  A
        completion checks the required fields of every context of the bundle type,
        whichever lists it carried.
        """
        contexts, required_kinds = self._STATE_BUNDLES[bundle_type]
        migsc = _stream(td, migsc_index)
        if resume and bundle.mbmd != migsc.interrupted_state.mbmd:
            raise StatusError(TDX_INVALID_MBMD)
        lists = _open(td, migsc, bundle, bundle_type)

        if not resume:
            migsc.interrupted_state = InterruptedState()
            td.import_written = {}
        state = migsc.interrupted_state
        step = self.last
        codec_mode = self._codec_mode
        sink = TdImportSink(td, vp_index=vp_index, gpa_checks=not self.mode.bug9)

        for i in range(state.cursor if resume else 0, len(lists)):
            arena = ParseArena(lists[i], plants=self.arena_plants)
            ctx = contexts[-1] if i else contexts[0]
            result = md.write_list(self.catalog, ctx, MD_FIELD_ID_NA, arena, sink, codec_mode)
            step.walks += ((arena, result),)
            if result.status != TDX_SUCCESS and state.failed is None:
                state.failed = result
            if i == interrupt_after and i + 1 < len(lists):
                state.cursor, state.mbmd = i + 1, bundle.mbmd
                raise StatusError(TDX_INTERRUPTED_RESUMABLE, "interrupted")

        # Complete, whatever its word: the resume state goes with the call.
        migsc.interrupted_state = InterruptedState()
        if state.failed:
            step.ext_err_info = tuple(state.failed.ext_err_info)
            raise StatusError(as_fatal(state.failed.status), "failure")

        if not self.mode.bug2:
            missing = td.missing_required(self.catalog, set(contexts), required_kinds, vp_index)
            if missing:
                step.ext_err_info = (missing[0].field_id_raw, 0)
                raise StatusError(as_fatal(TDX_REQUIRED_METADATA_FIELD_MISSING), "failure")
        migsc.last_opened = bundle.mbmd.iv_counter

    @_leaf(Leaf.TDH_IMPORT_STATE_IMMUTABLE)
    def tdh_import_state_immutable(
        self,
        td: TdComplex,
        bundle: Bundle,
        migsc_index: int = 0,
        interrupt_after: Optional[int] = None,
        resume: bool = False,
    ) -> int:
        self._import_lists(
            td, bundle, migsc_index, BundleType.IMMUTABLE,
            interrupt_after=interrupt_after, resume=resume,
        )

    @_leaf(Leaf.TDH_IMPORT_STATE_TD)
    def tdh_import_state_td(self, td: TdComplex, bundle: Bundle, migsc_index: int = 0) -> int:
        self._import_lists(td, bundle, migsc_index, BundleType.TD)

    @_leaf(Leaf.TDH_IMPORT_STATE_VP)
    def tdh_import_state_vp(
        self, td: TdComplex, vp_index: int, bundle: Bundle, migsc_index: int = 0
    ) -> int:
        self._import_lists(td, bundle, migsc_index, BundleType.VP, vp_index=vp_index)
        td.num_migrated_vcpus += 1

    @_leaf(Leaf.TDH_IMPORT_MEM)
    def tdh_import_mem(self, td: TdComplex, bundle: Bundle, migsc_index: int = 0) -> int:
        migsc = _stream(td, migsc_index)
        if not sept_walk_ok(td):
            raise StatusError(TDX_TD_FATAL)
        gpa, token = _GPA_TOKEN.unpack_from(_open(td, migsc, bundle, BundleType.MEM)[0])
        if gpa & PAGE_GPA_BITS[not td.gpaw]:
            raise StatusError(GPA_INVALID)
        migsc.last_opened = bundle.mbmd.iv_counter
        td.pages[gpa] = token

    @_leaf(Leaf.TDH_IMPORT_TRACK)
    def tdh_import_track(self, td: TdComplex, token: EpochToken) -> int:
        if not token.start:
            # A non-start token answers SUCCESS and takes no edge (ROADMAP item 11 replaces it).
            raise StatusError(TDX_SUCCESS)
        # The only completion gate: the migrated, created and declared vcpu counts agree.
        if not td.num_migrated_vcpus == len(td.vps) == td.num_vcpus:
            raise StatusError(TDX_SOME_VCPUS_NOT_MIGRATED)

    tdh_import_commit = _leaf(Leaf.TDH_IMPORT_COMMIT)(_succeed)
    tdh_import_end = _leaf(Leaf.TDH_IMPORT_END)(_succeed)
    tdh_import_abort = _leaf(Leaf.TDH_IMPORT_ABORT)(_succeed)

    # -- module configuration ---------------------------------------------------

    def tdh_sys_config(self, hkid: int, tdmr_entries: list[int]) -> int:
        self.last = None
        return sys_config_reserve_hkid(self.kot, hkid, tdmr_entries, self.mode.bug8)

    def md_next_cpuid_field(self, field_id_raw: int) -> int:
        """Next valid CPUID lookup position, honoring the bug4 toggle."""
        self.last = None
        return next_cpuid_entry(self.cpuid, field_id_raw, self.mode.bug4)
