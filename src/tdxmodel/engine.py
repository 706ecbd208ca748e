"""Host-API surface: build, export, and interruptible import flows.

A TdxModule instance plays the role of one platform's module: it owns the key
ownership table, the TD registry, and the permission matrix, and dispatches
API calls one at a time.  Per-finding behavior toggles select vulnerable or
fixed variants independently, defaulting to all fixed.

Interrupt storms are replaced by deterministic InterruptPolicy predicates, so
an exploit's "interrupt the import after the second list" step is an exact,
replayable event.  Every call appends to the owning TD's op-state trace,
which scenario runs validate against the permission-matrix fixture.
"""

from __future__ import annotations

import functools
import hashlib
import random
import struct
from dataclasses import dataclass, fields as dc_fields
from typing import Optional

from . import md_codec as md
from .catalog import CpuidLookup, MigClass, bundled_catalog, next_cpuid_entry
from .envelope import (
    BundleType,
    Mbmd,
    MigStreamContext,
    decrypt_bundle,
    encrypt_bundle,
)
from .md_codec import MD_CTX_SYS, MD_CTX_TD, MD_CTX_VP, MD_FIELD_ID_NA, ParseArena, WriteMode
from .states import (
    Leaf,
    LifecycleState,
    OpState,
    PermissionMatrix,
    TraceStep,
    bundled_matrix,
    transition,
)
from .status import (
    OPERAND_ID_MIGSC,
    OPERAND_ID_RCX,
    OPERAND_ID_TDR,
    OPERAND_ID_TDVPR,
    TDX_HKID_NOT_FREE,
    TDX_INTERRUPTED_RESUMABLE,
    TDX_INVALID_MBMD,
    TDX_LIFECYCLE_STATE_INCORRECT,
    TDX_MAX_EXPORTS_EXCEEDED,
    TDX_METADATA_FIELD_NOT_READABLE,
    TDX_METADATA_FIELD_NOT_WRITABLE,
    TDX_MIGRATION_DECRYPTION_KEY_NOT_SET,
    TDX_MIGRATION_STREAM_STATE_INCORRECT,
    TDX_OPERAND_BUSY,
    TDX_OPERAND_INVALID,
    TDX_OP_STATE_INCORRECT,
    TDX_REQUIRED_METADATA_FIELD_MISSING,
    TDX_SERVTD_UUID_MISMATCH,
    TDX_SOME_VCPUS_NOT_MIGRATED,
    TDX_SUCCESS,
    TDX_TDCX_NUM_INCORRECT,
    TDX_TD_FATAL,
    TDX_TD_NOT_MIGRATABLE,
    as_fatal,
    with_operand,
)
from .td import (
    MAX_EXPORT_COUNT,
    MAX_VCPUS_PER_TD,
    Kot,
    KotState,
    TdComplex,
    TdExportSource,
    TdImportSink,
    TdParams,
    XCR0_X87,
    init_event_filters,
    make_binding_handle,
    break_binding_handle,
    read_and_set_td_configurations,
    sept_walk_ok,
    sys_config_reserve_hkid,
)

U64 = 0xFFFFFFFFFFFFFFFF

FINDING_TOGGLES = ("v1", "v2", "bug1", "bug2", "bug3", "bug4", "bug6", "bug8", "bug9")


@dataclass(frozen=True)
class EngineMode:
    """Per-finding vulnerable/fixed switches; everything defaults to fixed."""

    v1: str = "fixed"
    v2: str = "fixed"
    bug1: str = "fixed"
    bug2: str = "fixed"
    bug3: str = "fixed"
    bug4: str = "fixed"
    bug6: str = "fixed"
    bug8: str = "fixed"
    bug9: str = "fixed"

    def __post_init__(self):
        for f in dc_fields(self):
            value = getattr(self, f.name)
            if value not in ("vulnerable", "fixed"):
                raise ValueError(f"{f.name} must be vulnerable or fixed, not {value!r}")

    @classmethod
    def all_vulnerable(cls) -> "EngineMode":
        return cls(**{name: "vulnerable" for name in FINDING_TOGGLES})

    @classmethod
    def with_toggles(cls, toggles: dict[str, str]) -> "EngineMode":
        return cls(**toggles)

    def codec_mode(self) -> WriteMode:
        return WriteMode(
            header_underflow=self.bug1 == "vulnerable",
            loop_underflow=self.v2 == "vulnerable",
            silent_skip=self.bug2 == "vulnerable",
        )

    @property
    def state_mode(self) -> str:
        return "fixed" if self.v1 == "fixed" else "vulnerable"


@dataclass
class InterruptPolicy:
    """Deterministic stand-in for a pending-interrupt check between lists."""

    fire_after_lists: frozenset = frozenset()

    @classmethod
    def after(cls, *indexes: int) -> "InterruptPolicy":
        return cls(frozenset(indexes))

    def pending(self, last_list_index: int) -> bool:
        return last_list_index in self.fire_after_lists


@dataclass
class Bundle:
    mbmd: Mbmd
    data: bytes


@dataclass
class EpochToken:
    start: bool
    epoch: int


@dataclass
class Servtd:
    uuid: tuple[int, int, int, int]
    info_hash: int = 0


OUTCOMES = ("success", "failure", "interrupted")


@functools.cache
def _edge_table(matrix: PermissionMatrix, state_mode: str) -> dict:
    """The matrix compiled for the gate, once per (matrix, state mode).

    Each allowed (interface, op_state, leaf) maps every outcome to the next
    op_state that transition() gives for it, so one dict lookup both admits a
    call and fixes where each of its outcomes lands.
    """
    return {
        key: {outcome: transition(matrix, key[1], key[2], outcome, state_mode, key[0])
              for outcome in OUTCOMES}
        for key, _ in matrix.items()
    }


SYS_DEFAULTS = {
    "BUILD_DATE": 20260210,
    "BUILD_NUM": 0x32C,
    "VENDOR_ID": 0x8086,
    "MODULE_VERSION": 0x0105,
    "TDX_FEATURES0": 0x1,
}


class TdxModule:
    """One platform's module instance: registry, KOT, and API dispatch."""

    def __init__(self, mode: Optional[EngineMode] = None, seed: int = 0, kot_size: int = 64):
        self.mode = mode or EngineMode()
        self.catalog = bundled_catalog()
        self.matrix = bundled_matrix()
        self._edges = _edge_table(self.matrix, self.mode.state_mode)
        self._admitted: dict = {}
        self.kot = Kot(kot_size)
        self.cpuid = CpuidLookup()
        self.rng = random.Random(seed)
        self.tds: dict[int, TdComplex] = {}
        self.servtds: dict[tuple, Servtd] = {}
        self.sys_store: dict = {}
        for name, value in SYS_DEFAULTS.items():
            entry = self.catalog.by_name(MD_CTX_SYS, name)
            self.sys_store[(entry.class_code, entry.field_code)] = [value]
        self._next_page = 0x100
        self._next_epoch = 0
        self.vmm_regs = {"rcx": 0, "rdx": 0}
        self.arena_plants: dict[int, int] = {}
        self.last_import_arenas: list[ParseArena] = []
        self.last_write_results: list[md.WriteResult] = []

    # -- plumbing ----------------------------------------------------------

    def alloc_page(self) -> int:
        page = self._next_page
        self._next_page += 1
        return page

    def new_servtd(self) -> Servtd:
        uuid = tuple(self.rng.getrandbits(64) for _ in range(4))
        servtd = Servtd(uuid=uuid, info_hash=self.rng.getrandbits(64))
        self.servtds[uuid] = servtd
        return servtd

    def _gate(self, td: TdComplex, leaf: Leaf, interface: str = "host") -> Optional[int]:
        """The refusing status, or None to admit the call.

        An admitted call's compiled matrix row is kept for the _finish of the
        same call, so a leaf costs one matrix lookup.
        """
        if td.fatal:
            return TDX_TD_FATAL
        if td.locked:
            return with_operand(TDX_OPERAND_BUSY, OPERAND_ID_TDR)
        edges = self._edges.get((interface, td.op_state, leaf))
        if edges is None:
            return TDX_OP_STATE_INCORRECT
        self._admitted = edges
        return None

    def _finish(self, td: TdComplex, leaf: Leaf, before: OpState,
                status: int, outcome: Optional[str]) -> int:
        """Record the call; an outcome moves the op_state along the row _gate admitted."""
        after = before if outcome is None else self._admitted[outcome]
        td.op_state = after
        td.trace.append(TraceStep(leaf, before, after, status))
        return status

    def _mark_fatal(self, td: TdComplex, leaf: Leaf, before: OpState) -> int:
        td.fatal = True
        td.trace.append(TraceStep(leaf, before, before, TDX_TD_FATAL))
        return TDX_TD_FATAL

    # -- lifecycle and build -------------------------------------------------

    def tdh_mng_create(self, hkid: int) -> tuple[int, Optional[TdComplex]]:
        if hkid >= len(self.kot) or self.kot.entries[hkid].state is not KotState.HKID_FREE:
            return with_operand(TDX_HKID_NOT_FREE, OPERAND_ID_RCX), None
        self.kot.entries[hkid].state = KotState.HKID_ASSIGNED
        td = TdComplex(tdr_page=self.alloc_page(), hkid=hkid)
        td.sept_root_pa = self.alloc_page()
        td.td_uuid = tuple(self.rng.getrandbits(64) for _ in range(4))
        uuid_entry = self.catalog.by_name(MD_CTX_TD, "TD_UUID")
        for i, q in enumerate(td.td_uuid):
            td.write_element_raw(uuid_entry, i, q)
        self.tds[td.tdr_page] = td
        return TDX_SUCCESS, td

    def tdh_mng_key_config(self, td: TdComplex) -> int:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_MNG_KEY_CONFIG)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_MNG_KEY_CONFIG, before, blocked, None)
        if td.lifecycle is not LifecycleState.TD_HKID_ASSIGNED:
            return self._finish(
                td, Leaf.TDH_MNG_KEY_CONFIG, before, TDX_LIFECYCLE_STATE_INCORRECT, None
            )
        td.lifecycle = LifecycleState.TD_KEYS_CONFIGURED
        return self._finish(td, Leaf.TDH_MNG_KEY_CONFIG, before, TDX_SUCCESS, "success")

    def tdh_mng_addcx(self, td: TdComplex) -> int:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_MNG_ADDCX)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_MNG_ADDCX, before, blocked, None)
        td.tdcx_count += 1
        return self._finish(td, Leaf.TDH_MNG_ADDCX, before, TDX_SUCCESS, "success")

    def tdh_mng_init(
        self,
        td: TdComplex,
        params: TdParams,
        event_filtering: bool = False,
        event_filters_num: int = 0,
        event_filters: Optional[list[int]] = None,
    ) -> int:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_MNG_INIT)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_MNG_INIT, before, blocked, None)
        if td.tdcx_count < TdComplex.MIN_TDCX_PAGES:
            return self._finish(td, Leaf.TDH_MNG_INIT, before, TDX_TDCX_NUM_INCORRECT, None)
        status = read_and_set_td_configurations(td, params, self.mode.v1)
        if status != TDX_SUCCESS:
            return self._finish(td, Leaf.TDH_MNG_INIT, before, status, "failure")
        status = init_event_filters(
            td, event_filtering, event_filters_num, event_filters or [], self.mode.bug3
        )
        if status != TDX_SUCCESS:
            return self._finish(td, Leaf.TDH_MNG_INIT, before, status, "failure")
        virtual_tsc = self.catalog.by_name(MD_CTX_TD, "VIRTUAL_TSC")
        td.write_element_raw(virtual_tsc, 0, td.tsc_frequency * 0x40)
        td.write_element_raw(virtual_tsc, 1, 0)
        return self._finish(td, Leaf.TDH_MNG_INIT, before, TDX_SUCCESS, "success")

    def tdh_vp_create(self, td: TdComplex) -> tuple[int, Optional[int]]:
        from .td import VcpuState

        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_VP_CREATE)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_VP_CREATE, before, blocked, None), None
        index = len(td.vps)
        if before is OpState.INITIALIZED:
            # Build path: the vcpu counter tracks created VPs.
            if td.num_vcpus + 1 > MAX_VCPUS_PER_TD:
                return self._finish(
                    td, Leaf.TDH_VP_CREATE, before,
                    with_operand(TDX_OPERAND_INVALID, OPERAND_ID_TDVPR), None,
                ), None
            td.num_vcpus += 1
            x2apic = self.catalog.by_name(MD_CTX_TD, "X2APIC_IDS")
            td.write_element_raw(x2apic, index, index)
        td.vps.append(VcpuState(index=index))
        self._finish(td, Leaf.TDH_VP_CREATE, before, TDX_SUCCESS, "success")
        return TDX_SUCCESS, index

    def tdh_vp_addcx(self, td: TdComplex, vp_index: int) -> int:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_VP_ADDCX)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_VP_ADDCX, before, blocked, None)
        if vp_index >= len(td.vps):
            return self._finish(
                td, Leaf.TDH_VP_ADDCX, before,
                with_operand(TDX_OPERAND_INVALID, OPERAND_ID_TDVPR), None,
            )
        return self._finish(td, Leaf.TDH_VP_ADDCX, before, TDX_SUCCESS, "success")

    def tdh_vp_init(self, td: TdComplex, vp_index: int) -> int:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_VP_INIT)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_VP_INIT, before, blocked, None)
        if vp_index >= len(td.vps):
            return self._finish(
                td, Leaf.TDH_VP_INIT, before,
                with_operand(TDX_OPERAND_INVALID, OPERAND_ID_TDVPR), None,
            )
        vp = td.vps[vp_index]
        xcr0 = self.catalog.by_name(MD_CTX_VP, "XCR0")
        vp.values(xcr0)[0] = td.xfam | XCR0_X87
        deadline = self.catalog.by_name(MD_CTX_VP, "TSC_DEADLINE")
        vp.values(deadline)[0] = 0
        return self._finish(td, Leaf.TDH_VP_INIT, before, TDX_SUCCESS, "success")

    def tdh_mem_sept_add(self, td: TdComplex, gpa: int) -> int:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_MEM_SEPT_ADD)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_MEM_SEPT_ADD, before, blocked, None)
        if not sept_walk_ok(td):
            return self._mark_fatal(td, Leaf.TDH_MEM_SEPT_ADD, before)
        return self._finish(td, Leaf.TDH_MEM_SEPT_ADD, before, TDX_SUCCESS, "success")

    def tdh_mem_page_add(self, td: TdComplex, gpa: int, token: int) -> int:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_MEM_PAGE_ADD)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_MEM_PAGE_ADD, before, blocked, None)
        if not sept_walk_ok(td):
            return self._mark_fatal(td, Leaf.TDH_MEM_PAGE_ADD, before)
        td.pages[gpa] = token
        return self._finish(td, Leaf.TDH_MEM_PAGE_ADD, before, TDX_SUCCESS, "success")

    def tdh_mr_extend(self, td: TdComplex, gpa: int) -> int:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_MR_EXTEND)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_MR_EXTEND, before, blocked, None)
        token = td.pages.get(gpa, 0)
        td.measurement = hashlib.sha384(
            td.measurement + struct.pack("<QQ", gpa, token)
        ).digest()
        return self._finish(td, Leaf.TDH_MR_EXTEND, before, TDX_SUCCESS, "success")

    def tdh_mr_finalize(self, td: TdComplex) -> int:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_MR_FINALIZE)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_MR_FINALIZE, before, blocked, None)
        return self._finish(td, Leaf.TDH_MR_FINALIZE, before, TDX_SUCCESS, "success")

    def tdh_vp_enter(self, td: TdComplex, vp_index: int) -> int:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_VP_ENTER)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_VP_ENTER, before, blocked, None)
        if vp_index >= len(td.vps):
            return self._finish(
                td, Leaf.TDH_VP_ENTER, before,
                with_operand(TDX_OPERAND_INVALID, OPERAND_ID_TDVPR), None,
            )
        vp = td.vps[vp_index]
        if not sept_walk_ok(td):
            return self._mark_fatal(td, Leaf.TDH_VP_ENTER, before)
        xcr0 = self.catalog.by_name(MD_CTX_VP, "XCR0")
        if not vp.values(xcr0)[0] & XCR0_X87:
            # Loading a guest xcr0 without x87 raises #GP(0) inside the module.
            return self._mark_fatal(td, Leaf.TDH_VP_ENTER, before)
        vp.entered = True
        return self._finish(td, Leaf.TDH_VP_ENTER, before, TDX_SUCCESS, "success")

    def build_td(
        self,
        params: TdParams,
        num_vcpus: int = 2,
        num_pages: int = 4,
        hkid: Optional[int] = None,
    ) -> tuple[int, Optional[TdComplex]]:
        """Composite build sequence, stopping at the first failing call."""
        if hkid is None:
            free = self.kot.free_hkids()
            if not free:
                return with_operand(TDX_HKID_NOT_FREE, OPERAND_ID_RCX), None
            hkid = free[0]
        status, td = self.tdh_mng_create(hkid)
        if status != TDX_SUCCESS:
            return status, None
        for step in (self.tdh_mng_key_config,):
            status = step(td)
            if status != TDX_SUCCESS:
                return status, td
        for _ in range(TdComplex.MIN_TDCX_PAGES):
            status = self.tdh_mng_addcx(td)
            if status != TDX_SUCCESS:
                return status, td
        status = self.tdh_mng_init(td, params)
        if status != TDX_SUCCESS:
            return status, td
        for i in range(num_vcpus):
            for status in (
                self.tdh_vp_create(td)[0],
                self.tdh_vp_addcx(td, i),
                self.tdh_vp_init(td, i),
            ):
                if status != TDX_SUCCESS:
                    return status, td
        for i in range(num_pages):
            gpa = 0x1000 * (i + 1)
            status = self.tdh_mem_sept_add(td, gpa)
            if status != TDX_SUCCESS:
                return status, td
            status = self.tdh_mem_page_add(td, gpa, self.rng.getrandbits(64))
            if status != TDX_SUCCESS:
                return status, td
            status = self.tdh_mr_extend(td, gpa)
            if status != TDX_SUCCESS:
                return status, td
        status = self.tdh_mr_finalize(td)
        return status, td

    # -- streams and service TDs --------------------------------------------

    def tdh_mig_stream_create(self, td: TdComplex, stream_index: Optional[int] = None) -> int:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_MIG_STREAM_CREATE)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_MIG_STREAM_CREATE, before, blocked, None)
        index = stream_index if stream_index is not None else len(td.migsc)
        td.migsc.append(MigStreamContext(stream_index=index))
        return self._finish(td, Leaf.TDH_MIG_STREAM_CREATE, before, TDX_SUCCESS, "success")

    def tdh_servtd_bind(
        self, td: TdComplex, slot: int, servtd: Servtd
    ) -> tuple[int, Optional[int]]:
        from .td import ServtdBinding

        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_SERVTD_BIND)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_SERVTD_BIND, before, blocked, None), None
        td.servtd_bindings[slot] = ServtdBinding(
            slot=slot, servtd_uuid=servtd.uuid, info_hash=servtd.info_hash
        )
        handle = make_binding_handle(slot, td.tdr_page, servtd.uuid[0])
        self._finish(td, Leaf.TDH_SERVTD_BIND, before, TDX_SUCCESS, "success")
        return TDX_SUCCESS, handle

    def _servtd_locate(self, handle: int, caller_uuid: tuple) -> tuple[int, Optional[TdComplex], int]:
        """Break the handle and find the target; statuses follow the bug6 toggle."""
        tdr_page, slot = break_binding_handle(handle, caller_uuid[0])
        generic = with_operand(TDX_OPERAND_INVALID, OPERAND_ID_TDR)
        td = self.tds.get(tdr_page)
        if td is None:
            return generic, None, slot
        binding = td.servtd_bindings.get(slot)
        if binding is None or binding.servtd_uuid != caller_uuid:
            if self.mode.bug6 == "vulnerable":
                # Distinguishable from the no-TDR case: an HPA oracle.
                return TDX_SERVTD_UUID_MISMATCH, None, slot
            return generic, None, slot
        return TDX_SUCCESS, td, slot

    def tdg_servtd_rd(
        self, caller: Servtd, handle: int, field_id_raw: int
    ) -> tuple[int, int]:
        status, td, _ = self._servtd_locate(handle, caller.uuid)
        if status != TDX_SUCCESS:
            return status, 0
        if td.locked:
            return with_operand(TDX_OPERAND_BUSY, OPERAND_ID_TDR), 0
        if not self.matrix.is_allowed(td.op_state, Leaf.TDG_SERVTD_RD, "guest"):
            return TDX_OP_STATE_INCORRECT, 0
        fid = md.decode_field_id(field_id_raw)
        entry = self.catalog.find_entry(MD_CTX_TD, fid)
        if entry is None:
            return with_operand(TDX_OPERAND_INVALID, 0), 0
        if entry.migtd_rd_mask == 0:
            return TDX_METADATA_FIELD_NOT_READABLE, 0
        position = fid.field_code - entry.field_code
        return TDX_SUCCESS, td.read_element(entry, position) & entry.migtd_rd_mask

    def tdg_servtd_wr(
        self, caller: Servtd, handle: int, field_id_raw: int, value: int, mask: int = U64
    ) -> tuple[int, int]:
        """Write target-TD metadata from a bound service TD; returns old contents."""
        status, td, _ = self._servtd_locate(handle, caller.uuid)
        if status != TDX_SUCCESS:
            return status, 0
        if td.locked:
            return with_operand(TDX_OPERAND_BUSY, OPERAND_ID_TDR), 0
        if not self.matrix.is_allowed(td.op_state, Leaf.TDG_SERVTD_WR, "guest"):
            return TDX_OP_STATE_INCORRECT, 0
        fid = md.decode_field_id(field_id_raw)
        entry = self.catalog.find_entry(MD_CTX_TD, fid)
        if entry is None:
            return with_operand(TDX_OPERAND_INVALID, 0), 0
        combined = mask & entry.migtd_wr_mask
        if combined == 0:
            return TDX_METADATA_FIELD_NOT_WRITABLE, 0
        position = fid.field_code - entry.field_code
        previous = td.read_element(entry, position)
        td.write_element_raw(entry, position, (value & combined) | (previous & ~combined & U64))
        return TDX_SUCCESS, previous

    # -- host metadata access -------------------------------------------------

    def tdh_mng_rd(self, td: TdComplex, field_id_raw: int, count: int = 1) -> tuple[int, list[int]]:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_MNG_RD)
        if blocked is not None:
            self._finish(td, Leaf.TDH_MNG_RD, before, blocked, None)
            return blocked, []
        values = []
        fid = md.decode_field_id(field_id_raw)
        code = fid.field_code
        for i in range(count):
            probe = md.MdFieldId(
                field_code=code + i, context_code=fid.context_code, class_code=fid.class_code,
                element_size_code=fid.element_size_code,
            )
            entry = self.catalog.find_entry(MD_CTX_TD, probe)
            if entry is None:
                self._finish(td, Leaf.TDH_MNG_RD, before, with_operand(TDX_OPERAND_INVALID, 0), None)
                return with_operand(TDX_OPERAND_INVALID, 0), values
            mask = entry.dbg_rd_mask if td.attributes.debug else entry.prod_rd_mask
            if mask == 0:
                self._finish(td, Leaf.TDH_MNG_RD, before, TDX_METADATA_FIELD_NOT_READABLE, None)
                return TDX_METADATA_FIELD_NOT_READABLE, values
            values.append(td.read_element(entry, (code + i) - entry.field_code) & mask)
        self._finish(td, Leaf.TDH_MNG_RD, before, TDX_SUCCESS, "success")
        return TDX_SUCCESS, values

    def tdh_mng_wr(self, td: TdComplex, field_id_raw: int, value: int, mask: int = U64) -> int:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_MNG_WR)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_MNG_WR, before, blocked, None)
        fid = md.decode_field_id(field_id_raw)
        entry = self.catalog.find_entry(MD_CTX_TD, fid)
        if entry is None:
            return self._finish(td, Leaf.TDH_MNG_WR, before, with_operand(TDX_OPERAND_INVALID, 0), None)
        wr_mask = entry.dbg_wr_mask if td.attributes.debug else entry.prod_wr_mask
        combined = mask & wr_mask
        if combined == 0:
            return self._finish(td, Leaf.TDH_MNG_WR, before, TDX_METADATA_FIELD_NOT_WRITABLE, None)
        sink = TdImportSink(td, self.catalog, is_import=False, gpa_checks=True, track=False)
        status = sink.write_field(entry, entry.field_index_of(fid.field_code), [value], combined)
        outcome = "success" if status == TDX_SUCCESS else None
        return self._finish(td, Leaf.TDH_MNG_WR, before, status, outcome)

    def tdh_vp_rd(self, td: TdComplex, vp_index: int, field_id_raw: int) -> tuple[int, int]:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_VP_RD)
        if blocked is not None:
            self._finish(td, Leaf.TDH_VP_RD, before, blocked, None)
            return blocked, 0
        fid = md.decode_field_id(field_id_raw)
        entry = self.catalog.find_entry(MD_CTX_VP, fid)
        if entry is None:
            self._finish(td, Leaf.TDH_VP_RD, before, with_operand(TDX_OPERAND_INVALID, 0), None)
            return with_operand(TDX_OPERAND_INVALID, 0), 0
        mask = entry.dbg_rd_mask if td.attributes.debug else entry.prod_rd_mask
        if mask == 0:
            self._finish(td, Leaf.TDH_VP_RD, before, TDX_METADATA_FIELD_NOT_READABLE, None)
            return TDX_METADATA_FIELD_NOT_READABLE, 0
        value = td.read_element(entry, fid.field_code - entry.field_code, vp_index) & mask
        self._finish(td, Leaf.TDH_VP_RD, before, TDX_SUCCESS, "success")
        return TDX_SUCCESS, value

    # -- export side -----------------------------------------------------------

    def _entries_by_mig(self, context_code: int, kinds: tuple[MigClass, ...]) -> list:
        return [e for e in self.catalog.entries_for(context_code) if e.mig_export in kinds]

    def _stream(self, td: TdComplex, index: int) -> Optional[MigStreamContext]:
        if index >= len(td.migsc):
            return None
        return td.migsc[index]

    def _seal(self, td: TdComplex, migsc: MigStreamContext, bundle_type: BundleType,
              lists: list[md.MdList]) -> Bundle:
        migsc.key = td.session_key
        mbmd, ciphertext = encrypt_bundle(migsc, bundle_type, [l.to_bytes() for l in lists])
        return Bundle(mbmd, ciphertext)

    def tdh_export_state_immutable(
        self, td: TdComplex, migsc_index: int = 0
    ) -> tuple[int, Optional[Bundle]]:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_EXPORT_STATE_IMMUTABLE)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_EXPORT_STATE_IMMUTABLE, before, blocked, None), None
        if not td.attributes.migratable:
            return self._finish(
                td, Leaf.TDH_EXPORT_STATE_IMMUTABLE, before, TDX_TD_NOT_MIGRATABLE, None
            ), None
        if td.export_count >= MAX_EXPORT_COUNT:
            return self._finish(
                td, Leaf.TDH_EXPORT_STATE_IMMUTABLE, before, TDX_MAX_EXPORTS_EXCEEDED, None
            ), None
        migsc = self._stream(td, migsc_index)
        if migsc is None:
            return self._finish(
                td, Leaf.TDH_EXPORT_STATE_IMMUTABLE, before,
                TDX_MIGRATION_STREAM_STATE_INCORRECT, None,
            ), None
        if not td.mig_dec_key_set:
            return self._finish(
                td, Leaf.TDH_EXPORT_STATE_IMMUTABLE, before,
                TDX_MIGRATION_DECRYPTION_KEY_NOT_SET, None,
            ), None
        if not migsc.acquire():
            return self._finish(
                td, Leaf.TDH_EXPORT_STATE_IMMUTABLE, before,
                with_operand(TDX_OPERAND_BUSY, OPERAND_ID_MIGSC), None,
            ), None
        try:
            # Counted before the dump so the bundle carries the lineage's tally.
            td.export_count += 1
            sys_entries = self.catalog.entries_for(MD_CTX_SYS)
            sys_lists = md.dump_lists(
                self.catalog, MD_CTX_SYS, sys_entries,
                TdExportSource(td, sys_store=self.sys_store),
            )
            td_entries = self._entries_by_mig(MD_CTX_TD, (MigClass.MB, MigClass.MBO))
            td_lists = md.dump_lists(self.catalog, MD_CTX_TD, td_entries, TdExportSource(td))
            bundle = self._seal(td, migsc, BundleType.IMMUTABLE, sys_lists + td_lists)
        finally:
            migsc.release()
        return self._finish(
            td, Leaf.TDH_EXPORT_STATE_IMMUTABLE, before, TDX_SUCCESS, "success"
        ), bundle

    def tdh_export_pause(self, td: TdComplex) -> int:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_EXPORT_PAUSE)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_EXPORT_PAUSE, before, blocked, None)
        return self._finish(td, Leaf.TDH_EXPORT_PAUSE, before, TDX_SUCCESS, "success")

    def tdh_export_state_td(self, td: TdComplex, migsc_index: int = 0) -> tuple[int, Optional[Bundle]]:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_EXPORT_STATE_TD)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_EXPORT_STATE_TD, before, blocked, None), None
        migsc = self._stream(td, migsc_index)
        if migsc is None or not td.mig_dec_key_set:
            return self._finish(
                td, Leaf.TDH_EXPORT_STATE_TD, before, TDX_MIGRATION_STREAM_STATE_INCORRECT, None
            ), None
        if not migsc.acquire():
            return self._finish(
                td, Leaf.TDH_EXPORT_STATE_TD, before,
                with_operand(TDX_OPERAND_BUSY, OPERAND_ID_MIGSC), None,
            ), None
        try:
            entries = self._entries_by_mig(MD_CTX_TD, (MigClass.ME,))
            lists = md.dump_lists(self.catalog, MD_CTX_TD, entries, TdExportSource(td))
            bundle = self._seal(td, migsc, BundleType.TD, lists)
        finally:
            migsc.release()
        return self._finish(td, Leaf.TDH_EXPORT_STATE_TD, before, TDX_SUCCESS, "success"), bundle

    def tdh_export_state_vp(
        self, td: TdComplex, vp_index: int, migsc_index: int = 0
    ) -> tuple[int, Optional[Bundle]]:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_EXPORT_STATE_VP)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_EXPORT_STATE_VP, before, blocked, None), None
        if vp_index >= len(td.vps):
            return self._finish(
                td, Leaf.TDH_EXPORT_STATE_VP, before,
                with_operand(TDX_OPERAND_INVALID, OPERAND_ID_TDVPR), None,
            ), None
        migsc = self._stream(td, migsc_index)
        if migsc is None or not td.mig_dec_key_set:
            return self._finish(
                td, Leaf.TDH_EXPORT_STATE_VP, before, TDX_MIGRATION_STREAM_STATE_INCORRECT, None
            ), None
        if not migsc.acquire():
            return self._finish(
                td, Leaf.TDH_EXPORT_STATE_VP, before,
                with_operand(TDX_OPERAND_BUSY, OPERAND_ID_MIGSC), None,
            ), None
        try:
            entries = self._entries_by_mig(MD_CTX_VP, (MigClass.ME,))
            lists = md.dump_lists(
                self.catalog, MD_CTX_VP, entries, TdExportSource(td, vp_index=vp_index)
            )
            bundle = self._seal(td, migsc, BundleType.VP, lists)
        finally:
            migsc.release()
        return self._finish(td, Leaf.TDH_EXPORT_STATE_VP, before, TDX_SUCCESS, "success"), bundle

    def tdh_export_mem(
        self, td: TdComplex, gpa: int, migsc_index: int = 0, abort: bool = False
    ) -> tuple[int, Optional[Bundle]]:
        """Export one page; the IV counter advances even when the call aborts."""
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_EXPORT_MEM)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_EXPORT_MEM, before, blocked, None), None
        migsc = self._stream(td, migsc_index)
        if migsc is None or not td.mig_dec_key_set:
            return self._finish(
                td, Leaf.TDH_EXPORT_MEM, before, TDX_MIGRATION_STREAM_STATE_INCORRECT, None
            ), None
        if abort:
            # Increment the counter first so an aborted call never reuses an IV.
            migsc.next_iv()
            return self._finish(
                td, Leaf.TDH_EXPORT_MEM, before, TDX_INTERRUPTED_RESUMABLE, None
            ), None
        token = td.pages.get(gpa, 0)
        payload = struct.pack("<QQ", gpa, token).ljust(md.LIST_BYTES, b"\x00")
        migsc.key = td.session_key
        mbmd, ciphertext = encrypt_bundle(migsc, BundleType.MEM, [payload])
        return self._finish(
            td, Leaf.TDH_EXPORT_MEM, before, TDX_SUCCESS, "success"
        ), Bundle(mbmd, ciphertext)

    def tdh_export_track(self, td: TdComplex, start: bool = False) -> tuple[int, Optional[EpochToken]]:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_EXPORT_TRACK)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_EXPORT_TRACK, before, blocked, None), None
        self._next_epoch += 1
        token = EpochToken(start=start, epoch=self._next_epoch)
        outcome = "success" if before is OpState.LIVE_EXPORT else None
        return self._finish(td, Leaf.TDH_EXPORT_TRACK, before, TDX_SUCCESS, outcome), token

    def tdh_export_abort(self, td: TdComplex) -> int:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_EXPORT_ABORT)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_EXPORT_ABORT, before, blocked, None)
        return self._finish(td, Leaf.TDH_EXPORT_ABORT, before, TDX_SUCCESS, "success")

    def _gated_noop(self, td: TdComplex, leaf: Leaf) -> int:
        """Write-block bookkeeping leaves: permission-checked, no desk-scale state."""
        before = td.op_state
        blocked = self._gate(td, leaf)
        if blocked is not None:
            return self._finish(td, leaf, before, blocked, None)
        return self._finish(td, leaf, before, TDX_SUCCESS, "success")

    def tdh_export_blockw(self, td: TdComplex) -> int:
        return self._gated_noop(td, Leaf.TDH_EXPORT_BLOCKW)

    def tdh_export_unblockw(self, td: TdComplex) -> int:
        return self._gated_noop(td, Leaf.TDH_EXPORT_UNBLOCKW)

    def tdh_export_restore(self, td: TdComplex) -> int:
        return self._gated_noop(td, Leaf.TDH_EXPORT_RESTORE)

    # -- import side -----------------------------------------------------------

    def _import_lists(
        self,
        td: TdComplex,
        leaf: Leaf,
        bundle: Bundle,
        migsc_index: int,
        bundle_type: BundleType,
        contexts,
        vp_index: Optional[int] = None,
        policy: Optional[InterruptPolicy] = None,
        resume: bool = False,
        required_kinds: Optional[set] = None,
    ) -> int:
        """Shared list-import loop with interrupt, latch, and completion logic."""
        before = td.op_state
        blocked = self._gate(td, leaf)
        if blocked is not None:
            return self._finish(td, leaf, before, blocked, None)
        migsc = self._stream(td, migsc_index)
        if migsc is None:
            return self._finish(td, leaf, before, TDX_MIGRATION_STREAM_STATE_INCORRECT, None)
        if not td.mig_dec_key_set:
            return self._finish(td, leaf, before, TDX_MIGRATION_DECRYPTION_KEY_NOT_SET, None)
        if bundle.mbmd.bundle_type is not bundle_type:
            return self._finish(td, leaf, before, TDX_INVALID_MBMD, None)
        if not migsc.acquire():
            return self._finish(
                td, leaf, before, with_operand(TDX_OPERAND_BUSY, OPERAND_ID_MIGSC), None
            )
        try:
            migsc.key = td.session_key
            status, lists = decrypt_bundle(migsc, bundle.mbmd, bundle.data)
            if status != TDX_SUCCESS:
                return self._finish(td, leaf, before, status, None)

            if not resume:
                migsc.interrupted_state.reset()
                td.reset_import_accounting()
            cursor = migsc.interrupted_state.cursor if resume else 0
            self.last_import_arenas = []
            self.last_write_results = []
            codec_mode = self.mode.codec_mode()
            gpa_checks = self.mode.bug9 == "fixed"

            for i in range(cursor, len(lists)):
                arena = ParseArena(lists[i], plants=self.arena_plants)
                self.last_import_arenas.append(arena)
                ctx = contexts(i)
                sink = TdImportSink(
                    td, self.catalog, is_import=True, vp_index=vp_index, gpa_checks=gpa_checks
                )
                result = md.write_list(
                    self.catalog, ctx, MD_FIELD_ID_NA, arena, sink, codec_mode,
                    skip_non_writable=True,
                )
                self.last_write_results.append(result)
                if result.status != TDX_SUCCESS:
                    migsc.interrupted_state.latch(result.status, result.ext_err_info)
                if i + 1 <= len(lists) - 1 and policy and policy.pending(i):
                    migsc.interrupted_state.cursor = i + 1
                    migsc.interrupted_state.valid = True
                    return self._finish(td, leaf, before, TDX_INTERRUPTED_RESUMABLE, "interrupted")

            if migsc.interrupted_state.status != TDX_SUCCESS:
                self.vmm_regs["rcx"] = migsc.interrupted_state.ext_err_info[0]
                self.vmm_regs["rdx"] = migsc.interrupted_state.ext_err_info[1]
                return self._finish(
                    td, leaf, before, as_fatal(migsc.interrupted_state.status), "failure"
                )

            if self.mode.bug2 == "fixed" and required_kinds is not None:
                missing = self._missing_required(td, contexts, len(lists), required_kinds, vp_index)
                if missing:
                    self.vmm_regs["rcx"] = missing[0].field_id_raw
                    self.vmm_regs["rdx"] = 0
                    return self._finish(
                        td, leaf, before, as_fatal(TDX_REQUIRED_METADATA_FIELD_MISSING), "failure"
                    )

            migsc.interrupted_state.reset()
            return self._finish(td, leaf, before, TDX_SUCCESS, "success")
        finally:
            migsc.release()

    def _missing_required(self, td, contexts, num_lists, kinds, vp_index):
        from .td import missing_required_fields

        ctx_codes = {contexts(i) for i in range(num_lists)}
        missing = []
        for ctx in sorted(ctx_codes):
            classes_present = {
                key[2]
                for key in td.import_written
                if key[0] == ctx and key[1] == (vp_index or 0)
            } | {
                item[2]
                for item in td.import_skipped
                if item[0] == ctx and item[1] == (vp_index or 0)
            }
            missing.extend(
                missing_required_fields(td, self.catalog, ctx, kinds, classes_present, vp_index)
            )
        return missing

    def tdh_import_state_immutable(
        self,
        td: TdComplex,
        bundle: Bundle,
        migsc_index: int = 0,
        policy: Optional[InterruptPolicy] = None,
        resume: bool = False,
    ) -> int:
        return self._import_lists(
            td,
            Leaf.TDH_IMPORT_STATE_IMMUTABLE,
            bundle,
            migsc_index,
            BundleType.IMMUTABLE,
            contexts=lambda i: MD_CTX_SYS if i == 0 else MD_CTX_TD,
            policy=policy,
            resume=resume,
            required_kinds={MigClass.MB},
        )

    def tdh_import_state_td(
        self,
        td: TdComplex,
        bundle: Bundle,
        migsc_index: int = 0,
        policy: Optional[InterruptPolicy] = None,
    ) -> int:
        return self._import_lists(
            td,
            Leaf.TDH_IMPORT_STATE_TD,
            bundle,
            migsc_index,
            BundleType.TD,
            contexts=lambda i: MD_CTX_TD,
            policy=policy,
            required_kinds={MigClass.ME},
        )

    def tdh_import_state_vp(
        self,
        td: TdComplex,
        vp_index: int,
        bundle: Bundle,
        migsc_index: int = 0,
        policy: Optional[InterruptPolicy] = None,
    ) -> int:
        if vp_index >= len(td.vps):
            before = td.op_state
            blocked = self._gate(td, Leaf.TDH_IMPORT_STATE_VP)
            status = blocked if blocked is not None else with_operand(
                TDX_OPERAND_INVALID, OPERAND_ID_TDVPR
            )
            return self._finish(td, Leaf.TDH_IMPORT_STATE_VP, before, status, None)
        status = self._import_lists(
            td,
            Leaf.TDH_IMPORT_STATE_VP,
            bundle,
            migsc_index,
            BundleType.VP,
            contexts=lambda i: MD_CTX_VP,
            vp_index=vp_index,
            policy=policy,
            required_kinds={MigClass.ME},
        )
        if status == TDX_SUCCESS:
            td.num_migrated_vcpus += 1
        return status

    def tdh_import_mem(self, td: TdComplex, bundle: Bundle, migsc_index: int = 0) -> int:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_IMPORT_MEM)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_IMPORT_MEM, before, blocked, None)
        migsc = self._stream(td, migsc_index)
        if migsc is None or not td.mig_dec_key_set:
            return self._finish(td, Leaf.TDH_IMPORT_MEM, before, TDX_MIGRATION_STREAM_STATE_INCORRECT, None)
        if not sept_walk_ok(td):
            return self._mark_fatal(td, Leaf.TDH_IMPORT_MEM, before)
        migsc.key = td.session_key
        status, lists = decrypt_bundle(migsc, bundle.mbmd, bundle.data)
        if status != TDX_SUCCESS:
            return self._finish(td, Leaf.TDH_IMPORT_MEM, before, status, "failure")
        gpa, token = struct.unpack("<QQ", lists[0][:16])
        td.pages[gpa] = token
        return self._finish(td, Leaf.TDH_IMPORT_MEM, before, TDX_SUCCESS, "success")

    def tdh_import_track(self, td: TdComplex, token: EpochToken) -> int:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_IMPORT_TRACK)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_IMPORT_TRACK, before, blocked, None)
        if not token.start:
            return self._finish(td, Leaf.TDH_IMPORT_TRACK, before, TDX_SUCCESS, None)
        # The only completion gate: migrated and declared vcpu counts agree.
        if td.num_migrated_vcpus != td.num_vcpus:
            return self._finish(td, Leaf.TDH_IMPORT_TRACK, before, TDX_SOME_VCPUS_NOT_MIGRATED, None)
        return self._finish(td, Leaf.TDH_IMPORT_TRACK, before, TDX_SUCCESS, "success")

    def tdh_import_commit(self, td: TdComplex) -> int:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_IMPORT_COMMIT)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_IMPORT_COMMIT, before, blocked, None)
        return self._finish(td, Leaf.TDH_IMPORT_COMMIT, before, TDX_SUCCESS, "success")

    def tdh_import_end(self, td: TdComplex) -> int:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_IMPORT_END)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_IMPORT_END, before, blocked, None)
        return self._finish(td, Leaf.TDH_IMPORT_END, before, TDX_SUCCESS, "success")

    def tdh_import_abort(self, td: TdComplex) -> int:
        before = td.op_state
        blocked = self._gate(td, Leaf.TDH_IMPORT_ABORT)
        if blocked is not None:
            return self._finish(td, Leaf.TDH_IMPORT_ABORT, before, blocked, None)
        return self._finish(td, Leaf.TDH_IMPORT_ABORT, before, TDX_SUCCESS, "success")

    # -- module configuration ---------------------------------------------------

    def tdh_sys_config(self, hkid: int, tdmr_entries: list[int]) -> int:
        return sys_config_reserve_hkid(self.kot, hkid, tdmr_entries, self.mode.bug8)

    def md_next_cpuid_field(self, field_id_raw: int) -> int:
        """Next valid CPUID lookup position, honoring the bug4 toggle."""
        return next_cpuid_entry(self.cpuid, field_id_raw, self.mode.bug4)
