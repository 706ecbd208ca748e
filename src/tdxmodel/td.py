"""TD aggregate state: attributes, controls, event filters, KOT, and bindings.

Each operation that a finding touches exists in vulnerable and fixed variants
selected by a bool argument named for what it switches (True is the pre-fix
code): the vulnerable variant mutates state before all validation has passed
(or never rolls back), the fixed variant is transactional; the TD
configuration's fixed transaction is TdxModule.tdh_mng_init's rollback.
Metadata lives in flat per-scope stores keyed by field name; the TD fields
the rest of the model consults by name (attributes, xfam, the session key,
...) are typed properties over the same store.
"""

from __future__ import annotations

import bisect
import hashlib
import marshal
from dataclasses import dataclass, field as dc_field, replace
from enum import Enum
from typing import Optional

from .catalog import FieldCatalog, FieldEntry, MigClass, bundled_catalog
from .envelope import MigrationSessionKey
from .md_codec import MD_CTX_SYS, MD_CTX_TD, MD_CTX_VP
from .states import LifecycleState, OpState
from .status import (
    OPERAND_ID_ATTRIBUTES,
    OPERAND_ID_EPTP_CONTROLS,
    OPERAND_ID_EXEC_CONTROLS,
    OPERAND_ID_METADATA_FIELD,
    OPERAND_ID_RCX,
    OPERAND_ID_TSC_FREQUENCY,
    OPERAND_ID_XFAM,
    TDX_EVENT_FILTER_INVALID,
    TDX_EVENT_FILTER_ORDER_INVALID,
    TDX_HKID_NOT_FREE,
    TDX_METADATA_FIELD_VALUE_NOT_VALID,
    TDX_OPERAND_INVALID,
    TDX_SUCCESS,
    with_operand,
)

U64 = 0xFFFFFFFFFFFFFFFF

# Attribute bitmap flags (TUD / SEC / OTHER groups).
ATTR_DEBUG = 1 << 0
ATTR_SEPT_VE_DISABLE = 1 << 28
ATTR_MIGRATABLE = 1 << 29
ATTR_PERFMON = 1 << 63

# xfam must request x87 and SSE and stay within the supported feature bits.
XFAM_FIXED1 = 0x3
XFAM_ALLOWED = 0x7FFFF

VIRT_TSC_FREQUENCY_MIN = 4
VIRT_TSC_FREQUENCY_MAX = 400
MIN_HP_LOCK_TIMEOUT_USEC = 10_000
MAX_HP_LOCK_TIMEOUT_USEC = 100_000_000
MAX_EXPORT_COUNT = 0x7FFFFFFF
MAX_VCPUS_PER_TD = 576
MAX_EVENT_FILTERS = 32
XCR0_X87 = 1 << 0

# EPT page-walk levels as encoded in the eptp controls (levels minus one).
LVL_PML4 = 3
LVL_PML5 = 4

TDMR_ENTRY_ALIGNMENT = 512
DEFAULT_KOT_SIZE = 64

BINDING_SLOT_BITS = 12
BINDING_PAGE_BITS = 40


def verify_td_attributes(attributes: int, importing: bool) -> bool:
    """A migratable TD cannot be a debug or perfmon TD; imports must be migratable."""
    if attributes & ATTR_MIGRATABLE:
        return not attributes & (ATTR_DEBUG | ATTR_PERFMON)
    return not importing


def check_xfam(xfam: int) -> bool:
    return (xfam & XFAM_FIXED1) == XFAM_FIXED1 and (xfam & ~XFAM_ALLOWED) == 0


# The private-GPA rule: a GPA is non-negative and below the shared bit of the
# guest width exactly when `gpa & PRIVATE_GPA_BITS[not gpaw]` is 0; each mask
# holds every bit from the shared bit up, all of which a negative GPA has set,
# and any non-zero GPAW selects the wider width.  A page's GPA is also 4 KB-
# aligned: PAGE_GPA_BITS adds the offset bits, for one inline test per page.
PRIVATE_GPA_BITS = (-(1 << 51), -(1 << 47))
PAGE_GPA_BITS = tuple(bits | 0xFFF for bits in PRIVATE_GPA_BITS)


def check_gpa_validity(gpa: int, gpaw: bool) -> bool:
    """A metadata GPA is private: it fits the guest width with the shared bit clear."""
    return not gpa & PRIVATE_GPA_BITS[not gpaw]


class _Packed:
    """A record packed into 64 bits by its class's LAYOUT: one (field, shift, width)
    row per bit range, low bits first.  Both ways, each field is cut to its width."""

    @property
    def raw(self) -> int:
        raw = 0
        for name, shift, width in self.LAYOUT:
            raw |= (getattr(self, name) & ((1 << width) - 1)) << shift
        return raw

    @classmethod
    def from_raw(cls, raw: int):
        return cls(**{name: raw >> shift & (1 << width) - 1 for name, shift, width in cls.LAYOUT})


@dataclass
class EptpControls(_Packed):
    """Extended-page-table pointer fields packed into a 64-bit value."""

    ept_ps_mt: int = 6          # paging-structure memory type (WB)
    ept_pwl: int = LVL_PML4     # page-walk level, levels minus one
    enable_ad_bits: int = 0
    enable_sss_control: int = 0
    base_pa: int = 0            # 4KB page number of the root structure

    LAYOUT = (("ept_ps_mt", 0, 3), ("ept_pwl", 3, 3), ("enable_ad_bits", 6, 1),
              ("enable_sss_control", 7, 1), ("base_pa", 12, 40))


@dataclass
class EventFilter(_Packed):
    """One allow-list entry for guest perfmon event selection."""

    event_select: int = 0
    umask: int = 0
    negative: int = 0
    umask_mask: int = 0xFFFF
    reserved_0: int = 0

    LAYOUT = (("event_select", 0, 8), ("umask", 8, 16), ("negative", 24, 1),
              ("umask_mask", 32, 16), ("reserved_0", 48, 16))

    @property
    def internal(self) -> int:
        """The stored comparison key: event_select in the low byte, umask above."""
        return (self.event_select & 0xFF) | ((self.umask & 0xFF) << 8)

    @property
    def legal(self) -> bool:
        return not (
            self.reserved_0 or self.umask > 0xFF or self.negative or self.umask_mask != 0xFFFF
        )


class KotState(Enum):
    HKID_FREE = "HKID_FREE"
    HKID_RESERVED = "HKID_RESERVED"
    HKID_ASSIGNED = "HKID_ASSIGNED"


class Kot:
    """Key ownership table of configurable size: one KotState per HKID."""

    def __init__(self, size: int = DEFAULT_KOT_SIZE):
        self.states = [KotState.HKID_FREE] * size

    def __len__(self) -> int:
        return len(self.states)

    def free_count(self) -> int:
        return self.states.count(KotState.HKID_FREE)

    def free_hkids(self) -> list[int]:
        return [i for i, state in enumerate(self.states) if state is KotState.HKID_FREE]

    def claim(self, hkid: int, state: KotState) -> bool:
        """Move a free HKID to ``state``; False, with the table unchanged, for any other."""
        if not 0 <= hkid < len(self.states) or self.states[hkid] is not KotState.HKID_FREE:
            return False
        self.states[hkid] = state
        return True


def sys_config_reserve_hkid(kot: Kot, hkid: int, tdmr_entries: list[int],
                            leak_on_error: bool) -> int:
    """Reserve the module's HKID, then validate the TDMR entry addresses: each is
    aligned and within 64 bits.

    The pre-fix error path (leak_on_error) leaves the reservation in place,
    so repeated failing calls drain the table.  The fixed variant restores
    HKID_FREE before returning the error.
    """
    if not kot.claim(hkid, KotState.HKID_RESERVED):
        return with_operand(TDX_HKID_NOT_FREE, OPERAND_ID_RCX)
    for address in tdmr_entries:
        if not 0 <= address <= U64 or address % TDMR_ENTRY_ALIGNMENT:
            if not leak_on_error:
                kot.states[hkid] = KotState.HKID_FREE
            return with_operand(TDX_OPERAND_INVALID, OPERAND_ID_RCX)
    return TDX_SUCCESS


def make_binding_handle(slot: int, tdr_page: int, servtd_uuid_q0: int) -> int:
    """Pack (slot, tdr_page) and blind the handle with the service TD's uuid."""
    if slot >= (1 << BINDING_SLOT_BITS):
        raise ValueError("binding slot exceeds 12 bits")
    if tdr_page >= (1 << BINDING_PAGE_BITS):
        raise ValueError("tdr page exceeds 40 bits")
    packed = slot | (tdr_page << BINDING_SLOT_BITS)
    return (packed + servtd_uuid_q0) & U64


def break_binding_handle(handle: int, servtd_uuid_q0: int) -> tuple[int, int]:
    """Invert make_binding_handle; returns (tdr_page, slot)."""
    raw = (handle - servtd_uuid_q0) & U64
    slot = raw & ((1 << BINDING_SLOT_BITS) - 1)
    tdr_page = (raw >> BINDING_SLOT_BITS) & ((1 << BINDING_PAGE_BITS) - 1)
    return tdr_page, slot


@dataclass
class VcpuState:
    store: dict = dc_field(default_factory=dict)


@dataclass
class TdParams:
    """Host-supplied initialization parameters for the build path."""

    attributes: int = 0
    xfam: int = XFAM_FIXED1
    gpaw: bool = False
    ept_pwl: int = LVL_PML4
    tsc_frequency: int = 100
    hp_lock_timeout: int = 1_000_000


# The TD fields the model also reads by name.  td_store is their only home,
# each sized as its catalog entry; each has a typed property.
TYPED_TD_FIELDS = ("ATTRIBUTES", "XFAM", "GPAW", "EPTP", "NUM_VCPUS", "TSC_FREQUENCY",
                   "HP_LOCK_TIMEOUT", "EXPORT_COUNT", "TD_UUID", "MIG_DEC_KEY")


def _td_field(name: str) -> property:
    """A typed name for the one quadword of a TD field kept in td_store."""

    def get(td: "TdComplex") -> int:
        return td.td_store[name][0]

    def put(td: "TdComplex", value: int) -> None:
        td.td_store[name][0] = value

    return property(get, put)


class TdComplex:
    """Aggregate TD root, control-structure, and per-VP state."""

    MIN_TDCX_PAGES = 6

    def __init__(self, tdr_page: int, hkid: int):
        self.tdr_page = tdr_page
        self.hkid = hkid
        self.lifecycle = LifecycleState.TD_HKID_ASSIGNED
        self.op_state = OpState.UNINITIALIZED
        self.sept_root_pa = 0
        self.num_migrated_vcpus = 0
        self._mig_dec_key_written: set[int] = set()
        self._session_key: Optional[MigrationSessionKey] = None
        self._session_key_from: list[int] = []
        self.event_filters: list[int] = [0] * MAX_EVENT_FILTERS
        self.event_filters_num = 0
        self.servtd_bindings: dict[int, tuple] = {}  # slot -> bound service TD's uuid
        self.vps: list[VcpuState] = []
        self.migsc: list = []
        self.sys_store: dict = {}
        catalog = bundled_catalog()
        self.td_store: dict = {name: [0] * catalog.by_name(MD_CTX_TD, name).code_span
                               for name in TYPED_TD_FIELDS}
        self.pages: dict[int, int] = {}
        self.measurement = b""
        self.tdcx_count = 0
        self.fatal = False
        self.locked = False
        # The running import's ledger: ledger_key -> positions written; a
        # skipped field's entry is present with none.
        self.import_written: dict = {}
        self.trace: list = []

    # -- typed TD fields over td_store -------------------------------------

    attributes = _td_field("ATTRIBUTES")
    xfam = _td_field("XFAM")
    gpaw = _td_field("GPAW")
    eptp_raw = _td_field("EPTP")
    num_vcpus = _td_field("NUM_VCPUS")
    tsc_frequency = _td_field("TSC_FREQUENCY")
    hp_lock_timeout = _td_field("HP_LOCK_TIMEOUT")
    export_count = _td_field("EXPORT_COUNT")
    td_uuid = property(lambda td: td.td_store["TD_UUID"])  # the stored list: a store into it writes

    # -- generic metadata store ------------------------------------------

    def _scope_store(self, entry: FieldEntry, vp_index: Optional[int]) -> dict:
        """The store that holds the entry: the VP's, the TD's or the system's."""
        if entry.context_code == MD_CTX_VP:
            return self.vps[vp_index].store
        return self.sys_store if entry.context_code == MD_CTX_SYS else self.td_store

    def _scope_values(self, entry: FieldEntry, vp_index: Optional[int]) -> list[int]:
        """The entry's stored values to write into, made zero on first use."""
        store = self._scope_store(entry, vp_index)
        return store.get(entry.name) or store.setdefault(entry.name, [0] * entry.code_span)

    def read_values(self, entry: FieldEntry, vp_index: Optional[int] = None) -> list[int]:
        """The entry's stored values, or zeros for one never stored; a read stores nothing."""
        return self._scope_store(entry, vp_index).get(entry.name) or [0] * entry.code_span

    def read_element(self, entry: FieldEntry, position: int, vp_index: Optional[int] = None) -> int:
        return self.read_values(entry, vp_index)[position]

    def write_element_raw(self, entry: FieldEntry, position: int, value: int,
                          vp_index: Optional[int] = None) -> None:
        """Store a value with no special handling."""
        self.store(entry, position, [value & U64], vp_index)

    def store(self, entry: FieldEntry, start: int, values: list[int],
              vp_index: Optional[int] = None, ledger: Optional[set[int]] = None) -> None:
        """Store ``values`` from position ``start``: the one store that marks positions written.

        They are marked in ``ledger``, an import's, if one is given, and a
        MIG_DEC_KEY quadword counts as written.
        """
        stored = self._scope_values(entry, vp_index)
        written = range(start, start + len(values))
        stored[start : written.stop] = values
        if ledger is not None:
            ledger.update(written)
        if stored is self.td_store["MIG_DEC_KEY"]:
            self._mig_dec_key_written.update(written)

    @property
    def mig_dec_key_set(self) -> bool:
        return len(self._mig_dec_key_written) == 4

    @property
    def session_key(self) -> MigrationSessionKey:
        """The session key of the current MIG_DEC_KEY quadwords.

        Built once per key value and compared against the quadwords on every
        use, so a rekey between two bundles takes effect on the next bundle.
        """
        key = self.td_store["MIG_DEC_KEY"]
        if self._session_key is None or self._session_key_from != key:
            self._session_key = MigrationSessionKey.from_quadwords(key)
            self._session_key_from = list(key)
        return self._session_key

    # -- import accounting -------------------------------------------------

    @staticmethod
    def ledger_key(entry: FieldEntry, vp_index: Optional[int]) -> tuple[int, int, int, int]:
        """An entry's import_written key; vp_index None and 0 share one ledger."""
        return (entry.context_code, vp_index or 0, entry.class_code, entry.field_code)

    def missing_required(self, catalog: FieldCatalog, context_codes: set[int],
                         kinds: set[MigClass], vp_index: Optional[int]) -> list[FieldEntry]:
        """Required entries of each context, in context order, the import has not written in full.

        A class any of whose fields was written or skipped is present, which
        makes its MBO entries required too.
        """
        written = self.import_written
        missing = []
        for ctx in sorted(context_codes):
            present = {key[2] for key in written if key[:2] == (ctx, vp_index or 0)}
            missing += [e for e in catalog.required_import_entries(ctx, kinds, present)
                        if len(written.get(self.ledger_key(e, vp_index), ())) != e.code_span]
        return missing

    # -- snapshot ----------------------------------------------------------

    def snapshot(self) -> str:
        lines = [
            f"tdr_pa: {hex(self.tdr_page << 12)} hkid: {hex(self.hkid)}",
            f"lifecycle: {self.lifecycle.value}",
            f"op_state: {self.op_state.value}",
            f"attributes: {hex(self.attributes)}"
            + (" (debug)" if self.attributes & ATTR_DEBUG else "")
            + (" (migratable)" if self.attributes & ATTR_MIGRATABLE else ""),
            f"xfam: {hex(self.xfam)}",
            f"gpaw: {int(self.gpaw)} eptp: {hex(self.eptp_raw)}",
            f"num_vcpus: {self.num_vcpus} num_migrated_vcpus: {self.num_migrated_vcpus}",
            f"tsc_frequency: {self.tsc_frequency} hp_lock_timeout: {self.hp_lock_timeout}",
            f"export_count: {self.export_count}",
            f"td_uuid: {'-'.join(f'{q:016x}' for q in self.td_uuid)}",
            f"event_filters_num: {self.event_filters_num}",
            f"fatal: {int(self.fatal)}",
        ]
        return "\n".join(lines)

    def digest(self) -> dict[str, str]:
        """A digest of each store by its path, such as ``tds[0x102].td_store``; TdxModule's too."""
        stores = {}
        for name, value in _state(self).items():
            if type(value) is dict and value and all(hasattr(v, "digest") for v in value.values()):
                for page, td in value.items():  # the TDs, each by its TDR page
                    stores.update({f"{name}[{page:#x}].{k}": d for k, d in td.digest().items()})
            else:  # marshal's version 2 writes no back-references: equal values, equal bytes
                stores[name] = hashlib.sha1(marshal.dumps(_canonical(value), 2)).hexdigest()
        return stores


# What TdComplex.digest leaves out: class -> attribute -> why it is not state.
NOT_STATE = {
    "TdxModule": {"last": "a log", "catalog": "a table all modules share", "matrix": "the same",
                  "_edges": "the matrix, compiled", "mode": "fixed configuration",
                  "start_import": "set from mode", "_codec_mode": "set from mode"},
    "TdComplex": {"trace": "a log", "_session_key": "a cache of td_store's MIG_DEC_KEY",
                  "_session_key_from": "the MIG_DEC_KEY that cache was built from"},
    "CpuidLookup": {"access_log": "a log"}, "MigrationSessionKey": {"aead": "a cipher of the key"},
}
_PLAIN = {int, bool, str, bytes, type(None)}


def _state(obj) -> dict:
    """The attributes (or slots) of ``obj`` but the NOT_STATE ones of its class or a base."""
    skip = {name for cls in type(obj).__mro__ for name in NOT_STATE.get(cls.__name__, ())}
    return {name: getattr(obj, name) for name in getattr(obj, "__slots__", None) or vars(obj)
            if name not in skip}


def _canonical(value):
    """``value`` as plain values and lists: sets and dicts sorted, enums named, objects' state."""
    if type(value) in _PLAIN:
        return value
    if isinstance(value, Enum):
        return value.name
    if isinstance(value, dict):  # plain keys, and unique: the items sort by key
        return [(key, _canonical(v)) for key, v in sorted(value.items())]
    if isinstance(value, set):  # of plain members
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return value if {*map(type, value)} <= _PLAIN else [_canonical(v) for v in value]
    getstate = getattr(value, "getstate", None)  # a random.Random's
    return getstate() if getstate else (type(value).__name__, _canonical(_state(value)))


# The rule of each TD-configuration field, by name: check(value, gpaw,
# importing) and the operand id a build refusal names.  The build path, the
# import sink and tdh_mng_wr all admit these fields through admit_td_config.
TD_CONFIG_RULES = {
    "ATTRIBUTES": (lambda v, gpaw, importing: 0 <= v <= U64
                   and verify_td_attributes(v, importing), OPERAND_ID_ATTRIBUTES),
    "XFAM": (lambda v, *_: check_xfam(v), OPERAND_ID_XFAM),
    "GPAW": (lambda v, *_: v in (0, 1), OPERAND_ID_EXEC_CONTROLS),  # TD_PARAMS' one GPAW bit
    # The walk is four or five levels deep, and five where GPAW widens the GPA.
    "EPTP": (lambda v, gpaw, _: 0 <= v <= U64 and (LVL_PML5 if gpaw else LVL_PML4)
             <= EptpControls.from_raw(v).ept_pwl <= LVL_PML5, OPERAND_ID_EPTP_CONTROLS),
    "NUM_VCPUS": (lambda v, *_: 0 < v <= MAX_VCPUS_PER_TD, OPERAND_ID_METADATA_FIELD),
    "TSC_FREQUENCY": (lambda v, *_: VIRT_TSC_FREQUENCY_MIN <= v <= VIRT_TSC_FREQUENCY_MAX,
                      OPERAND_ID_TSC_FREQUENCY),
    "HP_LOCK_TIMEOUT": (lambda v, *_: MIN_HP_LOCK_TIMEOUT_USEC <= v <= MAX_HP_LOCK_TIMEOUT_USEC,
                        OPERAND_ID_METADATA_FIELD),
    "XCR0": (lambda v, *_: bool(v & XCR0_X87), OPERAND_ID_METADATA_FIELD),
}


def admit_td_config(td: TdComplex, name: str, value: int, gpaw: bool,
                    importing: bool) -> Optional[int]:
    """A TD field's value as stored, or None if its TD_CONFIG_RULES rule refuses it.

    A field with no rule is stored as given; EPTP is re-rooted at the TD's SEPT page.
    """
    rule = TD_CONFIG_RULES.get(name)
    if rule is not None and not rule[0](value, gpaw, importing):
        return None
    if name == "EPTP":
        return replace(EptpControls.from_raw(value), base_pa=td.sept_root_pa).raw
    return value


def sept_walk_ok(td: TdComplex) -> bool:
    """Entry precondition for any secure page-table walk.

    A zeroed controls value walks from physical page 0 at level 0, which
    dereferences uninitialized private memory; the model surfaces that as the
    machine-check analog instead of crashing.  The walk level and root page
    are read straight from the packed value (EptpControls' layout).
    """
    raw = td.td_store["EPTP"][0]  # not via eptp_raw: this runs on every per-page leaf
    return ((raw >> 3) & 0x7) in (LVL_PML4, LVL_PML5) and (raw >> 12) & ((1 << 40) - 1) != 0


def read_and_set_td_configurations(td: TdComplex, params: TdParams) -> int:
    """Admit each host-supplied TD field through TD_CONFIG_RULES, in order, and store it.

    NUM_VCPUS is zeroed first, and each field is stored as soon as its own
    check passes, so a refusal (for example xfam) leaves the earlier stores in
    place: v1's pre-fix write-before-check.  The fixed init's transaction is
    TdxModule.tdh_mng_init's rollback of td_store, not anything here.
    """
    td.num_vcpus = 0
    for name, value in (
        ("ATTRIBUTES", params.attributes),
        ("XFAM", params.xfam),
        # A walk level wider than its 3 bits packs as -1, which the EPTP rule refuses.
        ("EPTP", EptpControls(ept_pwl=params.ept_pwl).raw if 0 <= params.ept_pwl <= 7 else -1),
        ("GPAW", int(params.gpaw)),  # after EPTP, whose check reads it
        ("TSC_FREQUENCY", params.tsc_frequency),
        ("HP_LOCK_TIMEOUT", params.hp_lock_timeout),
    ):
        value = admit_td_config(td, name, value, params.gpaw, importing=False)
        if value is None:
            return with_operand(TDX_OPERAND_INVALID, TD_CONFIG_RULES[name][1])
        td.td_store[name][0] = value
    return TDX_SUCCESS


def init_event_filters(
    td: TdComplex,
    event_filtering: bool,
    count: int,
    entries: list[int],
    count_first: bool,
) -> int:
    """Install the guest perfmon event allow list from TD_PARAMS' 32-entry array.

    An entry past the end of ``entries`` reads as zero, an illegal filter, as is one
    outside 64 bits.  The vulnerable variant (count_first) assigns the filter count
    before the validation loop and bails out mid-array on the first bad entry, leaving
    stale, unsorted, or never-initialized slots covered by the count.  The fixed
    variant validates into a scratch buffer and zeroes everything on failure.
    """
    if not (event_filtering and td.attributes & ATTR_PERFMON):
        return TDX_SUCCESS
    if not 0 <= count <= MAX_EVENT_FILTERS:
        return with_operand(TDX_EVENT_FILTER_INVALID, 0)
    entries = list(entries[:count]) + [0] * count
    if count_first:
        td.event_filters_num = count
    filters = td.event_filters if count_first else [0] * MAX_EVENT_FILTERS
    for i in range(count):
        entry = EventFilter.from_raw(entries[i])
        if not (0 <= entries[i] <= U64 and entry.legal):
            status = with_operand(TDX_EVENT_FILTER_INVALID, i)
        elif i != 0 and filters[i - 1] >= entry.internal:
            status = with_operand(TDX_EVENT_FILTER_ORDER_INVALID, i)
        else:
            filters[i] = entry.internal
            continue
        if not count_first:
            td.event_filters, td.event_filters_num = [0] * MAX_EVENT_FILTERS, 0
        return status
    td.event_filters, td.event_filters_num = filters, count
    return TDX_SUCCESS


def audit_event_filters(td: TdComplex) -> dict:
    """Report whether the live filter array is internally consistent."""
    live = td.event_filters[: td.event_filters_num]
    return {
        "count": td.event_filters_num,
        "sorted": all(live[i - 1] < live[i] for i in range(1, len(live))),
        "zero_entries": sum(1 for v in live if v == 0 and td.event_filters_num > 0),
    }


def is_event_allowed(td: TdComplex, event_select: int, umask: int) -> bool:
    """Binary search of the sorted allow list for an exact (event, umask) match."""
    if td.event_filters_num == 0:
        return False
    key = EventFilter(event_select=event_select, umask=umask).internal
    live = td.event_filters[: td.event_filters_num]
    index = bisect.bisect_left(live, key)
    return index < len(live) and live[index] == key


class TdImportSink:
    """Metadata sink for one TD scope in one import operation; it keeps no state between calls.

    Applies the per-field special write handling (verification on the way in,
    through TD_CONFIG_RULES for the TD-configuration fields) and records each
    written element and skipped field in the TD's import_written ledger.
    ``gpa_checks`` is bug-9's switch: False is the pre-fix code, which stores
    private-GPA fields without validity checks.

    The sink takes a field run of one catalog entry (``write_fields``) at a
    time; ``write_field`` is a run of one.  Each call works out the entry's
    checks, kept bits and mask, and stores through ``TdComplex.store``, which
    marks the positions in the ledger.  An unchecked run is stored at once:
    ``v & mask``, plus the stored bits outside the mask unless the entry has
    special write handling.  A checked entry is checked and stored field by
    field; a refused field ends the run.  A run of no values stores nothing.
    """

    def __init__(
        self,
        td: TdComplex,
        vp_index: Optional[int] = None,
        *,
        gpa_checks: bool,
    ):
        self.td = td
        self.vp_index = vp_index
        self.gpa_checks = gpa_checks

    def write_field(self, entry: FieldEntry, field_index: int, values: list[int],
                    combined_mask: int) -> int:
        return self.write_fields(entry, field_index, values, combined_mask)[0]

    def write_fields(self, entry: FieldEntry, first: int, values: list[int],
                     combined_mask: int) -> tuple[int, int]:
        td, num_of_elem = self.td, entry.num_of_elem
        gpas = entry.gpa_private and self.gpa_checks
        config = entry.special_wr_handling and entry.name in TD_CONFIG_RULES
        # A field with special write handling is stored as masked (as admitted,
        # where it has a rule); any other keeps its stored bits outside the mask.
        keep = 0 if entry.special_wr_handling else ~combined_mask & U64
        step = num_of_elem if gpas or config else max(len(values), 1)  # checked: field by field
        for at in range(0, len(values), step):
            part = [v & combined_mask for v in values[at : at + step]]
            if config:  # the value TD_CONFIG_RULES admits is what gets stored
                part[0] = admit_td_config(td, entry.name, part[0], td.gpaw, importing=True)
            if part[0] is None or gpas and not all(check_gpa_validity(v, td.gpaw) for v in part):
                return TDX_METADATA_FIELD_VALUE_NOT_VALID, first + at // num_of_elem
            start = first * num_of_elem + at
            if keep:
                stored = td.read_values(entry, self.vp_index)[start : start + len(part)]
                part = [v | (s & keep) for v, s in zip(part, stored)]
            td.store(entry, start, part, self.vp_index, self._ledger(entry))
        return TDX_SUCCESS, first + -(-len(values) // num_of_elem)

    def _ledger(self, entry: FieldEntry) -> set[int]:
        """The entry's positions this import has written: made present, with none, on first use."""
        return self.td.import_written.setdefault(self.td.ledger_key(entry, self.vp_index), set())

    def record_skip(self, entry: FieldEntry, field_index: int) -> None:
        """A skipped field makes its entry present in the ledger with nothing written."""
        self._ledger(entry)


class TdExportSource:
    """Read-side adapter handing export-masked values to the serializer."""

    def __init__(self, td: TdComplex, vp_index: Optional[int] = None,
                 sys_store: Optional[dict] = None):
        self.td = td
        self.vp_index = vp_index
        self.sys_store = sys_store

    def read_field(self, entry: FieldEntry, field_index: int, count: int = 1) -> list[int]:
        """The values of ``count`` consecutive fields from ``field_index``, export-masked."""
        if entry.context_code == MD_CTX_SYS and self.sys_store is not None:
            values = self.sys_store.get(entry.name, [0] * entry.code_span)
        else:
            values = self.td.read_values(entry, self.vp_index)
        base = field_index * entry.num_of_elem
        mask = entry.export_mask
        return [v & mask for v in values[base : base + count * entry.num_of_elem]]

