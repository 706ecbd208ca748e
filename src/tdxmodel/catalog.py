"""Field lookup tables: per-context metadata entries and the CPUID lookup array.

The shipped catalog is a curated desk-scale subset loaded from a versioned
data file; every field a reproduced finding touches is present with its
published masks and flags.  The data file keeps all 21 published columns of
each row; an entry keeps only the columns the model reads.  Entries within a
class are ordered by field code, which the next-entry iteration relies on.

Each entry's raw field id is decoded once, when the entry is built, and the
catalog indexes every code an entry covers, so a lookup is one dict probe and
walks never decode catalog ids.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from enum import Enum
from importlib import resources
from typing import Optional

from .md_codec import (
    MD_CTX_SYS,
    MD_CTX_TD,
    MD_CTX_VP,
    MD_FIELD_ID_NA,
    MdFieldId,
    admit_field_id,
    decode_field_id,
    make_sequence_header,
)

CONTEXT_NAMES = {"sys": MD_CTX_SYS, "td": MD_CTX_TD, "vp": MD_CTX_VP}
CONTEXT_CODES = {code: name for name, code in CONTEXT_NAMES.items()}

# Entry attribute bits (address-kind flags checked on metadata writes).
ATTR_GPA = 1 << 1
ATTR_PRIVATE = 1 << 2


class MigClass(Enum):
    NONE = "NONE"
    MB = "MB"      # mandatory, before memory (immutable bundle)
    ME = "ME"      # mandatory, end of blackout (mutable bundles)
    MBO = "MBO"    # mandatory when its class is present, order bound
    CB = "CB"      # conditional, before memory


@dataclass(frozen=True)
class FieldEntry:
    context_code: int
    name: str
    field_id_raw: int
    num_of_fields: int
    num_of_elem: int
    attributes: int
    prod_rd_mask: int
    prod_wr_mask: int
    dbg_rd_mask: int
    dbg_wr_mask: int
    migtd_rd_mask: int
    migtd_wr_mask: int
    export_mask: int
    import_mask: int
    special_wr_handling: bool
    mig_export: MigClass
    mig_import: MigClass
    # Set once, in __post_init__: the codes decoded from field_id_raw, field 0's
    # canonical id, the private-GPA flag, the number of field codes covered and
    # the import flag.  Derived, so they take no part in equality, hashing or repr.
    class_code: int = dc_field(init=False, compare=False, repr=False)
    field_code: int = dc_field(init=False, compare=False, repr=False)
    first_field_id: int = dc_field(init=False, compare=False, repr=False)
    gpa_private: bool = dc_field(init=False, compare=False, repr=False)
    code_span: int = dc_field(init=False, compare=False, repr=False)
    importable: bool = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        fid = decode_field_id(self.field_id_raw)
        object.__setattr__(self, "class_code", fid.class_code)
        object.__setattr__(self, "field_code", fid.field_code)
        first = make_sequence_header(
            self.context_code, fid.class_code, fid.field_code, num_elements=self.num_of_elem
        )
        object.__setattr__(self, "first_field_id", first)
        private_gpa = ATTR_GPA | ATTR_PRIVATE
        object.__setattr__(self, "gpa_private", self.attributes & private_gpa == private_gpa)
        object.__setattr__(self, "code_span", self.num_of_fields * self.num_of_elem)
        object.__setattr__(self, "importable", self.mig_import is not MigClass.NONE)

    @property
    def exportable(self) -> bool:
        return self.mig_export is not MigClass.NONE and self.export_mask != 0

    def covers(self, field_code: int) -> bool:
        return self.field_code <= field_code < self.field_code + self.code_span

    def field_index_of(self, field_code: int) -> int:
        return (field_code - self.field_code) // self.num_of_elem

    def field_id_for(self, field_index: int) -> int:
        """Canonical raw id addressing one field of this entry."""
        return self.first_field_id + field_index * self.num_of_elem


def _parse_line(line: str) -> FieldEntry:
    parts = line.split()
    if len(parts) != 21:
        raise ValueError(f"catalog line has {len(parts)} columns, expected 21: {line!r}")
    ctx = CONTEXT_NAMES[parts[0]]
    return FieldEntry(
        context_code=ctx,
        name=parts[1],
        field_id_raw=int(parts[2], 16),
        num_of_fields=int(parts[3]),
        num_of_elem=int(parts[4]),
        attributes=int(parts[6], 16),
        prod_rd_mask=int(parts[7], 16),
        prod_wr_mask=int(parts[8], 16),
        dbg_rd_mask=int(parts[9], 16),
        dbg_wr_mask=int(parts[10], 16),
        migtd_rd_mask=int(parts[13], 16),
        migtd_wr_mask=int(parts[14], 16),
        export_mask=int(parts[15], 16),
        import_mask=int(parts[16], 16),
        special_wr_handling=parts[18] == "1",
        mig_export=MigClass(parts[19]),
        mig_import=MigClass(parts[20]),
    )


class FieldCatalog:
    """Immutable after load; freely shared between codec and engine."""

    def __init__(self, entries: list[FieldEntry]):
        self._by_context: dict[int, list[FieldEntry]] = {}
        for entry in entries:
            self._by_context.setdefault(entry.context_code, []).append(entry)
        self._validate()
        self._by_name = {(e.context_code, e.name): e for e in entries}
        # Each (context, class, field) code an entry covers; _validate refused
        # overlaps, so no code names two entries.
        self._by_code = {(e.context_code, e.class_code, code): e for e in entries
                         for code in range(e.field_code, e.field_code + e.code_span)}
        # Each entry's successor in its context, keyed by its unique (class,
        # field) position: no search that compares whole entries.
        self._next = {(ctx, e.class_code, e.field_code): after
                      for ctx, run in self._by_context.items()
                      for e, after in zip(run, [*run[1:], None])}
        if len(self._by_name) != len(entries):
            raise ValueError("catalog names a field twice in one context")

    @classmethod
    def load(cls, text: Optional[str] = None) -> "FieldCatalog":
        if text is None:
            text = resources.files("tdxmodel.data").joinpath("field_catalog.txt").read_text()
        entries = [
            _parse_line(line)
            for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")
        ]
        return cls(entries)

    def _validate(self) -> None:
        for ctx, entries in self._by_context.items():
            previous = None
            for entry in entries:
                key = (entry.class_code, entry.field_code)
                if previous is not None:
                    if key <= (previous.class_code, previous.field_code):
                        raise ValueError(f"catalog not ordered at {entry.name}")
                    if entry.class_code == previous.class_code:
                        prev_end = previous.field_code + previous.code_span
                        if entry.field_code < prev_end:
                            raise ValueError(f"catalog ranges overlap at {entry.name}")
                previous = entry

    def entries_for(self, context_code: int) -> list[FieldEntry]:
        return list(self._by_context.get(context_code, ()))

    def by_name(self, context_code: int, name: str) -> FieldEntry:
        return self._by_name[(context_code, name)]

    def find_entry(self, context_code: int, fid: MdFieldId) -> Optional[FieldEntry]:
        """The context's entry covering the id's (class_code, field_code), by one index lookup."""
        return self._by_code.get((context_code, fid.class_code, fid.field_code))

    def next_entry_after(self, context_code: int, entry: FieldEntry) -> Optional[FieldEntry]:
        return self._next[(context_code, entry.class_code, entry.field_code)]

    def required_import_entries(
        self, context_code: int, kinds: set[MigClass], classes_present: set[int] = frozenset()
    ) -> list[FieldEntry]:
        """The mandatory-on-import set a completed import is checked against."""
        out = []
        for entry in self._by_context.get(context_code, ()):
            if entry.mig_import in kinds:
                out.append(entry)
            elif entry.mig_import is MigClass.MBO and entry.class_code in classes_present:
                out.append(entry)
        return out


@functools.cache
def bundled_catalog() -> FieldCatalog:
    """The packaged catalog, parsed on first use and then shared by every module."""
    return FieldCatalog.load()


# --- CPUID lookup array -----------------------------------------------------

MAX_NUM_CPUID_LOOKUP = 79
CPUID_CLASS_CODE = 0x0F


@dataclass(frozen=True)
class CpuidLookupEntry:
    leaf: int
    subleaf: int
    valid_entry: bool


# 78 synthetic rows (valid flag alternating) plus the published last row,
# built once: the rows are frozen, so every lookup shares this tuple.  A row
# keeps only what the model reads: its (leaf, subleaf) key and its valid flag.
_CPUID_TABLE = tuple(
    CpuidLookupEntry(leaf=0x40000000 + i, subleaf=0, valid_entry=(i % 2 == 1))
    for i in range(MAX_NUM_CPUID_LOOKUP - 1)
) + (CpuidLookupEntry(leaf=0x80000002, subleaf=0xFFFFFFFF, valid_entry=True),)


class CpuidLookup:
    """Fixed-size lookup array with an instrumented index log.

    The rows are one module-level tuple that every lookup shares; only the
    access log belongs to the instance.  Reads past the table return a
    deterministic sentinel entry whose valid flag is set, standing in for
    whatever adjacent memory happens to hold, so the pre-fix search loop
    terminates after exactly one out-of-bounds step.
    """

    OOB_SENTINEL = CpuidLookupEntry(leaf=0xDEADBEEF, subleaf=0xDEADBEEF, valid_entry=True)
    table = _CPUID_TABLE

    def __init__(self):
        self.access_log: list[int] = []  # each index read, in read order

    def read(self, index: int) -> CpuidLookupEntry:
        self.access_log.append(index)
        return self.OOB_SENTINEL if index >= MAX_NUM_CPUID_LOOKUP else self.table[index]

    def oob_accesses(self) -> list[int]:
        return [index for index in self.access_log if index >= MAX_NUM_CPUID_LOOKUP]

    def lookup_index(self, leaf: int, subleaf: int) -> int:
        for i, entry in enumerate(self.table):
            if entry.leaf == leaf and entry.subleaf == subleaf:
                return i
        raise KeyError(f"cpuid ({leaf:#x}, {subleaf:#x}) not in table")

    def field_id_for(self, index: int) -> int:
        return make_sequence_header(MD_CTX_TD, CPUID_CLASS_CODE, index)


def next_cpuid_entry(lookup: CpuidLookup, field_id_raw: int, read_before_check: bool) -> int:
    """Next valid CPUID lookup position after field_id, or MD_FIELD_ID_NA.

    One search loop: the fixed variant bounds-checks each index before
    reading it and never reads out of range; the pre-fix one
    (read_before_check) reads first and checks the bound only once the loop
    stops, so a search starting at the final table slot touches one index
    past the array.  An id ``admit_field_id`` refuses as a TD id, or one that
    names no slot of the CPUID class, answers MD_FIELD_ID_NA with no read.
    """
    fid = admit_field_id(field_id_raw, MD_CTX_TD)
    if fid is None or fid.class_code != CPUID_CLASS_CODE or fid.field_code >= MAX_NUM_CPUID_LOOKUP:
        return MD_FIELD_ID_NA
    index = fid.field_code + 1
    while ((read_before_check or index < MAX_NUM_CPUID_LOOKUP)
           and not lookup.read(index).valid_entry):
        index += 1
    return MD_FIELD_ID_NA if index >= MAX_NUM_CPUID_LOOKUP else lookup.field_id_for(index)
