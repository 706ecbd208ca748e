"""64-bit TDX-style status words and their encoding helpers.

Status values follow the production module's layout: the error class lives in
the high dword, operand ids in the low byte, and level-2 details in the low
two 16-bit words.  Flag bits 61..63 mark fatal / non-recoverable / error.
"""

TDX_OPERAND_CODE_MASK = 0xFF
TDX_CLASS_MASK = 0xFFFFFFFF00000000
TDX_FATAL_FLAG_MASK = 1 << 61

TDX_SUCCESS = 0x0000000000000000
TDX_INTERRUPTED_RESUMABLE = 0x8000000300000000
TDX_OPERAND_INVALID = 0xC000010000000000
TDX_EVENT_FILTER_INVALID = 0xC000010200000000
TDX_EVENT_FILTER_ORDER_INVALID = 0xC000010300000000
TDX_OPERAND_BUSY = 0x8000020000000000
TDX_TD_FATAL = 0xE000060400000000
TDX_LIFECYCLE_STATE_INCORRECT = 0xC000060700000000
TDX_OP_STATE_INCORRECT = 0xC000060800000000
TDX_TDCX_NUM_INCORRECT = 0xC000061000000000
TDX_HKID_NOT_FREE = 0xC000082000000000
TDX_METADATA_FIELD_ID_INCORRECT = 0xC0000C0000000000
TDX_METADATA_FIELD_NOT_WRITABLE = 0xC0000C0100000000
TDX_METADATA_FIELD_NOT_READABLE = 0xC0000C0200000000
TDX_METADATA_FIELD_VALUE_NOT_VALID = 0xC0000C0300000000
TDX_METADATA_LIST_OVERFLOW = 0xC0000C0400000000
TDX_REQUIRED_METADATA_FIELD_MISSING = 0xC0000C0600000000
TDX_SERVTD_UUID_MISMATCH = 0xC0000D0400000000
TDX_INVALID_MBMD = 0xC0000E0000000000
TDX_INCORRECT_MBMD_MAC = 0xC0000E0100000000
TDX_MIGRATION_STREAM_STATE_INCORRECT = 0xC0000E0500000000
TDX_MIGRATION_DECRYPTION_KEY_NOT_SET = 0xC0000E0800000000
TDX_TD_NOT_MIGRATABLE = 0xC0000E0900000000
TDX_MAX_EXPORTS_EXCEEDED = 0xC0000E0E00000000
TDX_SOME_VCPUS_NOT_MIGRATED = 0xC0000E1200000000

# Operand identifiers used in the low status byte.
OPERAND_ID_RAX = 0
OPERAND_ID_RCX = 1
OPERAND_ID_RDX = 2
OPERAND_ID_R8 = 8
OPERAND_ID_R9 = 9
OPERAND_ID_ATTRIBUTES = 64
OPERAND_ID_XFAM = 65
OPERAND_ID_EXEC_CONTROLS = 66
OPERAND_ID_EPTP_CONTROLS = 67
OPERAND_ID_TSC_FREQUENCY = 70
OPERAND_ID_TDR = 128
OPERAND_ID_TDVPR = 130
OPERAND_ID_MIGSC = 171
OPERAND_ID_METADATA_FIELD = 176

# A locked TD refuses every call with this word: OPERAND_BUSY naming the TDR.
TDR_BUSY = TDX_OPERAND_BUSY | OPERAND_ID_TDR

_STATUS_NAMES = {
    value: name
    for name, value in sorted(globals().items())
    if name.startswith("TDX_") and not name.endswith("_MASK")
}

_OPERAND_NAMES = {
    value: name
    for name, value in sorted(globals().items())
    if name.startswith("OPERAND_ID_")
}


def with_operand(status: int, operand_id: int) -> int:
    """Attach an operand id to a status class (low byte)."""
    return status | (operand_id & TDX_OPERAND_CODE_MASK)


def with_l2_details(status: int, detail1: int, detail2: int) -> int:
    """Attach level-2 details: detail1 in bits 31:16, detail2 in bits 15:0."""
    return status | ((detail1 & 0xFFFF) << 16) | (detail2 & 0xFFFF)


def as_fatal(status: int) -> int:
    """Mark a status fatal (bit 61), mirroring api_error_fatal."""
    return status | TDX_FATAL_FLAG_MASK


def status_class(status: int) -> int:
    """Strip details and the fatal flag, leaving the bare error class."""
    return status & TDX_CLASS_MASK & ~TDX_FATAL_FLAG_MASK


def status_str(status: int) -> str:
    """Render a status the way the console tooling prints it."""
    base = status_class(status)
    name = _STATUS_NAMES.get(base)
    if name is None:
        return f"{hex(status)}"
    low = status & TDX_OPERAND_CODE_MASK
    operand = _OPERAND_NAMES.get(low, f"0x{low:02x}")
    return f"{hex(status)} - {name} : {operand}"


class StatusError(Exception):
    """Carries a status word across internal call boundaries."""

    def __init__(self, status: int):
        super().__init__(status_str(status))
        self.status = status
