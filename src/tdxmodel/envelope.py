"""Migration session key handling, bundle encryption, and IV discipline.

Bundles are AES-GCM-256 sealed: the metadata record (MBMD) travels in the
clear but is authenticated as associated data, and the payload is encrypted.
Every stream context carries a monotone IV counter that advances before use,
including on abort paths, so no (key, IV) pair is ever reused.

On-wire record layout (little endian, 40 bytes):
    magic "MBMD" | u16 version | u16 type | u32 payload_size |
    u32 stream_index | u64 iv_counter | 16-byte MAC
The MAC is the GCM tag; associated data is the record with the MAC zeroed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Optional

from .md_codec import LIST_BYTES, WriteResult
from .status import (
    OPERAND_ID_MIGSC,
    TDX_INCORRECT_MBMD_MAC,
    TDX_INVALID_MBMD,
    TDX_OPERAND_BUSY,
    TDX_SUCCESS,
    with_operand,
)

MBMD_MAGIC = b"MBMD"
MBMD_VERSION = 1
MBMD_BYTES = 40
MSK_BYTES = 32
ZERO_MAC = bytes(16)
STREAM_BUSY = with_operand(TDX_OPERAND_BUSY, OPERAND_ID_MIGSC)

# The record up to its MAC: magic, version, type, payload size, stream, counter.
_RECORD_HEAD = struct.Struct("<4sHHIIQ")
# The 96-bit IV: 32-bit stream index, then the 64-bit counter.
_IV = struct.Struct("<IQ")


class BundleType(Enum):
    IMMUTABLE = 0
    TD = 1
    VP = 2
    MEM = 16


@dataclass(frozen=True)
class MigrationSessionKey:
    """256-bit AES-GCM key addressed as four little-endian quadwords.

    The cipher object is built once with the key and reused for every bundle
    sealed or opened under it.  The AES-GCM bindings load with the first key,
    not with this module, so a process that only parses lists never maps them;
    ``decrypt_bundle`` catches the ``InvalidTag`` bound here, which is safe
    because it opens only under a key, so a key was built first.
    """

    key: bytes
    aead: AESGCM = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.key) != MSK_BYTES:
            raise ValueError("session key must be 32 bytes")
        global AESGCM, InvalidTag
        from cryptography.exceptions import InvalidTag
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        object.__setattr__(self, "aead", AESGCM(self.key))

    @classmethod
    def from_quadwords(cls, quadwords: list[int]) -> "MigrationSessionKey":
        if len(quadwords) != 4:
            raise ValueError("session key is four quadwords")
        return cls(b"".join(q.to_bytes(8, "little") for q in quadwords))


@dataclass(slots=True)
class Mbmd:
    bundle_type: BundleType
    payload_size: int
    stream_index: int
    iv_counter: int
    mac: bytes = ZERO_MAC
    version: int = MBMD_VERSION

    def _head(self) -> bytes:
        # ``_value_`` is the member's stored code; ``.value`` would go through
        # the Enum property descriptor on every seal and open.
        return _RECORD_HEAD.pack(
            MBMD_MAGIC,
            self.version,
            self.bundle_type._value_,
            self.payload_size,
            self.stream_index,
            self.iv_counter,
        )

    def to_bytes(self) -> bytes:
        return self._head() + self.mac

    def aad(self) -> bytes:
        """The authenticated view: the record with its MAC field zeroed."""
        return self._head() + ZERO_MAC

    @classmethod
    def from_bytes(cls, data: bytes) -> "Mbmd":
        if len(data) != MBMD_BYTES or data[:4] != MBMD_MAGIC:
            raise ValueError("not a metadata record")
        _, version, btype, payload_size, stream_index, iv_counter = _RECORD_HEAD.unpack_from(data)
        return cls(
            bundle_type=BundleType(btype),
            payload_size=payload_size,
            stream_index=stream_index,
            iv_counter=iv_counter,
            mac=data[24:40],
            version=version,
        )


@dataclass
class InterruptedState:
    """An interruptible import's resume cursor, the first of its walks that failed, and the
    Mbmd of the bundle it interrupted, the only one a resume takes.

    ``failed`` is that walk's WriteResult as the walk returned it; a completion
    answers its status and ext_err_info, and a new state replaces this one.
    """

    cursor: int = 0
    failed: Optional[WriteResult] = None
    mbmd: Optional[Mbmd] = None


class MigStreamContext:
    """Per-stream IV counter and resume state; only an outside owner sets ``locked``, as for a TD."""

    def __init__(self, stream_index: int, iv_counter: int = 0):
        self.stream_index = stream_index
        self.iv_counter = iv_counter
        self.last_opened = 0  # the counter of the last bundle an import on it completed with
        self.interrupted_state = InterruptedState()
        self.locked = False
        self.iv_history: list[bytes] = []

    def next_iv(self) -> bytes:
        """Advance the counter and return the fresh 96-bit IV.

        The counter moves before the IV is handed out, so a caller that later
        aborts and discards its output has still spent the value.
        """
        self.iv_counter += 1
        iv = _IV.pack(self.stream_index, self.iv_counter)
        self.iv_history.append(iv)
        return iv


def encrypt_bundle(
    ctx: MigStreamContext,
    bundle_type: BundleType,
    lists: list[bytes],
    key: MigrationSessionKey,
) -> tuple[Mbmd, bytes]:
    """Seal whole 4KB lists under ``key`` into (record, ciphertext).

    The counter advances once per bundle, and the record names the IV used.
    """
    for item in lists:
        if len(item) != LIST_BYTES:
            raise ValueError("payload must be whole 4KB lists")
    plaintext = b"".join(lists)
    iv = ctx.next_iv()
    mbmd = Mbmd(bundle_type, len(plaintext), ctx.stream_index, ctx.iv_counter)
    # AESGCM.encrypt returns ciphertext || tag and a bundle keeps the
    # ciphertext alone as bytes, so splitting the tag off costs one copy.
    sealed = key.aead.encrypt(iv, plaintext, mbmd.aad())
    mbmd.mac = sealed[-16:]
    return mbmd, sealed[:-16]


def decrypt_bundle(
    key: MigrationSessionKey,
    mbmd: Mbmd,
    ciphertext: bytes,
) -> tuple[int, Optional[list[bytes]]]:
    """Authenticated open under ``key``; the MAC covers the record before any plaintext is out.

    Returns (status, lists).  A MAC mismatch surfaces as a status word, the
    model analog of the production fatal-error path.
    """
    if mbmd.payload_size != len(ciphertext) or mbmd.payload_size % LIST_BYTES != 0:
        return TDX_INVALID_MBMD, None
    iv = _IV.pack(mbmd.stream_index, mbmd.iv_counter)
    try:
        # AESGCM.decrypt takes ciphertext || tag as one buffer: one copy.
        plaintext = key.aead.decrypt(iv, ciphertext + mbmd.mac, mbmd.aad())
    except InvalidTag:
        return TDX_INCORRECT_MBMD_MAC, None
    if len(plaintext) == LIST_BYTES:
        return TDX_SUCCESS, [plaintext]
    lists = [plaintext[i : i + LIST_BYTES] for i in range(0, len(plaintext), LIST_BYTES)]
    return TDX_SUCCESS, lists
