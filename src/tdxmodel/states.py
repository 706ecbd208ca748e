"""TD lifecycle and operation state machines plus the permission matrix.

The host and guest matrix is loaded from a transcribed fixture rather than
hard-coded, so conformance testing reduces to a diff against the same file.
START_IMPORT exists only as the post-fix remediation state: a TD can reach it
only when the engine runs with the fix enabled.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Optional

from .status import TDR_BUSY, TDX_OP_STATE_INCORRECT, TDX_TD_FATAL, StatusError


class LifecycleState(Enum):
    TD_HKID_ASSIGNED = "TD_HKID_ASSIGNED"
    TD_KEYS_CONFIGURED = "TD_KEYS_CONFIGURED"


class OpState(Enum):
    UNINITIALIZED = "UNINITIALIZED"
    INITIALIZED = "INITIALIZED"
    RUNNABLE = "RUNNABLE"
    LIVE_EXPORT = "LIVE_EXPORT"
    PAUSED_EXPORT = "PAUSED_EXPORT"
    POST_EXPORT = "POST_EXPORT"
    MEMORY_IMPORT = "MEMORY_IMPORT"
    STATE_IMPORT = "STATE_IMPORT"
    POST_IMPORT = "POST_IMPORT"
    LIVE_IMPORT = "LIVE_IMPORT"
    FAILED_IMPORT = "FAILED_IMPORT"
    START_IMPORT = "START_IMPORT"

    # Identity hash in C: Enum's own __hash__ is Python code, and the engine
    # hashes an op_state on every leaf.  Members are singletons, so equality
    # is identity either way; nothing iterates a set of them into output.
    __hash__ = object.__hash__


# The states the transcribed host table enumerates (START_IMPORT excluded).
APPENDIX_STATES = [s for s in OpState if s is not OpState.START_IMPORT]


class Leaf(Enum):
    """API leaves the model dispatches, host (TDH) and guest (TDG) interfaces."""

    TDH_VP_ENTER = 0
    TDH_MNG_ADDCX = 1
    TDH_MEM_PAGE_ADD = 2
    TDH_MEM_SEPT_ADD = 3
    TDH_VP_ADDCX = 4
    TDH_MEM_PAGE_RELOCATE = 5
    TDH_MEM_PAGE_AUG = 6
    TDH_MEM_RANGE_BLOCK = 7
    TDH_MNG_KEY_CONFIG = 8
    TDH_MNG_CREATE = 9
    TDH_VP_CREATE = 10
    TDH_MNG_RD = 11
    TDH_MEM_RD = 12
    TDH_MNG_WR = 13
    TDH_MEM_WR = 14
    TDH_MEM_PAGE_DEMOTE = 15
    TDH_MR_EXTEND = 16
    TDH_MR_FINALIZE = 17
    TDH_VP_FLUSH = 18
    TDH_MNG_INIT = 21
    TDH_VP_INIT = 22
    TDH_MEM_PAGE_PROMOTE = 23
    TDH_MEM_SEPT_RD = 25
    TDH_VP_RD = 26
    TDH_MEM_PAGE_REMOVE = 29
    TDH_MEM_SEPT_REMOVE = 30
    TDH_MEM_TRACK = 38
    TDH_MEM_RANGE_UNBLOCK = 39
    TDH_VP_WR = 43
    TDH_SYS_CONFIG = 45
    TDH_SERVTD_BIND = 48
    TDH_SERVTD_PREBIND = 49
    TDH_EXPORT_ABORT = 64
    TDH_EXPORT_BLOCKW = 65
    TDH_EXPORT_RESTORE = 66
    TDH_EXPORT_MEM = 68
    TDH_EXPORT_PAUSE = 70
    TDH_EXPORT_TRACK = 71
    TDH_EXPORT_STATE_IMMUTABLE = 72
    TDH_EXPORT_STATE_TD = 73
    TDH_EXPORT_STATE_VP = 74
    TDH_EXPORT_UNBLOCKW = 75
    TDH_IMPORT_ABORT = 80
    TDH_IMPORT_END = 81
    TDH_IMPORT_COMMIT = 82
    TDH_IMPORT_MEM = 83
    TDH_IMPORT_TRACK = 84
    TDH_IMPORT_STATE_IMMUTABLE = 85
    TDH_IMPORT_STATE_TD = 86
    TDH_IMPORT_STATE_VP = 87
    TDH_MIG_STREAM_CREATE = 96
    TDG_SERVTD_RD = 118
    TDG_SERVTD_WR = 120

    __hash__ = object.__hash__  # as OpState: a C-level hash for the gate lookup

    @property
    def guest(self) -> bool:
        """A service-TD (TDG) leaf rather than a host (TDH) one."""
        return self.name.startswith("TDG_")


@dataclass(frozen=True)
class MatrixRow:
    next_on_success: Optional[OpState]
    next_on_failure: Optional[OpState]


class PermissionMatrix:
    """Boolean (op_state x leaf) table; a leaf's name says its interface.

    Immutable after load, so one instance is freely shared between modules.
    """

    def __init__(self, rows: dict[tuple[OpState, Leaf], MatrixRow]):
        self._rows = rows

    @classmethod
    def load(cls, text: Optional[str] = None) -> "PermissionMatrix":
        if text is None:
            text = resources.files("tdxmodel.data").joinpath("op_state_matrix.txt").read_text()
        rows: dict[tuple[OpState, Leaf], MatrixRow] = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            # The sixth column, the row's provenance, documents the fixture only.
            iface, state_name, leaf_name, on_success, on_failure, _ = line.split()
            key = (OpState(state_name), Leaf[leaf_name])
            if iface != ("guest" if key[1].guest else "host"):
                raise ValueError(f"interface does not match the leaf: {line!r}")
            if key in rows:
                raise ValueError(f"duplicate matrix row: {line!r}")
            rows[key] = MatrixRow(
                next_on_success=None if on_success == "-" else OpState(on_success),
                next_on_failure=None if on_failure == "-" else OpState(on_failure),
            )
        return cls(rows)

    def is_allowed(self, state: OpState, leaf: Leaf) -> bool:
        if not isinstance(leaf, Leaf):
            raise ValueError(f"unknown leaf: {leaf!r}")
        return (state, leaf) in self._rows

    def row(self, state: OpState, leaf: Leaf) -> Optional[MatrixRow]:
        return self._rows.get((state, leaf))

    def allowed_leaves(self, state: OpState) -> list[Leaf]:
        return [leaf for (row_state, leaf) in self._rows if row_state == state]

    def items(self):
        return self._rows.items()


@functools.cache
def bundled_matrix() -> PermissionMatrix:
    """The packaged matrix, parsed on first use and then shared by every module."""
    return PermissionMatrix.load()


OUTCOMES = ("success", "failure", "interrupted")


def transition(
    matrix: PermissionMatrix,
    state: OpState,
    leaf: Leaf,
    outcome: str,
    start_import: bool = False,
) -> OpState:
    """Pure next-state function over the fixture's transition columns.

    outcome is one of OUTCOMES.  Interruption never moves the op_state; a
    fatal import failure lands in FAILED_IMPORT via the failure column.
    With start_import (v1's fix), the first touch of the immutable import
    moves an UNINITIALIZED TD to START_IMPORT, whatever the outcome, so the
    non-import initialization path can no longer be interleaved.
    """
    row = matrix.row(state, leaf)
    if row is None:
        raise StatusError(TDX_OP_STATE_INCORRECT)
    if start_import and state is OpState.UNINITIALIZED and leaf is Leaf.TDH_IMPORT_STATE_IMMUTABLE:
        state = OpState.START_IMPORT
    if outcome == "interrupted":
        return state
    if outcome == "success":
        return row.next_on_success or state
    if outcome == "failure":
        return row.next_on_failure or state
    raise ValueError(f"unknown outcome: {outcome!r}")


@dataclass(slots=True)
class TraceStep:
    """The one record of a leaf call.

    ``ext_err_info`` is the (rcx, rdx) extended error information the call
    returned.  ``walks`` holds a state import's (ParseArena, WriteResult) for
    each list walked in this call; a resumed import splits its lists between
    the interrupted step and the resuming one.
    """

    leaf: Leaf
    before: OpState
    after: OpState
    status: int
    ext_err_info: tuple[int, int] = (0, 0)
    walks: tuple = ()


def validate_trace(
    matrix: PermissionMatrix, steps: list[TraceStep], start_import: bool
) -> list[str]:
    """Check that every observed op_state edge is a path in the fixture graph.

    A step with a matrix row stays in place or takes an edge transition()
    gives for it; a step with no row must be a refusal by the gate's fatal,
    busy or op-state check (TD_FATAL, TDR_BUSY or OP_STATE_INCORRECT) that
    stays in place.  Returns a list of violation descriptions; empty
    means the trace is valid.
    """
    problems = []
    for step in steps:
        if matrix.row(step.before, step.leaf) is None:
            # A denied attempt is not an edge; anything else here is a violation.
            if step.after is not step.before or step.status not in (
                    TDX_TD_FATAL, TDR_BUSY, TDX_OP_STATE_INCORRECT):
                problems.append(f"{step.leaf.name} not allowed in {step.before.name}")
        elif step.after is not step.before and step.after not in {
            transition(matrix, step.before, step.leaf, outcome, start_import)
            for outcome in OUTCOMES
        }:
            problems.append(
                f"{step.leaf.name}: {step.before.name} -> {step.after.name} not in fixture"
            )
    return problems
