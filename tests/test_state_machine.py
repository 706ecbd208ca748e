"""Permission-matrix conformance: the enumeration is diffed against the fixture."""

from importlib import resources

import pytest
from hypothesis import example, given, settings, strategies as st

from tdxmodel.states import (
    APPENDIX_STATES,
    Leaf,
    OpState,
    PermissionMatrix,
    TraceStep,
    transition,
    validate_trace,
)
from tdxmodel.status import (
    OPERAND_ID_TDR,
    TDX_OP_STATE_INCORRECT,
    TDX_OPERAND_BUSY,
    TDX_SUCCESS,
    TDX_TD_FATAL,
    StatusError,
    with_operand,
)

# The gate's three refusals, in its order: a fatal TD, a locked TD, no matrix row.
GATE_WORDS = (TDX_TD_FATAL, with_operand(TDX_OPERAND_BUSY, OPERAND_ID_TDR), TDX_OP_STATE_INCORRECT)


def _fixture_rows():
    """Independent parse of the fixture for the conformance diff."""
    text = resources.files("tdxmodel.data").joinpath("op_state_matrix.txt").read_text()
    rows = set()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        iface, state, leaf, _, _, _ = line.split()
        rows.add((iface, state, leaf))
    return rows


def test_exhaustive_enumeration_matches_fixture(matrix):
    expected = _fixture_rows()
    observed = set()
    for iface in ("host", "guest"):
        for state in OpState:
            for leaf in Leaf:
                if matrix.is_allowed(state, leaf) and leaf.guest == (iface == "guest"):
                    observed.add((iface, state.value, leaf.name))
    assert observed == expected


def test_appendix_states_count():
    assert len(APPENDIX_STATES) == 11
    assert OpState.START_IMPORT not in APPENDIX_STATES


@pytest.mark.parametrize(
    "state,leaf,allowed",
    [
        (OpState.UNINITIALIZED, Leaf.TDH_MNG_INIT, True),
        (OpState.RUNNABLE, Leaf.TDH_IMPORT_STATE_TD, False),
        (OpState.RUNNABLE, Leaf.TDH_EXPORT_STATE_IMMUTABLE, True),
        (OpState.RUNNABLE, Leaf.TDH_EXPORT_STATE_TD, False),
        (OpState.PAUSED_EXPORT, Leaf.TDH_EXPORT_STATE_TD, True),
        (OpState.MEMORY_IMPORT, Leaf.TDH_IMPORT_STATE_TD, True),
        (OpState.STATE_IMPORT, Leaf.TDH_IMPORT_STATE_VP, True),
        (OpState.START_IMPORT, Leaf.TDH_MNG_INIT, False),
        (OpState.START_IMPORT, Leaf.TDH_IMPORT_STATE_IMMUTABLE, True),
        (OpState.INITIALIZED, Leaf.TDH_MR_FINALIZE, True),
        (OpState.FAILED_IMPORT, Leaf.TDH_IMPORT_MEM, False),
    ],
)
def test_host_spot_checks(matrix, state, leaf, allowed):
    assert matrix.is_allowed(state, leaf) is allowed


def test_guest_interface_rule(matrix):
    for state in OpState:
        assert matrix.is_allowed(state, Leaf.TDG_SERVTD_RD)
        expected_wr = state not in (OpState.PAUSED_EXPORT, OpState.POST_EXPORT)
        assert matrix.is_allowed(state, Leaf.TDG_SERVTD_WR) is expected_wr


@pytest.mark.parametrize("iface,leaf", [("host", Leaf.TDG_SERVTD_RD), ("guest", Leaf.TDH_MNG_RD)])
def test_load_refuses_a_row_whose_interface_disagrees_with_its_leaf(iface, leaf):
    with pytest.raises(ValueError, match="interface"):
        PermissionMatrix.load(f"{iface} RUNNABLE {leaf.name} - - x")
    own = "guest" if leaf.guest else "host"
    assert PermissionMatrix.load(f"{own} RUNNABLE {leaf.name} - - x").is_allowed(OpState.RUNNABLE, leaf)


def test_unknown_leaf_raises(matrix):
    with pytest.raises(ValueError):
        matrix.is_allowed(OpState.RUNNABLE, "TDH_BOGUS")


# --- transitions -------------------------------------------------------------------

def test_interrupted_import_stays_put_or_enters_start_import(matrix):
    result = transition(
        matrix, OpState.UNINITIALIZED, Leaf.TDH_IMPORT_STATE_IMMUTABLE, "interrupted",
        start_import=False,
    )
    assert result is OpState.UNINITIALIZED
    result = transition(
        matrix, OpState.UNINITIALIZED, Leaf.TDH_IMPORT_STATE_IMMUTABLE, "interrupted",
        start_import=True,
    )
    assert result is OpState.START_IMPORT


@pytest.mark.parametrize(
    "state,leaf,outcome,expected",
    [
        (OpState.MEMORY_IMPORT, Leaf.TDH_IMPORT_STATE_TD, "success", OpState.STATE_IMPORT),
        (OpState.MEMORY_IMPORT, Leaf.TDH_IMPORT_STATE_TD, "failure", OpState.FAILED_IMPORT),
        (OpState.LIVE_EXPORT, Leaf.TDH_EXPORT_ABORT, "success", OpState.RUNNABLE),
        (OpState.LIVE_EXPORT, Leaf.TDH_EXPORT_PAUSE, "success", OpState.PAUSED_EXPORT),
        (OpState.LIVE_EXPORT, Leaf.TDH_EXPORT_TRACK, "success", OpState.POST_EXPORT),
        (OpState.UNINITIALIZED, Leaf.TDH_MNG_INIT, "success", OpState.INITIALIZED),
        (OpState.UNINITIALIZED, Leaf.TDH_MNG_INIT, "failure", OpState.UNINITIALIZED),
        (OpState.INITIALIZED, Leaf.TDH_MR_FINALIZE, "success", OpState.RUNNABLE),
        (OpState.POST_IMPORT, Leaf.TDH_IMPORT_END, "success", OpState.RUNNABLE),
        (OpState.POST_IMPORT, Leaf.TDH_IMPORT_COMMIT, "success", OpState.LIVE_IMPORT),
        (OpState.LIVE_IMPORT, Leaf.TDH_IMPORT_END, "success", OpState.RUNNABLE),
        (OpState.MEMORY_IMPORT, Leaf.TDH_IMPORT_ABORT, "success", OpState.FAILED_IMPORT),
    ],
)
def test_transitions(matrix, state, leaf, outcome, expected):
    assert transition(matrix, state, leaf, outcome) is expected


def test_disallowed_leaf_is_op_state_incorrect(matrix):
    with pytest.raises(StatusError) as err:
        transition(matrix, OpState.RUNNABLE, Leaf.TDH_IMPORT_STATE_TD, "success")
    assert err.value.status == TDX_OP_STATE_INCORRECT


def _reachable_states(matrix, mode):
    seen = {OpState.UNINITIALIZED}
    frontier = [OpState.UNINITIALIZED]
    while frontier:
        state = frontier.pop()
        for leaf in Leaf:
            if not matrix.is_allowed(state, leaf):
                continue
            for outcome in ("success", "failure", "interrupted"):
                after = transition(matrix, state, leaf, outcome, mode)
                if after not in seen:
                    seen.add(after)
                    frontier.append(after)
    return seen


def test_start_import_only_reachable_in_fixed_mode(matrix):
    assert OpState.START_IMPORT not in _reachable_states(matrix, False)
    assert OpState.START_IMPORT in _reachable_states(matrix, True)


def test_trace_validator_accepts_legal_paths(matrix):
    steps = [
        TraceStep(Leaf.TDH_MNG_INIT, OpState.UNINITIALIZED, OpState.INITIALIZED, TDX_SUCCESS),
        TraceStep(Leaf.TDH_MR_FINALIZE, OpState.INITIALIZED, OpState.RUNNABLE, TDX_SUCCESS),
    ]
    assert validate_trace(matrix, steps, False) == []


def test_trace_validator_flags_illegal_edges(matrix):
    steps = [
        TraceStep(Leaf.TDH_MNG_INIT, OpState.UNINITIALIZED, OpState.RUNNABLE, TDX_SUCCESS),
    ]
    problems = validate_trace(matrix, steps, False)
    assert problems and "not in fixture" in problems[0]
    steps = [
        TraceStep(Leaf.TDH_MNG_INIT, OpState.RUNNABLE, OpState.RUNNABLE, TDX_SUCCESS),
    ]
    assert validate_trace(matrix, steps, False)


def test_mng_init_allowed_only_before_any_import_touch(matrix):
    # The initialization leaf exists in exactly one row, and no edge in the
    # fixture graph leads back to that state once an import has started.
    init_states = [
        state for state in OpState if matrix.is_allowed(state, Leaf.TDH_MNG_INIT)
    ]
    assert init_states == [OpState.UNINITIALIZED]
    for start in (OpState.START_IMPORT, OpState.MEMORY_IMPORT, OpState.FAILED_IMPORT):
        seen = {start}
        frontier = [start]
        while frontier:
            state = frontier.pop()
            for leaf in Leaf:
                if not matrix.is_allowed(state, leaf):
                    continue
                for outcome in ("success", "failure"):
                    after = transition(matrix, state, leaf, outcome, True)
                    if after not in seen:
                        seen.add(after)
                        frontier.append(after)
        assert OpState.UNINITIALIZED not in seen


def _reference_validate_trace(matrix, steps, start_import):
    """validate_trace's own derivation of each edge, before it went through transition().

    Kept as the reference the one op-state rule must agree with.
    """
    problems = []
    for step in steps:
        row = matrix.row(step.before, step.leaf)
        if row is None:
            if step.after is step.before and step.status in GATE_WORDS:
                continue
            problems.append(f"{step.leaf.name} not allowed in {step.before.name}")
            continue
        base = step.before
        if (start_import and step.before is OpState.UNINITIALIZED
                and step.leaf is Leaf.TDH_IMPORT_STATE_IMMUTABLE):
            base = OpState.START_IMPORT
        if step.after not in (step.before, base, row.next_on_success or base,
                              row.next_on_failure or base):
            problems.append(
                f"{step.leaf.name}: {step.before.name} -> {step.after.name} not in fixture"
            )
    return problems


STEPS = st.builds(
    TraceStep,
    leaf=st.sampled_from(list(Leaf)),
    before=st.sampled_from(list(OpState)),
    after=st.sampled_from(list(OpState)),
    status=st.sampled_from([TDX_SUCCESS, *GATE_WORDS]),
)


@settings(max_examples=500, deadline=None)
@given(steps=st.lists(STEPS, max_size=6), start_import=st.booleans())
@example(steps=[TraceStep(Leaf.TDH_IMPORT_STATE_IMMUTABLE, OpState.UNINITIALIZED,
                          OpState.START_IMPORT, TDX_SUCCESS)], start_import=True)
@example(steps=[TraceStep(Leaf.TDH_IMPORT_STATE_IMMUTABLE, OpState.UNINITIALIZED,
                          OpState.START_IMPORT, TDX_SUCCESS)], start_import=False)
@example(steps=[TraceStep(Leaf.TDH_IMPORT_STATE_IMMUTABLE, OpState.UNINITIALIZED,
                          OpState.MEMORY_IMPORT, TDX_SUCCESS)], start_import=True)
@example(steps=[TraceStep(Leaf.TDG_SERVTD_WR, OpState.PAUSED_EXPORT,
                          OpState.PAUSED_EXPORT, TDX_TD_FATAL)], start_import=True)
def test_trace_validator_agrees_with_the_reference_derivation(matrix, steps, start_import):
    assert validate_trace(matrix, steps, start_import) == _reference_validate_trace(
        matrix, steps, start_import)
