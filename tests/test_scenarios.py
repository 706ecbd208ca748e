"""Findings suite: the 2x9 mode matrix and transcript content."""

import pytest

from tdxmodel import status as S
from tdxmodel.engine import FINDING_TOGGLES, EngineMode, TdxModule
from tdxmodel.scenarios import Scenario, all_scenarios, replay, run_scenario
from tdxmodel.states import Leaf, OpState, TraceStep
from tdxmodel.td import TdParams

SCENARIOS = all_scenarios()


def test_nine_findings_registered():
    assert len(SCENARIOS) == 9
    assert set(SCENARIOS) == {
        "cve-2025-30513",
        "cve-2025-32007",
        "bug-1-list-header-underflow",
        "bug-2-skippable-required-entries",
        "bug-3-event-filter-init",
        "bug-4-cpuid-lookup-oob",
        "bug-6-binding-handle-oracle",
        "bug-8-hkid-exhaustion",
        "bug-9-gpa-check-skip",
    }


def test_toggles_reference_real_switches():
    from tdxmodel.engine import FINDING_TOGGLES

    for scenario in SCENARIOS.values():
        assert scenario.toggles, scenario.name
        for toggle in scenario.toggles:
            assert toggle in FINDING_TOGGLES


@pytest.mark.parametrize("name", sorted(SCENARIOS))
@pytest.mark.parametrize("mode", ["vulnerable", "fixed"])
def test_scenario_matrix(name, mode):
    run = run_scenario(SCENARIOS[name], mode, seed=7)
    assert run.ok, run.transcript
    expected = "EXPLOITED" if mode == "vulnerable" else "NOT EXPLOITABLE"
    assert run.transcript.splitlines()[-1] == f"verdict: {expected}"
    assert "op_state traces: valid" in run.transcript


def test_v1_transcript_carries_the_published_status_sequence():
    run = run_scenario(SCENARIOS["cve-2025-30513"], "vulnerable", seed=7)
    lines = [l for l in run.transcript.splitlines() if l.startswith("TDX STATUS:")]
    assert lines[0] == "TDX STATUS: 0x8000000300000000 - TDX_INTERRUPTED_RESUMABLE : OPERAND_ID_RAX"
    assert lines[1] == "TDX STATUS: 0xc000010000000041 - TDX_OPERAND_INVALID : OPERAND_ID_XFAM"
    assert lines[2] == "TDX STATUS: 0x0 - TDX_SUCCESS : OPERAND_ID_RAX"


def test_scenarios_are_seed_deterministic():
    for seed in (7, 99):
        first = run_scenario(SCENARIOS["cve-2025-32007"], "vulnerable", seed=seed)
        second = run_scenario(SCENARIOS["cve-2025-32007"], "vulnerable", seed=seed)
        assert first.transcript == second.transcript


def test_mode_words_parse_to_bools():
    v1 = SCENARIOS["cve-2025-30513"]
    assert run_scenario(v1, "vulnerable").module.mode == EngineMode(v1=True)
    assert run_scenario(v1, "fixed").module.mode == EngineMode()
    with pytest.raises(ValueError):
        run_scenario(v1, "on")
    with pytest.raises(TypeError):
        EngineMode(v1="fixed")  # a word is not a switch: it would read as True


# Every (scenario, toggle) pair where the scenario does not set the toggle.
FOREIGN_TOGGLES = [
    (name, toggle)
    for name in sorted(SCENARIOS)
    for toggle in FINDING_TOGGLES
    if toggle not in SCENARIOS[name].toggles
]


@pytest.mark.parametrize("name,toggle", FOREIGN_TOGGLES)
def test_each_toggle_changes_only_its_own_finding(name, toggle):
    """Another finding's toggle alone leaves a scenario at its fixed-mode expectations."""
    ok, lines, _ = replay(SCENARIOS[name], TdxModule(EngineMode(**{toggle: True}), seed=7), False)
    assert ok, "\n".join(lines)


def test_fixed_module_against_vulnerable_expectations_prints_each_mismatch():
    """A verdict that does not hold names every step and check that missed."""
    ok, lines, _ = replay(SCENARIOS["cve-2025-30513"], TdxModule(EngineMode(), seed=7), True)
    assert ok is False
    assert [line for line in lines if "MISMATCH" in line or line.startswith("[")] == [
        "  MISMATCH: expected 0xc000010000000041 - TDX_OPERAND_INVALID : OPERAND_ID_XFAM",
        "  MISMATCH: expected 0x0 - TDX_SUCCESS : OPERAND_ID_RAX",
        "  MISMATCH: expected 0x0 - TDX_SUCCESS : OPERAND_ID_RAX",
        "[!] destination ATTRIBUTES is 0x1 (debug): no (expected yes)",
        "[!] all four MIG_DEC_KEY quadwords leaked to the host: no (expected yes)",
        "[!] num_vcpus zeroed by the interleaved init: no (expected yes)",
        "[!] import_track passed with zero vcpus (POST_IMPORT): no (expected yes)",
    ]
    # Each MISMATCH follows the status line of the step that missed.
    assert lines[lines.index("host-vmm: tdh_mng_init dst (attributes.debug, invalid xfam)") + 2] == (
        "  MISMATCH: expected 0xc000010000000041 - TDX_OPERAND_INVALID : OPERAND_ID_XFAM"
    )
    assert lines[-1] == "op_state traces: valid"
    # A check that misses fails the replay on its own: bug-4's one step matches.
    ok, lines, _ = replay(SCENARIOS["bug-4-cpuid-lookup-oob"], TdxModule(EngineMode(), seed=7), True)
    assert ok is False and not any("MISMATCH" in line for line in lines)
    assert lines[2:5] == [
        "[+] search returned MD_FIELD_ID_NA: yes (expected yes)",
        "[!] exactly one out-of-bounds index access (index 79): no (expected yes)",
        "[!] no out-of-bounds index accesses: yes (expected no)",
    ]


def _off_the_matrix(m, r):
    """A play that leaves its TD one step the matrix forbids: TDH.IMPORT.STATE.TD from RUNNABLE."""
    status, td = m.build_td(TdParams())
    r.step("build_td td", status, S.TDX_SUCCESS)
    td.trace.append(TraceStep(Leaf.TDH_IMPORT_STATE_TD, OpState.RUNNABLE, OpState.RUNNABLE,
                              S.TDX_SUCCESS))
    return {"td": td}


@pytest.mark.parametrize("mode", ["vulnerable", "fixed"])
def test_a_trace_violation_alone_is_a_mismatch(mode):
    run = run_scenario(Scenario("off-the-matrix", "a forbidden step", (), _off_the_matrix), mode)
    assert run.ok is False
    lines = run.transcript.splitlines()
    assert lines[-2:] == ["trace violation: TDH_IMPORT_STATE_TD not allowed in RUNNABLE",
                          "verdict: MISMATCH"]
    assert "op_state traces: valid" not in lines and not any("MISMATCH:" in l for l in lines)
