"""CLI behavior: bundle tooling round-trips, exit codes, golden transcripts."""

import io
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from tdxmodel import md_codec as md
from tdxmodel.cli import build_parser, main
from tdxmodel.envelope import Mbmd
from tdxmodel.engine import TdxModule
from tdxmodel.md_codec import MD_CTX_TD
from tdxmodel.scenarios import all_scenarios, standard_setup
from tdxmodel.td import U64

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def bundle_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bundles")
    module = TdxModule(seed=3)
    env = standard_setup(module, num_vcpus=1)
    bundle = env["bundle_immutable"]
    (tmp / "imm.mbmd").write_bytes(bundle.mbmd.to_bytes())
    (tmp / "imm.data").write_bytes(bundle.data)
    key = "-".join(hex(q) for q in env["key"])
    return tmp, key


def test_bundle_decrypt_and_parse(bundle_files):
    tmp, key = bundle_files
    code, out = run_cli(
        "bundle", "decrypt", key, str(tmp / "imm.mbmd"), str(tmp / "imm.data"),
        str(tmp / "plain.data"),
    )
    assert code == 0, out
    code, out = run_cli("bundle", "parse", str(tmp / "plain.data"))
    assert code == 0
    list_lines = [l for l in out.splitlines() if l.startswith("list ")]
    assert len(list_lines) == 3  # the immutable bundle spans three lists
    assert any(
        "identifier: 0x1110000300000000, name: ATTRIBUTES" in line
        for line in out.splitlines()
    )
    assert any("td-scope metadata" in line for line in out.splitlines())


def test_bundle_encrypt_roundtrip(bundle_files):
    tmp, key = bundle_files
    run_cli("bundle", "decrypt", key, str(tmp / "imm.mbmd"), str(tmp / "imm.data"),
            str(tmp / "plain.data"))
    code, out = run_cli(
        "bundle", "encrypt", key, "immutable", str(tmp / "plain.data"),
        str(tmp / "re.mbmd"), str(tmp / "re.data"), "--iv-counter", "777",
    )
    assert code == 0, out
    assert (tmp / "re.data").read_bytes() != (tmp / "imm.data").read_bytes()  # fresh IV
    code, _ = run_cli(
        "bundle", "decrypt", key, str(tmp / "re.mbmd"), str(tmp / "re.data"),
        str(tmp / "plain2.data"),
    )
    assert code == 0
    assert (tmp / "plain.data").read_bytes() == (tmp / "plain2.data").read_bytes()


def test_bundle_edit_patches_a_field(bundle_files):
    tmp, key = bundle_files
    code, out = run_cli(
        "bundle", "edit", key, str(tmp / "imm.mbmd"), str(tmp / "imm.data"),
        str(tmp / "ed.mbmd"), str(tmp / "ed.data"),
        "--set", "0x1110000300000000:0:0x20000001",
    )
    assert code == 0, out
    run_cli("bundle", "decrypt", key, str(tmp / "ed.mbmd"), str(tmp / "ed.data"),
            str(tmp / "ed.plain"))
    _, out = run_cli("bundle", "parse", str(tmp / "ed.plain"))
    assert "name: ATTRIBUTES, num_of_fields: 1, num_of_elem: 1, contents: 0x20000001" in out


def test_shared_parser_carries_nothing_between_calls(bundle_files):
    tmp, key = bundle_files
    assert build_parser() is build_parser()
    edit = ("bundle", "edit", key, str(tmp / "imm.mbmd"), str(tmp / "imm.data"),
            str(tmp / "seq.mbmd"), str(tmp / "seq.data"))
    outputs = []
    for value in ("0x20000001", "0x20000000"):
        outputs.append(run_cli(*edit, "--set", f"0x1110000300000000:0:{value}"))
        args = build_parser().parse_args([*edit, "--set", f"0x1110000300000000:0:{value}"])
        assert args.set == [f"0x1110000300000000:0:{value}"] and args.iv_step == 1
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][1].startswith("patched 1 fields,")
    run_cli("bundle", "decrypt", key, str(tmp / "seq.mbmd"), str(tmp / "seq.data"),
            str(tmp / "seq.plain"))
    _, out = run_cli("bundle", "parse", str(tmp / "seq.plain"))
    assert "name: ATTRIBUTES, num_of_fields: 1, num_of_elem: 1, contents: 0x20000000" in out

    code, out = run_cli("scenario", "run", "cve-2025-30513")
    assert code == 0
    assert out.splitlines()[1] == "mode: vulnerable seed: 7"
    args = build_parser().parse_args(["scenario", "run", "cve-2025-30513"])
    assert (args.mode, args.seed) == ("vulnerable", 7)
    assert not hasattr(args, "set")


def test_bundle_decrypt_wrong_key_fails(bundle_files):
    tmp, _ = bundle_files
    bad_key = "-".join(["0x1"] * 4)
    code, out = run_cli(
        "bundle", "decrypt", bad_key, str(tmp / "imm.mbmd"), str(tmp / "imm.data"),
        str(tmp / "nope.data"),
    )
    assert code == 1
    assert "TDX_INCORRECT_MBMD_MAC" in out


def test_bad_key_format_is_usage_error(bundle_files):
    tmp, _ = bundle_files
    code, out = run_cli(
        "bundle", "decrypt", "nope", str(tmp / "imm.mbmd"), str(tmp / "imm.data"), "x"
    )
    assert code == 2
    assert "error:" in out


def test_missing_file_is_io_error():
    code, out = run_cli("bundle", "parse", "/nonexistent/plain.data")
    assert code == 2


def test_scenario_list_names_all():
    code, out = run_cli("scenario", "list")
    assert code == 0
    assert len(out.strip().splitlines()) == 9
    assert "cve-2025-30513" in out


def test_scenario_run_exit_codes():
    code, out = run_cli("scenario", "run", "cve-2025-30513", "--mode", "fixed")
    assert code == 0
    assert "NOT EXPLOITABLE" in out
    code, _ = run_cli("scenario", "run", "no-such-scenario")
    assert code == 2


def test_state_dump_fresh_td():
    code, out = run_cli("state", "dump", "--seed", "5")
    assert code == 0
    assert "op_state: UNINITIALIZED" in out


def test_state_dump_after_exploit_shows_debug_flag():
    code, out = run_cli(
        "state", "dump", "--scenario", "cve-2025-30513", "--mode", "vulnerable", "--seed", "7"
    )
    assert code == 0
    assert "attributes: 0x1 (debug)" in out


@pytest.mark.parametrize("mode", ["vulnerable", "fixed"])
@pytest.mark.parametrize("scenario", sorted(all_scenarios()))
def test_state_dump_after_any_scenario_exits_cleanly(scenario, mode):
    # Some scenarios end with no TD registered: that is a usage error, not a crash.
    code, out = run_cli("state", "dump", "--scenario", scenario, "--mode", mode)
    assert code in (0, 2)
    if code == 2:
        assert out.startswith("error: ")


def test_python_dash_m_runs_the_cli():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "tdxmodel", "scenario", "list"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.strip().splitlines()) == 9


def test_state_matrix_row_count():
    code, out = run_cli("state", "matrix")
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("OP_STATE_")]
    assert len(rows) == 11


# Goldens: the seed-7 output of every `scenario run` and `state dump --scenario`.
# The four runs listed by hand keep their file names and test ids.
_FIRST_GOLDENS = {
    ("cve-2025-30513", "vulnerable"), ("cve-2025-30513", "fixed"),
    ("cve-2025-32007", "vulnerable"), ("bug-4-cpuid-lookup-oob", "vulnerable"),
}

# Scenarios that end with no TD registered: `state dump` prints an error line.
GOLDEN_EXIT_CODES = {
    "state-dump.bug-4-cpuid-lookup-oob.vulnerable.txt": 2,
    "state-dump.bug-4-cpuid-lookup-oob.fixed.txt": 2,
    "state-dump.bug-8-hkid-exhaustion.vulnerable.txt": 2,
}


def _run_golden(name, mode):
    short = "bug-4" if name == "bug-4-cpuid-lookup-oob" else name
    return f"{short}.{mode}.txt"


@pytest.mark.parametrize(
    "argv,golden",
    [
        (("scenario", "run", "cve-2025-30513", "--mode", "vulnerable", "--seed", "7"),
         "cve-2025-30513.vulnerable.txt"),
        (("scenario", "run", "cve-2025-30513", "--mode", "fixed", "--seed", "7"),
         "cve-2025-30513.fixed.txt"),
        (("scenario", "run", "cve-2025-32007", "--mode", "vulnerable", "--seed", "7"),
         "cve-2025-32007.vulnerable.txt"),
        (("scenario", "run", "bug-4-cpuid-lookup-oob", "--mode", "vulnerable", "--seed", "7"),
         "bug-4.vulnerable.txt"),
        (("state", "matrix"), "state-matrix.txt"),
    ] + [
        (("scenario", "run", name, "--mode", mode, "--seed", "7"), _run_golden(name, mode))
        for name in sorted(all_scenarios())
        for mode in ("vulnerable", "fixed")
        if (name, mode) not in _FIRST_GOLDENS
    ] + [
        (("state", "dump", "--scenario", name, "--mode", mode, "--seed", "7"),
         f"state-dump.{name}.{mode}.txt")
        for name in sorted(all_scenarios())
        for mode in ("vulnerable", "fixed")
    ],
)
def test_golden_transcripts(argv, golden):
    code, out = run_cli(*argv)
    assert code == GOLDEN_EXIT_CODES.get(golden, 0)
    assert out == (GOLDEN / golden).read_text()


ATTRIBUTES = "0x1110000300000000"


def _encrypt(tmp, key, *extra):
    return run_cli("bundle", "encrypt", key, "immutable", str(tmp / "plain.data"),
                   str(tmp / "fz.mbmd"), str(tmp / "fz.data"), *extra)


def _decrypt(tmp, key):
    return run_cli("bundle", "decrypt", key, str(tmp / "imm.mbmd"), str(tmp / "imm.data"),
                   str(tmp / "fz.plain"))


def _edit(tmp, key, *extra):
    return run_cli("bundle", "edit", key, str(tmp / "imm.mbmd"), str(tmp / "imm.data"),
                   str(tmp / "fz.mbmd"), str(tmp / "fz.data"), *extra)


@pytest.fixture(scope="module")
def plain_bundle(bundle_files):
    tmp, key = bundle_files
    code, out = run_cli("bundle", "decrypt", key, str(tmp / "imm.mbmd"), str(tmp / "imm.data"),
                        str(tmp / "plain.data"))
    assert code == 0, out
    return tmp, key


@pytest.mark.parametrize(
    "command,option,code",
    [
        # Stream index and IV counter must fit the 32- and 64-bit IV halves;
        # the counter advances once before use, so 2**64 - 2 is the last one.
        (_encrypt, "--stream-index=-1", 2),
        (_encrypt, "--stream-index=4294967296", 2),
        (_encrypt, "--stream-index=4294967295", 0),
        (_encrypt, "--iv-counter=-5", 2),
        (_encrypt, "--iv-counter=18446744073709551615", 2),
        (_encrypt, "--iv-counter=18446744073709551616", 2),
        (_encrypt, "--iv-counter=18446744073709551614", 0),
        # A negative step reseals under an IV the bundle's stream already spent.
        (_edit, "--iv-step=-5", 2),
        (_edit, "--iv-step=-1", 2),
        (_edit, "--iv-step=18446744073709551615", 2),
        (_edit, "--iv-step=0", 0),
        (_edit, f"--set={ATTRIBUTES}:0:0x10000000000000000", 2),
        (_edit, f"--set={ATTRIBUTES}:0:-1", 2),
        (_edit, "--set=-0x5:0:0x1", 2),
        # Elements outside the matched sequence are not in it.
        (_edit, f"--set={ATTRIBUTES}:-1:0x1", 1),
        (_edit, f"--set={ATTRIBUTES}:1:0x1", 1),
        (_edit, f"--set={ATTRIBUTES}:4096:0x1", 1),
    ],
)
def test_bundle_integer_arguments_out_of_range(plain_bundle, command, option, code):
    tmp, key = plain_bundle
    got, out = command(tmp, key, option)
    assert got == code, out
    if code == 2:
        assert out.startswith("error: ")


_INTS = st.one_of(
    st.integers(min_value=-(1 << 70), max_value=1 << 70),
    st.sampled_from([-1, 0, 1, (1 << 32) - 1, 1 << 32, (1 << 64) - 2, (1 << 64) - 1, 1 << 64]),
)


@settings(max_examples=60, deadline=None)
@given(stream_index=_INTS, iv_counter=_INTS)
def test_bundle_encrypt_integer_fuzz(plain_bundle, stream_index, iv_counter):
    tmp, key = plain_bundle
    code, out = _encrypt(tmp, key, f"--stream-index={stream_index}", f"--iv-counter={iv_counter}")
    assert code in (0, 2), out


@settings(max_examples=40, deadline=None)
@given(quadwords=st.lists(st.integers(0, 1 << 80), min_size=4, max_size=4))
@example(quadwords=[U64, 1, 1, 1])
@example(quadwords=[1, 1, 1, U64 + 1])
def test_bundle_key_quadword_fuzz(plain_bundle, quadwords):
    """A key quadword past 64 bits is a usage error, before any file is read."""
    tmp, key = plain_bundle
    text = "-".join(f"{q:x}" for q in quadwords)
    for command in (_encrypt, _decrypt, _edit):
        code, out = command(tmp, text)
        if max(quadwords) > U64:
            assert code == 2 and out.startswith("error: bad key quadword"), out
        else:
            assert code in (0, 1), out


@settings(max_examples=100, deadline=None)
@given(
    iv_step=_INTS,
    field_id=st.one_of(st.sampled_from([int(ATTRIBUTES, 16), 0x9810000300000010]), _INTS),
    element=st.one_of(st.integers(min_value=-2, max_value=4), _INTS),
    value=_INTS,
)
def test_bundle_edit_integer_fuzz(plain_bundle, iv_step, field_id, element, value):
    tmp, key = plain_bundle
    original = Mbmd.from_bytes((tmp / "imm.mbmd").read_bytes()).iv_counter
    code, out = _edit(tmp, key, f"--iv-step={iv_step}", f"--set={field_id:#x}:{element}:{value:#x}")
    assert code in (0, 1, 2), out
    if code == 0:
        # A resealed bundle never reuses the original's IV.
        assert Mbmd.from_bytes((tmp / "fz.mbmd").read_bytes()).iv_counter > original


def test_bundle_parse_prints_a_write_mask_and_an_unknown_id(tmp_path):
    with_mask = md.make_sequence_header(MD_CTX_TD, 0x11, 0, write_mask_valid=True)  # ATTRIBUTES
    unknown = md.make_sequence_header(MD_CTX_TD, 0x3E, 0, num_fields=2)  # a class no entry has
    sequences = [md.MdSequence(with_mask, [0xFF, 0x20000001]), md.MdSequence(unknown, [1, 2])]
    (tmp_path / "plain.data").write_bytes(md.build_list(sequences).to_bytes())
    code, out = run_cli("bundle", "parse", str(tmp_path / "plain.data"))
    assert code == 0
    assert out.splitlines()[1:] == [
        "  write_mask: 0xff",
        "  td-scope metadata: identifier: 0x1110000300000000, name: ATTRIBUTES, num_of_fields: 1, "
        "num_of_elem: 1, contents: 0x20000001",
        "  identifier: 0x3e10004300000000, name: UNKNOWN, fields: 2",
    ]
    # XCR0's VP id with reserved bit 24 set: the walk refuses the header, so it names no entry.
    hostile = md.MdSequence(0x1120000300000020 | 1 << 24, [7])
    (tmp_path / "plain.data").write_bytes(md.build_list([hostile]).to_bytes())
    code, out = run_cli("bundle", "parse", str(tmp_path / "plain.data"))
    assert code == 0
    assert out.splitlines()[1:] == ["  identifier: 0x1120000301000020, name: UNKNOWN, fields: 1"]


@pytest.mark.parametrize(
    "argv,error",
    [
        (("bundle", "decrypt", "0xzz-0x1-0x1-0x1", "{mbmd}", "{data}", "{tmp}/out.data"),
         "error: bad key quadword: invalid literal for int() with base 16: '0xzz'"),
        (("bundle", "decrypt", "{key}", "{mbmd}", "{data}", "{tmp}/no-such-dir/out.data"),
         "error: cannot write {tmp}/no-such-dir/out.data: No such file or directory"),
        (("bundle", "parse", "{mbmd}"), "error: data is not a whole number of 4KB lists"),
        (("bundle", "edit", "{key}", "{mbmd}", "{data}", "{tmp}/e.mbmd", "{tmp}/e.data",
          "--set", "0x1110000300000000:0"),
         "error: bad --set spec '0x1110000300000000:0', expected FIELD_ID:ELEM:VALUE"),
        (("state", "dump", "--scenario", "nope"), "error: unknown scenario 'nope'"),
    ],
    ids=["non-hex-key", "missing-directory", "partial-list", "malformed-set", "unknown-scenario"],
)
def test_a_refused_command_exits_2_with_one_error_line(bundle_files, argv, error):
    tmp, key = bundle_files
    names = {"tmp": tmp, "key": key, "mbmd": tmp / "imm.mbmd", "data": tmp / "imm.data"}
    code, out = run_cli(*(arg.format(**names) for arg in argv))
    assert (code, out) == (2, error.format(**names) + "\n")


def test_argparse_exits_become_return_codes(capsys):
    assert main(["nope"]) == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: tdxmodel")
