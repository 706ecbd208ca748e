"""Command-line toolkit: bundle handling, scenario runs, and state inspection.

Exit codes: 0 expectations met, 1 expectation mismatch, 2 usage or IO error.
All output is plain text and deterministic for a given --seed.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import md_codec as md
from . import status as S
from .catalog import CONTEXT_CODES, FieldCatalog, bundled_catalog
from .engine import TdxModule
from .envelope import (
    Mbmd,
    MigrationSessionKey,
    MigStreamContext,
    BundleType,
    decrypt_bundle,
    encrypt_bundle,
)
from .scenarios import all_scenarios, run_scenario
from .states import APPENDIX_STATES, bundled_matrix
from .td import U64


class CliError(Exception):
    pass


def parse_key(text: str) -> MigrationSessionKey:
    """Session keys on the command line are four hex quadwords joined by '-'."""
    parts = text.split("-")
    if len(parts) != 4:
        raise CliError("key must be four hex quadwords joined by '-'")
    try:
        quadwords = [int(p, 16) for p in parts]
    except ValueError as exc:
        raise CliError(f"bad key quadword: {exc}") from exc
    if not all(0 <= q <= U64 for q in quadwords):
        raise CliError("bad key quadword: each is 64-bit")
    return MigrationSessionKey.from_quadwords(quadwords)


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from exc


def _write(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as handle:
            handle.write(data)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}") from exc


def _split_lists(data: bytes) -> list[bytes]:
    if not data or len(data) % md.LIST_BYTES:
        raise CliError("data is not a whole number of 4KB lists")
    return [data[i : i + md.LIST_BYTES] for i in range(0, len(data), md.LIST_BYTES)]


def print_lists(lists: list[bytes], catalog: FieldCatalog, out) -> None:
    for index, data in enumerate(lists):
        parsed = md.parse_list(data)
        out.write(
            f"list {index}: list_buff_size: {parsed.header.list_buff_size}, "
            f"num_sequences: {parsed.header.num_sequences}\n"
        )
        for seq in parsed.sequences:
            fid = md.decode_field_id(seq.header_raw)
            scope = CONTEXT_CODES.get(fid.context_code, "?")
            admitted = md.admit_field_id(seq.header_raw, fid.context_code)
            entry = catalog.find_entry(fid.context_code, admitted) if admitted else None
            elements = list(seq.elements)
            if fid.write_mask_valid and elements:
                out.write(f"  write_mask: {hex(elements.pop(0))}\n")
            if entry is None:
                out.write(
                    f"  identifier: {hex(seq.header_raw)}, name: UNKNOWN, "
                    f"fields: {fid.num_fields}\n"
                )
                continue
            per_field = entry.num_of_elem
            for k in range(fid.num_fields):
                code = fid.field_code + k * per_field
                field_id = entry.field_id_for(entry.field_index_of(code))
                values = elements[k * per_field : (k + 1) * per_field]
                contents = " ".join(hex(v) for v in values) if values else "0x0"
                out.write(
                    f"  {scope}-scope metadata: identifier: {hex(field_id)}, "
                    f"name: {entry.name}, num_of_fields: {entry.num_of_fields}, "
                    f"num_of_elem: {entry.num_of_elem}, contents: {contents}\n"
                )


def cmd_bundle(args, out) -> int:
    catalog = bundled_catalog()
    if args.action == "parse":
        print_lists(_split_lists(_read(args.data)), catalog, out)
        return 0

    key = parse_key(args.key)
    if args.action == "encrypt":
        lists = _split_lists(_read(args.data))
        mbmd = _seal(args, key, args.stream_index, args.iv_counter,
                     BundleType[args.type.upper()], lists)
        out.write(f"sealed {len(lists)} lists, iv_counter {mbmd.iv_counter}\n")
        return 0

    # decrypt and edit: open the sealed bundle first.
    mbmd = Mbmd.from_bytes(_read(args.mbmd))
    status, lists = decrypt_bundle(key, mbmd, _read(args.data))
    if status != S.TDX_SUCCESS:
        out.write(f"decrypt failed: {S.status_str(status)}\n")
        return 1
    if args.action == "decrypt":
        _write(args.out_data, b"".join(lists))
        out.write(f"decrypted {len(lists)} lists to {args.out_data}\n")
        return 0

    if args.iv_step < 0:
        raise CliError("--iv-step must not be negative: the fresh IV would repeat an old one")
    patched = [bytearray(item) for item in lists]
    for spec in args.set or []:
        field_id, element, value = _parse_patch(spec)
        if not md.patch_element(patched, field_id, element, value):
            out.write(f"field {hex(field_id)} element {element} not found\n")
            return 1
    new_mbmd = _seal(args, key, mbmd.stream_index, mbmd.iv_counter + args.iv_step,
                     mbmd.bundle_type, [bytes(item) for item in patched])
    out.write(f"patched {len(args.set or [])} fields, resealed with iv_counter "
              f"{new_mbmd.iv_counter}\n")
    return 0


STREAM_INDEX_MAX = (1 << 32) - 1
# The counter advances once before use, and the IV it gives must fit 64 bits.
IV_COUNTER_MAX = U64 - 1


def _seal(args, key: MigrationSessionKey, stream_index: int, iv_counter: int,
          bundle_type: BundleType, lists: list[bytes]) -> Mbmd:
    """Seal lists on a stream whose counter stands at iv_counter; write both files."""
    if not 0 <= stream_index <= STREAM_INDEX_MAX:
        raise CliError(f"stream index must be in 0..{STREAM_INDEX_MAX}")
    if not 0 <= iv_counter <= IV_COUNTER_MAX:
        raise CliError(f"iv counter must be in 0..{IV_COUNTER_MAX}")
    stream = MigStreamContext(stream_index, iv_counter)
    mbmd, ciphertext = encrypt_bundle(stream, bundle_type, lists, key)
    _write(args.out_mbmd, mbmd.to_bytes())
    _write(args.out_data, ciphertext)
    return mbmd


def _parse_patch(spec: str) -> tuple[int, int, int]:
    try:
        field_id, element, value = spec.split(":")
        field_id, element, value = int(field_id, 16), int(element, 0), int(value, 16)
    except ValueError as exc:
        raise CliError(f"bad --set spec {spec!r}, expected FIELD_ID:ELEM:VALUE") from exc
    if not (0 <= field_id <= U64 and 0 <= value <= U64):
        raise CliError(f"bad --set spec {spec!r}: FIELD_ID and VALUE are 64-bit")
    return field_id, element, value


def cmd_scenario(args, out) -> int:
    scenarios = all_scenarios()
    if args.action == "list":
        for name, scenario in scenarios.items():
            toggles = ",".join(sorted(scenario.toggles))
            out.write(f"{name}: {scenario.title} [{toggles}]\n")
        return 0
    if args.name not in scenarios:
        raise CliError(f"unknown scenario {args.name!r}; try 'scenario list'")
    run = run_scenario(scenarios[args.name], args.mode, args.seed)
    out.write(run.transcript)
    return 0 if run.ok else 1


def cmd_state(args, out) -> int:
    if args.action == "matrix":
        matrix = bundled_matrix()
        for state in APPENDIX_STATES:
            leaves = sorted(leaf.name for leaf in matrix.allowed_leaves(state) if not leaf.guest)
            out.write(f"OP_STATE_{state.value}: {' '.join(leaves)}\n")
        return 0

    if args.scenario:
        scenarios = all_scenarios()
        if args.scenario not in scenarios:
            raise CliError(f"unknown scenario {args.scenario!r}")
        run = run_scenario(scenarios[args.scenario], args.mode, args.seed)
        td = run.env.get("dst") or run.env.get("td") or next(iter(run.module.tds.values()), None)
        if td is None:
            raise CliError(f"scenario {args.scenario!r} leaves no TD to dump")
        out.write(td.snapshot() + "\n")
        return 0

    _, td = TdxModule(seed=args.seed).tdh_mng_create(hkid=0)  # a fresh module's HKIDs are free
    out.write(td.snapshot() + "\n")
    return 0


# The handler of each subcommand; argparse requires one of them.
COMMANDS = {"bundle": cmd_bundle, "scenario": cmd_scenario, "state": cmd_state}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every ``main`` call.

    ``parse_args`` fills a fresh namespace each time and copies ``append``
    lists, so no value of one call reaches the next.  Callers must not mutate
    the returned parser (``set_defaults``, ``add_argument``): the change would
    reach every later call in the process.  The saving is for callers that run
    ``main`` many times in one process; a single command-line run builds the
    parser once either way.
    """
    parser = argparse.ArgumentParser(
        prog="tdxmodel",
        description="Desk-scale TD lifecycle and migration metadata model",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bundle = sub.add_parser("bundle", help="parse, seal, open, or patch bundles")
    bundle_sub = bundle.add_subparsers(dest="action", required=True)

    parse_cmd = bundle_sub.add_parser("parse", help="pretty-print decrypted lists")
    parse_cmd.add_argument("data", help="plaintext .data file (whole 4KB lists)")

    decrypt = bundle_sub.add_parser("decrypt", help="verify and open a sealed bundle")
    decrypt.add_argument("key", help="session key: 0xq0-0xq1-0xq2-0xq3")
    decrypt.add_argument("mbmd")
    decrypt.add_argument("data")
    decrypt.add_argument("out_data")

    encrypt = bundle_sub.add_parser("encrypt", help="seal plaintext lists")
    encrypt.add_argument("key")
    encrypt.add_argument("type", choices=["immutable", "td", "vp", "mem"])
    encrypt.add_argument("data")
    encrypt.add_argument("out_mbmd")
    encrypt.add_argument("out_data")
    encrypt.add_argument("--stream-index", type=int, default=0)
    encrypt.add_argument("--iv-counter", type=int, default=0)

    edit = bundle_sub.add_parser("edit", help="patch fields inside a sealed bundle")
    edit.add_argument("key")
    edit.add_argument("mbmd")
    edit.add_argument("data")
    edit.add_argument("out_mbmd")
    edit.add_argument("out_data")
    edit.add_argument("--set", action="append", metavar="FIELD_ID:ELEM:VALUE")
    edit.add_argument("--iv-step", type=int, default=1,
                      help="counter distance for the fresh IV")

    scenario = sub.add_parser("scenario", help="run the findings suite")
    scenario_sub = scenario.add_subparsers(dest="action", required=True)
    scenario_sub.add_parser("list", help="list known scenarios")
    run_cmd = scenario_sub.add_parser("run", help="replay one scenario")
    run_cmd.add_argument("name")
    run_cmd.add_argument("--mode", choices=["vulnerable", "fixed"], default="vulnerable")
    run_cmd.add_argument("--seed", type=int, default=7)

    state = sub.add_parser("state", help="inspect TD state or the permission matrix")
    state_sub = state.add_subparsers(dest="action", required=True)
    dump = state_sub.add_parser("dump", help="print a TD snapshot")
    dump.add_argument("--scenario", help="run this scenario first, then dump its TD")
    dump.add_argument("--mode", choices=["vulnerable", "fixed"], default="vulnerable")
    dump.add_argument("--seed", type=int, default=7)
    state_sub.add_parser("matrix", help="print the op-state permission table")

    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return COMMANDS[args.command](args, out)
    except (CliError, ValueError) as exc:
        out.write(f"error: {exc}\n")
        return 2
