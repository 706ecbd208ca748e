"""The four benchmark workloads: seeded input generators, one op each, output checks.

Every workload follows the same shape.  ``generate(seed)`` builds the inputs
before any timing starts; ``op(ctx, item)`` is the timed call into the public
API and returns the raw outputs; ``check(ctx, item, out)`` verifies them and
returns the op's deterministic model counts (a tuple), raising ``BadOutput``
when the output is wrong.  The counts depend only on the input, so a repeated
input must reproduce them exactly.
"""

from __future__ import annotations

import hashlib
import io
import pathlib
import random

from tdxmodel import cli
from tdxmodel import md_codec as md
from tdxmodel import status as S
from tdxmodel.catalog import FieldCatalog
from tdxmodel.engine import TdxModule
from tdxmodel.md_codec import MD_CTX_TD, MD_CTX_VP
from tdxmodel.scenarios import (
    LEAK_SENTINEL,
    all_scenarios,
    crafted_vp_list,
    export_blackout,
    finish_import,
    import_to_state_import,
    standard_setup,
)
from tdxmodel.states import OpState, PermissionMatrix

OOB_MAX_FIELDS = 512
OOB_STRATUM = 16
HOSTILE_CORPUS = 2048
MIGRATE_VCPUS = 1
MIGRATE_PAGES = 4096
MIGRATE_SEEDS = 64
MODES = ("vulnerable", "fixed")
VERDICTS = {"vulnerable": "EXPLOITED", "fixed": "NOT EXPLOITABLE"}
GOLDEN_SEED = 7


class BadOutput(Exception):
    """An op returned, but its output is wrong."""


class DictSink:
    """Plain metadata sink: the codec workloads write here, not into a TD."""

    def __init__(self):
        self.values = {}
        self.skips = []

    def write_field(self, entry, field_index, values, combined_mask):
        self.values[(entry.name, field_index)] = list(values)
        return S.TDX_SUCCESS

    def record_skip(self, entry, field_index):
        self.skips.append((entry.name, field_index))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise BadOutput(message)


# --- oob_sweep ----------------------------------------------------------------

def gen_oob_sweep(seed: int) -> list:
    """Every n in 1..512 once, in an order whose each 32-op block holds one n
    from each 16-wide stratum, so a run cut at any block keeps the mix."""
    rng = _rng("oob_sweep", seed)
    strata = []
    for low in range(1, OOB_MAX_FIELDS + 1, OOB_STRATUM):
        values = list(range(low, low + OOB_STRATUM))
        rng.shuffle(values)
        strata.append(values)
    order = []
    for block in range(OOB_STRATUM):
        picks = [values[block] for values in strata]
        rng.shuffle(picks)
        order.extend(picks)
    return [(n, crafted_vp_list(extra_oob_header=True, num_fields=n)) for n in order]


def op_oob_sweep(ctx, item):
    n, data = item
    arena = md.ParseArena(data, plants={4088 + 16 * n: LEAK_SENTINEL})
    result = md.write_list(
        ctx.catalog, MD_CTX_VP, md.MD_FIELD_ID_NA, arena, DictSink(), md.WriteMode.vulnerable()
    )
    return result, arena, arena.max_oob_span()


def check_oob_sweep(ctx, item, out):
    n, _ = item
    result, arena, span = out
    _expect(span == 16 * n, f"n={n}: out-of-bounds span {span}, expected {16 * n}")
    _expect(result.ext_err_info[0] == LEAK_SENTINEL,
            f"n={n}: ext_err_info[0] is {result.ext_err_info[0]:#x}, not the planted sentinel")
    return (n, result.status, len(arena.reads), span)


# --- hostile_fixed ------------------------------------------------------------

def _stratified(rng: random.Random, count: int, span: int) -> list[int]:
    """One uniform draw from each of `count` equal slices of range(span), shuffled,
    so the share of draws in any range varies little between seeds."""
    draws = [(span * k + rng.randrange(span)) // count for k in range(count)]
    rng.shuffle(draws)
    return draws


def gen_hostile_fixed(seed: int) -> list:
    """The criterion-2 fuzz mix: 40% random pages, 30% lying headers and 30%
    crafted lists with a random size field.  Size fields and crafted lengths
    are stratified: the few lists whose size passes the fixed header check
    walk deep and take most of the time, so their number must not vary."""
    rng = _rng("hostile_fixed", seed)
    pages = HOSTILE_CORPUS * 4 // 10
    headers = HOSTILE_CORPUS * 3 // 10
    crafted = HOSTILE_CORPUS - pages - headers
    corpus = [rng.randbytes(md.LIST_BYTES) for _ in range(pages)]
    for size in _stratified(rng, headers, 0x10000):
        header = md.MdListHeader(list_buff_size=size, num_sequences=rng.randrange(0, 32))
        body = header.to_bytes() + rng.randbytes(rng.randrange(0, md.LIST_BYTES - 8))
        corpus.append(body.ljust(md.LIST_BYTES, b"\x00"))
    sizes = _stratified(rng, crafted, 0x10000)
    for size, fields in zip(sizes, _stratified(rng, crafted, OOB_MAX_FIELDS)):
        data = bytearray(crafted_vp_list(True, num_fields=fields + 1))
        data[0:2] = size.to_bytes(2, "little")
        corpus.append(bytes(data))
    rng.shuffle(corpus)
    return corpus


def op_hostile_fixed(ctx, data):
    arena = md.ParseArena(data)
    result = md.write_list(
        ctx.catalog, MD_CTX_VP, md.MD_FIELD_ID_NA, arena, DictSink(), md.WriteMode.fixed()
    )
    return result, arena, arena.oob_reads()


def check_hostile_fixed(ctx, data, out):
    result, arena, oob = out
    _expect(not oob, f"fixed-mode walk read {len(oob)} times past the list")
    return (result.status, len(arena.reads))


# --- live_migrate -------------------------------------------------------------

def gen_live_migrate(seed: int) -> list:
    rng = _rng("live_migrate", seed)
    return [rng.getrandbits(32) for _ in range(MIGRATE_SEEDS)]


def round_trip(module_seed: int, num_pages: int):
    """All-fixed build, export, import, track, commit and end of one TD."""
    module = TdxModule(seed=module_seed)
    env = standard_setup(module, num_vcpus=MIGRATE_VCPUS, num_pages=num_pages)
    src = env["src"]
    export_blackout(module, env)
    mem_bundles = []
    for gpa in src.pages:
        status, bundle = module.tdh_export_mem(src, gpa)
        if status != S.TDX_SUCCESS:
            return module, env, status
        mem_bundles.append(bundle)
    env["bundle_mem"] = mem_bundles
    import_to_state_import(module, env)
    dst = env["dst"]
    for bundle in mem_bundles:
        status = module.tdh_import_mem(dst, bundle)
        if status != S.TDX_SUCCESS:
            return module, env, status
    return module, env, finish_import(module, env)


def op_live_migrate(ctx, module_seed):
    return round_trip(module_seed, MIGRATE_PAGES)


def check_live_migrate(ctx, module_seed, out):
    module, env, status = out
    src, dst = env["src"], env["dst"]
    _expect(status == S.TDX_SUCCESS, f"round trip ended with {S.status_str(status)}")
    _expect(dst.op_state is OpState.RUNNABLE, f"destination is {dst.op_state.name}")
    for context, vp_indexes in ((MD_CTX_TD, [None]), (MD_CTX_VP, range(len(src.vps)))):
        for entry in module.catalog.entries_for(context):
            if not entry.exportable:
                continue
            for vp_index in vp_indexes:
                for position in range(entry.code_span):
                    want = src.read_element(entry, position, vp_index) & entry.export_mask
                    got = dst.read_element(entry, position, vp_index) & entry.export_mask
                    _expect(got == want, f"{entry.name}[{position}] vp={vp_index} differs")
    _expect(dst.pages == src.pages, "destination pages differ from the source")
    statuses = {}
    for td in module.tds.values():
        for step in td.trace:
            statuses[step.status] = statuses.get(step.status, 0) + 1
    ivs = sum(len(ctx_.iv_history) for td in module.tds.values() for ctx_ in td.migsc)
    bundles = [env["bundle_immutable"], env["bundle_td"], *env["bundle_vps"], *env["bundle_mem"]]
    bundle_bytes = sum(len(b.data) for b in bundles)
    return (module_seed, tuple(sorted(statuses.items())), ivs, bundle_bytes, len(dst.pages))


# --- replay -------------------------------------------------------------------

def gen_replay(seed: int) -> list:
    """Every scenario x mode once per cycle, in a seeded order."""
    pairs = [(name, mode) for name in all_scenarios() for mode in MODES]
    _rng("replay", seed).shuffle(pairs)
    return [["scenario", "run", name, "--mode", mode, "--seed", str(seed)] for name, mode in pairs]


def load_goldens(root: pathlib.Path) -> dict:
    """Golden scenario transcripts keyed by (scenario, mode), read from their headers."""
    goldens = {}
    for path in sorted((root / "tests" / "golden").glob("*.txt")):
        text = path.read_text()
        lines = text.splitlines()
        if len(lines) < 2 or not lines[1].startswith("mode: "):
            continue
        name = lines[0].split(":", 1)[0]
        mode, _, seed = lines[1][len("mode: "):].partition(" seed: ")
        if seed == str(GOLDEN_SEED):
            goldens[(name, mode)] = text
    return goldens


def op_replay(ctx, argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def check_replay(ctx, argv, out):
    code, transcript = out
    name, mode, seed = argv[2], argv[4], int(argv[6])
    _expect(code == 0, f"{name} {mode}: exit code {code}")
    _expect(transcript.endswith(f"verdict: {VERDICTS[mode]}\n"), f"{name} {mode}: wrong verdict")
    golden = ctx.goldens.get((name, mode))
    if seed == GOLDEN_SEED and golden is not None:
        _expect(transcript == golden, f"{name} {mode}: transcript differs from its golden")
    return (name, mode, code, hashlib.sha256(transcript.encode()).hexdigest())


# --- set-up and the workload table ------------------------------------------

class Context:
    """What every op may use: the loaded tables and the golden transcripts."""

    def __init__(self, root: pathlib.Path):
        self.catalog = FieldCatalog.load()
        self.matrix = PermissionMatrix.load()
        self.goldens = load_goldens(root)


def warm_up(ctx: Context, workload: str) -> None:
    """One untimed op on a fixed small input, so lazy set-up is paid in set-up."""
    if workload == "oob_sweep":
        op_oob_sweep(ctx, (1, crafted_vp_list(True, num_fields=1)))
    elif workload == "hostile_fixed":
        op_hostile_fixed(ctx, bytes(md.LIST_BYTES))
    elif workload == "live_migrate":
        round_trip(0, 4)
    else:
        op_replay(ctx, ["scenario", "run", "bug-4-cpuid-lookup-oob", "--mode", "fixed"])


WORKLOADS = {
    "oob_sweep": (gen_oob_sweep, op_oob_sweep, check_oob_sweep),
    "hostile_fixed": (gen_hostile_fixed, op_hostile_fixed, check_hostile_fixed),
    "live_migrate": (gen_live_migrate, op_live_migrate, check_live_migrate),
    "replay": (gen_replay, op_replay, check_replay),
}
