"""tdxmodel benchmark: four seeded workloads against the public API.

Run from the repository root:

    python3 perfbench/run.py --workload oob_sweep --seed 0 --seconds 20 --trace 0

The program is imported from ``src/`` of the current directory and nowhere
else.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A human summary goes
to standard error and a detailed record to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import array
import gc
import hashlib
import json
import math
import pathlib
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path.cwd()
BENCH = pathlib.Path(__file__).resolve().parent
OUT = BENCH / "out"
# Op latency and set-up are this thread's CPU time, scaled by a reference
# kernel timed next to them: on a shared machine the speed of a core drifts by
# tens of percent within seconds, and the kernel drifts with it.  A reported
# time is what the work would take where one kernel call takes REFERENCE_S.
# The kernel runs once between ops every REFERENCE_EVERY_S of wall time; an
# op is scaled by the samples just before and just after it, set-up by the
# median of SETUP_REFERENCES samples on each side.  Run length is wall time.
clock = time.thread_time
REFERENCE_S = 0.35e-3
REFERENCE_EVERY_S = 0.005
SETUP_REFERENCES = 5
WORKLOAD_NAMES = ("oob_sweep", "hostile_fixed", "live_migrate", "replay")

# Set-up is measured in this process and in SETUP_SAMPLES - 1 fresh child
# processes; the median is reported, because one cold start is noisy.
SETUP_SAMPLES = 9
# op_tail_ms is this percentile of the op latencies: per workload the highest
# round percentile with well over 10 samples beyond it in a run at this
# commit's speed, fixed so that runs and commits compare the same percentile.
TAIL_PERCENTILE = {"oob_sweep": 99.0, "hostile_fixed": 99.9, "live_migrate": 80.0,
                   "replay": 95.0}
# An untraced run makes at least this many ops, so even a slow run has a tail.
MIN_OPS = 60
# Deterministic model counts and the output digest cover the first ops of a phase.
FINGERPRINT_OPS = {"oob_sweep": 128, "hostile_fixed": 2048, "live_migrate": 4, "replay": 18}
LOAD_PROBES = 5

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class _Record:
    __slots__ = ("low", "high")

    def __init__(self, low, high):
        self.low = low
        self.high = high


def _reference_step(raw: int, table: dict) -> int:
    record = _Record(raw & 0xFFFF, (raw >> 16) & 0x3F)
    table[record.high] = record
    return record.low ^ record.high


def reference_kernel() -> int:
    """Fixed interpreter-bound work shaped like the model's: byte slicing,
    integer decoding, small objects, calls and dict stores."""
    data = bytes(range(256)) * 16
    table: dict = {}
    acc = 0
    for offset in range(0, len(data) - 8, 8):
        raw = int.from_bytes(data[offset:offset + 8], "little")
        acc = (acc + _reference_step(raw, table)) & 0xFFFFFFFF
    return acc + len(table)


def reference_sample() -> float:
    """CPU seconds of one kernel call."""
    started = clock()
    reference_kernel()
    return clock() - started


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_workloads():
    """Import the program from ./src only; refuse to run anywhere else."""
    src = ROOT / "src"
    if not (src / "tdxmodel" / "__init__.py").is_file():
        fail(f"no src/tdxmodel under {ROOT}; run from the repository root")
    sys.path.insert(0, str(src))
    import tdxmodel
    import workloads

    if pathlib.Path(tdxmodel.__file__).resolve().parent != (src / "tdxmodel").resolve():
        fail(f"tdxmodel was imported from {tdxmodel.__file__}, not from {src}")
    return workloads


def set_up(workload: str):
    """Imports, table loads and one warm-up op: everything before the first timed op."""
    references = [reference_sample() for _ in range(SETUP_REFERENCES)]
    started = clock()
    wl = import_workloads()
    ctx = wl.Context(ROOT)
    wl.warm_up(ctx, workload)
    elapsed = clock() - started
    references += [reference_sample() for _ in range(SETUP_REFERENCES)]
    return wl, ctx, elapsed * REFERENCE_S / statistics.median(references)


def setup_in_child(workload: str) -> float:
    child = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if child.returncode != 0:
        fail(f"set-up probe failed: {child.stderr.strip()}")
    return float(child.stdout.strip().splitlines()[-1])


class Phase:
    """One closed-loop pass: per-op latencies, failures and determinism records."""

    def __init__(self):
        # Four bytes per op, so that memory held for the record barely grows with
        # the op count: peak_rss_mb is read when the loop ends.
        self.raw_latencies = array.array("f")
        self.positions = array.array("I")
        self.references = array.array("d", [reference_sample()])
        self.latencies = array.array("d")
        self.failures: list[str] = []
        self.first_counts: dict[int, tuple] = {}
        self.fingerprint: list[str] = []
        self.snapshot: dict = {}
        self.peak_rss_mb = 0.0

    @property
    def attempted(self) -> int:
        return len(self.raw_latencies)

    def scale_latencies(self) -> None:
        """Scale each op by the mean of the reference samples just around it."""
        refs = self.references
        refs.append(reference_sample())
        factors = [REFERENCE_S * 2 / (before + after) for before, after in zip(refs, refs[1:])]
        self.latencies = array.array(
            "d", (raw * factors[p] for raw, p in zip(self.raw_latencies, self.positions)))

    def scale(self) -> float:
        """Mean factor from this phase's raw seconds to reported seconds."""
        return sum(self.latencies) / sum(self.raw_latencies)

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.fingerprint).encode()).hexdigest()

    def ops_per_s(self) -> float:
        busy = sum(self.latencies)
        return (self.attempted - len(self.failures)) / busy if busy else 0.0


def run_phase(wl, ctx, workload, items, seconds, min_ops, tracer=None) -> Phase:
    """Run ops back to back for `seconds` of wall time and at least `min_ops` ops.

    Each op starts when the previous one returned and its output was checked;
    only the op itself is timed.  Counts of an input seen again must repeat.
    """
    _, op, check = wl.WORKLOADS[workload]
    fingerprint_ops = FINGERPRINT_OPS[workload]
    phase = Phase()
    gc.collect()
    now = time.perf_counter()
    deadline = now + seconds
    next_reference = now + REFERENCE_EVERY_S
    index = 0
    while index < min_ops or now < deadline:
        if now >= next_reference:
            phase.references.append(reference_sample())
            next_reference = now + REFERENCE_EVERY_S
        key = index % len(items)
        item = items[key]
        counts = error = None
        started = clock()
        try:
            out = tracer.op(index, op, ctx, item) if tracer else op(ctx, item)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"{type(exc).__name__}: {exc}"
        phase.raw_latencies.append(clock() - started)
        phase.positions.append(len(phase.references) - 1)
        if error is None:
            try:
                counts = check(ctx, item, out)
            except wl.BadOutput as exc:
                error = str(exc)
            del out
        if error is None and phase.first_counts.setdefault(key, counts) != counts:
            error = f"input {key}: model counts {counts} differ from {phase.first_counts[key]}"
        if error is not None:
            phase.failures.append(f"op {index}: {error}")
        index += 1
        if index <= fingerprint_ops:
            phase.fingerprint.append(repr(counts if error is None else error))
            if tracer and index == fingerprint_ops:
                phase.snapshot = tracer.snapshot()
        now = time.perf_counter()
    phase.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    phase.scale_latencies()
    return phase


def percentile(latencies, pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def digest_number(digest: str) -> int:
    """A hex digest as a JSON-safe integer (its first 48 bits)."""
    return int(digest[:12], 16)


def end_to_end(phase: Phase, tail_pct: float, setup_samples: list[float]) -> dict:
    values = {
        "ops_per_s": phase.ops_per_s(),
        "op_p50_ms": statistics.median(phase.latencies) * 1e3,
        "op_tail_ms": percentile(phase.latencies, tail_pct)[0] * 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": phase.peak_rss_mb,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def share(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def per_layer(tracer, traced: Phase, untraced: Phase) -> dict:
    """Per-op calls and self seconds of each layer, shares, overhead and model counts."""
    ops = traced.attempted
    t = tracer
    leaves = t.leaf_names()
    leaf_calls = sum(t.calls(name) for name in leaves)
    denied = t.leaf_status[t.denied_status]
    c = t.counters
    snap = traced.snapshot
    snap_leaves = sum(n for name, n in snap.items() if name.startswith("leaf_status."))

    # The tracer's wall seconds, scaled like the traced phase's op latencies.
    scale = traced.scale()

    def per_op(name, value, unit):
        return name, value * (scale if unit == "s/op" else 1) / ops, unit

    rows = [
        per_op("md_codec.write_list.calls", t.calls("md_codec.write_list"), "count/op"),
        per_op("md_codec.write_list.self_s", t.self_s("md_codec.write_list"), "s/op"),
        per_op("md_codec.arena_reads", t.calls("md_codec.arena_read"), "count/op"),
        ("md_codec.oob_read_share",
         share(c["md_codec.oob_reads"], t.calls("md_codec.arena_read")), "ratio"),
        ("md_codec.lists_rejected_share",
         share(c["md_codec.lists_rejected"], t.calls("md_codec.write_list")), "ratio"),
        per_op("md_codec.arena_init.self_s", t.self_s("md_codec.arena_init"), "s/op"),
        per_op("md_codec.dump_lists.calls", t.calls("md_codec.dump_lists"), "count/op"),
        per_op("md_codec.dump_lists.self_s", t.self_s("md_codec.dump_lists"), "s/op"),
        per_op("md_codec.decode_field_id.calls", t.calls("md_codec.decode_field_id"), "count/op"),
        per_op("md_codec.decode_field_id.self_s", t.self_s("md_codec.decode_field_id"), "s/op"),
        per_op("md_codec.arena_read.self_s", t.self_s("md_codec.arena_read"), "s/op"),
        per_op("catalog.find_entry.calls", t.calls("catalog.find_entry"), "count/op"),
        per_op("catalog.find_entry.self_s", t.self_s("catalog.find_entry"), "s/op"),
        per_op("catalog.next_entry_after.calls", t.calls("catalog.next_entry_after"), "count/op"),
        per_op("catalog.next_entry_after.self_s", t.self_s("catalog.next_entry_after"), "s/op"),
        ("catalog.load_s", statistics.median(t.load_samples["catalog.load"]) * scale, "s"),
        per_op("states.is_allowed.calls", t.calls("states.is_allowed"), "count/op"),
        per_op("states.is_allowed.self_s", t.self_s("states.is_allowed"), "s/op"),
        per_op("states.transition.calls", t.calls("states.transition"), "count/op"),
        per_op("states.transition.self_s", t.self_s("states.transition"), "s/op"),
        per_op("states.validate_trace.self_s", t.self_s("states.validate_trace"), "s/op"),
        ("states.load_s", statistics.median(t.load_samples["states.load"]) * scale, "s"),
        per_op("envelope.encrypt_bundle.calls", t.calls("envelope.encrypt_bundle"), "count/op"),
        per_op("envelope.encrypt_bundle.self_s", t.self_s("envelope.encrypt_bundle"), "s/op"),
        per_op("envelope.encrypt_bundle.bytes", c["envelope.encrypt_bytes"], "B/op"),
        per_op("envelope.decrypt_bundle.calls", t.calls("envelope.decrypt_bundle"), "count/op"),
        per_op("envelope.decrypt_bundle.self_s", t.self_s("envelope.decrypt_bundle"), "s/op"),
        per_op("envelope.decrypt_bundle.bytes", c["envelope.decrypt_bytes"], "B/op"),
        ("envelope.mac_fail_share",
         share(c["envelope.mac_fail"], t.calls("envelope.decrypt_bundle")), "ratio"),
        ("envelope.iv_history_len", c["envelope.iv_history_len"], "count"),
        per_op("td.write_field.calls", t.calls("td.write_field"), "count/op"),
        per_op("td.write_field.self_s", t.self_s("td.write_field"), "s/op"),
        per_op("td.read_field.calls", t.calls("td.read_field"), "count/op"),
        per_op("td.read_field.self_s", t.self_s("td.read_field"), "s/op"),
        ("td.write_rejected_share",
         share(c["td.write_rejected"], t.calls("td.write_field")), "ratio"),
        per_op("engine.leaf.calls", leaf_calls, "count/op"),
        per_op("engine.leaf.self_s", sum(t.self_s(name) for name in leaves), "s/op"),
        ("engine.leaf.denied_share", share(denied, leaf_calls), "ratio"),
        per_op("engine.build_td.self_s", t.self_s("engine.build_td"), "s/op"),
        per_op("engine.tdh_export_mem.self_s", t.self_s("engine.tdh_export_mem"), "s/op"),
        per_op("engine.tdh_import_mem.self_s", t.self_s("engine.tdh_import_mem"), "s/op"),
        per_op("engine.tdh_import_state_vp.self_s",
               t.self_s("engine.tdh_import_state_vp"), "s/op"),
        per_op("scenarios.run_scenario.self_s", t.self_s("scenarios.run_scenario"), "s/op"),
        per_op("cli.main.self_s", t.self_s("cli.main"), "s/op"),
        per_op("trace.op_self_s", t.self_s("op"), "s/op"),
        ("trace.ops_per_s_untraced", untraced.ops_per_s(), "1/s"),
        ("trace.ops_per_s_traced", traced.ops_per_s(), "1/s"),
        ("trace.overhead", share(untraced.ops_per_s(), traced.ops_per_s()), "ratio"),
        ("model.output_digest", digest_number(traced.digest()), "digest"),
        ("model.count_digest",
         digest_number(hashlib.sha256(repr(sorted(snap.items())).encode()).hexdigest()), "digest"),
        ("model.arena_reads", snap.get("md_codec.arena_read", 0), "count"),
        ("model.oob_bytes", snap.get("md_codec.oob_bytes", 0), "count"),
        ("model.leaf_calls", snap_leaves, "count"),
        ("model.leaf_denied", snap.get(f"leaf_status.{t.denied_status:#x}", 0), "count"),
        ("model.ivs_issued", snap.get("envelope.next_iv", 0), "count"),
        ("model.bundle_bytes",
         snap.get("envelope.encrypt_bytes", 0) + snap.get("envelope.decrypt_bytes", 0), "count"),
    ]
    return {name: {"value": value, "unit": unit} for name, value, unit in rows}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, print the set-up seconds and exit")
    args = parser.parse_args(argv)

    wl, ctx, setup_s = set_up(args.workload)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    items = wl.WORKLOADS[args.workload][0](args.seed)
    # Start-up objects and inputs live for the whole run: keep them out of the
    # collector's full passes, whose length would otherwise set the tail.
    gc.collect()
    gc.freeze()

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    if args.trace:
        from tracer import Tracer

        # Both phases reach the fingerprinted ops, so their counts compare.
        min_ops = FINGERPRINT_OPS[args.workload]
        untraced = run_phase(wl, ctx, args.workload, items, args.seconds / 2, min_ops)
        tracer = Tracer()
        tracer.install()
        try:
            for _ in range(LOAD_PROBES):
                wl.FieldCatalog.load()
                wl.PermissionMatrix.load()
            traced = run_phase(wl, ctx, args.workload, items, args.seconds / 2, min_ops, tracer)
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
        metrics = per_layer(tracer, traced, untraced)
        # Wrappers must not change what the model does.
        same_model = untraced.fingerprint == traced.fingerprint
        record["snapshot"] = traced.snapshot
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
        OUT.mkdir(exist_ok=True)
        with spans_path.open("w") as handle:
            for op_id, span_id, parent, name, start, end in tracer.spans:
                handle.write(json.dumps({"op": op_id, "id": span_id, "parent": parent,
                                         "name": name, "start": start, "end": end}) + "\n")
    else:
        phase = run_phase(wl, ctx, args.workload, items, args.seconds, MIN_OPS)
        setup_samples = [setup_s] + [setup_in_child(args.workload)
                                     for _ in range(SETUP_SAMPLES - 1)]
        phases = [phase]
        tail_pct = TAIL_PERCENTILE[args.workload]
        metrics = end_to_end(phase, tail_pct, setup_samples)
        same_model = True
        record["op_tail_percentile"] = tail_pct
        record["op_tail_beyond"] = percentile(phase.latencies, tail_pct)[1]
        record["setup_samples"] = setup_samples

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    record.update({
        "attempted": attempted,
        "failures": failures[:50],
        "fail_ratio": len(failures) / attempted,
        "fingerprint_ops": len(phases[-1].fingerprint),
        "output_digest": phases[-1].digest(),
        "model_unchanged_by_tracer": same_model,
        "metrics": metrics,
    })
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")

    for line in failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {attempted} ops, {len(failures)} failed "
          f"(fail_ratio {len(failures) / attempted:.4g}), output digest "
          f"{record['output_digest'][:16]} over {record['fingerprint_ops']} ops", file=sys.stderr)
    if not args.trace:
        print(f"op_tail_ms is p{record['op_tail_percentile']:g} of {attempted} samples, "
              f"{record['op_tail_beyond']} beyond it", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"  {name:36s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures and same_model,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
