"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path[:0] = [str(REPO / "src"), str(BENCH)]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402

import tdxmodel  # noqa: E402


@pytest.fixture(scope="module")
def ctx():
    return wl.Context(REPO)


SHORT = 24


def short_phase(ctx, workload, seed=0, tracer=None):
    """A phase of exactly SHORT ops."""
    items = wl.WORKLOADS[workload][0](seed)
    return run.run_phase(wl, ctx, workload, items, 0, SHORT, tracer)


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_generators_are_seed_deterministic(workload):
    generate = wl.WORKLOADS[workload][0]
    assert generate(3) == generate(3)
    assert generate(3) != generate(4)


def test_wrong_span_is_counted_as_failed(ctx, monkeypatch):
    assert not short_phase(ctx, "oob_sweep").failures
    monkeypatch.setattr(wl.md.ParseArena, "max_oob_span", lambda arena: 8192)
    phase = short_phase(ctx, "oob_sweep")
    # Only n=512 has the right span.
    assert len(phase.failures) == phase.attempted - sum(n == 512 for n, _ in
                                                         wl.gen_oob_sweep(0)[:phase.attempted])


def test_mismatched_transcript_is_counted_as_failed(ctx, monkeypatch):
    assert ctx.goldens, "the golden transcripts were not found"
    assert not short_phase(ctx, "replay", seed=wl.GOLDEN_SEED).failures
    broken = {key: text + "one more line\n" for key, text in ctx.goldens.items()}
    monkeypatch.setattr(ctx, "goldens", broken)
    phase = short_phase(ctx, "replay", seed=wl.GOLDEN_SEED)
    items = wl.gen_replay(wl.GOLDEN_SEED)
    with_golden = sum((items[i % len(items)][2], items[i % len(items)][4]) in broken
                      for i in range(phase.attempted))
    assert with_golden and len(phase.failures) == with_golden


def test_changed_model_counts_are_counted_as_failed(ctx, monkeypatch):
    calls = iter(range(10**6))
    monkeypatch.setitem(wl.WORKLOADS, "hostile_fixed", (
        wl.gen_hostile_fixed, wl.op_hostile_fixed,
        lambda c, item, out: (next(calls),) + wl.check_hostile_fixed(c, item, out)))
    items = wl.gen_hostile_fixed(0)[:5]
    phase = run.run_phase(wl, ctx, "hostile_fixed", items, 0, SHORT)
    assert len(phase.failures) == phase.attempted - len(items)


def _bindings():
    modules = {name: m for name, m in sys.modules.items()
               if name == "tdxmodel" or name.startswith("tdxmodel.")}
    found = {}
    for name, module in modules.items():
        for attr, value in vars(module).items():
            found[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, inner in vars(value).items():
                    found[(name, attr, member)] = inner
    return found


def test_tracer_rebinds_and_restores_every_name(ctx):
    before = _bindings()
    tracer = Tracer()
    tracer.install()
    try:
        originals = {id(original) for _, _, original in tracer._patches}
        during = _bindings()
        stale = [key for key, value in during.items() if id(value) in originals]
        assert not stale, f"still bound to an unwrapped function: {stale}"
        assert tdxmodel.engine.encrypt_bundle is tdxmodel.envelope.encrypt_bundle
        assert tdxmodel.cli.run_scenario is tdxmodel.scenarios.run_scenario
        assert before["tdxmodel.engine", "transition"] is not tdxmodel.engine.transition
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("workload", ["hostile_fixed", "replay"])
def test_traced_phase_keeps_model_outputs_and_counts(ctx, workload):
    items = wl.WORKLOADS[workload][0](0)
    ops = run.FINGERPRINT_OPS[workload]
    untraced = run.run_phase(wl, ctx, workload, items, 0, ops)
    tracers = [Tracer(), Tracer()]
    traced = []
    for tracer in tracers:
        tracer.install()
        try:
            traced.append(run.run_phase(wl, ctx, workload, items, 0, ops, tracer))
        finally:
            tracer.uninstall()
    assert len(untraced.fingerprint) == ops and not untraced.failures
    assert traced[0].fingerprint == untraced.fingerprint == traced[1].fingerprint
    assert traced[0].snapshot and traced[0].snapshot == traced[1].snapshot
    assert tracers[0].calls("md_codec.write_list") > 0
    assert tracers[0].spans and all(parent < span for _, span, parent, *_ in tracers[0].spans)


def test_benchmark_json_names_what_the_runner_reports(ctx):
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [name for name, _ in run.END_TO_END]
    assert [m["unit"] for m in spec["end_to_end"]] == [unit for _, unit in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(run.LOAD_PROBES):
            wl.FieldCatalog.load()
            wl.PermissionMatrix.load()
        traced = short_phase(ctx, "hostile_fixed", tracer=tracer)
    finally:
        tracer.uninstall()
    reported = run.per_layer(tracer, traced, short_phase(ctx, "hostile_fixed"))
    assert [m["name"] for m in spec["per_layer"]] == list(reported)
    assert [m["unit"] for m in spec["per_layer"]] == [m["unit"] for m in reported.values()]
