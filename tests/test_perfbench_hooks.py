"""The benchmark's hooks into the package, run under its tracer.

`perfbench/` wraps package functions by name and calls the public API from
its workloads.  Renaming or deleting one of those names fails this test
instead of a later traced benchmark run.
"""

import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))

import test_perfbench  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_each_workload_op_and_check_run_traced():
    ctx = wl.Context(BENCH.parent)
    tracer = Tracer()
    try:
        tracer.install()
        for name, (generate, op, check) in sorted(wl.WORKLOADS.items()):
            item = generate(0)[0]
            # A full-size round trip takes seconds; four pages take the same path.
            out = wl.round_trip(item, 4) if name == "live_migrate" else op(ctx, item)
            check(ctx, item, out)
    finally:
        tracer.uninstall()
    assert tracer.calls("md_codec.write_list") and tracer.calls("cli.main") == 1
    assert tracer.leaf_names()


def test_tracer_binding_check_runs_here_too():
    """perfbench's own check of the names its tracer rebinds, such as
    ``engine.transition``, ``engine.encrypt_bundle`` and ``cli.run_scenario``.
    It is called through its module, so pytest does not collect it here, and
    given ``None`` for the fixture it never reads."""
    test_perfbench.test_tracer_rebinds_and_restores_every_name(None)
