"""The honest flows open each destination stream's bundles in counter order.

``opens_in_order`` wraps ``engine._open``, the one place a bundle is opened:
each stream must open a counter newer than the last one it opened, except that
a stream whose import was interrupted may open that counter again, to resume.
The flows checked are every scenario in both modes, ``World``'s set-up and an
honest call of each bundle leaf, and the round trips of the engine and
acceptance tests.
"""

import contextlib
from unittest import mock

import pytest

import test_acceptance
import test_engine
from alphabet import BUNDLE_LEAVES, World, admitting, args
from tdxmodel import engine
from tdxmodel import status as S
from tdxmodel.engine import TdxModule
from tdxmodel.scenarios import all_scenarios, run_scenario
from tdxmodel.states import Leaf, OpState
from tdxmodel.td import ATTR_MIGRATABLE, TdParams


@contextlib.contextmanager
def opens_in_order():
    # id(stream) -> (the stream, kept so its id is not reused; the last counter it opened)
    real, last = engine._open, {}

    def checked(td, migsc, bundle, bundle_type):
        lists = real(td, migsc, bundle, bundle_type)
        if type(lists) is list:
            counter, previous = bundle.mbmd.iv_counter, last.get(id(migsc), (migsc, 0))[1]
            resumed = counter == previous and migsc.interrupted_state.cursor
            assert counter > previous or resumed, (
                f"stream {migsc.stream_index} opened {bundle_type.name} {counter} after {previous}")
            last[id(migsc)] = migsc, counter
        return lists

    with mock.patch.object(engine, "_open", checked):
        yield


@pytest.mark.parametrize("mode", ["vulnerable", "fixed"])
@pytest.mark.parametrize("name", sorted(all_scenarios()))
def test_each_scenario_opens_in_order(name, mode):
    with opens_in_order():
        assert run_scenario(all_scenarios()[name], mode).ok


@pytest.mark.parametrize("name", BUNDLE_LEAVES)
def test_world_and_an_honest_call_of_each_bundle_leaf_open_in_order(name):
    with opens_in_order():
        w = World(60)
        for _ in range(2):  # each honest bundle is sealed anew, for the next counter
            w.dst.op_state = admitting(w.m.matrix, Leaf[name.upper()])
            assert getattr(w.m, name)(w.dst, *args(w, name)) == S.TDX_SUCCESS


def _build_and_round_trip():
    m = TdxModule(seed=41)
    status, td = m.build_td(TdParams(attributes=ATTR_MIGRATABLE), num_vcpus=1, num_pages=2)
    assert status == S.TDX_SUCCESS
    assert test_engine._honest_round_trip(m, td) is OpState.RUNNABLE


@pytest.mark.parametrize("flow", [test_acceptance.test_criterion_12_end_to_end_roundtrip,
                                  test_engine.test_full_migration_roundtrip_reproduces_catalog_fields,
                                  _build_and_round_trip], ids=lambda flow: flow.__name__)
def test_each_round_trip_opens_in_order(flow):
    with opens_in_order():
        flow()
