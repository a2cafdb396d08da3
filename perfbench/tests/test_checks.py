"""The independent output checks trip on planted defects."""

import numpy as np
import pytest

from perfbench import checks, federation, soak
from repro.core.algorithms import MinCost
from repro.environment.generator import EnvironmentConfig, EnvironmentGenerator
from repro.model.job import Job, ResourceRequest
from repro.model.resource import CpuNode
from repro.model.slot import Slot
from repro.model.slotpool import SlotPool
from repro.model.window import Window, WindowSlot

NODES = [CpuNode(node_id=k, performance=p, price_per_unit=c)
         for k, (p, c) in enumerate([(2.0, 1.0), (4.0, 3.0), (5.0, 2.0), (10.0, 6.0)])]
REQUEST = ResourceRequest(node_count=2, reservation_time=100.0, budget=200.0)


def _slots():
    return [Slot(NODES[0], 0.0, 100.0), Slot(NODES[0], 150.0, 400.0),
            Slot(NODES[1], 20.0, 300.0), Slot(NODES[2], 40.0, 100.0),
            Slot(NODES[3], 0.0, 500.0)]


def _window(start, slots, request=REQUEST):
    return Window(start=start, slots=tuple(WindowSlot.for_request(s, request) for s in slots))


def test_a_model_window_passes():
    problems = []
    slots = _slots()
    cost, legs = checks.check_window(_window(40.0, [slots[2], slots[3]]), REQUEST, 30.0, "w", problems)
    checks.check_free_time(legs, checks.FreeTime.of_slots(slots), problems)
    checks.check_disjoint(legs, problems)
    assert problems == []
    assert cost == pytest.approx(3.0 * 25.0 + 2.0 * 20.0)


def test_over_budget_window_trips():
    problems = []
    tight = ResourceRequest(node_count=2, reservation_time=100.0, budget=100.0)
    checks.check_window(_window(40.0, [_slots()[2], _slots()[3]], tight), tight, 0.0, "w", problems)
    assert any("exceeds budget" in p for p in problems)


def test_misreported_leg_and_early_start_trip():
    problems = []
    slot = _slots()[2]
    bad = Window(start=40.0, slots=(WindowSlot(slot=slot, required_time=10.0, cost=1.0),
                                     WindowSlot.for_request(_slots()[3], REQUEST)))
    checks.check_window(bad, REQUEST, 50.0, "w", problems)
    assert any("model says" in p for p in problems)
    assert any("before its cycle" in p for p in problems)


def test_missing_leg_trips():
    problems = []
    checks.check_window(_window(40.0, [_slots()[2]]), REQUEST, 0.0, "w", problems)
    assert any("1 legs, request needs 2" in p for p in problems)


def test_repeated_node_trips():
    problems = []
    slots = _slots()
    checks.check_window(_window(150.0, [slots[1], slots[1]]), REQUEST, 0.0, "w", problems)
    assert any("nodes are not distinct" in p for p in problems)


def test_overlapping_legs_trip():
    problems = []
    slots = _slots()
    _, first = checks.check_window(_window(40.0, [slots[2], slots[3]]), REQUEST, 0.0, "a", problems)
    _, second = checks.check_window(_window(50.0, [slots[2], slots[4]]), REQUEST, 0.0, "b", problems)
    checks.check_disjoint(first + second, problems)
    assert any("overlap on node 1" in p for p in problems)


def test_leg_outside_published_time_trips():
    problems = []
    slots = _slots()
    _, legs = checks.check_window(_window(90.0, [slots[0], slots[4]]), REQUEST, 0.0, "w", problems)
    checks.check_free_time(legs, checks.FreeTime.of_slots(slots), problems)
    assert any("outside published free time" in p for p in problems)


def test_brute_force_by_hand():
    # Durations 50/25/20/10, costs 50/75/40/60.  At t=0 nodes 0 and 3 fit
    # (110); at t=40 all four do, and the cheapest pair is 40 + 50.
    assert checks.brute_force(_slots(), REQUEST) == (90.0, 0.0)
    tight = ResourceRequest(node_count=2, reservation_time=100.0, budget=89.0)
    assert checks.brute_force(_slots(), tight) is None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_mincost_matches_brute_force_and_a_planted_cheat_trips(seed):
    rng = np.random.default_rng(seed)
    pool = EnvironmentGenerator(EnvironmentConfig(node_count=30), rng=rng).generate().slot_pool()
    job = Job("base", ResourceRequest(node_count=5, reservation_time=150.0, budget=1500.0))
    window = MinCost().select(job, pool)
    problems = []
    checks.check_study_cycle({"MinCost": window}, "MinCost", list(pool), job.request, "c", problems)
    assert problems == []
    # A window reported cheaper than the true minimum is caught.
    cheat = Window(start=window.start, slots=tuple(
        WindowSlot(slot=ws.slot, required_time=ws.required_time, cost=ws.cost / 2)
        for ws in window.slots))
    checks.check_study_cycle({"MinCost": cheat}, "MinCost", list(pool), job.request, "c", problems)
    assert any("below the minimum" in p for p in problems)


def test_a_start_before_the_earliest_feasible_start_trips():
    pool = EnvironmentGenerator(EnvironmentConfig(node_count=30),
                                rng=np.random.default_rng(4)).generate().slot_pool()
    job = Job("base", ResourceRequest(node_count=5, reservation_time=150.0, budget=1500.0))
    window = MinCost().select(job, pool)
    _cost, earliest = checks.brute_force(list(pool), job.request)
    early = Window(start=earliest - 1.0, slots=window.slots)
    problems = []
    checks.check_study_cycle({"MinCost": window, "AMP": early}, "MinCost", list(pool),
                             job.request, "c", problems)
    assert len(problems) == 1
    assert "AMP starts at" in problems[0] and "earliest feasible start" in problems[0]


def test_soak_tallies_trip_on_an_unretired_window_and_a_lost_job():
    problems = []
    assert soak.account_jobs(admitted=6, committed=4, retired=4, dropped=2, problems=problems) == 0
    assert problems == []
    # One admitted job ended neither placed nor dropped; one window never retired.
    assert soak.account_jobs(admitted=6, committed=4, retired=3, dropped=1, problems=problems) == 1
    assert problems == ["4 windows committed but 3 retired"]


def test_federation_tallies_trip_on_a_mismatch_and_a_lost_job():
    problems = []
    admitted = {"a", "b", "c"}
    assert federation.account_jobs(admitted, {"a", "b", "c"}, {"a", "b"}, {"a", "b"},
                                   "r", problems) == 0
    assert problems == []
    assert federation.account_jobs(admitted, {"a", "b"}, {"a", "b"}, {"a"}, "r", problems) == 1
    assert len(problems) == 1 and "['b'] do not match the retired jobs" in problems[0]


def test_pool_round_trip_keeps_free_time():
    pool = SlotPool.from_slots(_slots())
    free = checks.FreeTime.of_slots(pool)
    assert free.contains(0, 150.0, 400.0)
    assert not free.contains(0, 90.0, 160.0)


def _drained_federation():
    sink = federation.BenchSink()
    manager, _server, _free = federation._build(3, federation.SMALL, sink)
    manager.process(federation._arrivals(3, federation.SMALL))
    return sink, manager


def test_federation_laws_hold_on_a_drained_round():
    sink, manager = _drained_federation()
    problems = []
    federation.check_laws(sink.events, manager.tenancy.ledger, "r", problems)
    assert problems == []
    assert sink.retired


def test_a_lost_retirement_trips_the_trace_laws():
    sink, manager = _drained_federation()
    retired = next(e for e in sink.events if e.type.value == "retired")
    problems = []
    federation.check_laws([e for e in sink.events if e is not retired],
                          manager.tenancy.ledger, "r", problems)
    assert any("trace laws" in p for p in problems)


def test_a_leaked_credit_trips_conservation():
    sink, manager = _drained_federation()
    ledger = manager.tenancy.ledger
    ledger.account(ledger.tenants()[0]).balance += 5.0
    problems = []
    federation.check_laws(sink.events, ledger, "r", problems)
    assert any("credit conservation" in p for p in problems)
