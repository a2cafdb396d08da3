"""``soak``: the 200-node rolling-horizon broker in a closed in-process loop.

The configuration is the program's soak benchmark (``repro.service.soak``):
CSA phase one with the cheapest-subset AMP policy, FINISH_TIME phase two,
batches of 8, Poisson arrivals at 0.8 per time unit, a horizon with lead
and stride 600, over one fixed fleet (environment seed 2013); ``--seed``
drives the job stream.  Each submission is ``advance_to(arrival)``, ``submit``,
``pump()``; the next is sent when the previous returns.

A round is every arrival inside a quarter of a horizon stride of virtual
time.  The pool size follows a sawtooth with the stride as its period (a
new segment is published each stride, trim eats the past); the timed
region starts on a stride boundary, and quarter-stride rounds keep the
run's end close to the time budget.  The first stride is the ramp from an
empty broker to its steady active-job population and is not timed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from time import perf_counter
from typing import Optional

from perfbench import checks
from perfbench.stats import median, peak_rss_mb, tail
from perfbench.spans import ROOT, Tracer, combine_traced


RATE = 0.8
BATCH_SIZE = 8
ROUNDS_PER_STRIDE = 4
WARMUP_STRIDES = 1
#: The fleet and its local load are fixed; ``--seed`` drives demand.
FLEET_SEED = 2013
CYCLE_TAIL = 0.90
SCHEDULE_TAIL = 0.95


@dataclass(frozen=True)
class SoakSizes:
    nodes: int = 200
    lead: float = 600.0
    stride: float = 600.0


SMALL = SoakSizes(nodes=40, lead=60.0, stride=60.0)


def setup(seed: int, sizes: SoakSizes):
    """Everything up to the first timed operation."""
    from repro.core.algorithms.csa import CSA
    from repro.environment.generator import EnvironmentConfig
    from repro.environment.rolling import HorizonConfig, RollingHorizonSource
    from repro.model.slotpool import SlotPool
    from repro.scheduling.metascheduler import BatchScheduler
    from repro.service.broker import BrokerService
    from repro.service.config import ServiceConfig
    from repro.simulation.jobgen import JobGenerator

    environment = EnvironmentConfig(node_count=sizes.nodes, seed=FLEET_SEED)
    horizon = HorizonConfig(lead=sizes.lead, stride=sizes.stride)
    source = RollingHorizonSource(environment, horizon)
    service = ServiceConfig(
        batch_size=BATCH_SIZE,
        check_invariants=False,
        # The committed windows are the output the checks recompute.
        record_assignments=True,
    )
    scheduler = BatchScheduler(
        search=CSA(max_alternatives=service.alternatives_per_job, amp_policy="cheapest"),
        criterion=service.criterion,
        alternatives_per_job=service.alternatives_per_job,
    )
    broker = BrokerService(
        SlotPool(), config=service, scheduler=scheduler, horizon_source=source
    )
    arrivals = JobGenerator(seed=seed).iter_arrivals(10**9, rate=RATE)
    return broker, arrivals, source


def _published_free_time(source) -> checks.FreeTime:
    """Regenerate the segments ``source`` published (a pure function of the
    seed) into a fresh pool."""
    from repro.environment.rolling import RollingHorizonSource
    from repro.model.slotpool import SlotPool

    pool = SlotPool()
    RollingHorizonSource(source.config, source.horizon).extend_to(
        pool, source.published_until
    )
    return checks.FreeTime.of_slots(pool)


def _pass(seed: int, sizes: SoakSizes, seconds: float, rounds: Optional[int],
          tracer: Optional[Tracer]) -> dict:
    """One soak: warm-up, then timed rounds until ``seconds`` of wall time
    are spent (or exactly ``rounds`` of them), then drain and check."""
    broker, arrivals, source = setup(seed, sizes)
    rec = tracer.recorder if tracer else None
    assignments = broker.assignments
    arrival_of: dict[str, float] = {}
    jobs_by_id: dict = {}
    submitted_at: dict[str, float] = {}
    placed_at: dict[str, float] = {}
    not_before: dict[str, float] = {}
    timed_ids: list[str] = []
    op_ms: list[float] = []
    cycle_ms: list[float] = []
    failed = attempted = admitted = 0
    seen = 0
    pending = next(arrivals)
    round_index = 0
    warmup = WARMUP_STRIDES * ROUNDS_PER_STRIDE
    timed_started: Optional[float] = None

    def collect_new(clock_before: float, wall: float) -> None:
        nonlocal seen
        fresh = len(assignments) - seen
        if fresh <= 0:
            return
        for key in islice(reversed(assignments), fresh):
            placed_at[key] = wall
            not_before[key] = clock_before
        seen = len(assignments)

    while True:
        timed = round_index >= warmup
        if timed_started is not None:
            if rounds is None:
                if perf_counter() - timed_started >= seconds:
                    break
            elif round_index - warmup >= rounds:
                break
        traced = rec is not None and timed
        if traced and not tracer.installed:
            tracer.install()
        round_end = (round_index + 1) * sizes.stride / ROUNDS_PER_STRIDE
        if timed and timed_started is None:
            timed_started = perf_counter()
        while pending[0] < round_end:
            arrival, job = pending
            pending = next(arrivals)
            job_id = job.job_id
            jobs_by_id[job_id] = job
            arrival_of[job_id] = arrival
            if traced:
                rec.trace_id = job_id
                root = rec.open(ROOT)
            attempted += 1
            try:
                clock = broker.now
                start = perf_counter()
                submitted_at[job_id] = start
                ran = broker.advance_to(arrival)
                after_advance = perf_counter()
                collect_new(clock, after_advance)
                decision = broker.submit(job)
                before_pump = perf_counter()
                ran_pump = broker.pump()
                end = perf_counter()
                collect_new(broker.now, end)
            except Exception:  # noqa: BLE001 - a failed operation is counted
                failed += 1
                continue
            finally:
                if traced:
                    rec.close(root)
            admitted += bool(decision.admitted)
            if timed:
                timed_ids.append(job_id)
                op_ms.append((end - start) * 1e3)
                if ran == 1:
                    cycle_ms.append((after_advance - start) * 1e3)
                if ran_pump == 1:
                    cycle_ms.append((end - before_pump) * 1e3)
        round_index += 1

    clock = broker.now
    if rec is not None:
        rec.trace_id = "drain"
        root = rec.open(ROOT)
    broker.drain()
    if rec is not None:
        rec.close(root)
    drained = perf_counter()
    if tracer is not None:
        tracer.uninstall()
    collect_new(clock, drained)
    peak_rss = peak_rss_mb()
    stats = broker.stats

    # ---- output checks (outside the timed region) --------------------
    problems: list[str] = []
    free = _published_free_time(source)
    legs: list[checks.Leg] = []
    costs: list[float] = []
    turnarounds: list[float] = []
    schedule_ms: list[float] = []
    timed_set = set(timed_ids)
    for job_id, window in assignments.items():
        cost, window_legs = checks.check_window(
            window, jobs_by_id[job_id].request, not_before[job_id], job_id, problems
        )
        legs.extend(window_legs)
        if job_id in timed_set:
            costs.append(cost)
            turnarounds.append(max(leg.end for leg in window_legs) - arrival_of[job_id])
            schedule_ms.append((placed_at[job_id] - submitted_at[job_id]) * 1e3)
    checks.check_free_time(legs, free, problems)
    checks.check_disjoint(legs, problems)
    failed += account_jobs(admitted, len(assignments), stats.retired, stats.dropped, problems)
    timed_wall = drained - timed_started
    return {
        "rounds": round_index - warmup,
        "timed_wall": timed_wall,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "decisions": {
            "rejected": stats.rejected,
            "dropped": stats.dropped,
            "scheduled": stats.scheduled,
            "rejected_by_reason": dict(stats.rejected_by_reason),
        },
        "metrics": {
            "jobs_per_s": len(timed_ids) / timed_wall,
            "submit_p50_ms": median(op_ms),
            "cycle_p50_ms": median(cycle_ms),
            "cycle_tail_ms": tail(cycle_ms, CYCLE_TAIL),
            "schedule_p50_ms": median(schedule_ms),
            "schedule_tail_ms": tail(schedule_ms, SCHEDULE_TAIL),
            "peak_rss_mb": peak_rss,
            "jobs_completed": float(len(costs)),
            "window_cost_mean": sum(costs) / len(costs),
            "turnaround_mean": sum(turnarounds) / len(turnarounds),
        },
        "samples": {"cycles": len(cycle_ms), "schedule": len(schedule_ms)},
    }


def account_jobs(admitted: int, committed: int, retired: int, dropped: int,
                 problems: list[str]) -> int:
    """Check a drained broker's job tallies; returns the lost jobs.

    Every committed window must have run to retirement.  An admitted job
    ends placed or dropped; anything else was lost, and losing a job
    fails the submission that carried it.
    """
    if retired != committed:
        problems.append(f"{committed} windows committed but {retired} retired")
    return max(0, admitted - committed - dropped)


def run(seed: int, seconds: float, trace: bool, sizes: SoakSizes = SoakSizes()) -> dict:
    """The untraced soak; with ``trace``, then the same rounds traced."""
    plain = _pass(seed, sizes, seconds, None, None)
    if not trace:
        return plain
    tracer = Tracer()
    traced = _pass(seed, sizes, seconds, plain["rounds"], tracer)
    return combine_traced(plain, traced, tracer)
