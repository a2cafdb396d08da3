"""``federation``: the asyncio front door over loopback TCP.

Four shards over 64 nodes, hash placement, cross-shard co-allocation,
tenancy (DRF ordering and the escrow ledger) and resilience (low-rate
revocations repaired in place).  One client connection sends closed-loop
``submit`` frames (each carries its arrival time, so the server advances
the shared clock first) and a ``drain`` frame per round.

A fixed-interval pool fills up, so the run is a sequence of rounds, each
on a fresh environment seed with few enough jobs that most are placed.
Per round the environment, shard manager, server and connection are
built before the clock starts and torn down after it stops.  The
benchmark's own event sink stamps each shard cycle's start and end and
each job's first ``SCHEDULED``/``COALLOCATED`` event, keeps the merged
trace for the laws checked after the round, and captures co-allocated
windows when they are announced.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from perfbench import checks
from perfbench.stats import median, peak_rss_mb, tail
from perfbench.spans import ROOT, Tracer, combine_traced


SHARDS = 4
RATE = 0.5
#: Revocations per node and time unit.
REVOCATION_RATE = 0.0005
CYCLE_TAIL = 0.99
SCHEDULE_TAIL = 0.99


@dataclass(frozen=True)
class FederationSizes:
    nodes: int = 64
    jobs_per_round: int = 30


SMALL = FederationSizes(nodes=16, jobs_per_round=8)


def _round_seed(seed: int, round_index: int) -> int:
    return seed * 100_003 + round_index


class BenchSink:
    """The benchmark's event consumer (outside the program)."""

    def __init__(self) -> None:
        from repro.service.events import EventType

        self._types = EventType
        self.manager = None
        self.events: list = []
        self.cycle_open: dict[int, float] = {}
        self.cycle_ms: list[float] = []
        self.placed_wall: dict[str, float] = {}
        self.placed_time: dict[str, float] = {}
        self.coallocated: dict[str, object] = {}
        self.retired: set[str] = set()
        self.terminal: set[str] = set()

    def emit(self, event) -> None:
        types = self._types
        self.events.append(event)
        kind = event.type
        shard = event.fields.get("shard_id")
        if kind is types.CYCLE_START:
            self.cycle_open[shard] = perf_counter()
        elif kind is types.CYCLE_END:
            self.cycle_ms.append((perf_counter() - self.cycle_open.pop(shard)) * 1e3)
        elif kind is types.SCHEDULED or (kind is types.COALLOCATED and shard is None):
            job_id = event.job_id
            self.placed_wall.setdefault(job_id, perf_counter())
            self.placed_time[job_id] = event.time
            if kind is types.COALLOCATED:
                entry = self.manager.coallocator.get(job_id)
                self.coallocated[job_id] = [
                    window for _shard, window in sorted(entry.legs.items())
                ]
        elif kind is types.RETIRED:
            self.retired.add(event.job_id)
            self.terminal.add(event.job_id)
        elif kind is types.DROPPED or kind is types.ABANDONED:
            # A shard's REJECTED is not terminal: the router offers the
            # job to the next shard.
            self.terminal.add(event.job_id)


def _build(seed: int, sizes: FederationSizes, sink: BenchSink):
    from repro.environment.generator import EnvironmentConfig, EnvironmentGenerator
    from repro.federation.config import FederationConfig
    from repro.federation.server import FederationServer
    from repro.federation.sharding import ShardManager
    from repro.service.config import ServiceConfig
    from repro.service.resilience.config import ResilienceConfig
    from repro.tenancy.config import TenancyConfig

    pool = EnvironmentGenerator(EnvironmentConfig(node_count=sizes.nodes, seed=seed)).generate().slot_pool()
    free = checks.FreeTime.of_slots(pool)
    service = ServiceConfig(
        workers=1,
        check_invariants=False,
        record_assignments=True,
        tenancy=TenancyConfig(),
        resilience=ResilienceConfig(
            rate=REVOCATION_RATE, seed=seed, policy="repair"
        ),
    )
    manager = ShardManager(
        pool,
        config=FederationConfig(shards=SHARDS, policy="hash", service=service),
        sinks=[sink],
    )
    sink.manager = manager
    return manager, FederationServer(manager), free


def _arrivals(seed: int, sizes: FederationSizes):
    from repro.simulation.jobgen import JobGenerator

    return list(JobGenerator(seed=seed).iter_arrivals(sizes.jobs_per_round, rate=RATE))


async def _connect(server):
    from repro.federation.client import FederationClient

    await server.start()
    client = await FederationClient.connect(port=server.port)
    await client.ping()
    return client


async def _close(client, server) -> None:
    """Close the connection and the server, then let the server's
    connection handler finish: ``FederationServer.stop`` does not wait for
    it, and a handler still pending when the loop closes is cancelled."""
    await client.close()
    await server.stop()
    current = asyncio.current_task()
    for _ in range(1000):
        if all(task is current for task in asyncio.all_tasks()):
            return
        await asyncio.sleep(0.001)


async def setup_probe(seed: int, sizes: FederationSizes, ready) -> None:
    """Set up round 0 up to its first timed frame, call ``ready``, tear down."""
    sink = BenchSink()
    manager, server, _free = _build(_round_seed(seed, 0), sizes, sink)
    _arrivals(_round_seed(seed, 0), sizes)
    client = await _connect(server)
    ready()
    await _close(client, server)


class _Round:
    """Tallies of one round, kept client-side."""

    def __init__(self) -> None:
        self.sent: dict[str, float] = {}
        self.admitted: set[str] = set()
        self.rejected = 0
        self.frames = 0
        self.failed = 0
        self.submit_ms: list[float] = []
        self.wall = 0.0


async def _run_round(seed, sizes, tracer, problems, totals) -> _Round:
    from repro.federation.client import FederationClientError

    sink = BenchSink()
    manager, server, free = _build(seed, sizes, sink)
    arrivals = _arrivals(seed, sizes)
    client = await _connect(server)
    rec = tracer.recorder if tracer is not None else None
    tally = _Round()
    if tracer is not None:
        tracer.install()
    started = perf_counter()
    try:
        for arrival, job in arrivals:
            tally.frames += 1
            if rec is not None:
                rec.trace_id = job.job_id
                root = rec.open(ROOT)
            sent = perf_counter()
            tally.sent[job.job_id] = sent
            try:
                reply = await client.submit(job, at=arrival)
            except (FederationClientError, OSError, EOFError):
                tally.failed += 1
                continue
            finally:
                if rec is not None:
                    rec.close(root)
            tally.submit_ms.append((perf_counter() - sent) * 1e3)
            if reply.get("admitted"):
                tally.admitted.add(job.job_id)
            else:
                tally.rejected += 1
        tally.frames += 1
        if rec is not None:
            rec.trace_id = f"drain-{seed}"
            root = rec.open(ROOT)
        try:
            await client.drain()
        except (FederationClientError, OSError, EOFError):
            tally.failed += 1
        finally:
            if rec is not None:
                rec.close(root)
    finally:
        tally.wall = perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
            rec.counts["resilience.revocations"] += sum(
                shard.broker.stats.revocations for shard in manager.shards
            )
            rec.counts["resilience.repaired"] += sum(
                shard.broker.stats.repaired for shard in manager.shards
            )
        await client.shutdown()
        await _close(client, server)

    # ---- checks after the timed region -------------------------------
    label = f"round seed {seed}"
    check_laws(sink.events, manager.tenancy.ledger, label, problems)
    jobs = {job.job_id: (arrival, job) for arrival, job in arrivals}
    windows: dict[str, list] = {job_id: [w] for job_id, w in _shard_windows(manager)}
    windows.update(sink.coallocated)
    tally.failed += account_jobs(
        tally.admitted, sink.terminal, set(windows), sink.retired, label, problems
    )
    legs: list[checks.Leg] = []
    for job_id, parts in windows.items():
        arrival, job = jobs[job_id]
        whole = _merged(parts)
        cost, window_legs = checks.check_window(
            whole, job.request, sink.placed_time[job_id], f"{label} {job_id}", problems
        )
        legs.extend(window_legs)
        if job_id in sink.retired:
            totals["costs"].append(cost)
            totals["turnarounds"].append(max(leg.end for leg in window_legs) - arrival)
    checks.check_free_time(legs, free, problems)
    checks.check_disjoint(legs, problems)
    totals["schedule_ms"].extend(
        (sink.placed_wall[job_id] - tally.sent[job_id]) * 1e3
        for job_id in tally.admitted
        if job_id in sink.placed_wall
    )
    totals["cycle_ms"].extend(sink.cycle_ms)
    totals["dropped"] += sum(
        1 for event in sink.events if event.type.value == "dropped"
    )
    return tally


def check_laws(events, ledger, label: str, problems: list[str]) -> None:
    """The drained federation trace laws and the ledger's credit
    conservation, both checked by the program's own law code."""
    from repro.federation.tracing import FederationTraceValidator

    try:
        FederationTraceValidator().observe_all(events).check(expect_drained=True)
    except Exception as error:  # noqa: BLE001 - any law failure is reported
        problems.append(f"{label}: trace laws: {error}")
    try:
        ledger.assert_conservation()
    except Exception as error:  # noqa: BLE001
        problems.append(f"{label}: credit conservation: {error}")


def account_jobs(admitted: set[str], terminal: set[str], committed: set[str],
                 retired: set[str], label: str, problems: list[str]) -> int:
    """Check a drained round's job sets; returns the lost jobs.

    The jobs with a committed window must be exactly the retired ones.
    An admitted job that reached no terminal event (retired, dropped,
    abandoned) was lost, which fails the frame that carried it.
    """
    if committed != retired:
        problems.append(
            f"{label}: committed windows {sorted(committed ^ retired)} "
            "do not match the retired jobs"
        )
    return len(admitted - terminal)


def _shard_windows(manager):
    for shard in manager.shards:
        yield from shard.broker.assignments.items()


class _Whole:
    """A co-allocated window seen as one: the legs of every shard part."""

    def __init__(self, parts) -> None:
        self.start = parts[0].start
        self.slots = tuple(leg for part in parts for leg in part.slots)


def _merged(parts):
    return parts[0] if len(parts) == 1 else _Whole(parts)


async def _pass(seed: int, sizes: FederationSizes, seconds: float,
                rounds: Optional[int], tracer: Optional[Tracer]) -> dict:
    """Rounds until ``seconds`` of timed wall time (or exactly ``rounds``)."""
    problems: list[str] = []
    totals = {"costs": [], "turnarounds": [], "schedule_ms": [], "cycle_ms": [], "dropped": 0}
    submit_ms: list[float] = []
    attempted = failed = admitted = rejected = 0
    elapsed = 0.0
    round_index = 0
    while (elapsed < seconds) if rounds is None else (round_index < rounds):
        tally = await _run_round(
            _round_seed(seed, round_index), sizes, tracer, problems, totals
        )
        elapsed += tally.wall
        attempted += tally.frames
        failed += tally.failed
        admitted += len(tally.admitted)
        rejected += tally.rejected
        submit_ms.extend(tally.submit_ms)
        round_index += 1
    peak_rss = peak_rss_mb()
    costs = totals["costs"]
    return {
        "rounds": round_index,
        "timed_wall": elapsed,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "decisions": {
            "rounds": round_index,
            "submitted": round_index * sizes.jobs_per_round,
            "admitted": admitted,
            "rejected": rejected,
            "dropped": totals["dropped"],
            "completed": len(costs),
        },
        "metrics": {
            "jobs_per_s": round_index * sizes.jobs_per_round / elapsed,
            "submit_p50_ms": median(submit_ms),
            "cycle_p50_ms": median(totals["cycle_ms"]),
            "cycle_tail_ms": tail(totals["cycle_ms"], CYCLE_TAIL),
            "schedule_p50_ms": median(totals["schedule_ms"]),
            "schedule_tail_ms": tail(totals["schedule_ms"], SCHEDULE_TAIL),
            "peak_rss_mb": peak_rss,
            "jobs_completed": float(len(costs)),
            "window_cost_mean": sum(costs) / len(costs),
            "turnaround_mean": sum(totals["turnarounds"]) / len(costs),
        },
        "samples": {
            "cycles": len(totals["cycle_ms"]),
            "schedule": len(totals["schedule_ms"]),
            "submits": len(submit_ms),
        },
    }


async def _run(seed: int, seconds: float, trace: bool, sizes: FederationSizes) -> dict:
    plain = await _pass(seed, sizes, seconds, None, None)
    if not trace:
        return plain
    tracer = Tracer()
    traced = await _pass(seed, sizes, seconds, plain["rounds"], tracer)
    return combine_traced(plain, traced, tracer)


def run(seed: int, seconds: float, trace: bool, sizes: FederationSizes = FederationSizes()) -> dict:
    """The untraced rounds; with ``trace``, then the same rounds traced."""
    return asyncio.run(_run(seed, seconds, trace, sizes))
