"""``paper_study``: the Section 3 Monte-Carlo comparison at 100 nodes.

One study cycle is the paper's base experiment: a fresh environment
(100 nodes on ``[0, 600]``), then the predefined job (5 slots, 150 time
units, budget 1500) searched by AMP, MinFinish, MinCost, MinRunTime,
MinProcTime and CSA with the paper-faithful ``first`` AMP policy.  It
runs in-process on one core.  Cycle ``k`` draws everything from
``default_rng([seed, k])``, so a cycle can be rebuilt from its index.

A round is a block of :attr:`StudySizes.round_cycles` cycles.  After each
round, outside its timed part, every window is recomputed, and every
:attr:`StudySizes.check_every`-th cycle is compared with the brute force.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Optional

from perfbench import checks
from perfbench.stats import median, peak_rss_mb, tail
from perfbench.spans import ROOT, Tracer, combine_traced


CYCLE_TAIL = 0.95
SCHEDULE_TAIL = 0.95


@dataclass(frozen=True)
class StudySizes:
    nodes: int = 100
    round_cycles: int = 16
    check_every: int = 8


SMALL = StudySizes(nodes=30, round_cycles=4, check_every=2)


def setup(sizes: StudySizes):
    """Everything up to the first timed cycle."""
    from dataclasses import replace

    from repro.core.algorithms import CSA
    from repro.environment.generator import EnvironmentGenerator
    from repro.simulation.config import ExperimentConfig
    from repro.simulation.experiment import paper_algorithm_suite

    config = ExperimentConfig()
    environment = replace(config.environment, node_count=sizes.nodes)
    return environment, config.base_job(), EnvironmentGenerator, paper_algorithm_suite, CSA


def _pass(seed: int, sizes: StudySizes, seconds: float, rounds: Optional[int],
          tracer: Optional[Tracer]) -> dict:
    """Rounds until ``seconds`` of timed wall time (or exactly ``rounds``)."""
    import numpy as np

    environment, job, Generator, suite, CSA = setup(sizes)
    request = job.request
    rec = tracer.recorder if tracer else None
    cycle_ms: list[float] = []
    select_ms: list[float] = []
    csa_ms: list[float] = []
    problems: list[str] = []
    totals = {"costs": [], "finishes": [], "placements": 0, "brute_forced": 0}
    attempted = failed = 0
    elapsed = 0.0
    index = 0
    round_index = 0
    while (elapsed < seconds) if rounds is None else (round_index < rounds):
        if tracer is not None:
            tracer.install()
        outputs: list[tuple[int, dict, list, object]] = []
        round_start = perf_counter()
        for _ in range(sizes.round_cycles):
            attempted += 1
            if rec is not None:
                rec.trace_id = f"cycle-{index}"
                root = rec.open(ROOT)
            try:
                started = perf_counter()
                rng = np.random.default_rng([seed, index])
                pool = Generator(environment, rng=rng).generate().slot_pool()
                selecting = perf_counter()
                windows = {
                    algorithm.name: algorithm.select(job, pool)
                    for algorithm in suite(rng=rng)
                }
                searching = perf_counter()
                alternatives = CSA().find_alternatives(job, pool)
                ended = perf_counter()
            except Exception:  # noqa: BLE001 - a failed operation is counted
                failed += 1
                continue
            finally:
                if rec is not None:
                    rec.close(root)
                index += 1
            if rec is not None:
                rec.pool_sizes.append(len(pool))
            cycle_ms.append((ended - started) * 1e3)
            select_ms.append((ended - selecting) * 1e3)
            csa_ms.append((ended - searching) * 1e3)
            kept = pool if (index - 1) % sizes.check_every == 0 else None
            outputs.append((index - 1, windows, alternatives, kept))
        elapsed += perf_counter() - round_start
        if tracer is not None:
            tracer.uninstall()
        round_index += 1
        # Checked between rounds, outside the timed part, so the kept
        # pools never accumulate.
        _check_round(outputs, request, problems, totals)
    peak_rss = peak_rss_mb()
    return {
        "rounds": round_index,
        "timed_wall": elapsed,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "decisions": {
            "cycles": index,
            "placements": totals["placements"],
            "brute_force_cycles": totals["brute_forced"],
        },
        "metrics": {
            "jobs_per_s": round_index * sizes.round_cycles / elapsed,
            "submit_p50_ms": median(cycle_ms),
            "cycle_p50_ms": median(select_ms),
            "cycle_tail_ms": tail(select_ms, CYCLE_TAIL),
            "schedule_p50_ms": median(csa_ms),
            "schedule_tail_ms": tail(csa_ms, SCHEDULE_TAIL),
            "peak_rss_mb": peak_rss,
            "jobs_completed": float(totals["placements"]),
            "window_cost_mean": sum(totals["costs"]) / len(totals["costs"]),
            "turnaround_mean": sum(totals["finishes"]) / len(totals["finishes"]),
        },
        "samples": {"cycles": len(cycle_ms)},
    }


def run(seed: int, seconds: float, trace: bool, sizes: StudySizes = StudySizes()) -> dict:
    """The untraced study; with ``trace``, then the same cycles traced."""
    plain = _pass(seed, sizes, seconds, None, None)
    if not trace:
        return plain
    tracer = Tracer()
    traced = _pass(seed, sizes, seconds, plain["rounds"], tracer)
    return combine_traced(plain, traced, tracer)

def _check_round(outputs, request, problems: list[str], totals: dict) -> None:
    """Recompute one round's windows; brute-force its sampled cycles."""
    for number, windows, alternatives, pool in outputs:
        label = f"cycle {number}"
        totals["placements"] += sum(1 for window in windows.values() if window is not None)
        totals["placements"] += 1 if alternatives else 0
        slots = list(pool) if pool is not None else None
        free = checks.FreeTime.of_slots(slots) if slots is not None else None
        named = list(windows.items()) + [
            (f"CSA#{rank}", window) for rank, window in enumerate(alternatives)
        ]
        for name, window in named:
            if window is None:
                continue
            cost, legs = checks.check_window(window, request, 0.0, f"{label} {name}", problems)
            if name in windows:
                totals["costs"].append(cost)
                totals["finishes"].append(max(leg.end for leg in legs))
            if free is not None:
                checks.check_free_time(legs, free, problems)
        if slots is not None:
            totals["brute_forced"] += 1
            compared = dict(windows)
            compared["CSA"] = alternatives[0] if alternatives else None
            checks.check_study_cycle(compared, "MinCost", slots, request, label, problems)
