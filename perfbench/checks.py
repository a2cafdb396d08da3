"""Independent output checks, written against the paper's model.

Nothing here calls the program's own validators: every committed window
is recomputed from the job's request and the node attributes it names.

* A leg on a node of performance ``p`` lasts ``t_s * r / p`` (the
  reservation time scaled by the reference performance ``r``) and costs
  ``price * duration``.
* A window has ``n`` legs on ``n`` distinct nodes, all starting at the
  window start, which is no earlier than the virtual time of the cycle
  that placed it.  Its cost is within the budget up to float tolerance.
* Every leg lies inside free time the environment published, and no two
  committed legs overlap on one node.

For the paper study, :func:`brute_force` scans every slot start of a
cycle's pool for the cheapest feasible window and the earliest feasible
start; MinCost must match the former and no algorithm may beat either.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

#: Two instants closer than this are simultaneous (the model's tolerance).
TIME_EPS = 1e-9
#: Relative slack on budget and cost comparisons (float summation order).
COST_REL = 1e-6


def budget_of(request) -> float:
    """The budget ``S``: explicit, else ``F * t_s * n``, else unlimited."""
    if request.budget is not None:
        return float(request.budget)
    if request.max_price_per_unit is not None:
        return request.max_price_per_unit * request.reservation_time * request.node_count
    return math.inf


def leg_duration(request, node) -> float:
    return request.reservation_time * request.reference_performance / node.performance


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


@dataclass(frozen=True)
class Leg:
    """One recomputed reservation: ``[start, end)`` on ``node``."""

    node: int
    start: float
    end: float
    owner: str


def check_window(
    window, request, not_before: float, label: str, problems: list[str]
) -> tuple[float, list[Leg]]:
    """Recompute one window; returns its model cost and its legs.

    Any disagreement with the model is appended to ``problems``.
    """
    slots = window.slots
    nodes = [ws.slot.node.node_id for ws in slots]
    if len(slots) != request.node_count:
        problems.append(f"{label}: {len(slots)} legs, request needs {request.node_count}")
    if len(set(nodes)) != len(nodes):
        problems.append(f"{label}: nodes are not distinct: {sorted(nodes)}")
    if window.start < not_before - TIME_EPS:
        problems.append(
            f"{label}: starts at {window.start} before its cycle's time {not_before}"
        )
    total = 0.0
    legs: list[Leg] = []
    for ws in slots:
        node = ws.slot.node
        duration = leg_duration(request, node)
        cost = node.price_per_unit * duration
        if not _close(ws.required_time, duration):
            problems.append(
                f"{label}: leg on node {node.node_id} lasts {ws.required_time}, "
                f"model says {duration}"
            )
        if not _close(ws.cost, cost):
            problems.append(
                f"{label}: leg on node {node.node_id} costs {ws.cost}, model says {cost}"
            )
        total += cost
        legs.append(Leg(node.node_id, window.start, window.start + duration, label))
    budget = budget_of(request)
    if total > budget * (1.0 + COST_REL) + COST_REL:
        problems.append(f"{label}: cost {total} exceeds budget {budget}")
    return total, legs


class FreeTime:
    """Published free time per node, as merged ``[start, end)`` intervals."""

    def __init__(self, intervals: Iterable[tuple[int, float, float]]) -> None:
        by_node: dict[int, list[tuple[float, float]]] = {}
        for node, start, end in intervals:
            by_node.setdefault(node, []).append((start, end))
        self._starts: dict[int, list[float]] = {}
        self._ends: dict[int, list[float]] = {}
        for node, spans in by_node.items():
            spans.sort()
            merged: list[list[float]] = []
            for start, end in spans:
                if merged and start <= merged[-1][1] + TIME_EPS:
                    merged[-1][1] = max(merged[-1][1], end)
                else:
                    merged.append([start, end])
            self._starts[node] = [span[0] for span in merged]
            self._ends[node] = [span[1] for span in merged]

    @classmethod
    def of_slots(cls, slots: Iterable) -> "FreeTime":
        return cls((slot.node.node_id, slot.start, slot.end) for slot in slots)

    def contains(self, node: int, start: float, end: float) -> bool:
        starts = self._starts.get(node)
        if not starts:
            return False
        index = bisect.bisect_right(starts, start + TIME_EPS) - 1
        return index >= 0 and end <= self._ends[node][index] + TIME_EPS


def check_free_time(legs: Iterable[Leg], free: FreeTime, problems: list[str]) -> None:
    for leg in legs:
        if not free.contains(leg.node, leg.start, leg.end):
            problems.append(
                f"{leg.owner}: leg [{leg.start}, {leg.end}) on node {leg.node} "
                "lies outside published free time"
            )


def check_disjoint(legs: Sequence[Leg], problems: list[str]) -> None:
    ordered = sorted(legs, key=lambda leg: (leg.node, leg.start, leg.end))
    for before, after in zip(ordered, ordered[1:]):
        if before.node == after.node and after.start < before.end - TIME_EPS:
            problems.append(
                f"{before.owner} and {after.owner} overlap on node {before.node}: "
                f"[{before.start}, {before.end}) and [{after.start}, {after.end})"
            )


def brute_force(slots: Sequence, request) -> Optional[tuple[float, float]]:
    """``(minimum window cost, earliest feasible start)`` over slot starts.

    At a candidate start ``t`` every node whose free slot covers
    ``[t, t + duration)`` can host a leg; the cheapest ``n`` of them form
    the cheapest window starting at ``t``.  A window starting anywhere can
    be moved back to its latest leg's slot start, so scanning slot starts
    is exhaustive.  ``None`` when no window fits the budget.
    """
    if (
        request.min_clock_speed
        or request.min_ram
        or request.min_disk
        or request.required_os is not None
        or request.deadline is not None
    ):
        raise ValueError("brute force covers performance and price filters only")
    n = request.node_count
    budget = budget_of(request)
    cap = request.max_price_per_unit
    rows = [
        (slot.node.node_id, slot.start, slot.end, leg_duration(request, slot.node),
         slot.node.price_per_unit)
        for slot in slots
        if slot.node.performance >= request.min_performance
        and (cap is None or slot.node.price_per_unit <= cap)
    ]
    if len(rows) < n:
        return None
    table = np.array(rows, dtype=float)
    node = table[:, 0].astype(np.int64)
    start, end, duration = table[:, 1], table[:, 2], table[:, 3]
    cost = table[:, 4] * duration
    best_cost = math.inf
    earliest = math.inf
    for t in np.unique(start):
        alive = (start <= t + TIME_EPS) & (end - t >= duration - TIME_EPS)
        if np.count_nonzero(alive) < n:
            continue
        # One leg per node: a node's slots are disjoint, so at most one
        # covers the leg, but keep the cheapest defensively.
        per_node: dict[int, float] = {}
        for k, c in zip(node[alive].tolist(), cost[alive].tolist()):
            if c < per_node.get(k, math.inf):
                per_node[k] = c
        if len(per_node) < n:
            continue
        total = float(sum(sorted(per_node.values())[:n]))
        if total <= budget * (1.0 + COST_REL) + COST_REL:
            best_cost = min(best_cost, total)
            earliest = min(earliest, float(t))
    if math.isinf(best_cost):
        return None
    return best_cost, earliest


def check_study_cycle(
    windows: dict[str, object],
    mincost_name: str,
    slots: Sequence,
    request,
    label: str,
    problems: list[str],
) -> None:
    """Compare one study cycle's windows with the brute force."""
    reference = brute_force(slots, request)
    found = {name: window for name, window in windows.items() if window is not None}
    if reference is None:
        if found:
            problems.append(f"{label}: brute force finds no window, but {sorted(found)} did")
        return
    min_cost, earliest = reference
    mincost = windows.get(mincost_name)
    if mincost is None:
        problems.append(f"{label}: {mincost_name} found nothing, brute force costs {min_cost}")
    elif not _close(sum(ws.cost for ws in mincost.slots), min_cost, COST_REL):
        problems.append(
            f"{label}: {mincost_name} costs {sum(ws.cost for ws in mincost.slots)}, "
            f"brute-force minimum is {min_cost}"
        )
    for name, window in found.items():
        cost = sum(ws.cost for ws in window.slots)
        if cost < min_cost * (1.0 - COST_REL) - COST_REL:
            problems.append(f"{label}: {name} costs {cost}, below the minimum {min_cost}")
        if window.start < earliest - TIME_EPS:
            problems.append(
                f"{label}: {name} starts at {window.start}, before the earliest "
                f"feasible start {earliest}"
            )
