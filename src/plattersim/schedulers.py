"""Service-order policies for the classic and peer disk schedulers.

Every policy is a plan: an order over arrival ranks plus the head path,
``via``, which maps a visit position to the edge tracks the arm passes
on its way there.  Pricing is :func:`plattersim.metrics.price_ranks` of
the planned ranks through those waypoints; it checks no bounds, because
``Scenario`` checked the head and every request address once (a foreign
visit sequence goes through ``metrics.replay``, which checks them, and any
steps through ``oracle.verify_trace``).  SCAN turns at the physical edge of
the disk and C-SCAN additionally rides the full-stroke return
(``num_tracks - 1``) before continuing in its original direction; LOOK and
C-LOOK reverse (or jump) at the extreme request, so their plans name no
waypoints.

Same-track requests follow the queue convention described in
:mod:`plattersim.workload`: the pending queue is a track-sorted list kept
in the arrival sequence's direction, and the arm reads a track's group
forward when it crosses the track moving with that direction, backward
when it crosses against it.  ``Scenario.sweeps`` lays the queue out once,
every group read moving up and moving down, so a sweep plan is two slices
split at the head track, and SSTF takes one group slice per step.  FCFS
ignores all of this and services the queue as it arrived.

The peer policies are all LOOK variants differing only in how the initial
direction is picked:

* ``odsa``/``hdsa`` — toward the nearer extreme track (tie: downward);
* ``smcc`` — downward when the head sits below the midpoint of the
  pending span, upward otherwise;
* ``rp10`` — downward when the head position is at least the span width
  (``max - min``), upward otherwise;
* ``mrsa`` — SSTF when the head lies inside the median window of the
  pending tracks (the two middle values of the sorted track list),
  otherwise LOOK toward the nearer extreme.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from itertools import compress, repeat
from operator import contains, getitem, not_
from typing import Callable, Sequence

from . import modsbsm
from .faults import FaultModel
from .metrics import SchedulerRun, price_ranks, totals
from .workload import DIRECTION_HINT_NAMES, DIRECTIONS, Scenario

SWEEP_NAMES = DIRECTION_HINT_NAMES
# The report's groups: the classic schedulers, the peer policies, the proposed one.
TRADITIONAL_ALGORITHMS = ("fcfs", "sstf") + SWEEP_NAMES
REFERRED_ALGORITHMS = ("odsa", "hdsa", "rp10", "smcc", "mrsa")
PROPOSED_ALGORITHM = "modsbsm"
BASELINE_NAMES = TRADITIONAL_ALGORITHMS + REFERRED_ALGORITHMS
ALGORITHM_NAMES = BASELINE_NAMES + (PROPOSED_ALGORITHM,)

DEFAULT_SWEEP_DIRECTION = "down"
RETRY_LIMIT = 3  # attempts per request before retry_at_tail abandons it

# A visit order over arrival ranks, and the head path's waypoints keyed by
# visit position (see metrics.replay and metrics.price_ranks).
Plan = tuple[list[int], dict[int, tuple[int, ...]]]


def _fcfs_plan(scenario: Scenario) -> Plan:
    return list(range(len(scenario.requests))), {}


def _sstf_plan(scenario: Scenario) -> Plan:
    # The served tracks always form a contiguous run of the track groups with
    # the head at one end, so the nearest pending track is tracks[left] (just
    # below the run) or tracks[right] (just above); a tie goes to the lower.
    tracks, starts, up, down = scenario.sweeps
    n = len(up)
    cur = scenario.initial_head.track
    right = bisect_left(tracks, cur)
    left = right - 1
    order: list[int] = []
    moving_up = scenario.queue_ascending  # zero movement counts as moving with the queue
    while left >= 0 or right < len(tracks):
        if right == len(tracks) or (left >= 0 and cur - tracks[left] <= tracks[right] - cur):
            g, left = left, left - 1
        else:
            g, right = right, right + 1
        if tracks[g] != cur:
            moving_up = tracks[g] > cur
            cur = tracks[g]
        start, end = starts[g], starts[g + 1]
        order += up[start:end] if moving_up else down[n - end : n - start]
    return order, {}


def _sweep_plan(scenario: Scenario, variant: str, direction: str) -> Plan:
    # Two slices of the sweep lists, split where the head track falls: the
    # groups on the first leg's side of the head, then the rest.
    tracks, starts, up, down = scenario.sweeps
    n = len(up)
    head_track = scenario.initial_head.track
    turns = variant in ("scan", "look")  # cscan / clook continue in the original direction
    if direction == "down":
        k = starts[bisect_right(tracks, head_track)]  # requests at or below the head
        first, second = down[n - k :], up[k:] if turns else down[: n - k]
    else:
        k = starts[bisect_left(tracks, head_track)]  # requests below the head
        first, second = up[k:], down[n - k :] if turns else up[:k]

    via: dict[int, tuple[int, ...]] = {}
    if second and variant in ("scan", "cscan"):
        top = scenario.geometry.num_tracks - 1
        edge, far_edge = (0, top) if direction == "down" else (top, 0)
        via[len(first)] = (edge,) if variant == "scan" else (edge, far_edge)
    return first + second, via


def _look_plan(pick: Callable[[int, int, int], str]) -> Callable[[Scenario], Plan]:
    """LOOK from the direction ``pick(head track, lowest, highest pending track)`` names."""

    def plan(scenario: Scenario) -> Plan:
        tracks = scenario.sweeps[0]
        return _sweep_plan(scenario, "look", pick(scenario.initial_head.track, tracks[0], tracks[-1]))

    return plan


# toward the nearer extreme; a tie goes down
_odsa_plan = _look_plan(lambda head, low, high: "up" if high - head < head - low else "down")


def _mrsa_plan(scenario: Scenario) -> Plan:
    # The median window: the two middle values of the sorted track list.
    tracks, up = scenario.tracks, scenario.sweeps[2]
    low, high = tracks[up[(len(up) - 1) // 2]], tracks[up[len(up) // 2]]
    if low <= scenario.initial_head.track <= high:
        return _sstf_plan(scenario)
    return _odsa_plan(scenario)


# Plans of the baselines that pick their own direction; the four sweeps
# take theirs from the caller (see _plan).
PLANS: dict[str, Callable[[Scenario], Plan]] = {
    "fcfs": _fcfs_plan,
    "sstf": _sstf_plan,
    "odsa": _odsa_plan,
    "hdsa": _odsa_plan,  # alias: hdsa runs the same policy as odsa
    "rp10": _look_plan(lambda head, low, high: "down" if head >= high - low else "up"),
    "smcc": _look_plan(lambda head, low, high: "down" if head < (low + high) / 2 else "up"),
    "mrsa": _mrsa_plan,
}


def resolve_direction(
    scenario: Scenario,
    algorithm: str,
    direction: str | None = None,
    use_hints: bool = False,
) -> str:
    """Sweep direction: explicit argument, then scenario hint, then default."""
    if direction is not None:
        if direction not in DIRECTIONS:
            raise ValueError(f"direction must be up or down, got {direction!r}")
        return direction
    if use_hints:
        hinted = scenario.hint(algorithm)
        if hinted is not None:
            return hinted
    return DEFAULT_SWEEP_DIRECTION


def _plan(scenario: Scenario, algorithm: str, direction: str | None, use_hints: bool) -> Plan:
    if not scenario.requests:
        raise ValueError("scenario has no requests")
    if algorithm in SWEEP_NAMES:
        resolved = resolve_direction(scenario, algorithm, direction, use_hints)
        return _sweep_plan(scenario, algorithm, resolved)
    return PLANS[algorithm](scenario)


def retry_at_tail(
    order: Sequence[int],
    scenario: Scenario,
    faults: FaultModel,
) -> tuple[list[int], list[int], list[int]]:
    """Drive a planned order against a fault table, retrying failures at the tail.

    Each failed visit re-queues the request at the end of the queue until it
    has been attempted ``RETRY_LIMIT`` times, then it is abandoned.  Returns
    (visit ranks, served ranks, abandoned ranks).  This is a simple
    extrapolation for the baseline schedulers, which have no bad-sector
    handling of their own; every attempt is a physical probe.
    """
    addresses = scenario.addresses
    bad_rank = list(map(contains, repeat(faults.bad_addresses), addresses))
    failing = list(map(getitem, repeat(bad_rank), order))
    # Readable requests are served on their planned visit; only failures queue.
    queue = deque(compress(order, failing))
    attempts: dict[int, int] = {}
    retried: list[int] = []
    abandoned: list[int] = []
    while queue:
        rank = queue.popleft()
        faults.access(addresses[rank])
        attempts[rank] = attempts.get(rank, 0) + 1
        if attempts[rank] < RETRY_LIMIT:
            queue.append(rank)
            retried.append(rank)
        else:
            abandoned.append(rank)
    served = list(compress(order, map(not_, failing)))
    return [*order, *retried], served, abandoned


def run_scheduler(
    scenario: Scenario,
    algorithm: str,
    *,
    direction: str | None = None,
    use_hints: bool = False,
) -> SchedulerRun:
    """Plan and price one scheduler over one scenario.

    Baselines price their planned visits through the plan's head path.
    On a faulty scenario they drive the plan with the retry-at-tail
    policy; retries follow the whole planned order, so the plan's
    waypoints keep their visit positions.  ``modsbsm`` runs its own
    multi-pass engine, whose record is returned as it is.
    """
    if algorithm not in ALGORITHM_NAMES:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if direction is not None and algorithm not in SWEEP_NAMES:
        raise ValueError(f"direction only applies to {', '.join(SWEEP_NAMES)}")
    if algorithm == PROPOSED_ALGORITHM:
        return modsbsm.execute(scenario)

    order, via = _plan(scenario, algorithm, direction, use_hints)
    visit_ranks, abandoned, note = order, [], ""
    if scenario.faults:
        # Clean runs skip retry_at_tail, which would hash every visit.
        fault_model = FaultModel(scenario.faults)
        visit_ranks, _, abandoned = retry_at_tail(order, scenario, fault_model)
        note = "failed visits retried at queue tail"
    steps = price_ranks(scenario, visit_ranks, via)
    return SchedulerRun(
        algorithm=algorithm,
        order=tuple(order),
        steps=steps,
        totals=totals(steps, len(scenario.requests)),
        abandoned=tuple(abandoned),
        note=note,
    )
