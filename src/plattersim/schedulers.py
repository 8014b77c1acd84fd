"""Service-order policies for the classic and peer disk schedulers.

Every policy is a plan: an order over arrival ranks plus the head path,
``via``, which maps a visit position to the edge tracks the arm passes
on its way there.  Pricing is :func:`plattersim.metrics.replay` of the
planned visits through those waypoints.  SCAN turns at the physical edge
of the disk and C-SCAN additionally rides the full-stroke return
(``num_tracks - 1``) before continuing in its original direction; LOOK
and C-LOOK reverse (or jump) at the extreme request, so their plans name
no waypoints.

Same-track requests follow the queue convention described in
:mod:`plattersim.workload`: the pending queue is a track-sorted list kept
in the arrival sequence's direction, and the arm reads a track's group
forward when it crosses the track moving with that direction, backward
when it crosses against it.  FCFS ignores all of this and services the
queue as it arrived.

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

from bisect import bisect_left
from collections import deque
from itertools import compress, repeat
from operator import contains, getitem, not_
from typing import Callable, Sequence

from . import modsbsm
from .faults import FaultModel
from .metrics import SchedulerRun, replay, totals
from .workload import DIRECTION_HINT_NAMES, DIRECTIONS, Scenario

SWEEP_NAMES = DIRECTION_HINT_NAMES
BASELINE_NAMES = ("fcfs", "sstf") + SWEEP_NAMES + ("odsa", "hdsa", "rp10", "smcc", "mrsa")
ALGORITHM_NAMES = BASELINE_NAMES + ("modsbsm",)

DEFAULT_SWEEP_DIRECTION = "down"
RETRY_LIMIT = 3  # attempts per request before retry_at_tail abandons it

# A visit order over arrival ranks, and the head path's waypoints keyed by
# visit position (see metrics.replay).
Plan = tuple[list[int], dict[int, tuple[int, ...]]]


def _groups(scenario: Scenario) -> list[tuple[int, list[int]]]:
    """Pending queue as (track, arrival ranks) groups, tracks ascending."""
    by_track: dict[int, list[int]] = {}
    # The requests' own rank objects: enumerate would allocate one int per rank.
    for req, track in zip(scenario.requests, scenario.tracks):
        by_track.setdefault(track, []).append(req.arrival_rank)
    return sorted(by_track.items())


def _serve(ranks: Sequence[int], moving_up: bool, queue_ascending: bool) -> list[int]:
    # Crossing the track with the queue's sort direction reads the group
    # forward; crossing against it reads the group from the other end.
    if moving_up == queue_ascending:
        return list(ranks)
    return list(reversed(ranks))


def _fcfs_plan(scenario: Scenario) -> Plan:
    return list(range(len(scenario.requests))), {}


def _sstf_plan(scenario: Scenario) -> Plan:
    # The served tracks always form a contiguous run of the sorted groups with
    # the head at one end, so the nearest pending track is groups[left] (just
    # below the run) or groups[right] (just above); a tie goes to the lower.
    qa = scenario.queue_ascending
    groups = _groups(scenario)
    tracks = [t for t, _ in groups]
    cur = scenario.initial_head.track
    right = bisect_left(tracks, cur)
    left = right - 1
    order: list[int] = []
    moving_up = qa  # zero movement counts as moving with the queue
    while left >= 0 or right < len(tracks):
        if right == len(tracks) or (left >= 0 and cur - tracks[left] <= tracks[right] - cur):
            t, ranks = groups[left]
            left -= 1
        else:
            t, ranks = groups[right]
            right += 1
        if t != cur:
            moving_up = t > cur
        order.extend(_serve(ranks, moving_up, qa))
        cur = t
    return order, {}


def _sweep_plan(scenario: Scenario, variant: str, direction: str) -> Plan:
    groups = _groups(scenario)
    qa = scenario.queue_ascending
    head_track = scenario.initial_head.track
    top = scenario.geometry.num_tracks - 1
    down = direction == "down"

    if down:
        first = [g for g in groups if g[0] <= head_track][::-1]
        rest = [g for g in groups if g[0] > head_track]
        first_moving = False
    else:
        first = [g for g in groups if g[0] >= head_track]
        rest = [g for g in groups if g[0] < head_track][::-1]
        first_moving = True
    if variant in ("scan", "look"):
        second, second_moving = rest, not first_moving
    else:  # cscan / clook continue in the original direction
        second, second_moving = rest[::-1], first_moving

    order: list[int] = []
    for _, ranks in first:
        order.extend(_serve(ranks, first_moving, qa))
    boundary_at = len(order)
    for _, ranks in second:
        order.extend(_serve(ranks, second_moving, qa))

    via: dict[int, tuple[int, ...]] = {}
    if second and variant in ("scan", "cscan"):
        edge, far_edge = (0, top) if down else (top, 0)
        via[boundary_at] = (edge,) if variant == "scan" else (edge, far_edge)
    return order, via


def _odsa_plan(scenario: Scenario) -> Plan:
    tracks = scenario.tracks
    head_track = scenario.initial_head.track
    to_min = head_track - min(tracks)
    to_max = max(tracks) - head_track
    # toward the nearer extreme; a tie goes down
    return _sweep_plan(scenario, "look", "up" if to_max < to_min else "down")


def _mrsa_plan(scenario: Scenario) -> Plan:
    tracks = sorted(scenario.tracks)
    n = len(tracks)
    low, high = tracks[(n - 1) // 2], tracks[n // 2]
    if low <= scenario.initial_head.track <= high:
        return _sstf_plan(scenario)
    return _odsa_plan(scenario)


def _smcc_plan(scenario: Scenario) -> Plan:
    tracks = scenario.tracks
    midpoint = (min(tracks) + max(tracks)) / 2
    direction = "down" if scenario.initial_head.track < midpoint else "up"
    return _sweep_plan(scenario, "look", direction)


def _rp10_plan(scenario: Scenario) -> Plan:
    tracks = scenario.tracks
    span = max(tracks) - min(tracks)
    direction = "down" if scenario.initial_head.track >= span else "up"
    return _sweep_plan(scenario, "look", direction)


# Plans of the baselines that pick their own direction; the four sweeps
# take theirs from the caller (see _plan).
PLANS: dict[str, Callable[[Scenario], Plan]] = {
    "fcfs": _fcfs_plan,
    "sstf": _sstf_plan,
    "odsa": _odsa_plan,
    "hdsa": _odsa_plan,  # alias: hdsa runs the same policy as odsa
    "rp10": _rp10_plan,
    "smcc": _smcc_plan,
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


def _plan(
    scenario: Scenario,
    algorithm: str,
    direction: str | None,
    use_hints: bool,
) -> Plan:
    if not scenario.requests:
        raise ValueError("scenario has no requests")
    if algorithm in SWEEP_NAMES:
        resolved = resolve_direction(scenario, algorithm, direction, use_hints)
        return _sweep_plan(scenario, algorithm, resolved)
    if direction is not None:
        raise ValueError(f"direction only applies to {', '.join(SWEEP_NAMES)}")
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

    Baselines replay their planned visits through the plan's head path.
    On a faulty scenario they drive the plan with the retry-at-tail
    policy; retries follow the whole planned order, so the plan's
    waypoints keep their visit positions.  ``modsbsm`` runs its own
    multi-pass engine, whose record is returned as it is.
    """
    if algorithm not in ALGORITHM_NAMES:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == "modsbsm":
        if direction is not None:
            raise ValueError("modsbsm picks its own direction each pass")
        return modsbsm.execute(scenario)

    order, via = _plan(scenario, algorithm, direction, use_hints)
    visit_ranks, abandoned, note = order, [], ""
    if scenario.faults:
        # Clean runs skip retry_at_tail, which would hash every visit.
        fault_model = FaultModel(scenario.faults)
        visit_ranks, _, abandoned = retry_at_tail(order, scenario, fault_model)
        note = "failed visits retried at queue tail"
    addresses = list(map(getitem, repeat(scenario.addresses), visit_ranks))
    steps = replay(scenario.geometry, scenario.initial_head, addresses, via)
    return SchedulerRun(
        algorithm=algorithm,
        order=tuple(order),
        steps=tuple(steps),
        totals=totals(steps, len(scenario.requests)),
        abandoned=tuple(abandoned),
        note=note,
    )
