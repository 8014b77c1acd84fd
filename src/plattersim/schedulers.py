"""Service-order policies for the classic and peer disk schedulers.

Every policy is a plan: an order over arrival ranks plus the head path,
``via``, which maps a visit position to the edge tracks the arm passes
on its way there.  :meth:`plattersim.metrics.SchedulerRun.priced` prices
the planned ranks through those waypoints into the run record; it checks
no bounds, because ``Scenario`` checked the head and every request address
once (a foreign visit sequence goes through ``metrics.replay``, which
checks them, and any steps through ``oracle.verify_trace``).  SCAN turns
at the physical edge of the disk and C-SCAN additionally rides the
full-stroke return (``num_tracks - 1``) before continuing in its original
direction; LOOK and C-LOOK reverse (or jump) at the extreme request, so
their plans name no waypoints.

Same-track requests follow the queue convention described in
:mod:`plattersim.workload`: the pending queue is a track-sorted list kept
in the arrival sequence's direction, and the arm reads a track's group
forward when it crosses the track moving with that direction, backward
when it crosses against it.  ``Scenario.sweeps`` lays the queue out once,
every group read moving up and moving down, so a sweep plan is two slices
split at the head track, and SSTF takes one group slice per step.  FCFS
ignores all of this and services the queue as it arrived.  A sweep plan
names its two slices as legs, runs of the ``up`` list read forward or
backward, and ``priced`` copies their steps out of the scenario's priced
layout (``Scenario.sweep_layout``); FCFS and SSTF have their walks priced.

No baseline handles bad sectors: each request to a bad address is tried
``RETRY_LIMIT`` times, on its planned visit and then in rounds at the
queue tail in plan order, and is then abandoned.  Only a run that
abandons a request carries the note that failed visits were retried.

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
from itertools import compress
from typing import Callable

from . import modsbsm
from .metrics import SchedulerRun
from .workload import DIRECTION_HINT_NAMES, DIRECTIONS, Scenario

SWEEP_NAMES = DIRECTION_HINT_NAMES
# The report's groups: the classic schedulers, the peer policies, the proposed one.
TRADITIONAL_ALGORITHMS = ("fcfs", "sstf") + SWEEP_NAMES
REFERRED_ALGORITHMS = ("odsa", "hdsa", "rp10", "smcc", "mrsa")
PROPOSED_ALGORITHM = "modsbsm"
BASELINE_NAMES = TRADITIONAL_ALGORITHMS + REFERRED_ALGORITHMS
ALGORITHM_NAMES = BASELINE_NAMES + (PROPOSED_ALGORITHM,)

DEFAULT_SWEEP_DIRECTION = "down"
RETRY_LIMIT = 3  # attempts per request to a bad address before a baseline abandons it

# A visit order over arrival ranks, the head path's waypoints keyed by visit
# position, and a sweep's legs over the up list, or None (see
# metrics.replay and metrics.SchedulerRun.priced).
Plan = tuple[list[int], dict[int, tuple[int, ...]], tuple[tuple[int, int, bool], ...] | None]


def _fcfs_plan(scenario: Scenario) -> Plan:
    return list(range(len(scenario.requests))), {}, None


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
    return order, {}, None


def _sweep_plan(scenario: Scenario, variant: str, direction: str) -> Plan:
    # Two legs, runs up[lo:hi] of the up list read forward or backward, split
    # where the head track falls: the groups on the first leg's side of the
    # head, then the rest.
    tracks, starts, up, down = scenario.sweeps
    n = len(up)
    head_track = scenario.initial_head.track
    turns = variant in ("scan", "look")  # cscan / clook continue in the original direction
    if direction == "down":
        k = starts[bisect_right(tracks, head_track)]  # requests at or below the head
        legs = (0, k, False), (k, n, turns)
    else:
        k = starts[bisect_left(tracks, head_track)]  # requests below the head
        legs = (k, n, True), (0, k, not turns)
    order: list[int] = []
    for lo, hi, forward in legs:
        order += up[lo:hi] if forward else down[n - hi : n - lo]

    via: dict[int, tuple[int, ...]] = {}
    first = legs[0][1] - legs[0][0]  # visits before the turn or the return
    if first < n and variant in ("scan", "cscan"):
        top = scenario.geometry.num_tracks - 1
        edge, far_edge = (0, top) if direction == "down" else (top, 0)
        via[first] = (edge,) if variant == "scan" else (edge, far_edge)
    return order, via, legs


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


def _plan(scenario: Scenario, algorithm: str, direction: str | None, use_hints: bool) -> Plan:
    """The algorithm's plan; a sweep goes ``direction``, else the hint if used, else the default."""
    if not scenario.requests:
        raise ValueError("scenario has no requests")
    if algorithm not in SWEEP_NAMES:
        return PLANS[algorithm](scenario)
    if direction is None:
        direction = (use_hints and scenario.hint(algorithm)) or DEFAULT_SWEEP_DIRECTION
    elif direction not in DIRECTIONS:
        raise ValueError(f"direction must be up or down, got {direction!r}")
    return _sweep_plan(scenario, algorithm, direction)


def run_scheduler(
    scenario: Scenario,
    algorithm: str,
    *,
    direction: str | None = None,
    use_hints: bool = False,
) -> SchedulerRun:
    """Plan and price one scheduler over one scenario.

    Baselines price their planned visits through the plan's head path.
    On a faulty scenario the retries follow the whole planned order, so
    the plan's waypoints keep their visit positions.  ``modsbsm`` runs its
    own multi-pass engine, whose record is returned as it is.
    """
    if algorithm not in ALGORITHM_NAMES:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if direction is not None and algorithm not in SWEEP_NAMES:
        raise ValueError(f"direction only applies to {', '.join(SWEEP_NAMES)}")
    if algorithm == PROPOSED_ALGORITHM:
        return modsbsm.execute(scenario)

    order, via, legs = _plan(scenario, algorithm, direction, use_hints)
    abandoned: tuple[int, ...] = ()
    if scenario.faults:
        # A plan visits each rank once, so the retry-at-tail queue is closed
        # form: the ranks on bad addresses, in plan order, fail their planned
        # visit, are retried in RETRY_LIMIT - 1 rounds at the tail in that
        # order, and are abandoned on the last.
        bad = {spec.address for spec in scenario.faults}
        failing = map(bad.__contains__, map(scenario.addresses.__getitem__, order))
        abandoned = tuple(compress(order, failing))
    return SchedulerRun.priced(
        scenario, algorithm, order, [*order, *abandoned * (RETRY_LIMIT - 1)], via, legs,
        abandoned=abandoned, note="failed visits retried at queue tail" if abandoned else "",
    )
