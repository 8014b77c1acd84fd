"""Service-order policies for the classic and peer disk schedulers.

Every policy is a plan: an order over arrival ranks plus the legs it
reads them in (below).  :meth:`plattersim.metrics.SchedulerRun.priced`
prices the planned ranks into the run record; it checks no bounds, because
``Scenario`` checked the head and every request address once (a foreign
visit sequence goes through ``metrics.replay``, which checks them, and any
steps through ``oracle.verify_trace``).

Same-track requests follow the queue convention described in
:mod:`plattersim.workload`: the pending queue is a track-sorted list kept
in the arrival sequence's direction, and the arm reads a track's group
forward when it crosses the track moving with that direction, backward
when it crosses against it.  ``Scenario.sweeps`` lays the queue out once as
a round trip, the ``ring``: up the track-sorted ``up`` list, then back down.
A plan works out runs of ``up`` read moving up or down (a sweep two, split
at the head track; SSTF one per run of groups it reads the same way), and
``_legs_plan`` alone lays each on the ring, so a leg is a forward slice.
A leg also names the edge tracks the arm passes on its way into it; only
SCAN's and C-SCAN's second leg names any.  SCAN turns at the physical edge
of the disk, and C-SCAN also rides the full-stroke return
(``num_tracks - 1``) before continuing in its original direction; LOOK and
C-LOOK reverse (or jump) at the extreme request.  ``SchedulerRun.priced``
copies the legs' steps out of the scenario's priced layout
(``Scenario.sweep_layout``).  FCFS ignores all of this: it services the
queue as it arrived, and its walk is priced whole.

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
from typing import Callable, Iterable, Sequence

from . import modsbsm
from .metrics import SchedulerRun
from .workload import DIRECTION_HINT_NAMES, Scenario

SWEEP_NAMES = DIRECTION_HINT_NAMES
# The report's groups: the classic schedulers, the peer policies, the proposed one.
TRADITIONAL_ALGORITHMS = ("fcfs", "sstf") + SWEEP_NAMES
REFERRED_ALGORITHMS = ("odsa", "hdsa", "rp10", "smcc", "mrsa")
PROPOSED_ALGORITHM = "modsbsm"
BASELINE_NAMES = TRADITIONAL_ALGORITHMS + REFERRED_ALGORITHMS
ALGORITHM_NAMES = BASELINE_NAMES + (PROPOSED_ALGORITHM,)

DEFAULT_SWEEP_DIRECTION = "down"
RETRY_LIMIT = 3  # attempts per request to a bad address before a baseline abandons it

# A visit order over arrival ranks and the legs, forward slices of the ring,
# that it reads, each (a, b, edges) (see metrics.SchedulerRun.priced).
Leg = tuple[int, int, tuple[int, ...]]
Plan = tuple[list[int], tuple[Leg, ...]]


def _fcfs_plan(scenario: Scenario) -> Plan:
    return list(range(len(scenario.requests))), ()


def _legs_plan(scenario: Scenario, runs: Iterable[Sequence]) -> Plan:
    """The plan that reads ``runs``, each ``(lo, hi, moving_up, edges)``, in turn."""
    ring = scenario.sweeps[2]
    m = len(ring)  # 2n - 1: up[lo:hi] read moving up is ring[lo:hi], moving down ring[m - hi:m - lo]
    legs = tuple((lo, hi, e) if rising else (m - hi, m - lo, e) for lo, hi, rising, e in runs)
    order: list[int] = []
    for a, b, _ in legs:
        order += ring[a:b]
    return order, legs


def _sstf_plan(scenario: Scenario) -> Plan:
    # The served tracks always form a contiguous run of the track groups with
    # the head at one end, so the nearest pending track is tracks[left] (just
    # below the run) or tracks[right] (just above); a tie goes to the lower.
    tracks, starts, _ = scenario.sweeps
    cur = scenario.initial_head.track
    right = bisect_left(tracks, cur)
    left = right - 1
    runs: list[list] = []  # [lo, hi, moving_up, ()], made tuples at the end
    moving_up = scenario.queue_ascending  # zero movement counts as moving with the queue
    while left >= 0 or right < len(tracks):
        if right == len(tracks) or (left >= 0 and cur - tracks[left] <= tracks[right] - cur):
            g, left = left, left - 1
        else:
            g, right = right, right + 1
        if tracks[g] != cur:
            moving_up = tracks[g] > cur
            cur = tracks[g]
        # The served groups stay contiguous, so groups read the same way in a
        # row are adjacent runs of up: one leg.
        if not runs or runs[-1][2] != moving_up:
            runs.append([starts[g], starts[g + 1], moving_up, ()])
        elif moving_up:
            runs[-1][1] = starts[g + 1]
        else:
            runs[-1][0] = starts[g]
    return _legs_plan(scenario, runs)


def _sweep_plan(scenario: Scenario, variant: str, direction: str) -> Plan:
    # Two legs split where the head track falls: the groups on the first
    # leg's side of the head, then the rest, entered through the edge ahead
    # (SCAN) or through it and the far edge (C-SCAN).
    tracks, starts, _ = scenario.sweeps
    n = starts[-1]
    up_first = direction == "up"
    turns = variant in ("scan", "look")  # cscan / clook continue in the original direction
    k = starts[(bisect_left if up_first else bisect_right)(tracks, scenario.initial_head.track)]
    first, second = ((k, n), (0, k)) if up_first else ((0, k), (k, n))
    top = scenario.geometry.num_tracks - 1
    edge, far_edge = (top, 0) if up_first else (0, top)
    edges = {"scan": (edge,), "cscan": (edge, far_edge)}.get(variant, ())
    return _legs_plan(scenario, ((*first, up_first, ()), (*second, up_first != turns, edges)))


def _look_plan(pick: Callable[[int, int, int], str]) -> Callable[[Scenario], Plan]:
    """LOOK from the direction ``pick(head track, lowest, highest pending track)`` names."""

    def plan(scenario: Scenario) -> Plan:
        tracks = scenario.sweeps[0]
        return _sweep_plan(scenario, "look", pick(scenario.initial_head.track, tracks[0], tracks[-1]))

    return plan


# toward the nearer extreme; a tie goes down
_odsa_plan = _look_plan(lambda head, low, high: "up" if high - head < head - low else "down")


def _mrsa_plan(scenario: Scenario) -> Plan:
    # The median window: the two middle values of the sorted track list, up = ring[:n].
    tracks, ring, n = scenario.tracks, scenario.sweeps[2], len(scenario.requests)
    low, high = tracks[ring[(n - 1) // 2]], tracks[ring[n // 2]]
    if low <= scenario.initial_head.track <= high:
        return _sstf_plan(scenario)
    return _odsa_plan(scenario)


# Plans of the baselines that pick their own direction; the four sweeps
# take theirs from the scenario (see _plan).
PLANS: dict[str, Callable[[Scenario], Plan]] = {
    "fcfs": _fcfs_plan,
    "sstf": _sstf_plan,
    "odsa": _odsa_plan,
    "hdsa": _odsa_plan,  # alias: hdsa runs the same policy as odsa
    "rp10": _look_plan(lambda head, low, high: "down" if head >= high - low else "up"),
    "smcc": _look_plan(lambda head, low, high: "down" if head < (low + high) / 2 else "up"),
    "mrsa": _mrsa_plan,
}


def _plan(scenario: Scenario, algorithm: str, use_hints: bool) -> Plan:
    """The algorithm's plan; a sweep goes the scenario's hint if used, else the default."""
    if algorithm not in SWEEP_NAMES:
        return PLANS[algorithm](scenario)
    direction = (use_hints and scenario.hint(algorithm)) or DEFAULT_SWEEP_DIRECTION
    return _sweep_plan(scenario, algorithm, direction)


def run_scheduler(scenario: Scenario, algorithm: str, *, use_hints: bool = False) -> SchedulerRun:
    """Plan and price one scheduler over one scenario.

    Baselines price their planned visits along the plan's legs, edge
    tracks included.  On a faulty scenario the retries follow the whole
    planned order.  ``modsbsm`` runs its own multi-pass
    engine, whose record is returned as it is.

    Only the scenario sets a sweep's direction: ``scan``, ``cscan``,
    ``look`` and ``clook`` go their ``direction_hints`` entry when
    ``use_hints`` is set, and ``DEFAULT_SWEEP_DIRECTION`` otherwise.
    """
    if algorithm not in ALGORITHM_NAMES:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    if algorithm == PROPOSED_ALGORITHM:
        return modsbsm.execute(scenario)

    order, legs = _plan(scenario, algorithm, use_hints)
    abandoned: list[int] = []
    if scenario.faults:
        # A plan visits each rank once, so the retry-at-tail queue is closed
        # form: the ranks on bad addresses, in plan order, fail their planned
        # visit, are retried in RETRY_LIMIT - 1 rounds at the tail in that
        # order, and are abandoned on the last.  A leg's are the scenario's
        # bad_positions between two bisects; a plan without legs (FCFS) is
        # searched.  A plan with legs reads its whole order along them.
        if legs:
            ring, bad = scenario.sweeps[2], scenario.bad_positions
            for a, b, _ in legs:
                abandoned += map(ring.__getitem__, bad[bisect_left(bad, a) : bisect_left(bad, b)])
        else:
            abandoned += compress(order, map(scenario.on_bad_address.__getitem__, order))
    walk = [*order, *abandoned * (RETRY_LIMIT - 1)]
    return SchedulerRun.priced(scenario, algorithm, order, walk, legs, abandoned=tuple(abandoned))
