"""Cylinder-ordered servicing with staged bad-sector retirement (MODSBSM).

Each pass jumps to whichever extreme pending track is closer (no service on
the way there), then sweeps once across the span servicing whole cylinders.
A pass is one keyed sort of the pending arrival ranks: tracks follow the
sweep; within a track, sectors ascend either way (the platter spins one way
only) and platters ascend within a sector.  Requests to one address keep
their queue order.  An unreadable sector is not retried in place: its
request is carried to the next pass.  The bad-sector lifecycle is one count
of probes per address, not per request: 1 means failed once, 2 tables the
address as ``temporary``, and ``PROBE_LIMIT`` (three) fixes its prescribed
bit and finalizes it as ``permanent``; ``temporary`` lasts only until
then, so every table entry of a finished run is final.  Every later
request to it is answered from the table without touching the platter;
when the queue repeats an address, all three probes can fall in one pass.

Direction choice per pass: with LD = head − min(track) and RD =
max(track) − head (both signed), LD < RD picks the ascending sweep and
RD < LD the descending one.  A tie resumes against the arm's recent
movement — if it was last moving from high to low tracks the sweep goes
ascending, otherwise descending; with no history it goes ascending.
Directions are spelled ``"up"``/``"down"``, as elsewhere in the package.
The passes record the ranks they visit, and
:meth:`plattersim.metrics.SchedulerRun.priced` prices them into the run record.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, filterfalse, repeat
from operator import add, mul, sub
from typing import ClassVar, Iterable

from .faults import FaultModel
from .geometry import PhysicalAddress
from .metrics import SchedulerRun, columns
from .workload import Scenario

PROBE_LIMIT = 3  # physical probes of one bad address, at most


@dataclass(frozen=True)
class DirectionDecision:
    """Signed extreme distances and the sweep they selected for one pass."""

    to_min: int
    to_max: int
    chosen: str
    tie: bool


def decide_direction(
    head_track: int, tracks: Iterable[int], last_move: str | None = None
) -> DirectionDecision:
    """Pick the sweep direction for one pass (see module doc for the rule)."""
    tracks = list(tracks)
    if not tracks:
        raise ValueError("no pending tracks")
    to_min = head_track - min(tracks)
    to_max = max(tracks) - head_track
    if to_min < to_max:
        return DirectionDecision(to_min, to_max, "up", tie=False)
    if to_max < to_min:
        return DirectionDecision(to_min, to_max, "down", tie=False)
    chosen = "down" if last_move == "up" else "up"
    return DirectionDecision(to_min, to_max, chosen, tie=True)


@dataclass(frozen=True)
class BadSectorEntry:
    """Table record for one address that failed two probes.

    ``bsi`` (the failures that tabled it) is always 2.  An entry is
    ``temporary`` only mid-run, until the address's third probe; every entry
    of a finished run is final and ``permanent``.
    """

    index: PhysicalAddress
    prescribed_bit: int
    bsi: ClassVar[int] = 2
    finalized: ClassVar[int] = 1
    classification: ClassVar[str] = "permanent"


def execute(scenario: Scenario, fault_model: FaultModel | None = None) -> SchedulerRun:
    """Run the scheduler over a scenario until the pending queue drains.

    Every physical visit — including failed probes — is priced as a normal
    step, and the head position, rotation and platter reference persist
    across passes.  ``order`` lists arrival ranks in the order requests were
    actually served; a request answered from a finalized table entry is
    served without a physical step.  The run record carries the per-pass
    ``decisions`` and the bad-sector table as well, which lists addresses in
    the order their second failure tabled them.  ``fault_model`` (by default
    ``FaultModel(scenario.faults)``) counts the probes; one whose bad addresses
    are not the scenario's fault addresses raises ``ValueError``.
    """
    if not scenario.requests:
        raise ValueError("scenario has no requests")
    faults = fault_model if fault_model is not None else FaultModel(scenario.faults)
    if faults.bad_addresses != {spec.address for spec in scenario.faults}:
        raise ValueError("fault_model's bad addresses differ from the scenario's fault table")
    addresses = scenario.addresses
    tracks, platters, sectors = columns(addresses)
    # One int per rank orders as (±track, sector, platter) does: sector·P +
    # platter lies in 1..S·P, one track's width.
    g = scenario.geometry
    within_track = list(map(add, map(mul, sectors, repeat(g.num_platters)), platters))
    track_part = list(map(mul, tracks, repeat(g.sectors_per_track * g.num_platters)))
    sort_keys = {
        "up": list(map(add, within_track, track_part)),
        "down": list(map(sub, within_track, track_part)),
    }
    probes: dict[PhysicalAddress, int] = {}
    tabled: list[PhysicalAddress] = []
    pending = list(range(len(addresses)))
    walk: list[int] = []  # the visited ranks
    served: list[int] = []
    decisions: list[DirectionDecision] = []
    track = scenario.initial_head.track
    last_move: str | None = None

    while pending:
        decision = decide_direction(track, map(tracks.__getitem__, pending), last_move)
        decisions.append(decision)
        ordered = sorted(pending, key=sort_keys[decision.chosen].__getitem__)
        # Only bad ranks need a decision: answered from the table, or carried.
        answered: set[int] = set()
        carry: list[int] = []
        for rank in compress(ordered, map(scenario.on_bad_address.__getitem__, ordered)):
            addr = addresses[rank]
            count = probes.get(addr, 0) + 1
            if count > PROBE_LIMIT:  # finalized: served without touching the platter
                answered.add(rank)
                continue
            probes[addr] = count
            faults.access(addr)
            if count == 2:
                tabled.append(addr)
            if count < PROBE_LIMIT:
                carry.append(rank)
        visited = list(filterfalse(answered.__contains__, ordered))
        walk.extend(visited)
        served.extend(filterfalse(set(carry).__contains__, ordered))
        # After the jump to its start a sweep is monotone: its first and last
        # tracks give the arm's position and its last move.
        for t in (tracks[visited[0]], tracks[visited[-1]]) if visited else ():
            if t != track:
                last_move = "up" if t > track else "down"
                track = t
        pending = carry

    # A tabled address is carried to the next pass, whose probe finalizes it.
    table = tuple(BadSectorEntry(addr, faults.true_bit(addr)) for addr in tabled)
    return SchedulerRun.priced(
        scenario, "modsbsm", served, walk, bad_sector_table=table, decisions=tuple(decisions)
    )
