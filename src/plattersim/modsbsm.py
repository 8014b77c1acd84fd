"""Cylinder-ordered servicing with staged bad-sector retirement (MODSBSM).

Each pass jumps to whichever extreme pending track is closer (no service on
the way there), then sweeps once across the span servicing whole cylinders.
A pass sorts the pending arrival ranks into cylinder order: tracks follow
the sweep; within a track, sectors ascend either way (the platter spins
one way only) and platters ascend within a sector.  Requests to one
address keep their queue order.  Every rank is pending in the first pass,
so it keys the whole queue once, for the one direction it goes, and then
decides only the ranks on bad addresses; a later pass holds only carried
ranks, at most two per bad address, and sorts those few on the same key.
An unreadable sector is not retried in place: its request is carried to
the next pass.  The bad-sector lifecycle is one count of probes per
address, not per request: 1 means failed once, 2 tables the address as
``temporary``, and ``PROBE_LIMIT`` (three) fixes its prescribed bit and
finalizes it as ``permanent``; ``temporary`` lasts only until then, so
every table entry of a finished run is final.  Every later request to it
is answered from the table without touching the platter; when the queue
repeats an address, all three probes can fall in one pass.

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
from itertools import compress, count, repeat
from operator import add, itemgetter, mul
from typing import ClassVar, Iterable, Sequence

from .faults import FaultModel
from .geometry import DiskGeometry, PhysicalAddress
from .metrics import SchedulerRun
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
    the order their second failure tabled them.  Each entry prescribes the
    scenario's own bit for its address.  ``fault_model`` (by default
    ``FaultModel(scenario.faults)``) only counts the probes; one whose bad
    addresses are not the scenario's fault addresses raises ``ValueError``.
    """
    bits = dict(scenario.faults)
    faults = fault_model if fault_model is not None else FaultModel(scenario.faults)
    if faults.bad_addresses != bits.keys():
        raise ValueError("fault_model's bad addresses differ from the scenario's fault table")
    addresses = scenario.addresses
    probes: dict[PhysicalAddress, int] = {}
    tabled: list[PhysicalAddress] = []
    walk: list[int] = []  # the visited ranks
    served: list[int] = []
    track = scenario.initial_head.track
    last_move: str | None = None
    # Every rank is pending in the first pass, so the queue's tracks give its
    # direction, and its positions in the queue are the ranks themselves.
    decisions = [decide_direction(track, scenario.tracks)]
    ordered = _sweep_order(scenario.geometry, addresses, scenario.tracks, decisions[0].chosen)

    while True:
        # Only bad ranks need a decision: answered from the table, or carried.
        answered: list[int] = []  # positions in ordered
        carried: list[int] = []
        for i in compress(count(), map(scenario.on_bad_address.__getitem__, ordered)):
            addr = addresses[ordered[i]]
            probe = probes.get(addr, 0) + 1
            if probe > PROBE_LIMIT:  # finalized: served without touching the platter
                answered.append(i)
                continue
            probes[addr] = probe
            faults.access(addr)
            if probe == 2:
                tabled.append(addr)
            if probe < PROBE_LIMIT:
                carried.append(i)
        visited = _without(ordered, answered)
        walk += visited
        served += _without(ordered, carried)
        # After the jump to its start a sweep is monotone: its first and last
        # tracks give the arm's position and its last move.
        for t in (addresses[visited[0]].track, addresses[visited[-1]].track) if visited else ():
            if t != track:
                last_move = "up" if t > track else "down"
                track = t
        if not carried:
            break
        # A later pass holds only the carried ranks, at most two per bad address.
        pending = list(map(ordered.__getitem__, carried))
        at = list(map(addresses.__getitem__, pending))
        tracks = list(map(itemgetter(0), at))
        decisions.append(decide_direction(track, tracks, last_move))
        positions = _sweep_order(scenario.geometry, at, tracks, decisions[-1].chosen)
        ordered = list(map(pending.__getitem__, positions))

    # A tabled address is carried to the next pass, whose probe finalizes it.
    table = tuple(BadSectorEntry(addr, bits[addr]) for addr in tabled)
    return SchedulerRun.priced(
        scenario, "modsbsm", served, walk, bad_sector_table=table, decisions=tuple(decisions)
    )


def _sweep_order(
    geometry: DiskGeometry, at: Sequence[PhysicalAddress], tracks: Sequence[int], direction: str
) -> list[int]:
    """The positions of the addresses ``at``, on ``tracks``, as one sweep moving ``direction`` reads them.

    Tracks follow the sweep; within a track, sectors ascend, then platters.
    The sort is stable, so one address's positions keep their order.
    """
    # One int per address orders as (±track, sector, platter) does: sector·P +
    # platter lies in 1..S·P, one track's width.
    platters = geometry.num_platters
    width = geometry.sectors_per_track * platters * (1 if direction == "up" else -1)
    within_track = map(add, map(mul, map(itemgetter(2), at), repeat(platters)), map(itemgetter(1), at))
    keys = list(map(add, map(mul, tracks, repeat(width)), within_track))
    return sorted(range(len(keys)), key=keys.__getitem__)


def _without(ordered: list[int], cuts: list[int]) -> list[int]:
    """``ordered`` without the items at the ascending positions ``cuts``."""
    kept: list[int] = []
    for a, b in zip([0, *(i + 1 for i in cuts)], [*cuts, len(ordered)]):
        kept += ordered[a:b]
    return kept
