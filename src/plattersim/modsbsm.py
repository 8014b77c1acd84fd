"""Cylinder-ordered servicing with staged bad-sector retirement (MODSBSM).

The scheduler sorts the pending queue by track, jumps to whichever extreme
track is closer (no service on the way there), then sweeps once across the
span servicing whole cylinders.  Unreadable sectors are not retried in
place: the request is carried to the next pass.  Failures count per
address, not per request, so after the address's second failed probe it
enters a prescribed-bit table.  The next request to reach the address
resolves it — one last probe fixes the stored bit and the entry is
finalized — and every later request to it is answered from the table
without touching the platter.  No bad address is ever probed more than
``PROBE_LIMIT`` (three) times; when the queue repeats an address, all three
probes can fall in one pass.

Direction choice per pass: with LD = head − min(track) and RD =
max(track) − head (both signed), LD < RD picks the ascending sweep and
RD < LD the descending one.  A tie resumes against the arm's recent
movement — if it was last moving from high to low tracks the sweep goes
ascending, otherwise descending; with no history it goes ascending.
Directions are spelled ``"up"``/``"down"``, as elsewhere in the package.
The passes record their visits; :func:`plattersim.metrics.replay` prices them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Iterable, Protocol, Sequence

from .faults import FaultModel, ProbeOutcome
from .geometry import PhysicalAddress
from .metrics import SchedulerRun, replay, totals
from .workload import MemoryRequest, Scenario

ASCENDING = "up"
DESCENDING = "down"

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
        return DirectionDecision(to_min, to_max, ASCENDING, tie=False)
    if to_max < to_min:
        return DirectionDecision(to_min, to_max, DESCENDING, tie=False)
    chosen = DESCENDING if last_move == ASCENDING else ASCENDING
    return DirectionDecision(to_min, to_max, chosen, tie=True)


class _Addressed(Protocol):
    address: PhysicalAddress


def arrange(requests: Sequence[_Addressed], direction: str) -> list:
    """Order pending requests for one sweep.

    Tracks follow the sweep direction; within a track, sectors stay in
    ascending rotation order regardless of sweep direction (the platter
    only spins one way, so ascending prices cheapest either way), and
    platters ascend within a sector so a whole cylinder is finished before
    the arm moves on.  Exact duplicates keep their queue order.
    """
    if direction == ASCENDING:
        key = lambda r: (r.address.track, r.address.sector, r.address.platter)
    elif direction == DESCENDING:
        key = lambda r: (-r.address.track, r.address.sector, r.address.platter)
    else:
        raise ValueError(f"direction must be {ASCENDING} or {DESCENDING}, got {direction!r}")
    return sorted(requests, key=key)


@dataclass
class BadSectorEntry:
    """Lifecycle record for one address that failed two probes.

    ``bsi`` (the failures that tabled it) is always 2, and the entry is
    ``temporary`` until its last probe finalizes it as ``permanent``.
    """

    index: PhysicalAddress
    prescribed_bit: int
    finalized: int
    bsi: ClassVar[int] = 2

    @property
    def classification(self) -> str:
        return "permanent" if self.finalized else "temporary"


def bsm(entry: BadSectorEntry, faults: FaultModel) -> None:
    """Serve a tabled bad address, finalizing it on its third (last) probe.

    A finalized entry is answered straight from the table.  Otherwise the
    address is probed once more; if the prescribed bit disagrees with the
    sector's true content it is corrected, and either way the entry is
    finalized.
    """
    if entry.finalized:
        return
    faults.access(entry.index)
    entry.prescribed_bit = faults.true_bit(entry.index)
    entry.finalized = 1


def execute(scenario: Scenario, fault_model: FaultModel | None = None) -> SchedulerRun:
    """Run the scheduler over a scenario until the pending queue drains.

    Every physical visit — including failed probes — is priced as a normal
    step, and the head position, rotation and platter reference persist
    across passes.  ``order`` lists arrival ranks in the order requests were
    actually served; a request answered from a finalized table entry is
    served without a physical step.  The run record carries the per-pass
    ``decisions`` and the bad-sector table as well.
    """
    if not scenario.requests:
        raise ValueError("scenario has no requests")
    faults = fault_model if fault_model is not None else FaultModel(scenario.faults)
    pos = scenario.initial_head
    pending: list[MemoryRequest] = list(scenario.requests)
    failed_once: set[PhysicalAddress] = set()
    table: dict[PhysicalAddress, BadSectorEntry] = {}
    visits: list[PhysicalAddress] = []
    served: list[int] = []
    decisions: list[DirectionDecision] = []
    last_move: str | None = None
    passes = 0

    while pending:
        passes += 1
        decision = decide_direction(
            pos.track, (req.address.track for req in pending), last_move
        )
        decisions.append(decision)
        carry: list[MemoryRequest] = []
        for req in arrange(pending, decision.chosen):
            addr = req.address
            entry = table.get(addr)
            if entry is not None and entry.finalized:
                served.append(req.arrival_rank)
                continue
            visits.append(addr)
            if addr.track != pos.track:
                last_move = ASCENDING if addr.track > pos.track else DESCENDING
            pos = addr
            if entry is not None:
                bsm(entry, faults)
            elif faults.access(addr) is ProbeOutcome.UNREADABLE:
                if addr in failed_once:
                    table[addr] = BadSectorEntry(index=addr, prescribed_bit=0, finalized=0)
                failed_once.add(addr)
                carry.append(req)
                continue
            served.append(req.arrival_rank)
        pending = carry

    steps = replay(scenario.geometry, scenario.initial_head, visits)
    return SchedulerRun(
        algorithm="modsbsm",
        steps=tuple(steps),
        totals=totals(steps, len(scenario.requests)),
        order=tuple(served),
        visits=tuple(visits),
        passes=passes,
        decisions=tuple(decisions),
        bad_sector_table=tuple(table.values()),
    )
