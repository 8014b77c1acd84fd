"""Per-visit loops that the package replaced with column passes, kept as test references.

Each function is the package's earlier implementation, written one visit
at a time: ``replay`` priced and validated each step with a scalar
``step_cost``, ``verify_trace`` re-priced each step, ``retry_at_tail``
drove every visit through a deque, and ``modsbsm_execute`` ran MODSBSM on
request objects, sorting each pass with ``arrange`` and resolving tabled
addresses with ``bsm``.  The differential tests check that the versions in
``plattersim`` return the same values, messages, exceptions, bad-sector
tables and probe counts.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass

from plattersim.faults import FaultModel, ProbeOutcome
from plattersim.geometry import GeometryBoundsError, validate
from plattersim.metrics import ServiceStep
from plattersim.modsbsm import ASCENDING, DESCENDING, PROBE_LIMIT, decide_direction
from plattersim.schedulers import RETRY_LIMIT


def step_cost(prev, addr, sectors_per_track, via=()):
    """(seek, latency, transfer) from prev to addr, passing the ``via`` tracks."""
    track = prev.track
    seek = 0
    for waypoint in via:
        seek += abs(waypoint - track)
        track = waypoint
    return (
        seek + abs(addr.track - track),
        (addr.sector - prev.sector) % sectors_per_track,
        abs(addr.platter - prev.platter) + 1,
    )


def replay(geometry, head, visits, via=None):
    validate(geometry, head)
    sectors = geometry.sectors_per_track
    via = via or {}
    steps = []
    pos = head
    for k, addr in enumerate(visits):
        validate(geometry, addr)
        steps.append(ServiceStep(addr, *step_cost(pos, addr, sectors, via.get(k, ()))))
        pos = addr
    return steps


def totals_tuple(steps):
    return (
        sum(s.seek for s in steps),
        sum(s.latency for s in steps),
        sum(s.transfer for s in steps),
    )


def verify_trace(scenario, steps, run_totals=None):
    geometry = scenario.geometry
    sectors = geometry.sectors_per_track
    violations = []
    pos = scenario.initial_head
    for k, step in enumerate(steps, 1):
        try:
            validate(geometry, step.address)
        except GeometryBoundsError as exc:
            violations.append(f"step {k}: address out of bounds ({exc})")
            pos = step.address
            continue
        min_seek, expected_latency, expected_transfer = step_cost(pos, step.address, sectors)
        if not 0 <= step.latency < sectors:
            violations.append(f"step {k}: latency {step.latency} outside 0..{sectors - 1}")
        if step.latency != expected_latency:
            violations.append(f"step {k}: latency {step.latency} != re-priced {expected_latency}")
        if step.transfer != expected_transfer:
            violations.append(f"step {k}: transfer {step.transfer} != re-priced {expected_transfer}")
        if step.seek < min_seek:
            violations.append(f"step {k}: seek {step.seek} below track distance {min_seek}")
        pos = step.address

    if run_totals is not None:
        sums = totals_tuple(steps)
        recorded = (run_totals.tskt, run_totals.trl, run_totals.tdtt)
        for name, got, want in zip(("tskt", "trl", "tdtt"), recorded, sums):
            if got != want:
                violations.append(f"totals: {name} {got} != step sum {want}")
        if run_totals.tdat != sum(sums):
            violations.append(f"totals: tdat {run_totals.tdat} != tskt+trl+tdtt {sum(sums)}")

    requested = Counter(req.address for req in scenario.requests)
    visited = Counter(step.address for step in steps)
    bad = {spec.address for spec in scenario.faults}
    short = [
        (address, count)
        for address, count in requested.items()
        if visited[address] < (min(count, PROBE_LIMIT) if address in bad else count)
    ]
    for address, count in sorted(short):
        violations.append(f"coverage: {address} requested {count} times, visited {visited[address]}")
    if not bad and len(steps) == len(scenario.requests) and visited != requested:
        violations.append("coverage: trace is not a permutation of the request queue")
    return violations


def retry_at_tail(order, scenario, faults):
    queue = deque(order)
    attempts = {}
    visits = []
    served = []
    abandoned = []
    while queue:
        rank = queue.popleft()
        visits.append(rank)
        address = scenario.requests[rank].address
        if faults.access(address) is ProbeOutcome.READABLE:
            served.append(rank)
            continue
        attempts[rank] = attempts.get(rank, 0) + 1
        if attempts[rank] < RETRY_LIMIT:
            queue.append(rank)
        else:
            abandoned.append(rank)
    return visits, served, abandoned


def arrange(requests, direction):
    """Order pending requests for one sweep, ties in queue order."""
    if direction == ASCENDING:
        key = lambda r: (r.address.track, r.address.sector, r.address.platter)
    elif direction == DESCENDING:
        key = lambda r: (-r.address.track, r.address.sector, r.address.platter)
    else:
        raise ValueError(f"direction must be {ASCENDING} or {DESCENDING}, got {direction!r}")
    return sorted(requests, key=key)


@dataclass
class MutableEntry:
    index: object
    prescribed_bit: int
    finalized: int


def bsm(entry, faults):
    """Probe a tabled, unfinalized address a last time and finalize it."""
    if entry.finalized:
        return
    faults.access(entry.index)
    entry.prescribed_bit = faults.true_bit(entry.index)
    entry.finalized = 1


def modsbsm_execute(scenario, faults=None):
    """(order, visits, steps, decisions, table entries as (index, bit, finalized))."""
    faults = faults if faults is not None else FaultModel(scenario.faults)
    pos = scenario.initial_head
    pending = list(scenario.requests)
    failed_once = set()
    table = {}
    visits = []
    served = []
    decisions = []
    last_move = None

    while pending:
        decision = decide_direction(pos.track, (req.address.track for req in pending), last_move)
        decisions.append(decision)
        carry = []
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
                    table[addr] = MutableEntry(index=addr, prescribed_bit=0, finalized=0)
                failed_once.add(addr)
                carry.append(req)
                continue
            served.append(req.arrival_rank)
        pending = carry

    steps = replay(scenario.geometry, scenario.initial_head, visits)
    entries = [(e.index, e.prescribed_bit, e.finalized) for e in table.values()]
    return served, visits, steps, decisions, entries
