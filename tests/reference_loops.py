"""Per-visit loops that the package replaced with column passes, kept as test references.

Each function is the package's earlier implementation, written one visit
at a time: ``replay`` priced and validated each step with a scalar
``step_cost``, ``verify_trace`` re-priced each step, ``retry_at_tail``
drove every visit through a deque, and ``modsbsm_execute`` ran MODSBSM on
request objects, sorting each pass with ``arrange`` and resolving tabled
addresses with ``bsm``.  ``PLANS`` are the baselines' plans built one track
group at a time (``_groups``, ``_serve``), where the package slices lists
laid out once per scenario.  ``parse_scenario`` builds a fresh address
for every line, where the package's parser shares one object per distinct
address.  ``check_requests`` checks a queue's bounds and arrival ranks one
request at a time, where ``Scenario`` checks columns of its distinct
addresses and its ranks in one pass each.  The differential tests check
that the versions in ``plattersim`` return the same values, messages,
exceptions, bad-sector tables, probe counts, plans and scenarios.
``seek_floor`` is no earlier implementation: it is the closed-form least
seek of any walk over a queue, which the property tests hold every
scheduler to.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, defaultdict, deque
from dataclasses import dataclass

from plattersim.geometry import (
    DiskGeometry,
    GeometryBoundsError,
    PhysicalAddress,
    parse_index,
    validate,
)
from plattersim.metrics import ServiceStep
from plattersim.modsbsm import PROBE_LIMIT, FaultModel, decide_direction
from plattersim.schedulers import RETRY_LIMIT
from plattersim.workload import (
    OPS,
    FaultSpec,
    MemoryRequest,
    Scenario,
    ScenarioError,
    _check_bounds,
    _parse_int,
    _parse_kv,
)


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


def seek_floor(scenario):
    """The least total seek of any walk from the head that visits every requested track.

    Such a walk reaches both the lowest track ``lo`` and the highest ``hi``.
    From a head ``h`` inside ``[lo, hi]`` it first reaches one end, at least
    ``min(h - lo, hi - h)``, then crosses to the other, ``hi - lo``; from
    outside, reaching the far extreme passes the near one on the way.
    """
    tracks = [req.address.track for req in scenario.requests]
    lo, hi, h = min(tracks), max(tracks), scenario.initial_head.track
    if lo <= h <= hi:
        return (hi - lo) + min(h - lo, hi - h)
    far = hi if h < lo else lo
    return abs(far - h)


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
        if run_totals.request_count != len(scenario.requests):
            violations.append(
                f"totals: request_count {run_totals.request_count} != queue length {len(scenario.requests)}"
            )

    requested = Counter(req.address for req in scenario.requests)
    visited = Counter(step.address for step in steps)
    bad = {spec.address for spec in scenario.faults}
    wrong = []
    for address in set(requested) | set(visited):
        count, seen = requested[address], visited[address]
        if address in bad and count:
            covered = seen in (count, PROBE_LIMIT, RETRY_LIMIT * count)
        else:
            covered = seen == count
        if not covered:
            wrong.append((address, count))
    for address, count in sorted(wrong):
        violations.append(f"coverage: {address} requested {count} times, visited {visited[address]}")
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
        faults.access(address)
        if address not in faults.bad_addresses:
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
    if direction == "up":
        key = lambda r: (r.address.track, r.address.sector, r.address.platter)
    elif direction == "down":
        key = lambda r: (-r.address.track, r.address.sector, r.address.platter)
    else:
        raise ValueError(f"direction must be up or down, got {direction!r}")
    return sorted(requests, key=key)


@dataclass
class MutableEntry:
    index: object
    prescribed_bit: int
    finalized: int


def bsm(entry, faults, bits):
    """Probe a tabled, unfinalized address a last time and finalize it with its scenario bit."""
    if entry.finalized:
        return
    faults.access(entry.index)
    entry.prescribed_bit = bits[entry.index]
    entry.finalized = 1


def modsbsm_execute(scenario, faults=None):
    """(order, visits, steps, decisions, table entries as (index, bit, finalized))."""
    faults = faults if faults is not None else FaultModel(scenario.faults)
    bits = dict(scenario.faults)
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
                last_move = "up" if addr.track > pos.track else "down"
            pos = addr
            if entry is not None:
                bsm(entry, faults, bits)
            else:
                faults.access(addr)
                if addr in faults.bad_addresses:
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


def _groups(scenario):
    """Pending queue as (track, arrival ranks) groups, tracks ascending."""
    by_track = {}
    for req in scenario.requests:
        by_track.setdefault(req.address.track, []).append(req.arrival_rank)
    return sorted(by_track.items())


def _serve(ranks, moving_up, queue_ascending):
    # Crossing the track with the queue's sort direction reads the group
    # forward; crossing against it reads the group from the other end.
    if moving_up == queue_ascending:
        return list(ranks)
    return list(reversed(ranks))


def _sstf_plan(scenario):
    qa = scenario.queue_ascending
    groups = _groups(scenario)
    tracks = [t for t, _ in groups]
    cur = scenario.initial_head.track
    right = bisect_left(tracks, cur)
    left = right - 1
    order = []
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


def _sweep_plan(scenario, variant, direction):
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

    order = []
    for _, ranks in first:
        order.extend(_serve(ranks, first_moving, qa))
    boundary_at = len(order)
    for _, ranks in second:
        order.extend(_serve(ranks, second_moving, qa))

    via = {}
    if second and variant in ("scan", "cscan"):
        edge, far_edge = (0, top) if down else (top, 0)
        via[boundary_at] = (edge,) if variant == "scan" else (edge, far_edge)
    return order, via


def _odsa_plan(scenario):
    tracks = [req.address.track for req in scenario.requests]
    head_track = scenario.initial_head.track
    to_min = head_track - min(tracks)
    to_max = max(tracks) - head_track
    return _sweep_plan(scenario, "look", "up" if to_max < to_min else "down")


def _mrsa_plan(scenario):
    tracks = sorted(req.address.track for req in scenario.requests)
    n = len(tracks)
    low, high = tracks[(n - 1) // 2], tracks[n // 2]
    if low <= scenario.initial_head.track <= high:
        return _sstf_plan(scenario)
    return _odsa_plan(scenario)


def _smcc_plan(scenario):
    tracks = [req.address.track for req in scenario.requests]
    midpoint = (min(tracks) + max(tracks)) / 2
    direction = "down" if scenario.initial_head.track < midpoint else "up"
    return _sweep_plan(scenario, "look", direction)


def _rp10_plan(scenario):
    tracks = [req.address.track for req in scenario.requests]
    span = max(tracks) - min(tracks)
    direction = "down" if scenario.initial_head.track >= span else "up"
    return _sweep_plan(scenario, "look", direction)


PLANS = {
    "sstf": _sstf_plan,
    "odsa": _odsa_plan,
    "rp10": _rp10_plan,
    "smcc": _smcc_plan,
    "mrsa": _mrsa_plan,
}


def check_requests(geometry, requests):
    """Raise the ``ScenarioError`` of the first request off the disk or out of rank."""
    for i, req in enumerate(requests):
        _check_bounds(geometry, req.address, "request", i)
        if req.arrival_rank != i:
            raise ScenarioError(
                f"request {i} carries arrival_rank {req.arrival_rank}",
                entry=("request", i),
            )


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises :class:`ScenarioError` with line numbers.

    Syntax errors come first, in line order; then a missing geometry or head;
    then the first content error :class:`Scenario` finds, at its entry's line;
    then an empty queue, which has no line.
    """
    geometry: DiskGeometry | None = None
    head: PhysicalAddress | None = None
    requests: list[MemoryRequest] = []
    faults: list[FaultSpec] = []
    hints: list[tuple[str, str]] = []
    linenos: defaultdict[str, list[int]] = defaultdict(list)

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive, *args = line.split()
        linenos[directive].append(lineno)
        try:
            if directive == "geometry":
                if geometry is not None:
                    raise ValueError("geometry declared twice")
                fields = dict(_parse_kv(tok) for tok in args)
                if len(args) != 3 or set(fields) != {"platters", "tracks", "sectors"}:
                    raise ValueError("geometry needs exactly platters=, tracks= and sectors=")
                geometry = DiskGeometry(
                    num_platters=_parse_int(fields["platters"], "platters"),
                    num_tracks=_parse_int(fields["tracks"], "tracks"),
                    sectors_per_track=_parse_int(fields["sectors"], "sectors"),
                )
            elif directive == "head":
                if head is not None:
                    raise ValueError("head declared twice")
                if len(args) != 1:
                    raise ValueError("head takes exactly one address")
                head = parse_index(args[0])
            elif directive == "request":
                if not 1 <= len(args) <= 2:
                    raise ValueError("request takes an address and optional op=")
                address = parse_index(args[0])
                op = "r"
                if len(args) == 2:
                    key, value = _parse_kv(args[1])
                    if key != "op" or value not in OPS:
                        raise ValueError(f"expected op=r or op=w, got {args[1]!r}")
                    op = value
                requests.append(MemoryRequest(address, op, len(requests)))
            elif directive == "bad":
                if len(args) != 2:
                    raise ValueError("bad takes an address and bit=")
                address = parse_index(args[0])
                key, value = _parse_kv(args[1])
                if key != "bit" or value not in ("0", "1"):
                    raise ValueError(f"expected bit=0 or bit=1, got {args[1]!r}")
                faults.append(FaultSpec(address, int(value)))
            elif directive == "direction":
                if len(args) != 1:
                    raise ValueError("direction takes one scheduler=up|down pair")
                hints.append(_parse_kv(args[0]))
            else:
                raise ValueError(f"unknown directive {directive!r}")
        except ValueError as exc:
            raise ScenarioError(str(exc), lineno) from None

    if geometry is None:
        raise ScenarioError("missing geometry declaration")
    if head is None:
        raise ScenarioError("missing head declaration")
    try:
        return Scenario(
            geometry=geometry,
            initial_head=head,
            requests=tuple(requests),
            faults=tuple(faults),
            direction_hints=tuple(hints),
        )
    except ScenarioError as exc:
        if exc.entry is None:
            raise
        directive, index = exc.entry
        raise ScenarioError(str(exc), linenos[directive][index], exc.entry) from None
