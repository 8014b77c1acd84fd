"""Request queues: the scenario text format, built-in workloads, generator.

A scenario is a disk geometry, an initial head position, an arrival-ordered
request queue, an optional fault table and optional per-scheduler sweep
direction hints.  The text form is line oriented::

    # comment
    geometry platters=4 tracks=200 sectors=8
    head 65t1p4s
    direction scan=down
    request 15t1p2s
    request 48t1p7s op=w
    bad 48t1p0s bit=1

``geometry`` and ``head`` appear exactly once; ``request`` lines are kept in
file order (that order *is* the arrival order); ``op`` defaults to ``r`` and
is omitted by the renderer when it is ``r``.  Parsing checks only syntax;
:class:`Scenario` checks the content (bounds, ops, ranks, ``bad`` bits and
duplicates, hints, a non-empty queue); every error raised for a line
carries that line's number, once.

Parsing interns addresses in one table keyed by value: a parsed scenario
holds one :class:`PhysicalAddress` object per distinct address (``01t1p1s``
and ``1t1p1s`` included), which the head, every request and every ``bad``
line naming it share, so repeated requests match dictionary keys by
identity.  A table keyed by text sits in front of it, so each distinct
address token is parsed once.  :class:`Scenario` checks its queue's bounds
(over its distinct addresses), ops and arrival ranks as columns, and walks
the requests one by one only to report the first failure.

The arrival order also fixes how same-track requests are queued: the pending
queue is a track-sorted list kept in the direction the queue arrived in.  A
queue whose tracks never increase (and decrease at least once) sorts
descending; anything else sorts ascending.  Schedulers read same-track groups
forward or backward depending on which way the head crosses the track.
``Scenario.sweeps`` lays that list out once as a round trip, up the list and
back down it, so either reading is a forward slice; ``Scenario.sweep_layout``
prices the way up and derives the way back, the one place that knows how.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, repeat
from operator import attrgetter, eq, ge, gt, itemgetter, mod, ne, sub
from typing import NamedTuple

from .faults import FaultSpec
from .geometry import (
    DiskGeometry,
    GeometryBoundsError,
    ParameterError,
    PhysicalAddress,
    parse_index,
    render_index,
    validate,
    within,
)
from .metrics import Trace, columns, step_costs

DIRECTION_HINT_NAMES = ("scan", "cscan", "look", "clook")
DIRECTIONS = ("up", "down")
OPS = ("r", "w")


class ScenarioError(ValueError):
    """Malformed scenario: its 1-based ``line`` and ``(directive, index)`` ``entry`` when known."""

    def __init__(self, message: str, line: int | None = None, entry: tuple[str, int] | None = None):
        self.line = line
        self.entry = entry
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MemoryRequest(NamedTuple):
    """One queued access: an address, read/write, and its place in the queue.

    A plain named tuple, equal to the tuple of its fields, checked only as
    part of a :class:`Scenario`.  Bad-sector state is not kept here: MODSBSM
    counts failed probes per address (see :mod:`plattersim.modsbsm`).
    """

    address: PhysicalAddress
    op: str = "r"
    arrival_rank: int = 0


def _check_bounds(
    geometry: DiskGeometry, address: PhysicalAddress, directive: str, index: int
) -> None:
    try:
        validate(geometry, address)
    except GeometryBoundsError as exc:
        raise ScenarioError(f"{directive}: {exc}", entry=(directive, index)) from None


@dataclass(frozen=True)
class Scenario:
    geometry: DiskGeometry
    initial_head: PhysicalAddress
    requests: tuple[MemoryRequest, ...]
    faults: tuple[FaultSpec, ...] = ()
    direction_hints: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "requests", tuple(self.requests))
        object.__setattr__(self, "faults", tuple(self.faults))
        object.__setattr__(self, "direction_hints", tuple(self.direction_hints))
        _check_bounds(self.geometry, self.initial_head, "head", 0)
        # Column passes over the distinct addresses, the ops and the ranks;
        # the per-request loop runs only to find the first failing request.
        distinct = tuple(set(map(attrgetter("address"), self.requests)))
        ops = all(map(OPS.__contains__, map(attrgetter("op"), self.requests)))
        ranks = all(map(eq, map(attrgetter("arrival_rank"), self.requests), count()))
        if not (ops and ranks and within(self.geometry, columns(distinct))):
            for i, req in enumerate(self.requests):
                _check_bounds(self.geometry, req.address, "request", i)
                if req.op not in OPS:
                    raise ScenarioError(f"op must be one of {OPS}, got {req.op!r}", entry=("request", i))
                if req.arrival_rank != i:
                    raise ScenarioError(
                        f"request {i} carries arrival_rank {req.arrival_rank}",
                        entry=("request", i),
                    )
        seen = set()
        for i, spec in enumerate(self.faults):
            _check_bounds(self.geometry, spec.address, "bad", i)
            if str(spec.true_bit) not in ("0", "1"):  # as a file writes it: not True, not 1.0
                raise ScenarioError(f"true_bit must be 0 or 1, got {spec.true_bit}", entry=("bad", i))
            if spec.address in seen:
                raise ScenarioError(
                    f"duplicate bad entry for {render_index(spec.address)}",
                    entry=("bad", i),
                )
            seen.add(spec.address)
        names = set()
        for i, (name, direction) in enumerate(self.direction_hints):
            entry = ("direction", i)
            if name not in DIRECTION_HINT_NAMES:
                raise ScenarioError(
                    f"direction hint for unknown scheduler {name!r} "
                    f"(expected one of {', '.join(DIRECTION_HINT_NAMES)})",
                    entry=entry,
                )
            if direction not in DIRECTIONS:
                raise ScenarioError(f"direction must be up or down, got {direction!r}", entry=entry)
            if name in names:
                raise ScenarioError(f"duplicate direction hint for {name}", entry=entry)
            names.add(name)
        if not self.requests:
            raise ScenarioError("scenario has no requests")

    def hint(self, algorithm: str) -> str | None:
        for name, direction in self.direction_hints:
            if name == algorithm:
                return direction
        return None

    @cached_property
    def addresses(self) -> tuple[PhysicalAddress, ...]:
        """Request addresses in arrival order, gathered once per scenario."""
        return tuple(map(attrgetter("address"), self.requests))

    @cached_property
    def tracks(self) -> tuple[int, ...]:
        return tuple(map(itemgetter(0), self.addresses))

    @cached_property
    def requested(self) -> Counter[PhysicalAddress]:
        """How often each address is requested (a shared count: do not change it)."""
        return Counter(self.addresses)

    @cached_property
    def queue_ascending(self) -> bool:
        """Direction the pending queue is kept sorted in (see module doc)."""
        t = self.tracks
        return not (all(map(ge, t, t[1:])) and any(map(gt, t, t[1:])))

    @cached_property
    def on_bad_address(self) -> list[bool]:
        """Whether each arrival rank's address is in the fault table."""
        bad = {spec.address for spec in self.faults}
        return list(map(bad.__contains__, self.addresses))

    @cached_property
    def sweeps(self) -> tuple[list[int], list[int], list[int]]:
        """``(tracks, starts, ring)``: the queue laid out once for every plan.

        The ``up`` list, ``ring[:n]``, holds the arrival ranks by ascending
        track, each group read as the arm moving up reads it.  Distinct
        ``tracks`` ascend; group ``g`` is ``ring[starts[g]:starts[g + 1]]``, and
        ``starts[-1]`` is ``n``.  The ring is the round trip ``up + up[-2::-1]``:
        up the list, then back down to its first rank without repeating the top
        one, so every leg, read moving up or down, is a forward slice of it.
        """
        # The requests' own rank objects: range would allocate one int per rank.
        ranks = list(map(attrgetter("arrival_rank"), self.requests))
        # A stable sort reads each group in arrival order; a descending queue,
        # which the arm moving down reads in arrival order, reversed is the up list.
        up = sorted(ranks, key=self.tracks.__getitem__) if self.queue_ascending else ranks[::-1]
        up_tracks = list(map(self.tracks.__getitem__, up))
        firsts = list(map(ne, up_tracks, [None, *up_tracks]))
        starts = [*compress(range(len(up)), firsts), len(up)]
        return list(compress(up_tracks, firsts)), starts, up + up[-2::-1]

    @cached_property
    def sweep_layout(self) -> Trace:
        """The walk along ``sweeps``' ring, priced from the head once per scenario.

        Step ``i`` visits ``ring[i]``, priced from ``ring[i - 1]`` (step 0 from
        the head), so a leg ``ring[a:b]`` visits ``[a:b]`` of the layout and its
        own steps are ``[a + 1:b]``.  Only the way up is priced; the way back is
        its steps last first, the same seeks and transfers, each latency ``l``
        turned into ``(S - l) mod S``, since the platter spins one way only.
        """
        n, sectors = len(self.requests), self.geometry.sectors_per_track
        up = tuple(map(self.addresses.__getitem__, self.sweeps[2][:n]))
        seeks, latencies, transfers = map(tuple, step_costs(sectors, columns(up, self.initial_head)))
        back = slice(n - 1, 0, -1)  # the way up's steps last first, without the one from the head
        mirrored = tuple(map(mod, map(sub, repeat(sectors), latencies[back]), repeat(sectors)))
        return Trace(up + up[-2::-1], seeks + seeks[back], latencies + mirrored, transfers + transfers[back])

    @cached_property
    def bad_positions(self) -> list[int]:
        """The ascending indices in ``sweeps``' ring of the ranks on bad addresses.

        A leg ``ring[a:b]`` holds the ones from ``bisect_left(.., a)`` to
        ``bisect_left(.., b)``, in the order it reads them, so a plan of legs
        finds the ranks it retries and abandons with two bisects per leg, not
        a pass over its order.
        """
        return list(compress(count(), map(self.on_bad_address.__getitem__, self.sweeps[2])))


GENERATOR_ORDERS = ("ascending", "descending", "random")


@dataclass(frozen=True)
class GeneratorParams:
    request_count: int
    order: str = "random"
    seed: int = 0
    bad_count: int = 0

    def __post_init__(self):
        if self.request_count < 1:
            raise ParameterError("request_count must be >= 1")
        if self.order not in GENERATOR_ORDERS:
            raise ParameterError(f"order must be one of {GENERATOR_ORDERS}, got {self.order!r}")
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed must fit in an unsigned 64-bit integer")
        if not 0 <= self.bad_count <= self.request_count:
            raise ParameterError("bad_count must be between 0 and request_count")


def _decode(geometry: DiskGeometry, address_id: int) -> PhysicalAddress:
    sector = address_id % geometry.sectors_per_track
    rest = address_id // geometry.sectors_per_track
    platter = rest % geometry.num_platters + 1
    track = rest // geometry.num_platters
    return PhysicalAddress(track, platter, sector)


def generate(geometry: DiskGeometry, params: GeneratorParams) -> Scenario:
    """Deterministically generate a scenario from the given seed.

    Request addresses are sampled without replacement from the whole disk,
    then ordered: ``ascending``/``descending`` apply a stable track sort to
    the sampled queue, ``random`` keeps sampling order.  Bad addresses are
    drawn from the generated requests.
    """
    if params.request_count > geometry.address_count:
        raise ParameterError(
            f"request_count {params.request_count} exceeds the "
            f"{geometry.address_count} addressable sectors"
        )
    rng = random.Random(params.seed)
    addresses = [_decode(geometry, i) for i in rng.sample(range(geometry.address_count), params.request_count)]
    if params.order == "ascending":
        addresses.sort(key=lambda a: a.track)
    elif params.order == "descending":
        addresses.sort(key=lambda a: -a.track)
    head = _decode(geometry, rng.randrange(geometry.address_count))
    faults = tuple(
        FaultSpec(addresses[pos], rng.randrange(2))
        for pos in rng.sample(range(params.request_count), params.bad_count)
    )
    requests = tuple(
        MemoryRequest(address=a, arrival_rank=i) for i, a in enumerate(addresses)
    )
    return Scenario(geometry=geometry, initial_head=head, requests=requests, faults=faults)


def _parse_kv(token: str) -> tuple[str, str]:
    key, sep, value = token.partition("=")
    if not sep or not key or not value:
        raise ValueError(f"expected key=value, got {token!r}")
    return key, value


def _parse_int(value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


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
    shared: dict[PhysicalAddress, PhysicalAddress] = {}
    by_token: dict[str, PhysicalAddress] = {}

    def shared_address(token: str) -> PhysicalAddress:
        address = by_token.get(token)
        if address is None:
            parsed = parse_index(token)
            address = by_token[token] = shared.setdefault(parsed, parsed)
        return address

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive, *args = line.split()
        linenos[directive].append(lineno)
        try:
            if directive == "request":
                if not 1 <= len(args) <= 2:
                    raise ValueError("request takes an address and optional op=")
                address = shared_address(args[0])
                op = "r"
                if len(args) == 2:
                    key, value = _parse_kv(args[1])
                    if key != "op" or value not in OPS:
                        raise ValueError(f"expected op=r or op=w, got {args[1]!r}")
                    op = value
                requests.append(MemoryRequest(address, op, len(requests)))
            elif directive == "geometry":
                if geometry is not None:
                    raise ValueError("geometry declared twice")
                fields = dict(_parse_kv(tok) for tok in args)
                if set(fields) != {"platters", "tracks", "sectors"}:
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
                head = shared_address(args[0])
            elif directive == "bad":
                if len(args) != 2:
                    raise ValueError("bad takes an address and bit=")
                address = shared_address(args[0])
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


def render_scenario(scenario: Scenario) -> str:
    """Render a scenario to canonical text (parse ∘ render is the identity)."""
    g = scenario.geometry
    lines = [
        f"geometry platters={g.num_platters} tracks={g.num_tracks} sectors={g.sectors_per_track}",
        f"head {render_index(scenario.initial_head)}",
    ]
    for name, direction in scenario.direction_hints:
        lines.append(f"direction {name}={direction}")
    for req in scenario.requests:
        suffix = "" if req.op == "r" else f" op={req.op}"
        lines.append(f"request {render_index(req.address)}{suffix}")
    for spec in scenario.faults:
        lines.append(f"bad {render_index(spec.address)} bit={spec.true_bit}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Built-in workloads.  Six fixed 20-request queues on a 4x200x8 disk; the
# direction hints record the sweep directions their reference totals assume.

_CASE_GEOMETRY = DiskGeometry(num_platters=4, num_tracks=200, sectors_per_track=8)

_DOWN_HINTS = tuple((name, "down") for name in DIRECTION_HINT_NAMES)
_UP_HINTS = tuple((name, "up") for name in DIRECTION_HINT_NAMES)

# (track, platter, sector) triples in arrival order.
_CASE_DATA: dict[int, tuple[tuple[int, int, int], tuple[tuple[int, int, int], ...], tuple[tuple[str, str], ...]]] = {
    1: (
        (65, 1, 4),
        (
            (15, 1, 2), (48, 1, 7), (48, 1, 0), (48, 1, 4), (48, 1, 6),
            (60, 1, 1), (90, 1, 6), (90, 1, 1), (90, 1, 4), (108, 1, 7),
            (108, 1, 2), (108, 1, 5), (126, 1, 7), (168, 1, 1), (168, 1, 5),
            (168, 1, 4), (179, 1, 4), (179, 1, 2), (179, 1, 6), (196, 1, 7),
        ),
        _DOWN_HINTS,
    ),
    2: (
        (75, 1, 7),
        (
            (185, 1, 5), (167, 1, 7), (167, 1, 1), (167, 1, 4), (143, 1, 1),
            (143, 1, 6), (129, 1, 0), (129, 1, 4), (129, 1, 2), (118, 1, 6),
            (118, 1, 2), (118, 1, 5), (106, 1, 4), (65, 1, 3), (65, 1, 7),
            (65, 1, 5), (42, 1, 5), (42, 1, 2), (42, 1, 6), (28, 1, 7),
        ),
        _DOWN_HINTS,
    ),
    3: (
        (165, 1, 7),
        (
            (45, 1, 5), (98, 1, 2), (15, 1, 3), (98, 1, 6), (160, 1, 2),
            (198, 1, 1), (15, 1, 0), (45, 1, 0), (98, 1, 4), (160, 1, 7),
            (198, 1, 6), (65, 1, 2), (45, 1, 6), (160, 1, 6), (198, 1, 4),
            (113, 1, 4), (15, 1, 6), (59, 1, 0), (15, 1, 4), (5, 1, 2),
        ),
        _DOWN_HINTS,
    ),
    4: (
        (140, 1, 0),
        (
            (18, 1, 3), (25, 2, 6), (25, 2, 4), (25, 3, 0), (32, 2, 2),
            (46, 1, 4), (46, 4, 7), (46, 1, 2), (78, 3, 5), (95, 4, 2),
            (95, 2, 5), (95, 1, 1), (95, 2, 6), (123, 4, 2), (148, 1, 0),
            (156, 3, 6), (156, 3, 7), (156, 3, 5), (156, 2, 1), (197, 2, 7),
        ),
        _UP_HINTS,
    ),
    5: (
        (65, 1, 4),
        (
            (196, 4, 7), (167, 1, 4), (167, 2, 7), (167, 1, 2), (167, 2, 3),
            (143, 4, 2), (143, 2, 0), (126, 3, 1), (126, 4, 6), (126, 4, 4),
            (98, 4, 6), (98, 2, 5), (98, 1, 2), (63, 1, 7), (63, 4, 0),
            (63, 1, 6), (42, 3, 4), (19, 4, 6), (19, 1, 2), (19, 2, 4),
        ),
        _UP_HINTS,
    ),
    6: (
        (90, 1, 6),
        (
            (55, 3, 1), (15, 4, 6), (105, 2, 4), (48, 4, 2), (83, 1, 6),
            (165, 2, 3), (39, 4, 6), (83, 4, 7), (22, 4, 7), (165, 4, 5),
            (105, 3, 1), (15, 2, 4), (83, 3, 3), (165, 2, 7), (39, 1, 2),
            (15, 2, 0), (105, 2, 6), (39, 4, 7), (22, 2, 0), (165, 1, 6),
        ),
        _UP_HINTS,
    ),
}

BUILTIN_CASE_IDS = tuple(sorted(_CASE_DATA))


def builtin_case(case_id: int) -> Scenario:
    """One of the six bundled 20-request workloads."""
    if case_id not in _CASE_DATA:
        raise ValueError(f"case_id must be one of {BUILTIN_CASE_IDS}, got {case_id}")
    head, triples, hints = _CASE_DATA[case_id]
    return Scenario(
        geometry=_CASE_GEOMETRY,
        initial_head=PhysicalAddress(*head),
        requests=tuple(
            MemoryRequest(address=PhysicalAddress(*t), arrival_rank=i)
            for i, t in enumerate(triples)
        ),
        direction_hints=hints,
    )
