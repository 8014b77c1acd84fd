"""Pricing model for disk service sequences.

Every serviced request costs three integer components, all in abstract
device units:

* ``seek`` — track distance the arm travelled since the previous service;
* ``latency`` — forward rotation from the previously read sector to the
  target sector.  The platter spins one way only, so this is
  ``(next - prev) mod sectors_per_track``; landing on the same sector
  costs nothing;
* ``transfer`` — one unit for the read/write itself plus the number of
  platter surfaces switched across, i.e. ``|Δplatter| + 1``.

The rule lives only in one column kernel, ``step_costs``, with no Python
call per step: it prices the steps of a walk given as (track, platter,
sector) columns.
Addresses are bounds-checked once, where they enter: ``Scenario`` checks the
head and every request address, so ``SchedulerRun.priced``, which prices a
walk over a scenario's arrival ranks and builds the run record (every
scheduler, MODSBSM included, and the oracle's order), checks nothing again.
``replay`` prices a foreign visit sequence from a start position and checks
its addresses first, and ``plattersim.oracle.verify_trace`` checks those of
any steps it is given.
``SchedulerRun.priced`` copies the steps of a walk's ``legs``, runs of the
``up`` list of ``Scenario.sweeps``, out of ``Scenario.sweep_layout``, that
list priced once per scenario, reversing a leg read downward (the same seeks
and transfers, each latency ``l`` turned into ``(S - l) mod S``); it prices
only the step into each leg and the visits after the last, the whole walk
when there are no legs.
``via`` waypoints are edge tracks the arm passes between two visits (SCAN
turning at the disk edge, C-SCAN's full-stroke return); seek includes them.
Aggregates follow the usual naming — TSKT (total seek), TRL (total
rotational latency), TDTT (total data transfer), TDAT (their sum) and ADAT
(TDAT per request).

``replay`` returns, and a run record keeps as ``steps``, a ``Trace``: the
visits and the three cost columns, read as ``ServiceStep`` rows built only
on access.  ``ServiceStep``, like
:class:`~plattersim.geometry.PhysicalAddress`, is a named tuple, so hashing
and equality run in C and a step compares equal to the plain tuple of its
fields.  ``SchedulerRun`` is the one record of a run, baseline, MODSBSM or
oracle, and ``SchedulerRun.priced`` the one place one is built.

``energy_saved`` prices the reads that MODSBSM's bad-sector table avoids with
two constants: ``ENERGY_PER_ACCESS`` (100 fJ) and ``HEAT_PER_ACCESS`` (1 unit)
per read.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, repeat
from operator import add, attrgetter, eq, itemgetter, mod, sub
from typing import TYPE_CHECKING, NamedTuple

from .geometry import DiskGeometry, PhysicalAddress, validate, within

if TYPE_CHECKING:
    from .modsbsm import BadSectorEntry, DirectionDecision
    from .workload import Scenario


class ServiceStep(NamedTuple):
    """Cost breakdown for one serviced (or probed) address."""

    address: PhysicalAddress
    seek: int
    latency: int
    transfer: int

    @property
    def access(self) -> int:
        return self.seek + self.latency + self.transfer


_COLUMNS = attrgetter("visits", "seeks", "latencies", "transfers")


class Trace(Sequence):
    """A run's steps as four tuples: visited addresses, seeks, latencies, transfers.

    A read-only sequence of ``ServiceStep`` rows, each built when it is read;
    a slice is a ``Trace``.  It equals any sequence of the same steps, and
    hashes as their tuple.
    """

    __slots__ = ("visits", "seeks", "latencies", "transfers")

    def __init__(self, visits, seeks, latencies, transfers):
        self.visits, self.seeks, self.latencies, self.transfers = visits, seeks, latencies, transfers

    @classmethod
    def of(cls, steps: Iterable[Sequence]) -> Trace:
        """``steps`` as a Trace: a Trace as it is, other steps turned into columns once."""
        if isinstance(steps, Trace):
            return steps
        steps = steps if isinstance(steps, Sequence) else tuple(steps)
        return cls(*(tuple(map(itemgetter(i), steps)) for i in range(4)))

    def __len__(self) -> int:
        return len(self.visits)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(*(column[index] for column in _COLUMNS(self)))
        return tuple.__new__(ServiceStep, [column[index] for column in _COLUMNS(self)])

    def __iter__(self):
        # tuple.__new__ builds each step in C; ServiceStep's own __new__ is Python.
        return map(tuple.__new__, repeat(ServiceStep), zip(*_COLUMNS(self)))

    def __eq__(self, other):
        if isinstance(other, Trace):
            # tuple() returns a tuple column as it is, so two tuple Traces compare their columns.
            return tuple(map(tuple, _COLUMNS(self))) == tuple(map(tuple, _COLUMNS(other)))
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))


def columns(addresses: Sequence[PhysicalAddress], head: PhysicalAddress | None = None) -> list[list[int]]:
    """The (track, platter, sector) columns of an address sequence, ``head`` first if given."""
    if head is None:
        return [list(map(itemgetter(i), addresses)) for i in range(3)]
    return [[start, *map(itemgetter(i), addresses)] for i, start in enumerate(head)]


def step_costs(
    sectors_per_track: int,
    positions: Sequence[Sequence[int]],
    via: Mapping[int, Sequence[int]] | None = None,
) -> tuple[Iterable[int], Iterable[int], Iterable[int]]:
    """Seek, latency and transfer of each step between consecutive positions.

    ``positions`` are the (track, platter, sector) columns of a walk, its start
    first; ``via`` maps a step to the tracks the arm passes on its way.  The
    results are iterators, consumed once.  Arguments are not checked.
    """
    tracks, platters, sectors = positions
    seeks = map(abs, map(sub, islice(tracks, 1, None), tracks))
    if via:
        seeks = list(seeks)
        for k, waypoints in via.items():
            if 0 <= k < len(seeks):
                path = (tracks[k], *waypoints, tracks[k + 1])
                seeks[k] = sum(map(abs, map(sub, path[1:], path)))
    return (
        seeks,
        map(mod, map(sub, islice(sectors, 1, None), sectors), repeat(sectors_per_track)),
        map(add, map(abs, map(sub, islice(platters, 1, None), platters)), repeat(1)),
    )


def replay(
    geometry: DiskGeometry,
    head: PhysicalAddress,
    visits: Iterable[PhysicalAddress],
    via: Mapping[int, Sequence[int]] | None = None,
) -> Trace:
    """Check and price a visit sequence from the given head position.

    The reference position for each step is the previously visited address
    (the head starts at ``head``); ``via`` maps a 0-based visit position to
    the waypoints the arm passes on its way to that visit.  The first address
    off the disk, the head's included, raises ``GeometryBoundsError``.
    """
    validate(geometry, head)
    visits = tuple(visits)
    positions = columns(visits, head)
    if not within(geometry, positions):
        for addr in visits:
            validate(geometry, addr)
    costs = step_costs(geometry.sectors_per_track, positions, via)
    return Trace(visits, *map(tuple, costs))


@dataclass(frozen=True)
class AccessTotals:
    """Aggregate cost of a run: tskt + trl + tdtt = tdat, adat = tdat / requests."""

    tskt: int
    trl: int
    tdtt: int
    request_count: int

    def __post_init__(self):
        if self.request_count < 1:
            raise ValueError("request_count must be >= 1")

    @property
    def tdat(self) -> int:
        return self.tskt + self.trl + self.tdtt

    @property
    def adat(self) -> Fraction:
        return Fraction(self.tdat, self.request_count)

    @property
    def adat_text(self) -> str:
        # Integer half-up rounding to two decimals; floats never enter the model.
        cents = (self.tdat * 100 * 2 + self.request_count) // (self.request_count * 2)
        return f"{cents // 100}.{cents % 100:02d}"

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.tskt, self.trl, self.tdtt, self.tdat)


@dataclass(frozen=True)
class SchedulerRun:
    """Everything one scheduler, or the oracle, did on one scenario.

    MODSBSM's ``order`` is its served order; a baseline's is its plan, whose
    served ranks are ``order`` minus ``abandoned``.  ``decisions`` holds
    MODSBSM's per-pass direction choices; baselines and the oracle leave it
    empty, as they leave the bad-sector table.
    """

    algorithm: str
    order: tuple[int, ...]
    steps: Trace
    totals: AccessTotals
    bad_sector_table: tuple[BadSectorEntry, ...] = ()
    abandoned: tuple[int, ...] = ()
    note: str = ""
    decisions: tuple[DirectionDecision, ...] = ()

    @classmethod
    def priced(
        cls,
        scenario: Scenario,
        algorithm: str,
        order: Iterable[int],
        walk: Sequence[int],
        via: Mapping[int, Sequence[int]] | None = None,
        legs: Sequence[tuple[int, int, bool]] = (),
        **fields,
    ) -> SchedulerRun:
        """The record of a walk over the scenario's arrival ranks, priced from its head.

        Pricing is ``replay``'s, with nothing checked again: ``Scenario``
        checked the head and every request address.  A plan may name
        ``legs``, the ``(lo, hi, forward)`` runs ``up[lo:hi]`` of
        ``Scenario.sweeps`` that its walk reads first, each forward or
        backward: their visits and own steps are slices of
        ``Scenario.sweep_layout``, so only the step into each leg, through
        ``via`` at the leg's first visit, and the visits after the last leg
        are priced here; a walk without legs is priced whole, without the
        layout.  The totals divide by the queue length, so ADAT stays TDAT
        per request when failed probes add visits or table answers save them.
        """
        # One step_costs call prices what is not copied: its path is the head,
        # each non-empty leg's first and last visit, then the tail.  Step 2m
        # enters the m-th leg; step 2m + 1 spans it and gives way to the leg's
        # own steps.
        sectors = scenario.geometry.sectors_per_track
        visits: list[PhysicalAddress] = []
        ends: list[PhysicalAddress] = []
        runs = []
        waypoints: dict[int, Sequence[int]] = {}
        for lo, hi, forward in legs:
            if lo == hi:
                continue
            up, seeks, latencies, transfers = _COLUMNS(scenario.sweep_layout)
            if via and len(visits) in via:
                waypoints[len(ends)] = via[len(visits)]
            if forward:
                own = slice(lo + 1, hi)  # the leg's own steps
                leg = up[lo:hi], seeks[own], latencies[own], transfers[own]
            else:  # the mirror walk, its own steps last first: l becomes (S - l) mod S
                own = slice(hi - 1, lo, -1)
                mirrored = map(mod, map(sub, repeat(sectors), latencies[own]), repeat(sectors))
                leg = up[lo:hi][::-1], seeks[own], mirrored, transfers[own]
            visits += leg[0]
            ends += leg[0][0], leg[0][-1]
            runs.append(leg[1:])
        tail = tuple(map(scenario.addresses.__getitem__, walk[len(visits) :]))
        kernel = step_costs(sectors, columns([*ends, *tail], scenario.initial_head), waypoints)
        steps = []
        for c, costs in enumerate(map(iter, kernel)):
            column = []
            for run in runs:
                column.append(next(costs))  # into the leg
                next(costs)  # across it, where the leg's own steps go
                column += run[c]
            column += costs  # the tail: the retries, or a walk without legs
            steps.append(tuple(column))
        trace = Trace(tuple(visits) + tail, *steps)  # () + tail is tail: no copy without legs
        return cls(algorithm, tuple(order), trace, totals(trace, len(scenario.requests)), **fields)

    @property
    def visits(self) -> tuple[PhysicalAddress, ...]:
        """The steps' addresses: every physical visit, failed probes included."""
        return Trace.of(self.steps).visits

    @property
    def passes(self) -> int:
        """One per MODSBSM decision; every other run makes one pass."""
        return len(self.decisions) or 1

    @property
    def resolved(self) -> tuple[PhysicalAddress, ...]:
        """Bad addresses with a prescribed bit: every entry of a finished run's table."""
        return tuple(e.index for e in self.bad_sector_table)


def totals(steps: Sequence[ServiceStep], request_count: int | None = None) -> AccessTotals:
    """Sum a step sequence into AccessTotals.

    ``request_count`` defaults to the number of steps; ``SchedulerRun.priced``
    passes the queue length.
    """
    trace = Trace.of(steps)
    count = len(trace) if request_count is None else request_count
    return AccessTotals(sum(trace.seeks), sum(trace.latencies), sum(trace.transfers), count)


def improvement(baseline_adats: Iterable[float], candidate_adat: float) -> float:
    """Percentage improvement of candidate over the mean of the baselines."""
    values = [float(v) for v in baseline_adats]
    if not values:
        raise ValueError("need at least one baseline ADAT")
    mean = sum(values) / len(values)
    if mean == 0:
        raise ValueError("baseline mean is zero")
    return 100.0 * (mean - float(candidate_adat)) / mean


ENERGY_PER_ACCESS = 100.0  # femtojoules per read
HEAT_PER_ACCESS = 1.0  # arbitrary units per read


def energy_saved(projected_accesses: int) -> tuple[float, float]:
    """(energy, heat) of ``n - 2`` of ``n = projected_accesses`` reads, counted as avoided.

    MODSBSM probes a third time before it finalizes the entry, so the
    figure overstates the saving by one read per address (only ``n - 3`` are
    avoided); acceptance criterion 8 freezes it: ``energy_saved(5) == (300.0, 3.0)``.
    """
    if projected_accesses < 2:
        raise ValueError(
            f"projected_accesses must be >= 2, got {projected_accesses}"
        )
    avoided = projected_accesses - 2
    return (ENERGY_PER_ACCESS * avoided, HEAT_PER_ACCESS * avoided)


TRACE_CSV_HEADER = "step,track,platter,sector,seek,latency,transfer,access"
TOTALS_CSV_HEADER = "algorithm,tskt,trl,tdtt,tdat,adat"


def trace_csv(steps: Sequence[ServiceStep]) -> str:
    """Render steps as CSV, one row per visit, 1-based step numbers."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(TRACE_CSV_HEADER.split(","))
    writer.writerows([k, *s.address, *s[1:], s.access] for k, s in enumerate(steps, 1))
    return out.getvalue()


def totals_csv(rows: Iterable[tuple[str, AccessTotals]]) -> str:
    """Render (algorithm, totals) pairs as CSV under ``TOTALS_CSV_HEADER``."""
    lines = [TOTALS_CSV_HEADER]
    lines.extend(
        f"{name},{t.tskt},{t.trl},{t.tdtt},{t.tdat},{t.adat_text}" for name, t in rows
    )
    return "\n".join(lines) + "\n"
