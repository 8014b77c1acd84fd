"""Exhaustive schedule search and trace validation.

``optimal_order`` prices every permutation of the pending queue and keeps
the cheapest, so it is the ground truth any scheduler can be checked
against — and also why it refuses queues longer than
``MAX_ORACLE_REQUESTS`` unless the caller raises the limit explicitly
(nine requests already mean 362 880 orders, each summed from a table of
step costs priced once by the column kernel ``metrics.step_costs``).
Faults are ignored: the oracle prices ideal fault-free service.

``verify_trace`` reads any steps as a column ``Trace``, re-prices its visits
with the same kernel into three tuples and compares whole columns in C.
Latency and transfer are fully determined by consecutive positions and must
match exactly; seek only has to be at least the direct track distance,
because the boundary-touching sweeps genuinely travel further than the
straight line between consecutive requests.  Bounds are checked here for any
steps: a walk that visits only requested addresses is on the disk, because
``Scenario`` checked those, and any other walk is checked with
``geometry.within``.  A trace that is on the disk and equals its re-pricing
is settled by three tuple comparisons: its seeks equal the direct track
distances unless a step passes edge tracks (SCAN, C-SCAN) or detours, and
only then, or for a list column, does a step-by-step comparison in C check
that no seek is below its distance.  Per-step code runs, over every step,
for any trace the column comparison does not settle.  Totals must be the
steps' sums over the queue length.  Coverage is exact: an address no request
names is never visited; one requested ``r`` times is visited ``r`` times,
or, in the fault table, from ``min(r, PROBE_LIMIT)`` (MODSBSM answers later
requests from its table) to ``RETRY_LIMIT * r`` (a baseline's tries) times.
A trace with every count as requested passes after one dict comparison; any
other compares its counts off the fault table as dicts, and only if those
differ is every address searched.
"""

from __future__ import annotations

import itertools
from collections import Counter
from operator import lt
from typing import Sequence

from .geometry import GeometryBoundsError, validate, within
from .metrics import AccessTotals, SchedulerRun, ServiceStep, Trace, columns, step_costs
from .modsbsm import PROBE_LIMIT
from .schedulers import RETRY_LIMIT
from .workload import Scenario

MAX_ORACLE_REQUESTS = 9


class OracleSizeError(ValueError):
    """Queue too long for exhaustive search at the given limit."""


def optimal_order(scenario: Scenario, limit: int = MAX_ORACLE_REQUESTS) -> SchedulerRun:
    """Cheapest service order by exhaustive search; ties break lexicographically.

    The result is the run record of algorithm ``"oracle"``.
    """
    n = len(scenario.requests)
    if n > limit:
        raise OracleSizeError(
            f"{n} requests exceed the exhaustive-search cap of {limit}"
        )
    head = scenario.initial_head
    targets = scenario.addresses
    # step[0][j] prices head -> request j, step[i + 1][j] request i -> request j:
    # the even steps of one walk through every (source, target) pair.
    legs = list(itertools.chain.from_iterable(itertools.product((head, *targets), targets)))
    walk = zip(*step_costs(scenario.geometry.sectors_per_track, columns(legs)))
    costs = list(map(sum, itertools.islice(walk, 0, None, 2)))
    step = [costs[i * n : (i + 1) * n] for i in range(n + 1)]

    best_cost: int | None = None
    best_perm: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(n)):
        row = step[0]
        cost = 0
        for i in perm:
            cost += row[i]
            row = step[i + 1]
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_perm = perm

    return SchedulerRun.priced(scenario, "oracle", best_perm, best_perm)


def verify_trace(
    scenario: Scenario, steps: Sequence[ServiceStep], run_totals: AccessTotals | None = None
) -> list[str]:
    """Re-price a trace and return a list of violations (empty when clean)."""
    trace = Trace.of(steps)
    geometry = scenario.geometry
    sectors = geometry.sectors_per_track
    requested = scenario.requested
    visited = Counter(trace.visits)
    positions = columns(trace.visits, scenario.initial_head)
    # Scenario checked the addresses it requests: a walk over them is on the disk.
    on_disk = visited.keys() <= requested.keys() or within(geometry, positions)
    min_seeks, latencies, transfers = map(tuple, step_costs(sectors, positions))
    # Every scheduler trace is settled here, with no Python call per step; only one
    # that is not goes through the step-by-step checks below.
    settled = (
        on_disk
        and trace.latencies == latencies
        and trace.transfers == transfers
        and (trace.seeks == min_seeks or not any(map(lt, trace.seeks, min_seeks)))
    )
    violations: list[str] = []
    # A step that agrees with its re-pricing adds nothing: each check below is a disagreement.
    priced = () if settled else zip(trace, min_seeks, latencies, transfers)
    for k, (step, min_seek, expected_latency, expected_transfer) in enumerate(priced, 1):
        try:
            validate(geometry, step.address)
        except GeometryBoundsError as exc:
            violations.append(f"step {k}: address out of bounds ({exc})")
            continue
        # Priced from the previous address, out of bounds or not.
        if not 0 <= step.latency < sectors:
            violations.append(f"step {k}: latency {step.latency} outside 0..{sectors - 1}")
        if step.latency != expected_latency:
            violations.append(f"step {k}: latency {step.latency} != re-priced {expected_latency}")
        if step.transfer != expected_transfer:
            violations.append(f"step {k}: transfer {step.transfer} != re-priced {expected_transfer}")
        if step.seek < min_seek:
            violations.append(f"step {k}: seek {step.seek} below track distance {min_seek}")

    if run_totals is not None:
        sums = (sum(trace.seeks), sum(trace.latencies), sum(trace.transfers))
        recorded = (run_totals.tskt, run_totals.trl, run_totals.tdtt)
        for name, got, want in zip(("tskt", "trl", "tdtt"), recorded, sums):
            if got != want:
                violations.append(f"totals: {name} {got} != step sum {want}")
        if run_totals.tdat != sum(sums):
            violations.append(f"totals: tdat {run_totals.tdat} != tskt+trl+tdtt {sum(sums)}")
        n = len(scenario.requests)
        if run_totals.request_count != n:
            violations.append(f"totals: request_count {run_totals.request_count} != queue length {n}")

    # Every address visited exactly as often as it was requested meets every
    # rule.  dict's own == reuses the stored hashes (Counter's is Python);
    # counted occurrences are never zero, so it agrees with Counter's.
    if dict.__eq__(visited, requested):
        return violations
    bad = {spec.address for spec in scenario.faults}
    # Off the fault table the counts must be equal: compare those parts as
    # dicts in C, and search every address only when they differ.
    off_table = [dict(visited), dict(requested)]
    for counts, address in itertools.product(off_table, bad):
        counts.pop(address, None)
    suspects = bad if off_table[0] == off_table[1] else requested.keys() | visited.keys()
    wrong = []
    for address in suspects:
        count = requested[address]
        low, high = (min(count, PROBE_LIMIT), RETRY_LIMIT * count) if address in bad else (count, count)
        if not low <= visited[address] <= high:
            wrong.append((address, count))
    for address, count in sorted(wrong):
        violations.append(f"coverage: {address} requested {count} times, visited {visited[address]}")
    return violations
