"""Exhaustive schedule search and trace validation.

``optimal_order`` prices every permutation of the pending queue and keeps
the cheapest, so it is the ground truth any scheduler can be checked
against — and also why it refuses queues longer than
``MAX_ORACLE_REQUESTS`` unless the caller raises the limit explicitly
(nine requests already mean 362 880 orders, each summed from a table of
step costs priced once).  Faults are ignored: the oracle prices ideal
fault-free service.

``verify_trace`` re-prices a recorded trace from scratch.  Latency and
transfer are fully determined by consecutive positions and must match
exactly; seek only has to be at least the direct track distance, because
the boundary-touching sweeps genuinely travel further than the straight
line between consecutive requests.  Coverage: every requested address must
be visited at least as often as it was requested, except that a bad
address needs only ``min(requested, PROBE_LIMIT)`` visits, because MODSBSM
answers later requests to it from its bad-sector table.  A trace of a
fault-free scenario with exactly one step per request must visit each
requested address exactly as often as it was requested.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .geometry import GeometryBoundsError, validate
from .metrics import AccessTotals, ServiceStep, replay, step_cost, totals
from .modsbsm import PROBE_LIMIT
from .workload import Scenario

MAX_ORACLE_REQUESTS = 9


class OracleSizeError(ValueError):
    """Queue too long for exhaustive search at the given limit."""


@dataclass(frozen=True)
class OracleResult:
    order: tuple[int, ...]
    steps: tuple[ServiceStep, ...]
    totals: AccessTotals


def optimal_order(scenario: Scenario, limit: int = MAX_ORACLE_REQUESTS) -> OracleResult:
    """Cheapest service order by exhaustive search; ties break lexicographically."""
    n = len(scenario.requests)
    if n == 0:
        raise ValueError("scenario has no requests")
    if n > limit:
        raise OracleSizeError(
            f"{n} requests exceed the exhaustive-search cap of {limit}"
        )
    sectors = scenario.geometry.sectors_per_track
    head = scenario.initial_head
    targets = [req.address for req in scenario.requests]
    # step[0][j] prices head -> request j, step[i + 1][j] request i -> request j
    step = [
        [sum(step_cost(prev, addr, sectors)) for addr in targets]
        for prev in [head, *targets]
    ]

    best_cost: int | None = None
    best_perm: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(n)):
        row = step[0]
        cost = 0
        for i in perm:
            cost += row[i]
            row = step[i + 1]
        if best_cost is None or cost < best_cost or (cost == best_cost and perm < best_perm):
            best_cost = cost
            best_perm = perm

    addresses = [targets[i] for i in best_perm]
    steps = replay(scenario.geometry, head, addresses)
    return OracleResult(order=best_perm, steps=tuple(steps), totals=totals(steps))


def verify_trace(
    scenario: Scenario,
    steps: Sequence[ServiceStep],
    run_totals: AccessTotals | None = None,
) -> list[str]:
    """Re-price a trace and return a list of violations (empty when clean)."""
    geometry = scenario.geometry
    sectors = geometry.sectors_per_track
    violations: list[str] = []
    pos = scenario.initial_head
    for k, step in enumerate(steps, 1):
        try:
            validate(geometry, step.address)
        except GeometryBoundsError as exc:
            violations.append(f"step {k}: address out of bounds ({exc})")
            pos = step.address
            continue
        min_seek, expected_latency, expected_transfer = step_cost(
            pos, step.address, sectors
        )
        if not 0 <= step.latency < sectors:
            violations.append(
                f"step {k}: latency {step.latency} outside 0..{sectors - 1}"
            )
        if step.latency != expected_latency:
            violations.append(
                f"step {k}: latency {step.latency} != re-priced {expected_latency}"
            )
        if step.transfer != expected_transfer:
            violations.append(
                f"step {k}: transfer {step.transfer} != re-priced {expected_transfer}"
            )
        if step.seek < min_seek:
            violations.append(
                f"step {k}: seek {step.seek} below track distance {min_seek}"
            )
        pos = step.address

    if run_totals is not None:
        sums = (
            sum(s.seek for s in steps),
            sum(s.latency for s in steps),
            sum(s.transfer for s in steps),
        )
        recorded = (run_totals.tskt, run_totals.trl, run_totals.tdtt)
        for name, got, want in zip(("tskt", "trl", "tdtt"), recorded, sums):
            if got != want:
                violations.append(f"totals: {name} {got} != step sum {want}")
        if run_totals.tdat != sum(sums):
            violations.append(
                f"totals: tdat {run_totals.tdat} != tskt+trl+tdtt {sum(sums)}"
            )

    requested = Counter(req.address for req in scenario.requests)
    visited = Counter(step.address for step in steps)
    bad = {spec.address for spec in scenario.faults}
    # Sort only the short addresses: a clean trace then pays no sort.
    short = [
        (address, count)
        for address, count in requested.items()
        if visited[address] < (min(count, PROBE_LIMIT) if address in bad else count)
    ]
    for address, count in sorted(short):
        violations.append(
            f"coverage: {address} requested {count} times, visited {visited[address]}"
        )
    if not bad and len(steps) == len(scenario.requests) and visited != requested:
        violations.append("coverage: trace is not a permutation of the request queue")
    return violations
