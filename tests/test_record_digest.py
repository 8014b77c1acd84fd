"""One SHA-256 pinned over every run record of a fixed set of scenarios.

The digest covers each record's order, its four trace columns, totals,
abandoned ranks, MODSBSM's decisions and bad-sector table.  The scenarios are
the six built-in cases and a fixed ``generate`` grid on three disks with zero
to three bad addresses, each with drawn direction hints and again with its
first requests repeated at the tail; every algorithm runs on each with hints
on and off, and ``optimal_order`` on each queue of seven requests or fewer.
A refactor of the pricing or planning layers must leave the digest where it
is; a change that means to move an output changes it, and says so.
"""

import hashlib
from dataclasses import replace
from itertools import product

from plattersim.geometry import DiskGeometry
from plattersim.oracle import optimal_order
from plattersim.schedulers import ALGORITHM_NAMES, run_scheduler
from plattersim.workload import (
    BUILTIN_CASE_IDS,
    DIRECTION_HINT_NAMES,
    GeneratorParams,
    MemoryRequest,
    builtin_case,
    generate,
)

RECORD_DIGEST = "5350d6fff30ea7777c804e27194b42cfe0aad0572f22f3de9dbcf8499570fd1c"

ORACLE_LIMIT = 7
# (platters, tracks, sectors) and the queue lengths drawn on each.
GRID = {
    (2, 10, 4): (1, 3, 7, 24),
    (4, 200, 8): (2, 6, 40, 160),
    (1, 5, 3): (1, 4, 9, 15),
}


def _hinted(scenario, seed):
    """The scenario with each sweep's hint drawn from the bits of ``seed``."""
    hints = tuple((name, "up" if seed >> i & 1 else "down") for i, name in enumerate(DIRECTION_HINT_NAMES))
    return replace(scenario, direction_hints=hints)


def _repeated(scenario):
    """The scenario with its first half of requests queued again at the tail."""
    requests = scenario.requests
    again = requests[: (len(requests) + 1) // 2]
    tail = tuple(MemoryRequest(r.address, r.op, len(requests) + i) for i, r in enumerate(again))
    return replace(scenario, requests=requests + tail)


def scenarios():
    for case_id in BUILTIN_CASE_IDS:
        yield builtin_case(case_id)
    for (dims, counts), order, seed in product(GRID.items(), ("ascending", "descending", "random"), (1, 7)):
        geometry = DiskGeometry(*dims)
        for n in counts:
            for bad_count in range(min(n, 3) + 1):
                base = generate(geometry, GeneratorParams(n, order, seed + 31 * n + bad_count, bad_count))
                yield base
                yield _hinted(base, seed * n + bad_count)
                yield _repeated(_hinted(base, seed + n))


def _record(run):
    columns = (run.steps.visits, run.steps.seeks, run.steps.latencies, run.steps.transfers)
    return repr((
        run.algorithm,
        tuple(run.order),
        tuple(map(tuple, columns)),
        run.totals,
        tuple(run.abandoned),
        tuple(run.decisions),
        tuple(run.bad_sector_table),
    ))


def record_digest():
    digest = hashlib.sha256()
    for scenario in scenarios():
        for algorithm in ALGORITHM_NAMES:
            for use_hints in (False, True):
                digest.update(_record(run_scheduler(scenario, algorithm, use_hints=use_hints)).encode())
        if len(scenario.requests) <= ORACLE_LIMIT:
            digest.update(_record(optimal_order(scenario)).encode())
    return digest.hexdigest()


def test_every_run_record_hashes_to_the_pinned_digest():
    assert record_digest() == RECORD_DIGEST
