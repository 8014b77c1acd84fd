"""Exhaustive-search oracle and trace-verification tests."""

import dataclasses
import itertools

import pytest

import reference_loops as ref
from plattersim.geometry import DiskGeometry, PhysicalAddress, parse_index
from plattersim.metrics import ServiceStep, replay, totals
from plattersim.modsbsm import execute
from plattersim.oracle import (
    MAX_ORACLE_REQUESTS,
    OracleSizeError,
    optimal_order,
    verify_trace,
)
from plattersim.schedulers import RETRY_LIMIT, run_scheduler
from plattersim.workload import (
    FaultSpec,
    GeneratorParams,
    MemoryRequest,
    Scenario,
    ScenarioError,
    builtin_case,
    generate,
)


def _scenario(head, triples, geometry=None):
    return Scenario(
        geometry=geometry or DiskGeometry(4, 200, 8),
        initial_head=PhysicalAddress(*head),
        requests=tuple(
            MemoryRequest(address=PhysicalAddress(*t), arrival_rank=i)
            for i, t in enumerate(triples)
        ),
    )


def test_oracle_matches_independent_enumeration():
    sc = _scenario((50, 1, 0), [(52, 1, 1), (52, 1, 3), (40, 1, 0), (47, 2, 6)])
    result = optimal_order(sc)

    best = None
    for perm in itertools.permutations(range(4)):
        t = totals(
            replay(sc.geometry, sc.initial_head, [sc.requests[i].address for i in perm])
        )
        key = (t.tdat, perm)
        if best is None or key < best:
            best = key
    assert result.totals.tdat == best[0]
    assert result.order == best[1]
    # The oracle's record is a one-pass run record.
    assert (result.algorithm, result.passes) == ("oracle", 1)
    assert result.visits == tuple(sc.addresses[i] for i in best[1])


def test_oracle_ties_break_lexicographically():
    # Two requests symmetric about the head with identical rotation and
    # platter costs: both orders price the same, so (0, 1) must win.
    sc = _scenario((50, 1, 0), [(60, 1, 1), (40, 1, 1)])
    result = optimal_order(sc)
    assert result.order == (0, 1)


def test_oracle_refuses_oversized_queues():
    geom = DiskGeometry(2, 100, 8)
    sc = generate(geom, GeneratorParams(request_count=MAX_ORACLE_REQUESTS + 1, seed=1))
    with pytest.raises(OracleSizeError):
        optimal_order(sc)
    with pytest.raises(OracleSizeError):
        optimal_order(sc, limit=MAX_ORACLE_REQUESTS)


def test_oracle_limit_is_adjustable():
    geom = DiskGeometry(2, 100, 8)
    sc = generate(geom, GeneratorParams(request_count=5, seed=2))
    with pytest.raises(OracleSizeError):
        optimal_order(sc, limit=4)
    assert optimal_order(sc, limit=5).totals.tdat > 0


def test_oracle_rejects_empty_scenarios():
    # Scenario refuses an empty queue, so the oracle is never handed one.
    with pytest.raises(ScenarioError, match="^scenario has no requests$"):
        Scenario(geometry=DiskGeometry(1, 10, 8), initial_head=PhysicalAddress(0, 1, 0), requests=())


def test_oracle_never_beaten_by_schedulers_smoke():
    geom = DiskGeometry(4, 200, 8)
    from plattersim.schedulers import ALGORITHM_NAMES

    for seed in range(10):
        sc = generate(geom, GeneratorParams(request_count=6, order="random", seed=seed))
        best = optimal_order(sc).totals.tdat
        for algorithm in ALGORITHM_NAMES:
            run = run_scheduler(sc, algorithm)
            assert run.totals.tdat >= best, (seed, algorithm)


def test_verify_trace_accepts_clean_runs():
    geom = DiskGeometry(4, 200, 8)
    sc = generate(geom, GeneratorParams(request_count=9, order="random", seed=11))
    run = run_scheduler(sc, "cscan")
    assert verify_trace(sc, run.steps, run.totals) == []


def test_verify_trace_flags_wrong_latency():
    sc = _scenario((50, 1, 0), [(52, 1, 1)])
    run = run_scheduler(sc, "fcfs")
    tampered = [ServiceStep(run.steps[0].address, run.steps[0].seek, 7, run.steps[0].transfer)]
    problems = verify_trace(sc, tampered)
    assert any("latency" in p for p in problems)


def test_verify_trace_flags_undershooting_seek_but_allows_detours():
    sc = _scenario((50, 1, 0), [(52, 1, 1)])
    step = run_scheduler(sc, "fcfs").steps[0]
    detour = [ServiceStep(step.address, step.seek + 100, step.latency, step.transfer)]
    assert not any("seek" in p for p in verify_trace(sc, detour))
    undershoot = [ServiceStep(step.address, step.seek - 1, step.latency, step.transfer)]
    assert any("seek" in p for p in verify_trace(sc, undershoot))


def test_verify_trace_flags_missing_and_foreign_visits():
    sc = _scenario((50, 1, 0), [(52, 1, 1), (40, 1, 0)])
    run = run_scheduler(sc, "fcfs")
    problems = verify_trace(sc, run.steps[:1])
    assert any("coverage" in p for p in problems)

    foreign = replay(sc.geometry, sc.initial_head,
                     [PhysicalAddress(52, 1, 1), PhysicalAddress(1, 1, 1)])
    problems = verify_trace(sc, foreign)
    assert "coverage: PhysicalAddress(track=1, platter=1, sector=1) requested 0 times, visited 1" in problems


def test_verify_trace_still_wants_probe_limit_visits_of_a_bad_address():
    # Requested 5 times, a bad address may be answered from the table after
    # its third visit, but two visits are too few.  Requested once, MODSBSM
    # probes it three times: a trace that drops its second probe is refused.
    bad = PhysicalAddress(52, 1, 1)
    sc = Scenario(
        geometry=DiskGeometry(4, 200, 8),
        initial_head=PhysicalAddress(50, 1, 0),
        requests=tuple(MemoryRequest(address=bad, arrival_rank=i) for i in range(5)),
        faults=(FaultSpec(bad, 0),),
    )
    twice = replay(sc.geometry, sc.initial_head, [bad, bad])
    assert verify_trace(sc, twice) == [
        f"coverage: {bad} requested 5 times, visited 2"
    ]
    thrice = replay(sc.geometry, sc.initial_head, [bad, bad, bad])
    assert verify_trace(sc, thrice) == []

    once = _scenario((50, 1, 0), [(52, 1, 1), (60, 1, 0)])
    once = dataclasses.replace(once, faults=(FaultSpec(bad, 0),))
    visits = list(execute(once).visits)
    second = [k for k, a in enumerate(visits) if a == bad][1]
    dropped = replay(once.geometry, once.initial_head, visits[:second] + visits[second + 1 :])
    expected = [f"coverage: {bad} requested 1 times, visited 2"]
    assert verify_trace(once, dropped) == ref.verify_trace(once, dropped) == expected


def test_verify_trace_caps_a_bad_address_at_the_baselines_tries():
    # Requested twice, a bad address is tried RETRY_LIMIT times per request at
    # most; a bad address no request names is never visited.
    bad, unrequested = PhysicalAddress(52, 1, 1), PhysicalAddress(60, 1, 0)
    sc = Scenario(
        geometry=DiskGeometry(4, 200, 8),
        initial_head=PhysicalAddress(50, 1, 0),
        requests=tuple(MemoryRequest(address=bad, arrival_rank=i) for i in range(2)),
        faults=(FaultSpec(bad, 0), FaultSpec(unrequested, 1)),
    )
    tries = RETRY_LIMIT * 2
    assert verify_trace(sc, replay(sc.geometry, sc.initial_head, [bad] * tries)) == []
    assert verify_trace(sc, replay(sc.geometry, sc.initial_head, [bad] * (tries + 1))) == [
        f"coverage: {bad} requested 2 times, visited {tries + 1}"
    ]
    assert verify_trace(sc, replay(sc.geometry, sc.initial_head, [bad, unrequested, bad])) == [
        f"coverage: {unrequested} requested 0 times, visited 1"
    ]


def _repriced(scenario, visits):
    steps = replay(scenario.geometry, scenario.initial_head, visits)
    return steps, totals(steps, len(scenario.requests))


def test_verify_trace_refuses_visits_nobody_requested_on_case_2():
    case = builtin_case(2)
    fcfs = list(run_scheduler(case, "fcfs").visits)
    detour = parse_index("199t4p7s")
    steps, sums = _repriced(case, [*fcfs[:5], detour, *fcfs[5:]])
    assert verify_trace(case, steps, sums) == [f"coverage: {detour} requested 0 times, visited 1"]
    look = list(run_scheduler(case, "look", use_hints=True).visits)
    steps, sums = _repriced(case, [look[0], *look])
    assert verify_trace(case, steps, sums) == [f"coverage: {look[0]} requested 1 times, visited 2"]


def test_verify_trace_checks_the_adat_divisor():
    case = builtin_case(2)
    run = run_scheduler(case, "look", use_hints=True)
    short = dataclasses.replace(run.totals, request_count=7)
    assert (run.totals.adat_text, short.adat_text) == ("15.10", "43.14")
    assert verify_trace(case, run.steps, short) == ["totals: request_count 7 != queue length 20"]


def test_verify_trace_reports_short_addresses_in_address_order():
    sc = _scenario(
        (50, 1, 0),
        [(90, 1, 2), (52, 2, 1), (10, 3, 3), (52, 1, 5), (52, 1, 4), (10, 3, 3)],
    )
    visited = replay(sc.geometry, sc.initial_head, [PhysicalAddress(52, 1, 4)])
    assert verify_trace(sc, visited) == [
        f"coverage: {PhysicalAddress(*a)} requested {n} times, visited 0"
        for a, n in [((10, 3, 3), 2), ((52, 1, 5), 1), ((52, 2, 1), 1), ((90, 1, 2), 1)]
    ]


def test_verify_trace_flags_totals_mismatch():
    from plattersim.metrics import AccessTotals

    sc = _scenario((50, 1, 0), [(52, 1, 1)])
    run = run_scheduler(sc, "fcfs")
    wrong = AccessTotals(tskt=999, trl=run.totals.trl, tdtt=run.totals.tdtt,
                         request_count=run.totals.request_count)
    problems = verify_trace(sc, run.steps, wrong)
    assert any("tskt" in p for p in problems)


def test_verify_trace_flags_out_of_bounds_address():
    sc = _scenario((50, 1, 0), [(52, 1, 1)])
    rogue = [ServiceStep(PhysicalAddress(500, 1, 1), 450, 1, 1)]
    problems = verify_trace(sc, rogue)
    assert any("out of bounds" in p for p in problems)


def test_verify_trace_prices_the_step_after_a_rogue_address_from_it():
    sc = _scenario((50, 1, 0), [(52, 1, 1)])
    rogue = PhysicalAddress(500, 1, 1)
    trace = [
        ServiceStep(rogue, 450, 1, 1),
        ServiceStep(PhysicalAddress(52, 1, 1), 448, 0, 1),  # priced from 500t1p1s
    ]
    problems = verify_trace(sc, trace)
    assert len(problems) == 2
    assert "step 1: address out of bounds" in problems[0]
    assert problems[1] == f"coverage: {rogue} requested 0 times, visited 1"
