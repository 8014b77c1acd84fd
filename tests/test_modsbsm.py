"""Tests for the cylinder-ordered scheduler and its bad-sector lifecycle."""

import dataclasses
from fractions import Fraction

import pytest

from plattersim.geometry import DiskGeometry, PhysicalAddress, parse_index
from plattersim.metrics import replay, totals
from plattersim.oracle import verify_trace
from plattersim.modsbsm import (
    PROBE_LIMIT,
    FaultModel,
    decide_direction,
    execute,
)
from plattersim.schedulers import run_scheduler
from plattersim.workload import FaultSpec, MemoryRequest, Scenario, builtin_case


def test_decide_direction_prefers_nearer_extreme():
    d = decide_direction(75, [28, 42, 65, 106, 185])
    assert (d.to_min, d.to_max, d.chosen, d.tie) == (47, 110, "up", False)
    d = decide_direction(140, [18, 95, 197])
    assert (d.to_min, d.to_max) == (122, 57)
    assert d.chosen == "down"


def test_decide_direction_signed_distances_when_head_outside_span():
    # Head above every pending track: to_max is negative, so descending wins.
    d = decide_direction(185, [65])
    assert (d.to_min, d.to_max, d.chosen) == (120, -120, "down")
    d = decide_direction(5, [65])
    assert (d.to_min, d.to_max, d.chosen) == (-60, 60, "up")


def test_decide_direction_tie_resumes_against_recent_movement():
    assert decide_direction(90, [15, 165]).chosen == "up"  # no history
    assert decide_direction(90, [15, 165], last_move="down").chosen == "up"
    assert decide_direction(90, [15, 165], last_move="up").chosen == "down"
    assert decide_direction(90, [15, 165], last_move="up").tie


def test_decide_direction_needs_tracks():
    with pytest.raises(ValueError):
        decide_direction(10, [])


def _reqs(triples):
    return tuple(
        MemoryRequest(address=PhysicalAddress(*t), arrival_rank=i)
        for i, t in enumerate(triples)
    )


def test_case2_run_and_latency_sequence():
    result = execute(builtin_case(2))
    assert result.passes == 1
    assert result.totals.as_tuple() == (204, 62, 20, 286)
    assert result.totals.adat_text == "14.30"
    assert [s.latency for s in result.steps] == [
        0, 3, 3, 1, 5, 2, 2, 5, 6, 3, 1, 2, 2, 2, 5, 5, 3, 3, 3, 6,
    ]
    # ascending: jump to 28 first (seek 47), nothing serviced on the way
    assert result.steps[0].address.track == 28
    assert result.steps[0].seek == 47


def test_case6_first_pass_tie_goes_ascending():
    result = execute(builtin_case(6))
    assert result.decisions[0].tie
    assert result.decisions[0].chosen == "up"
    assert result.totals.as_tuple() == (225, 57, 47, 329)
    assert result.totals.adat_text == "16.45"


def test_totals_equal_replay_of_the_visit_sequence():
    for case_id in (1, 2, 3, 4, 5, 6):
        scenario = builtin_case(case_id)
        result = execute(scenario)
        replayed = totals(replay(scenario.geometry, scenario.initial_head, result.visits))
        assert result.totals == replayed


def _with_fault(scenario, index_text, true_bit):
    address = parse_index(index_text)
    return dataclasses.replace(scenario, faults=(FaultSpec(address, true_bit),)), address


def test_bad_sector_three_pass_lifecycle():
    scenario, bad = _with_fault(builtin_case(2), "65t1p3s", 1)
    fault_model = FaultModel(scenario.faults)
    result = execute(scenario, fault_model)

    assert result.passes == 3
    assert len(result.steps) == 22  # 20 requests + 2 failed probes re-visited
    assert fault_model.probe_count(bad) == 3
    assert result.totals.request_count == 20  # ADAT is per request, not per visit

    entry = result.bad_sector_table[0]
    assert entry.index == bad
    assert entry.bsi == 2
    assert entry.classification == "permanent"
    assert entry.prescribed_bit == 1  # corrected to the true bit
    assert entry.finalized == 1
    assert result.resolved == (bad,)

    # pass 2: only the bad request is pending, head finished pass 1 at 185
    assert result.decisions[1].chosen == "down"
    assert result.steps[20].seek == 120
    # pass 3: stationary tie, resolved ascending, zero-cost seek
    assert result.decisions[2].tie
    assert result.steps[21].seek == 0
    # every request got served exactly once
    assert sorted(result.order) == list(range(20))


def test_run_scheduler_returns_the_execute_record():
    scenario, bad = _with_fault(builtin_case(2), "65t1p3s", 1)
    run = run_scheduler(scenario, "modsbsm")
    assert run == execute(scenario)
    assert run.algorithm == "modsbsm"
    assert len(run.decisions) == run.passes == 3
    assert run.resolved == (bad,)


def test_prescribed_bit_kept_when_it_already_matches():
    scenario, bad = _with_fault(builtin_case(2), "65t1p3s", 0)
    fault_model = FaultModel(scenario.faults)
    result = execute(scenario, fault_model)
    entry = result.bad_sector_table[0]
    assert entry.prescribed_bit == 0
    assert entry.finalized == 1
    assert fault_model.probe_count(bad) == 3


def test_multiple_bad_sectors_resolve_independently():
    scenario = builtin_case(5)
    bad_a = parse_index("98t4p6s")
    bad_b = parse_index("63t1p7s")
    faulty = dataclasses.replace(
        scenario, faults=(FaultSpec(bad_a, 1), FaultSpec(bad_b, 0))
    )
    fault_model = FaultModel(faulty.faults)
    result = execute(faulty, fault_model)
    assert result.passes == 3
    assert len(result.steps) == 24
    assert fault_model.probe_count(bad_a) == 3
    assert fault_model.probe_count(bad_b) == 3
    assert {e.index for e in result.bad_sector_table} == {bad_a, bad_b}
    assert all(e.finalized for e in result.bad_sector_table)
    assert sorted(result.order) == list(range(20))


def test_a_fault_model_of_another_table_raises():
    # The bad ranks come from the scenario's own table, so a model of any
    # other table would count probes the run never makes.
    scenario, bad = _with_fault(builtin_case(2), "65t1p3s", 0)
    other = parse_index("65t1p4s")
    for table in ((), (FaultSpec(other, 0),), (*scenario.faults, FaultSpec(other, 0))):
        with pytest.raises(ValueError, match="fault_model's bad addresses differ"):
            execute(scenario, FaultModel(table))
    # A model only counts probes: the prescribed bit is the scenario's, not the model's.
    for table in (scenario.faults, (FaultSpec(bad, 1),)):
        assert execute(scenario, FaultModel(table)) == execute(scenario)


def _faulty(head, triples, bad, geometry=DiskGeometry(4, 200, 8)):
    return Scenario(
        geometry=geometry,
        initial_head=PhysicalAddress(*head),
        requests=_reqs(triples),
        faults=tuple(FaultSpec(PhysicalAddress(*t), 1) for t in bad),
    )


def _visited(head, triples):
    return [(a.track, a.platter, a.sector) for a in execute(_faulty(head, triples, bad=[])).visits]


def test_execute_keeps_sectors_ascending_both_ways():
    queue = [(10, 1, 6), (10, 1, 1), (20, 1, 4), (20, 1, 0)]
    # Head below the span: one upward pass; above it: one downward pass.
    assert _visited((0, 1, 0), queue) == [(10, 1, 1), (10, 1, 6), (20, 1, 0), (20, 1, 4)]
    assert _visited((30, 1, 0), queue) == [(20, 1, 0), (20, 1, 4), (10, 1, 1), (10, 1, 6)]


def test_execute_finishes_a_cylinder_platter_by_platter():
    queue = [(10, 3, 2), (10, 1, 2), (10, 2, 5), (10, 2, 2)]
    assert _visited((0, 1, 0), queue) == [(10, 1, 2), (10, 2, 2), (10, 3, 2), (10, 2, 5)]
    assert _visited((30, 1, 0), queue) == [(10, 1, 2), (10, 2, 2), (10, 3, 2), (10, 2, 5)]


def test_table_lists_addresses_in_the_order_their_second_failure_tabled_them():
    # A fails first, but B's repeat tables B in pass 1; A is tabled in pass 2
    # (downward, after B is finalized) and finalized in pass 3.
    a, b = PhysicalAddress(10, 1, 0), PhysicalAddress(20, 1, 0)
    sc = _faulty((0, 1, 0), [a, b, b], bad=[a, b], geometry=DiskGeometry(1, 100, 8))
    fault_model = FaultModel(sc.faults)
    result = execute(sc, fault_model)
    assert [e.index for e in result.bad_sector_table] == [b, a]
    assert [e.classification for e in result.bad_sector_table] == ["permanent"] * 2
    assert [fault_model.probe_count(x) for x in (a, b)] == [PROBE_LIMIT] * 2
    assert result.passes == 3


def test_resolved_is_every_table_index_in_table_order():
    # Every entry of a finished run's table is final, so ``resolved`` names
    # each tabled address, in the order the table lists them.
    a, b = PhysicalAddress(10, 1, 0), PhysicalAddress(20, 1, 0)
    sc = _faulty((0, 1, 0), [a, b, b], bad=[a, b], geometry=DiskGeometry(1, 100, 8))
    result = execute(sc, FaultModel(sc.faults))
    assert result.resolved == (b, a)
    assert all(e.finalized == 1 for e in result.bad_sector_table)
    assert execute(_faulty((0, 1, 0), [a, b], bad=[])).resolved == ()


def test_repeated_bad_address_is_probed_three_times_in_all():
    # Failures count per address: the first request fails, the second fails
    # and tables the address, the third finalizes it in the same pass; the
    # first two are answered from the table on pass 2.
    sc = _faulty((10, 1, 0), [(50, 1, 3)] * 3, bad=[(50, 1, 3)])
    fault_model = FaultModel(sc.faults)
    result = execute(sc, fault_model)
    assert fault_model.probe_count(PhysicalAddress(50, 1, 3)) == PROBE_LIMIT == 3
    assert result.passes == 2
    assert len(result.steps) == 3
    assert sorted(result.order) == [0, 1, 2]
    assert [e.classification for e in result.bad_sector_table] == ["permanent"]
    assert verify_trace(sc, result.steps, result.totals) == []


def test_table_answers_keep_a_step_per_request_trace_clean():
    # Five requests to one bad address and one to another, plus two clean
    # ones: 3 + 3 + 2 visits make exactly one step per request, but the
    # trace is not a permutation of the queue, and need not be.
    sc = _faulty(
        (10, 1, 0),
        [(50, 1, 3)] * 5 + [(70, 2, 1), (30, 1, 5), (90, 1, 0)],
        bad=[(50, 1, 3), (70, 2, 1)],
    )
    fault_model = FaultModel(sc.faults)
    result = execute(sc, fault_model)
    assert len(result.steps) == len(sc.requests) == 8
    assert fault_model.probe_count(PhysicalAddress(50, 1, 3)) == 3
    assert fault_model.probe_count(PhysicalAddress(70, 2, 1)) == 3
    assert sorted(result.order) == list(range(8))
    assert verify_trace(sc, result.steps, result.totals) == []


def test_adat_divides_by_requests_not_visits():
    # Five requests to one bad address plus two clean ones: MODSBSM visits
    # 3 + 2 times (table answers), FCFS 15 + 2 times (three tries each).
    sc = _faulty((10, 1, 0), [(50, 1, 3)] * 5 + [(30, 1, 5), (90, 1, 0)], bad=[(50, 1, 3)])
    for algorithm, visits in (("modsbsm", 5), ("fcfs", 17)):
        run = run_scheduler(sc, algorithm)
        assert len(run.steps) == visits, algorithm
        assert run.totals.adat == Fraction(run.totals.tdat, 7), algorithm


def test_head_state_persists_across_passes():
    # Pass 2 pricing starts exactly where pass 1 parked the head, including
    # the rotational reference.
    scenario, bad = _with_fault(builtin_case(2), "65t1p3s", 1)
    result = execute(scenario)
    last_clean = result.steps[19].address  # 185t1p5s ends pass 1
    assert last_clean == parse_index("185t1p5s")
    expected = replay(scenario.geometry, last_clean, [bad])[0]
    assert result.steps[20] == expected


def test_single_request_on_head_track():
    geom = DiskGeometry(1, 10, 8)
    sc = Scenario(
        geometry=geom,
        initial_head=PhysicalAddress(5, 1, 2),
        requests=_reqs([(5, 1, 6)]),
    )
    result = execute(sc)
    assert result.totals.as_tuple() == (0, 4, 1, 5)
    assert result.decisions[0].tie
