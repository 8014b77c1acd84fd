"""Scheduler policy tests.

The frozen totals here were computed by hand with the cost model (seek =
track distance, forward-only rotation, platter distance + 1 per transfer)
before the schedulers were written; cases 2, 5 and 6 live in the
acceptance suite, so this file leans on cases 1, 3 and 4.
"""

import dataclasses
import time

import pytest

from plattersim.geometry import DiskGeometry, PhysicalAddress
from plattersim.faults import FaultSpec
from plattersim.oracle import verify_trace
from plattersim.schedulers import (
    ALGORITHM_NAMES,
    BASELINE_NAMES,
    SWEEP_NAMES,
    run_scheduler,
)
from plattersim.workload import (
    GeneratorParams,
    MemoryRequest,
    Scenario,
    builtin_case,
    generate,
)

CASE_1_TOTALS = {
    "fcfs": (231, 67, 20, 318),
    "sstf": (231, 75, 20, 326),
    "scan": (261, 75, 20, 356),
    "cscan": (373, 90, 20, 483),
    "look": (231, 75, 20, 326),
    "clook": (337, 90, 20, 447),
    "odsa": (231, 75, 20, 326),
    "hdsa": (231, 75, 20, 326),
    "rp10": (312, 70, 20, 402),
    "smcc": (231, 75, 20, 326),
    "mrsa": (231, 75, 20, 326),
    "modsbsm": (231, 51, 20, 302),
}

CASE_3_TOTALS = {
    "fcfs": (1392, 75, 20, 1487),
    "sstf": (236, 75, 20, 331),
    "scan": (363, 77, 20, 460),
    "cscan": (365, 66, 20, 451),
    "look": (353, 77, 20, 450),
    "clook": (353, 66, 20, 439),
    "odsa": (226, 67, 20, 313),
    "hdsa": (226, 67, 20, 313),
    "rp10": (226, 67, 20, 313),
    "smcc": (226, 67, 20, 313),
    "mrsa": (226, 67, 20, 313),
    "modsbsm": (226, 59, 20, 305),
}

CASE_4_TOTALS = {
    "fcfs": (301, 79, 45, 425),
    "sstf": (333, 79, 45, 457),
    "scan": (240, 83, 44, 367),
    "cscan": (381, 74, 43, 498),
    "look": (236, 83, 44, 363),
    "clook": (341, 74, 43, 458),
    "odsa": (236, 83, 44, 363),
    "hdsa": (236, 83, 44, 363),
    "rp10": (236, 83, 44, 363),
    "smcc": (236, 83, 44, 363),
    "mrsa": (236, 83, 44, 363),
    "modsbsm": (236, 67, 46, 349),
}


@pytest.mark.parametrize("case_id,expected", [(1, CASE_1_TOTALS), (3, CASE_3_TOTALS), (4, CASE_4_TOTALS)])
def test_case_totals(case_id, expected):
    scenario = builtin_case(case_id)
    for algorithm, want in expected.items():
        run = run_scheduler(scenario, algorithm, use_hints=True)
        assert run.totals.as_tuple() == want, algorithm


def _scenario(head, triples, tracks=200, platters=4, sectors=8):
    return Scenario(
        geometry=DiskGeometry(platters, tracks, sectors),
        initial_head=PhysicalAddress(*head),
        requests=tuple(
            MemoryRequest(address=PhysicalAddress(*t), arrival_rank=i)
            for i, t in enumerate(triples)
        ),
    )


def _sweeps_up(scenario):
    """The scenario with every sweep hinted up: use_hints=True runs them up, False down."""
    return dataclasses.replace(scenario, direction_hints=tuple((name, "up") for name in SWEEP_NAMES))


def test_fcfs_is_arrival_order():
    scenario = builtin_case(4)
    assert list(run_scheduler(scenario, "fcfs").order) == list(range(20))


def test_sstf_tie_goes_to_lower_track():
    sc = _scenario((50, 1, 0), [(60, 1, 0), (40, 1, 0)])
    order = run_scheduler(sc, "sstf").order
    assert [sc.requests[i].address.track for i in order] == [40, 60]


def test_sstf_plans_ten_thousand_requests_within_two_seconds():
    # On a 2-vCPU VM the walk over the sorted tracks takes under 0.1 s here,
    # while rescanning every pending track at every step took about 10 s.
    scenario = generate(DiskGeometry(8, 100000, 64), GeneratorParams(request_count=10_000, seed=1))
    start = time.perf_counter()
    run = run_scheduler(scenario, "sstf")
    assert time.perf_counter() - start < 2.0
    assert sorted(run.order) == list(range(10_000))


def test_same_track_group_reverses_against_queue_direction():
    # Ascending queue: three requests on one track plus one below the head.
    # Moving down through track 48 reads the group backwards; the later
    # upward pass through 90 reads its group forwards again.
    sc = _scenario(
        (65, 1, 0),
        [(48, 1, 1), (48, 1, 2), (48, 1, 3), (90, 1, 4), (90, 1, 5)],
    )
    order = run_scheduler(sc, "look").order
    addresses = [sc.requests[i].address for i in order]
    assert [(a.track, a.sector) for a in addresses] == [
        (48, 3), (48, 2), (48, 1), (90, 4), (90, 5),
    ]


def test_case1_downward_pass_reads_groups_backwards():
    # head 65, queue ascending: the 48-track group arrived with sectors
    # 7,0,4,6 and must come out reversed on the way down.
    scenario = builtin_case(1)
    order = run_scheduler(scenario, "look").order
    addresses = [scenario.requests[i].address for i in order]
    first_leg = [(a.track, a.sector) for a in addresses[:6]]
    assert first_leg == [(60, 1), (48, 6), (48, 4), (48, 0), (48, 7), (15, 2)]


def test_scan_boundary_is_priced_on_the_reversal_step():
    scenario = builtin_case(2)
    run = run_scheduler(scenario, "scan")
    # 7 requests at or below the head; the 8th step carries 28 -> 0 -> 106.
    assert run.steps[6].address.track == 28
    assert run.steps[7].address.track == 106
    assert run.steps[7].seek == 28 + 106
    assert run.totals.tskt == 260


def test_cscan_wrap_is_one_full_stroke():
    scenario = builtin_case(2)
    run = run_scheduler(scenario, "cscan")
    # 28 -> 0, full stroke 199, then 199 -> 185 on the same step
    assert run.steps[7].address.track == 185
    assert run.steps[7].seek == 28 + 199 + 14
    assert run.totals.tskt == 367


def test_scan_skips_trailing_boundary_when_nothing_remains():
    sc = _scenario((50, 1, 0), [(40, 1, 1), (30, 1, 2)])
    run = run_scheduler(sc, "scan")
    assert run.totals.tskt == 20  # never rides to track 0


def test_scan_touches_boundary_even_if_first_leg_is_empty():
    sc = _scenario((50, 1, 0), [(60, 1, 1), (70, 1, 2)])
    run = run_scheduler(sc, "scan")
    # down to 0 first, then up to 60 and 70
    assert run.steps[0].seek == 50 + 60
    assert run.totals.tskt == 120


def test_cscan_skips_wrap_when_far_side_is_empty():
    sc = _scenario((50, 1, 0), [(40, 1, 1), (30, 1, 2)])
    run = run_scheduler(sc, "cscan")
    assert run.totals.tskt == 20


def test_clook_jump_prices_direct_distance():
    scenario = builtin_case(2)
    run = run_scheduler(scenario, "clook")
    assert run.steps[7].seek == 185 - 28
    assert run.totals.tskt == 283


def test_look_never_beats_itself_but_scan_pays_the_boundary():
    for case_id in (1, 2, 3, 4, 5, 6):
        scenario = _sweeps_up(builtin_case(case_id))
        for use_hints in (True, False):  # up, then the default down
            look = run_scheduler(scenario, "look", use_hints=use_hints)
            scan = run_scheduler(scenario, "scan", use_hints=use_hints)
            assert look.totals.tskt <= scan.totals.tskt


def test_direction_resolution_precedence():
    scenario = builtin_case(5)  # hints say up
    hinted = run_scheduler(scenario, "scan", use_hints=True)
    default = run_scheduler(scenario, "scan")
    assert hinted.totals.as_tuple() == (314, 72, 51, 437)
    assert default.totals.as_tuple() != hinted.totals.as_tuple()
    assert default.order[0] != hinted.order[0]  # default sweeps down


def test_hints_without_a_hint_for_the_scheduler_sweep_down():
    scenario = generate(DiskGeometry(2, 60, 8), GeneratorParams(request_count=12, seed=2))
    assert scenario.hint("scan") is None
    hinted = run_scheduler(scenario, "scan", use_hints=True)
    down = run_scheduler(scenario, "scan")
    assert (hinted.order, hinted.totals) == (down.order, down.totals)
    assert down.order != run_scheduler(_sweeps_up(scenario), "scan", use_hints=True).order


def test_invalid_direction_value_rejected_after_empty_queue():
    # A direction reaches a sweep only as a hint, which Scenario checks.
    with pytest.raises(ValueError) as excinfo:
        dataclasses.replace(builtin_case(1), direction_hints=(("scan", "sideways"),))
    assert str(excinfo.value) == "direction must be up or down, got 'sideways'"
    empty = dataclasses.replace(builtin_case(1), requests=())
    with pytest.raises(ValueError, match="no requests"):
        run_scheduler(empty, "scan", use_hints=True)


def test_unknown_algorithm_rejected():
    with pytest.raises(ValueError):
        run_scheduler(builtin_case(1), "elevator-9000")


def test_empty_scenario_rejected():
    sc = Scenario(
        geometry=DiskGeometry(1, 10, 8),
        initial_head=PhysicalAddress(0, 1, 0),
        requests=(),
    )
    for algorithm in ("fcfs", "look", "modsbsm"):
        with pytest.raises(ValueError, match="no requests"):
            run_scheduler(sc, algorithm)


def test_every_order_is_a_permutation():
    geom = DiskGeometry(4, 200, 8)
    for seed in range(12):
        scenario = generate(geom, GeneratorParams(request_count=17, order="random", seed=seed))
        for algorithm in ALGORITHM_NAMES:
            order = run_scheduler(scenario, algorithm).order
            assert sorted(order) == list(range(17)), (seed, algorithm)


def test_modsbsm_service_order_matches_engine():
    from plattersim.modsbsm import execute

    scenario = builtin_case(6)
    assert run_scheduler(scenario, "modsbsm").order == execute(scenario).order


def test_retry_at_tail_probes_then_abandons():
    sc = _scenario((5, 1, 0), [(3, 1, 1), (7, 1, 2)], tracks=10, platters=1)
    bad, other = sc.addresses
    run = run_scheduler(dataclasses.replace(sc, faults=(FaultSpec(bad, 1),)), "fcfs")
    assert run.visits == (bad, other, bad, bad)
    assert run.abandoned == (0,)


def test_faulty_baseline_run_prices_every_probe():
    scenario = builtin_case(2)
    bad = scenario.requests[5].address
    faulty = dataclasses.replace(scenario, faults=(FaultSpec(bad, 0),))
    run = run_scheduler(faulty, "fcfs")
    assert len(run.steps) == 22  # 20 requests + 2 extra probes of the bad one
    assert run.abandoned == (5,)
    assert run.totals.request_count == 20  # ADAT is per request, not per visit
    assert "retried at queue tail" in run.note


def test_no_retry_note_when_no_visit_fails():
    # The fault table names an address that no request asks for.
    sc = _scenario((20, 1, 3), [(10, 1, 0), (30, 1, 5)], tracks=50, platters=1)
    unrequested = PhysicalAddress(40, 1, 1)
    faulty = dataclasses.replace(sc, faults=(FaultSpec(unrequested, 1),))
    for algorithm in ("fcfs", "look", "sstf"):
        run = run_scheduler(faulty, algorithm)
        assert run.abandoned == ()
        assert run.note == "", algorithm
        assert run.totals == run_scheduler(sc, algorithm).totals


def test_faulty_sweeps_price_their_edge_travel():
    # One bad sector must not drop SCAN's trip to the edge or C-SCAN's
    # full-stroke return: the plan's waypoints keep their visit positions.
    sc = generate(DiskGeometry(4, 200, 8),
                  GeneratorParams(request_count=12, seed=5, bad_count=1))
    runs = {name: run_scheduler(sc, name) for name in ("scan", "look", "cscan", "clook")}
    assert {name: run.totals.tskt for name, run in runs.items()} == {
        "scan": 403, "look": 389, "cscan": 405, "clook": 389,
    }
    assert runs["scan"].totals.tskt > runs["look"].totals.tskt
    assert runs["cscan"].totals.tskt > runs["clook"].totals.tskt
    for run in runs.values():
        assert verify_trace(sc, run.steps, run.totals) == []


def test_baseline_names_cover_the_eleven():
    assert BASELINE_NAMES == (
        "fcfs", "sstf", "scan", "cscan", "look", "clook",
        "odsa", "hdsa", "rp10", "smcc", "mrsa",
    )
    assert ALGORITHM_NAMES == BASELINE_NAMES + ("modsbsm",)
