"""Acceptance suite.

One test per acceptance criterion; each prints a single
``criterion N [...]: PASS/FAIL`` line (visible with ``pytest -s`` and in
failure output) in addition to the usual pytest verdict.  The frozen
numbers were derived from the cost model by hand before implementation.
"""

import dataclasses
import time

from plattersim.geometry import parse_index
from plattersim.metrics import energy_saved, step_costs
from plattersim.modsbsm import FaultModel, execute
from plattersim.oracle import optimal_order, verify_trace
from plattersim.report import compare_builtin_suite, compare_scenario
from plattersim.schedulers import ALGORITHM_NAMES, SWEEP_NAMES, run_scheduler
from plattersim.workload import FaultSpec, GeneratorParams, builtin_case, generate
from plattersim.geometry import DiskGeometry


def _check(criterion, label, body):
    try:
        body()
    except BaseException:
        print(f"criterion {criterion} [{label}]: FAIL")
        raise
    print(f"criterion {criterion} [{label}]: PASS")


CASE_2_TOTALS = {
    "fcfs": (267, 80, 20, 367),
    "sstf": (204, 78, 20, 302),
    "scan": (260, 78, 20, 358),
    "cscan": (367, 77, 20, 464),
    "look": (204, 78, 20, 302),
    "clook": (283, 77, 20, 380),
    "odsa": (204, 78, 20, 302),
    "hdsa": (204, 78, 20, 302),
    "rp10": (267, 80, 20, 367),
    "smcc": (204, 78, 20, 302),
    "mrsa": (204, 78, 20, 302),
    "modsbsm": (204, 62, 20, 286),
}

CASE_5_TOTALS = {
    "fcfs": (308, 80, 51, 439),
    "sstf": (223, 75, 49, 347),
    "scan": (314, 72, 51, 437),
    "cscan": (396, 83, 50, 529),
    "look": (308, 72, 51, 431),
    "clook": (352, 83, 50, 485),
    "odsa": (223, 75, 49, 347),
    "hdsa": (223, 75, 49, 347),
    "rp10": (308, 72, 51, 431),
    "smcc": (223, 75, 49, 347),
    "mrsa": (223, 75, 49, 347),
    "modsbsm": (223, 51, 45, 319),
}


def test_criterion_1_case2_exact_totals():
    def body():
        scenario = builtin_case(2)
        start = time.monotonic()
        for algorithm, want in CASE_2_TOTALS.items():
            run = run_scheduler(scenario, algorithm, use_hints=True)
            assert run.totals.as_tuple() == want, (algorithm, run.totals.as_tuple())
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"case-2 totals took {elapsed:.2f}s"
        assert run_scheduler(scenario, "modsbsm").totals.adat_text == "14.30"

    _check(1, "case-2 totals, all 12 schedulers, under a second", body)


def test_criterion_2_case5_exact_totals():
    def body():
        scenario = builtin_case(5)
        for algorithm, want in CASE_5_TOTALS.items():
            run = run_scheduler(scenario, algorithm, use_hints=True)
            assert run.totals.as_tuple() == want, (algorithm, run.totals.as_tuple())
        sstf = run_scheduler(scenario, "sstf", use_hints=True)
        assert sstf.totals.adat_text == "17.35"
        assert run_scheduler(scenario, "modsbsm").totals.adat_text == "15.95"

    _check(2, "case-5 totals, all 12 schedulers", body)


def test_criterion_3_case6_key_rows():
    def body():
        scenario = builtin_case(6)
        expected = {
            "modsbsm": (225, 57, 47, 329),
            "sstf": (269, 80, 52, 401),
            "look": (225, 80, 51, 356),
            "clook": (293, 85, 52, 430),
        }
        for algorithm, want in expected.items():
            run = run_scheduler(scenario, algorithm, use_hints=True)
            assert run.totals.as_tuple() == want, (algorithm, run.totals.as_tuple())
        assert run_scheduler(scenario, "modsbsm").totals.adat_text == "16.45"

    _check(3, "case-6 modsbsm/sstf/look/clook totals", body)


def test_criterion_4_rotational_model():
    def body():
        # independent oracle: spin forward one sector at a time
        for prev in range(8):
            for nxt in range(8):
                spins, cur = 0, prev
                while cur != nxt:
                    cur = (cur + 1) % 8
                    spins += 1
                _, lat, _ = step_costs(8, ([0, 0], [1, 1], [prev, nxt]))
                assert list(lat) == [spins]
        result = execute(builtin_case(2))
        lats = [s.latency for s in result.steps]
        assert lats == [0, 3, 3, 1, 5, 2, 2, 5, 6, 3, 1, 2, 2, 2, 5, 5, 3, 3, 3, 6]
        assert sum(lats) == 62

    _check(4, "rotational rule vs brute force; case-2 latency sequence", body)


def test_criterion_5_improvement_aggregates():
    def body():
        report = compare_builtin_suite(paper_directions=True)
        assert abs(report.improvement_vs_traditional - 33.53) <= 1.0, (
            report.improvement_vs_traditional
        )
        assert abs(report.improvement_vs_referred - 7.51) <= 1.0, (
            report.improvement_vs_referred
        )
        # case 3 is documented as reference-ambiguous rather than matched
        assert any("case 3" in note for note in report.notes)
        case3 = compare_scenario(builtin_case(3), paper_directions=True)
        assert any("case 3" in note for note in case3.notes)

    _check(5, "aggregate improvements within 1.0pt of 33.53 / 7.51", body)


def test_criterion_6_oracle_dominance_200_scenarios():
    def body():
        geometry = DiskGeometry(4, 200, 8)
        start = time.monotonic()
        for seed in range(200):
            scenario = generate(
                geometry, GeneratorParams(request_count=7, order="random", seed=seed)
            )
            best = optimal_order(scenario).totals.tdat
            for algorithm in ALGORITHM_NAMES:
                run = run_scheduler(scenario, algorithm)
                assert run.totals.tdat >= best, (seed, algorithm)
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"dominance sweep took {elapsed:.1f}s"

    _check(6, "no scheduler beats the exhaustive oracle on 200 scenarios", body)


def test_criterion_7_properties_1000_scenarios():
    def body():
        geometry = DiskGeometry(4, 200, 8)
        for seed in range(1000):
            order_kind = ("random", "ascending", "descending")[seed % 3]
            scenario = generate(
                geometry,
                GeneratorParams(request_count=12, order=order_kind, seed=seed),
            )
            tracks = scenario.tracks
            span = max(tracks) - min(tracks)
            head = scenario.initial_head.track
            expected_seek = min(abs(head - min(tracks)), abs(max(tracks) - head)) + span

            # Sweeps hinted up run up with the hints and down, the default, without.
            hinted_up = dataclasses.replace(scenario, direction_hints=tuple((n, "up") for n in SWEEP_NAMES))
            for use_hints in (True, False):
                look = run_scheduler(hinted_up, "look", use_hints=use_hints)
                scan = run_scheduler(hinted_up, "scan", use_hints=use_hints)
                assert look.totals.tskt <= scan.totals.tskt, (seed, use_hints)

            mods = run_scheduler(scenario, "modsbsm")
            assert mods.totals.tskt == expected_seek, seed
            odsa = run_scheduler(scenario, "odsa")
            assert odsa.totals.tskt == mods.totals.tskt, seed

            for algorithm in ALGORITHM_NAMES:
                run = run_scheduler(scenario, algorithm)
                violations = verify_trace(scenario, run.steps, run.totals)
                assert violations == [], (seed, algorithm, violations)
                assert sorted(run.order) == list(range(12)), (seed, algorithm)

    _check(7, "sweep/seek/verify properties over 1000 scenarios", body)


def test_criterion_8_bad_sector_lifecycle():
    def body():
        scenario = builtin_case(2)
        bad = parse_index("65t1p3s")
        faulty = dataclasses.replace(scenario, faults=(FaultSpec(bad, 1),))
        fault_model = FaultModel(faulty.faults)
        result = execute(faulty, fault_model)

        assert result.passes == 3
        assert len(result.steps) == 22
        assert fault_model.probe_count(bad) == 3
        entry = result.bad_sector_table[0]
        assert entry.bsi == 2
        assert entry.finalized == 1
        assert entry.classification == "permanent"
        assert entry.prescribed_bit == dict(faulty.faults)[bad]
        assert result.resolved == (bad,)
        assert energy_saved(5) == (300.0, 3.0)
        # a fourth read would be answered from the table: same scenario with
        # the entry pre-finalized adds no step (spot check via service order)
        assert sorted(result.order) == list(range(20))

    _check(8, "three-probe lifecycle, table state, 300 fJ savings", body)
