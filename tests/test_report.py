import pytest

from plattersim.report import (
    REFERENCE_TOTALS,
    REFERRED_ALGORITHMS,
    TRADITIONAL_ALGORITHMS,
    Discrepancy,
    compare_builtin_suite,
    compare_scenario,
    identify_builtin,
    normalize_algorithms,
    render_comparison_csv,
    render_comparison_table,
)
from plattersim.workload import BUILTIN_CASE_IDS, builtin_case, parse_scenario, render_scenario


def test_groups():
    assert TRADITIONAL_ALGORITHMS == ("fcfs", "sstf", "scan", "cscan", "look", "clook")
    assert REFERRED_ALGORITHMS == ("odsa", "hdsa", "rp10", "smcc", "mrsa")


def test_identify_builtin_survives_round_trip():
    sc = parse_scenario(render_scenario(builtin_case(2)))
    assert identify_builtin(sc) == 2
    import dataclasses

    nudged = dataclasses.replace(sc, initial_head=sc.requests[0].address)
    assert identify_builtin(nudged) is None


def test_compare_case2_rows_and_deltas():
    report = compare_scenario(builtin_case(2), paper_directions=True)
    by_name = {row.algorithm: row.totals.as_tuple() for row in report.rows}
    assert by_name["fcfs"] == (267, 80, 20, 367)
    assert by_name["scan"] == (260, 78, 20, 358)
    assert by_name["modsbsm"] == (204, 62, 20, 286)
    assert report.label == "built-in case 2"
    assert Discrepancy(2, "odsa", "trl", 70, 78) in report.discrepancies
    assert Discrepancy(2, "odsa", "tdat", 294, 302) in report.discrepancies
    # rows whose references match exactly produce no deltas
    assert not any(d.algorithm in ("fcfs", "sstf", "scan", "cscan", "look",
                                   "clook", "hdsa", "rp10", "modsbsm")
                   for d in report.discrepancies)
    assert report.improvement_vs_traditional is not None
    assert report.improvement_vs_referred is not None


def test_compare_without_hints_diverges_from_references_on_sweeps():
    report = compare_scenario(builtin_case(5), paper_directions=False)
    # default sweep direction is down; the bundled case-5 references assume up
    assert any(d.algorithm == "scan" for d in report.discrepancies)


def test_compare_subset_has_no_improvements():
    report = compare_scenario(builtin_case(2), algorithms=["fcfs", "sstf"])
    assert report.improvement_vs_traditional is None
    assert report.improvement_vs_referred is None
    assert [row.algorithm for row in report.rows] == ["fcfs", "sstf"]


def test_aggregate_suite_totals_and_improvements():
    report = compare_builtin_suite()
    tdat = {row.algorithm: row.totals.tdat for row in report.rows}
    assert tdat == {
        "fcfs": 4639, "sstf": 2164, "scan": 2402, "cscan": 2953,
        "look": 2228, "clook": 2639, "odsa": 2008, "hdsa": 2008,
        "rp10": 2232, "smcc": 2007, "mrsa": 2008, "modsbsm": 1890,
    }
    assert report.request_count == 120
    assert round(report.improvement_vs_traditional, 2) == 33.39
    assert round(report.improvement_vs_referred, 2) == 7.92
    assert any("case 3" in note for note in report.notes)


def test_suite_is_the_sum_of_the_per_case_reports():
    suite = compare_builtin_suite()
    cases = [compare_scenario(builtin_case(c), paper_directions=True) for c in BUILTIN_CASE_IDS]
    assert [r.algorithm for r in suite.rows] == [r.algorithm for r in cases[0].rows]
    for k, row in enumerate(suite.rows):
        fields = ("tskt", "trl", "tdtt", "request_count")
        sums = [sum(getattr(case.rows[k].totals, f) for case in cases) for f in fields]
        assert sums == [getattr(row.totals, f) for f in fields]
    assert suite.discrepancies == tuple(d for case in cases for d in case.discrepancies)
    assert suite.notes == tuple(n for case in cases for n in case.notes)
    assert suite.request_count == 120
    assert suite.label == "built-in cases 1,2,3,4,5,6"
    # the selection is read once, so a one-shot iterator serves all six cases
    assert compare_builtin_suite(iter(["modsbsm", "look"])) == compare_builtin_suite(["look", "modsbsm"])


def test_reference_tables_cover_expected_rows():
    assert set(REFERENCE_TOTALS) == {1, 2, 3, 4, 5, 6}
    assert set(REFERENCE_TOTALS[3]) == {"fcfs", "sstf", "scan", "cscan"}
    assert len(REFERENCE_TOTALS[2]) == 12
    assert len(REFERENCE_TOTALS[5]) == 12
    assert len(REFERENCE_TOTALS[6]) == 12


def test_normalize_algorithms():
    assert normalize_algorithms(["sstf", "fcfs"]) == ("fcfs", "sstf")
    with pytest.raises(ValueError):
        normalize_algorithms(["warp-drive"])
    with pytest.raises(ValueError):
        normalize_algorithms([])


def test_render_table_is_deterministic_and_complete():
    report = compare_builtin_suite()
    text = render_comparison_table(report)
    assert text == render_comparison_table(compare_builtin_suite())
    assert "improvement vs traditional mean: 33.39%" in text
    assert "improvement vs referred mean: 7.92%" in text
    assert "modsbsm" in text
    assert "15.75" in text  # aggregate adat of the proposed scheduler


def test_render_csv_round_trips_totals():
    import csv
    import io

    report = compare_scenario(builtin_case(2), paper_directions=True)
    text = render_comparison_csv(report)
    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
    assert rows[0] == ["algorithm", "tskt", "trl", "tdtt", "tdat", "adat"]
    look = next(r for r in rows if r[0] == "look")
    assert look == ["look", "204", "78", "20", "302", "15.10"]
    assert "# improvement_vs_traditional=" in text
    assert "# delta case=2 alg=odsa metric=trl computed=78 reference=70" in text
