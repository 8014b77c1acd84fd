"""End-to-end command-line tests (driven in-process through main)."""

import dataclasses
import json
from pathlib import Path

import pytest

from plattersim import cli
from plattersim.cli import main
from plattersim.faults import FaultSpec
from plattersim.geometry import render_index
from plattersim.workload import builtin_case, parse_scenario, render_scenario


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_totals_line(capsys):
    code, out, _ = _run(capsys, "run", "--builtin", "2", "--alg", "look",
                        "--paper-directions")
    assert code == 0
    assert "total: tskt=204 trl=78 tdtt=20 tdat=302 adat=15.10" in out


def test_run_trace_table(capsys):
    code, out, _ = _run(capsys, "run", "--builtin", "2", "--alg", "modsbsm", "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "algorithm: modsbsm"
    header = lines[1].split()
    assert header == ["T", "S", "P", "ST", "RL", "DTT", "DAT"]
    assert len([l for l in lines if l.strip() and l.lstrip()[0].isdigit()]) == 20


def test_run_csv_trace(capsys):
    code, out, _ = _run(capsys, "run", "--builtin", "2", "--alg", "sstf",
                        "--trace", "--format", "csv")
    assert code == 0
    assert out.startswith("step,track,platter,sector,seek,latency,transfer,access\n")
    assert "algorithm,tskt,trl,tdtt,tdat,adat" in out
    assert "sstf,204,78,20,302,15.10" in out


def test_scenario_file_round_trip(tmp_path, capsys):
    code, out, _ = _run(capsys, "cases", "--out", str(tmp_path))
    assert code == 0
    assert len(list(tmp_path.glob("case*.dss"))) == 6
    for path in sorted(tmp_path.glob("case*.dss")):
        parse_scenario(path.read_text())

    code, out, _ = _run(capsys, "run", "--scenario", str(tmp_path / "case2.dss"),
                        "--alg", "look", "--paper-directions")
    assert code == 0
    assert "tdat=302" in out


def test_compare_table(capsys):
    code, out, _ = _run(capsys, "compare", "--builtin", "2", "--all",
                        "--paper-directions")
    assert code == 0
    assert "workload: built-in case 2 (20 requests)" in out
    assert "modsbsm" in out
    assert "reference deltas" in out


def test_compare_aggregate_csv(capsys):
    code, out, _ = _run(capsys, "compare", "--builtin", "all", "--all",
                        "--paper-directions", "--format", "csv")
    assert code == 0
    assert "modsbsm,1345,347,198,1890,15.75" in out
    assert "# improvement_vs_traditional=33.39" in out
    assert "# improvement_vs_referred=7.92" in out


def test_compare_algs_subset(capsys):
    code, out, _ = _run(capsys, "compare", "--builtin", "1", "--algs", "fcfs,look")
    assert code == 0
    assert "fcfs" in out and "look" in out
    assert "modsbsm" not in out


def test_gen_oracle_pipeline(tmp_path, capsys):
    out_file = tmp_path / "small.dss"
    code, out, _ = _run(capsys, "gen", "--out", str(out_file), "--requests", "7",
                        "--platters", "2", "--tracks", "60", "--sectors", "8",
                        "--order", "random", "--seed", "42")
    assert code == 0
    first = out_file.read_text()

    code, _, _ = _run(capsys, "gen", "--out", str(out_file), "--requests", "7",
                      "--platters", "2", "--tracks", "60", "--sectors", "8",
                      "--order", "random", "--seed", "42")
    assert code == 0
    assert out_file.read_text() == first  # same seed, same bytes

    code, out, _ = _run(capsys, "oracle", "--scenario", str(out_file))
    assert code == 0
    assert out.startswith("requests: 7\norder: ")
    assert "total: tskt=" in out


def test_gen_with_faults_runs_modsbsm(tmp_path, capsys):
    out_file = tmp_path / "faulty.dss"
    code, _, _ = _run(capsys, "gen", "--out", str(out_file), "--requests", "10",
                      "--platters", "2", "--tracks", "60", "--sectors", "8",
                      "--order", "random", "--seed", "5", "--bad", "1")
    assert code == 0
    code, out, _ = _run(capsys, "run", "--scenario", str(out_file),
                        "--alg", "modsbsm", "--savings", "5")
    assert code == 0
    assert "passes: 3" in out
    assert "bad sectors:" in out
    assert "savings total (n=5): energy=300 fJ heat=3" in out


def _case2_file(tmp_path, bad_count):
    """Built-in case 2 with its first ``bad_count`` distinct addresses unreadable."""
    scenario = builtin_case(2)
    bad = list(dict.fromkeys(scenario.addresses))[:bad_count]
    faulty = dataclasses.replace(scenario, faults=tuple(FaultSpec(a, 1) for a in bad))
    path = tmp_path / "faulty.dss"
    path.write_text(render_scenario(faulty))
    return str(path), bad


def test_savings_prints_one_row_per_resolved_address_and_their_sum(tmp_path, capsys):
    path, bad = _case2_file(tmp_path, 3)
    code, out, _ = _run(capsys, "run", "--scenario", path, "--alg", "modsbsm", "--savings", "7")
    assert code == 0
    rows = [line for line in out.splitlines() if line.startswith("savings ")]
    assert sorted(rows[:-1]) == sorted(
        f"savings {render_index(a)}: energy=500 fJ heat=5" for a in bad
    )
    assert rows[-1] == "savings total (n=7): energy=1500 fJ heat=15"


def test_savings_of_one_read_with_nothing_resolved_exits_2(tmp_path, capsys):
    path, _ = _case2_file(tmp_path, 0)
    code, out, err = _run(capsys, "run", "--scenario", path, "--alg", "modsbsm", "--savings", "1")
    assert code == 2
    assert out == ""
    assert "projected_accesses must be >= 2, got 1" in err


def test_savings_of_one_read_with_an_address_resolved_exits_2(tmp_path, capsys):
    path, _ = _case2_file(tmp_path, 1)
    code, out, err = _run(capsys, "run", "--scenario", path, "--alg", "modsbsm", "--savings", "1")
    assert code == 2
    assert "savings" not in out
    assert out == ""
    assert "projected_accesses must be >= 2, got 1" in err


def test_savings_rows_are_csv_comments_in_csv_format(tmp_path, capsys):
    path, bad = _case2_file(tmp_path, 2)
    code, out, _ = _run(capsys, "run", "--scenario", path, "--alg", "modsbsm",
                        "--format", "csv", "--savings", "5")
    assert code == 0
    rows = [line for line in out.splitlines() if "savings" in line]
    assert sorted(rows[:-1]) == sorted(
        f"# savings {render_index(a)}: energy=300 fJ heat=3" for a in bad
    )
    assert rows[-1] == "# savings total (n=5): energy=600 fJ heat=6"


def test_bad_sector_csv_block(tmp_path, capsys):
    out_file = tmp_path / "faulty.dss"
    _run(capsys, "gen", "--out", str(out_file), "--requests", "10",
         "--platters", "2", "--tracks", "60", "--sectors", "8",
         "--order", "random", "--seed", "5", "--bad", "1")
    code, out, _ = _run(capsys, "run", "--scenario", str(out_file),
                        "--alg", "modsbsm", "--format", "csv")
    assert code == 0
    assert "index,bsi,classification,prescribed_bit,finalized" in out
    assert ",2,permanent," in out


def test_usage_errors_exit_1(capsys):
    code, _, err = _run(capsys, "run", "--builtin", "2", "--alg", "bogus")
    assert code == 1
    code, _, err = _run(capsys, "run", "--builtin", "2")
    assert code == 1
    code, _, err = _run(capsys, "compare", "--builtin", "2", "--algs", "bogus")
    assert code == 1
    assert "unknown algorithm" in err


def test_parse_and_bounds_errors_exit_2(tmp_path, capsys):
    code, _, err = _run(capsys, "run", "--scenario", str(tmp_path / "nope.dss"),
                        "--alg", "fcfs")
    assert code == 2

    bad = tmp_path / "bad.dss"
    bad.write_text("geometry platters=1 tracks=10 sectors=8\nhead 3t1p0s\nrequest 50t1p0s\n")
    code, _, err = _run(capsys, "run", "--scenario", str(bad), "--alg", "fcfs")
    assert code == 2
    assert "line 3" in err and "track 50" in err

    empty = tmp_path / "empty.dss"
    empty.write_text("geometry platters=1 tracks=10 sectors=8\nhead 3t1p0s\n")
    for argv in (("run", "--alg", "fcfs"), ("compare", "--all"), ("oracle",)):
        code, out, err = _run(capsys, *argv, "--scenario", str(empty))
        assert (code, out, err) == (2, "", "plattersim: scenario has no requests\n"), argv


def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    latin = tmp_path / "latin.dss"
    latin.write_bytes(b"# caf\xe9\ngeometry platters=1 tracks=10 sectors=8\nhead 3t1p0s\nrequest 2t1p0s\n")
    code, out, err = _run(capsys, "run", "--scenario", str(latin), "--alg", "fcfs")
    assert (code, out) == (2, "")
    assert err.startswith("plattersim: 'utf-8' codec can't decode byte 0xe9")


def test_a_value_error_inside_a_command_is_a_fault_not_bad_input(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("a fault in the program")

    monkeypatch.setattr(cli, "run_scheduler", broken)
    with pytest.raises(ValueError, match="a fault in the program"):
        main(["run", "--builtin", "2", "--alg", "look"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--requests", "0"), "request_count must be >= 1"),
        (("--platters", "0"), "num_platters must be >= 1, got 0"),
        (("--requests", "500"), "request_count 500 exceeds the 80 addressable sectors"),
        (("--bad", "5"), "bad_count must be between 0 and request_count"),
        (("--seed", "-1"), "seed must fit in an unsigned 64-bit integer"),
    ],
)
def test_gen_input_errors_exit_2_and_write_nothing(flags, message, tmp_path, capsys):
    # A 1x10x8 disk (80 sectors) and 3 requests, one flag overridden.
    defaults = {"--requests": "3", "--platters": "1", "--tracks": "10", "--sectors": "8",
                "--order": "random", "--seed": "1"}
    defaults.update([flags])
    out_file = tmp_path / "gen.dss"
    argv = ["gen", "--out", str(out_file), *(token for item in defaults.items() for token in item)]
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (2, "", f"plattersim: {message}\n")
    assert not out_file.exists()


def test_oracle_refusal_exits_3(tmp_path, capsys):
    big = tmp_path / "big.dss"
    _run(capsys, "gen", "--out", str(big), "--requests", "12",
         "--platters", "2", "--tracks", "60", "--sectors", "8",
         "--order", "random", "--seed", "1")
    code, _, err = _run(capsys, "oracle", "--scenario", str(big))
    assert code == 3
    assert "exceed" in err

    small = tmp_path / "small.dss"
    _run(capsys, "gen", "--out", str(small), "--requests", "8",
         "--platters", "2", "--tracks", "60", "--sectors", "8",
         "--order", "random", "--seed", "1")
    code, _, err = _run(capsys, "oracle", "--scenario", str(small), "--max", "7")
    assert code == 3
    code, out, _ = _run(capsys, "oracle", "--scenario", str(small), "--max", "8")
    assert code == 0


def test_output_is_byte_identical_between_invocations(capsys):
    args = ("compare", "--builtin", "all", "--all", "--paper-directions")
    code_a, out_a, _ = _run(capsys, *args)
    code_b, out_b, _ = _run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_paper6_stdout_matches_the_recorded_bytes(capsys):
    argv = ["compare", "--builtin", "all", "--all", "--paper-directions"]
    expected = Path(__file__).resolve().parents[1] / "bench" / "expected.json"
    recorded = json.loads(expected.read_text())["paper6"]["argv=" + " ".join(argv)]
    code, out, _ = _run(capsys, *argv)
    assert code == 0
    assert out == recorded["stdout"]


def test_main_builds_one_parser_tree_per_process(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        if self.prog == "plattersim":
            built.append(self)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    codes = [
        _run(capsys, "run", "--builtin", "2", "--alg", "look")[0],
        _run(capsys, "compare", "--builtin", "2", "--algs", "fcfs,look")[0],
        _run(capsys, "oracle", "--builtin", "1")[0],
        _run(capsys, "run", "--builtin", "2", "--alg", "bogus")[0],
        _run(capsys, "compare", "--builtin", "all", "--all", "--paper-directions")[0],
    ]
    assert codes == [0, 0, 3, 1, 0]
    assert len(built) <= 1


def test_a_shared_parser_prints_what_a_fresh_one_prints(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [
        (1, "run --builtin 2 --alg bogus"),
        (1, "run --builtin 2"),
        (0, "--help"),
        (1, "compare --builtin 2 --algs nope"),
        (2, "run --scenario missing.dss --alg fcfs"),
        (3, "oracle --builtin 1"),
        (0, "compare --builtin all --all --paper-directions"),
        (1, "run --builtin 2 --alg bogus"),
    ]

    def outputs():
        return [_run(capsys, *argv.split()) for _, argv in commands]

    shared = outputs()
    assert [code for code, _, _ in shared] == [code for code, _ in commands]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert outputs() == shared
