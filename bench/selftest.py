"""Smoke self-test of the benchmark, at small sizes.

Run from the root of a source checkout::

    python3 bench/selftest.py

It runs every workload untraced and traced on small inputs and checks the
result line against ``BENCHMARK.json``; checks that each failure rule
counts a failure (a wrong total, wrong bytes, a trace that does not
re-price, a bad address probed more than three times); and checks that the
benchmark refuses to run in a directory without the plattersim sources.
Exits 0 when every check passes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from types import SimpleNamespace

from run import RESULTS, ROOT, SRC, Tally
from spans import NullTracer
from workloads import PROBE_BOUND, load_api, workloads

sys.path.insert(0, str(SRC))

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
problems: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        problems.append(what)


def run_bench(cwd, *args):
    argv = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_schema() -> None:
    wanted = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for name in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            done = run_bench(ROOT, "--workload", name, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--smoke")
            label = f"{name} --trace {trace}"
            expect(done.returncode == 0, f"{label} exits 0")
            if done.returncode != 0:
                print(done.stderr)
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label} result keys")
            expect(isinstance(result["correct"], bool), f"{label} correct is a bool")
            expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{label} attempted >= 1")
            expect(isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"],
                   f"{label} 0 <= failed <= attempted")
            metrics = result["metrics"]
            expect({n: m["unit"] for n, m in metrics.items()} == wanted[trace], f"{label} metric names and units")
            expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]) for m in metrics.values()),
                   f"{label} values are finite numbers")
            expect(result["correct"], f"{label} outputs are correct")
            if name != "dense_faulty":
                expect(result["failed"] == 0, f"{label} no operation fails")
            if trace == 0:
                ok = metrics["ok_frac"]["value"]
                expect(ok == 1 - result["failed"] / result["attempted"], f"{label} ok_frac = 1 - failed/attempted")
                expect(all(metrics[m]["value"] > 0 for m in wanted[0]), f"{label} no metric is 0")


def check_failure_rules() -> None:
    api = load_api(SRC)
    null = NullTracer()
    found = workloads(smoke=True)

    sparse = found["sparse_clean"]
    item = sparse.build(api, 1, null)[1]
    out = sparse.run(api, item, null, [])
    right = {item.uid: list(out[0].totals.as_tuple())}
    wrong = {item.uid: [v + 1 if i == 0 else v for i, v in enumerate(right[item.uid])]}
    expect(sparse.check(api, item, out, right) == [], "sparse_clean: recorded totals pass")
    failures = sparse.check(api, item, out, wrong)
    expect([f.rule for f in failures] == ["totals"] and failures[0].output, "sparse_clean: a wrong recorded total fails")
    run, _ = out
    bad = dataclasses.replace(run, totals=dataclasses.replace(run.totals, tskt=run.totals.tskt + 1))
    violations = api.verify_trace(item.scenario, bad.steps, bad.totals)
    failures = sparse.check(api, item, (bad, violations), None)
    expect([f.rule for f in failures] == ["verify_trace"], "sparse_clean: a total that does not re-price fails")

    oracle = found["oracle7"]
    item = oracle.build(api, 1, null)[0]
    result = oracle.run(api, item, null, [])
    recorded = {item.uid: {"order": list(result.order), "totals": list(result.totals.as_tuple())}}
    expect(oracle.check(api, item, result, recorded) == [], "oracle7: recorded order and totals pass")
    recorded[item.uid]["totals"][3] += 1
    expect([f.rule for f in oracle.check(api, item, result, recorded)] == ["totals"], "oracle7: a wrong total fails")

    paper6 = found["paper6"]
    item = paper6.build(api, 1, null)[0]
    code, text = paper6.run(api, item, null, [])
    expect(paper6.check(api, item, (code, text), {"stdout": text}) == [], "paper6: recorded bytes pass")
    changed = {"stdout": text.replace("1890", "1891")}
    expect([f.rule for f in paper6.check(api, item, (code, text), changed)] == ["bytes"], "paper6: changed bytes fail")

    dense = found["dense_faulty"]
    item = next(i for i in dense.build(api, 1, null) if i.alg == "modsbsm")

    def overprobing(scenario, faults):
        for _ in range(PROBE_BOUND + 1):
            faults.access(scenario.faults[0].address)

    stub = SimpleNamespace(**{**vars(api), "execute": overprobing})
    out = dense.run(stub, item, null, [])
    failures = dense.check(stub, item, out, None)
    expect([(f.rule, f.output) for f in failures] == [("probe_bound", False)],
           "dense_faulty: a fourth probe of a bad address fails, without an output error")

    tally = Tally()
    tally.add(12, failures)
    tally.add(12, [])
    expect((tally.attempted, tally.failed, tally.correct) == (24, 1, True), "tally: probe failures keep outputs correct")


def check_bare_directory() -> None:
    bare = RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = run_bench(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare)
    expect(done.returncode != 0 and not done.stdout.strip(), "without src/ the benchmark fails and prints no result")


def main() -> int:
    check_schema()
    check_failure_rules()
    check_bare_directory()
    print(f"\n{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
