"""The benchmark's four workloads: their inputs, timed calls and checks.

A workload turns a seed into a fixed pool of inputs (its set-up), then
repeats a unit of work over the pool: one timed call into plattersim's
public API, followed by untimed checks of what came back.

* ``paper6`` -- ``plattersim compare --builtin all --all --paper-directions``
  through ``cli.main``: the CLI, the report, table rendering and the
  reference deltas on the six built-in 20-request cases.
* ``sparse_clean`` -- 2,000 generated requests on an 8x100000x64 disk in
  random order, no faults.  Nearly every request sits on its own track, so
  the quadratic SSTF search dominates.  A unit is one scheduler on one
  scenario, its trace checked with ``verify_trace``; the units cycle
  through every scheduler on each scenario of the pool.
* ``dense_faulty`` -- 20,000 requests over a pool of 4,000 addresses on an
  8x500x64 disk, 80% of them picked from the hottest 10% of the pool, 30%
  writes, 40 bad addresses among the requested ones.  The same scheduler
  and pricing code used differently: the baselines take the retry-at-tail
  path, MODSBSM runs three passes, and ~500 distinct tracks keep SSTF
  cheap.  Same unit as ``sparse_clean``.
* ``oracle7`` -- ``optimal_order`` on 7-request random queues on a 4x200x8
  disk, the traffic of acceptance criterion 6.

Only public functions are called.  The names ROADMAP plans to rename or
delete (``retry_at_tail``, ``arrange``) are looked up when the package is
loaded and are skipped, and reported absent, once they are gone.

In a traced run each unit is followed by ``probe`` calls, which re-run
single layer functions (replay, totals, retry_at_tail, arrange, MODSBSM
under a counting ``FaultModel``, the report) on the arguments the program
passed them, and the run ends with a ``census`` that calls every layer on
one 7-request queue, so that a layer the workload never reaches still has
a measured time.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from spans import NullTracer

ALGORITHMS = (
    "fcfs", "sstf", "scan", "cscan", "look", "clook",
    "odsa", "hdsa", "rp10", "smcc", "mrsa", "modsbsm",
)
PAPER6_ARGV = ("compare", "--builtin", "all", "--all", "--paper-directions")
# Six built-in cases of 20 requests, each scheduled by all twelve algorithms.
PAPER6_REQUESTS = 6 * 20 * len(ALGORITHMS)
SPARSE_GEOMETRY = (8, 100_000, 64)
DENSE_GEOMETRY = (8, 500, 64)
ORACLE_GEOMETRY = (4, 200, 8)
ORACLE_REQUESTS = 7
HOT_SHARE = 0.1  # of the address pool
HOT_PICKS = 0.8  # of the requests
WRITE_SHARE = 0.3
PROBE_BOUND = 3  # physical probes allowed per bad address (modsbsm docs)


def load_api(src: Path) -> SimpleNamespace:
    """Import plattersim afresh from ``src`` and collect what the benchmark calls."""
    for name in [n for n in sys.modules if n == "plattersim" or n.startswith("plattersim.")]:
        del sys.modules[name]
    ps = importlib.import_module("plattersim")
    loaded_from = Path(ps.__file__).resolve().parent
    if loaded_from != (src / "plattersim").resolve():
        raise ImportError(f"plattersim was imported from {loaded_from}, not from {src}")
    schedulers = importlib.import_module("plattersim.schedulers")
    modsbsm = importlib.import_module("plattersim.modsbsm")
    report = importlib.import_module("plattersim.report")
    cli = importlib.import_module("plattersim.cli")
    return SimpleNamespace(
        run_scheduler=ps.run_scheduler,
        verify_trace=ps.verify_trace,
        optimal_order=ps.optimal_order,
        replay=ps.replay,
        totals=ps.totals,
        generate=ps.generate,
        parse_scenario=ps.parse_scenario,
        render_scenario=ps.render_scenario,
        execute=modsbsm.execute,
        FaultModel=ps.FaultModel,
        compare_builtin_suite=report.compare_builtin_suite,
        render_comparison_table=report.render_comparison_table,
        main=cli.main,
        DiskGeometry=ps.DiskGeometry,
        FaultSpec=ps.FaultSpec,
        GeneratorParams=ps.GeneratorParams,
        MemoryRequest=ps.MemoryRequest,
        PhysicalAddress=ps.PhysicalAddress,
        Scenario=ps.Scenario,
        retry_at_tail=getattr(schedulers, "retry_at_tail", None),
        arrange=getattr(modsbsm, "arrange", None),
        ascending=getattr(modsbsm, "ASCENDING", None),
    )


def absent_names(api: SimpleNamespace) -> list[str]:
    """Probed names that this version of the package no longer has."""
    missing = []
    if api.retry_at_tail is None:
        missing.append("schedulers.retry_at_tail")
    if api.arrange is None or api.ascending is None:
        missing.append("modsbsm.arrange")
    return missing


@dataclass
class Item:
    """One input of a workload's pool."""

    uid: str
    scenario: object = None
    alg: str = ""
    cache: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Failure:
    """One operation that broke a failure rule.

    ``output`` is false only for rules about what the program did on the way
    (probe counts), not about the traces, orders, totals or bytes it returned.
    """

    op: str
    rule: str
    detail: str
    output: bool = True


def item_seeds(name: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{name}/{seed}")
    return [rng.getrandbits(32) for _ in range(count)]


def _round_trip(api, tr, uid, scenario):
    text = tr.call("workload.render_scenario", uid, api.render_scenario, scenario)
    return tr.call("workload.parse_scenario", uid, api.parse_scenario, text)


def _generated(api, tr, uid, geometry, requests, seed, bad=0):
    params = api.GeneratorParams(request_count=requests, order="random", seed=seed, bad_count=bad)
    scenario = tr.call("workload.generate", uid, api.generate, api.DiskGeometry(*geometry), params)
    return _round_trip(api, tr, uid, scenario)


def dense_scenario(api, seed: int, requests: int, addresses: int, bad: int):
    """A raw hot/cold ``Scenario`` with duplicate addresses, writes and bad sectors."""
    rng = random.Random(seed)
    platters, tracks, sectors = DENSE_GEOMETRY
    geometry = api.DiskGeometry(platters, tracks, sectors)

    def address(i):
        return api.PhysicalAddress(i // (sectors * platters), i // sectors % platters + 1, i % sectors)

    pool = [address(i) for i in rng.sample(range(geometry.address_count), addresses)]
    hot, cold = pool[: int(addresses * HOT_SHARE)], pool[int(addresses * HOT_SHARE):]
    picks = [rng.choice(hot) if rng.random() < HOT_PICKS else rng.choice(cold) for _ in range(requests)]
    queue = tuple(
        api.MemoryRequest(address=a, op="w" if rng.random() < WRITE_SHARE else "r", arrival_rank=rank)
        for rank, a in enumerate(picks)
    )
    requested = list(dict.fromkeys(picks))
    faults = tuple(api.FaultSpec(a, rng.randrange(2)) for a in rng.sample(requested, bad))
    head = address(rng.randrange(geometry.address_count))
    return api.Scenario(geometry=geometry, initial_head=head, requests=queue, faults=faults)


def _schedule(api, item, tr, calls):
    """One scheduler on one scenario, its trace checked by ``verify_trace``."""
    start = perf_counter()
    run = tr.call(f"schedulers.run_scheduler.{item.alg}", item.uid, api.run_scheduler, item.scenario, item.alg)
    violations = tr.call("oracle.verify_trace", item.uid, api.verify_trace, item.scenario, run.steps, run.totals)
    calls.append((item.alg, perf_counter() - start, len(item.scenario.requests)))
    return run, violations


def _probe_run(api, item, run, tr, counts):
    """Re-run pricing and the fault handling on the arguments the program used for ``run``."""
    scenario, uid = item.scenario, item.uid
    steps = tr.call("metrics.replay", uid, api.replay, scenario.geometry, scenario.initial_head, run.visits)
    tr.call("metrics.totals", uid, api.totals, steps)
    counts["metrics.replay.steps"].append(len(steps))
    if item.alg == "modsbsm":
        faults = api.FaultModel(scenario.faults)
        result = tr.call("modsbsm.execute", uid, api.execute, scenario, faults)
        probes = [faults.probe_count(spec.address) for spec in scenario.faults]
        counts["modsbsm.passes"].append(result.passes)
        counts["faults.probes"].append(sum(probes))
        counts["faults.probe_overrun_addrs"].append(sum(p > PROBE_BOUND for p in probes))
        if api.arrange is not None and api.ascending is not None:
            tr.call("modsbsm.arrange", uid, api.arrange, scenario.requests, api.ascending)
    elif scenario.faults and api.retry_at_tail is not None:
        visits, served, _ = tr.call(
            "schedulers.retry_at_tail", uid, api.retry_at_tail,
            list(run.order), scenario, api.FaultModel(scenario.faults),
        )
        counts["retry.served"].append(len(served))
        counts["retry.visits"].append(len(visits))


def _probe_report(api, tr, counts):
    report = tr.call("report.compare_builtin_suite", "builtin", api.compare_builtin_suite)
    tr.call("report.render_comparison_table", "builtin", api.render_comparison_table, report)
    counts["report.ref_delta_cells"].append(len(report.discrepancies))


def _run_cli(api, tr, uid, calls):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = perf_counter()
        code = tr.call("cli.main", uid, api.main, list(PAPER6_ARGV))
        calls.append(("cli.main", perf_counter() - start, PAPER6_REQUESTS))
    return code, out.getvalue()


def _run_oracle(api, item, tr, calls):
    start = perf_counter()
    result = tr.call("oracle.optimal_order", item.uid, api.optimal_order, item.scenario)
    calls.append(("optimal_order", perf_counter() - start, len(item.scenario.requests)))
    return result


def _replay_order(api, scenario, order, tr, uid):
    addresses = [scenario.requests[i].address for i in order]
    steps = tr.call("metrics.replay", uid, api.replay, scenario.geometry, scenario.initial_head, addresses)
    return tr.call("metrics.totals", uid, api.totals, steps)


class Paper6:
    name = "paper6"
    setup_repeats = 5
    round_calls = window_calls = 20
    calibration = ("small",)

    def recorded_key(self, seed):
        return "argv=" + " ".join(PAPER6_ARGV)

    def build(self, api, seed, tr):
        # The input is the fixed command line; compare builds the built-in
        # cases inside the call, as a user running it pays for them.
        return [Item("builtin-all")]

    def run(self, api, item, tr, calls):
        return _run_cli(api, tr, item.uid, calls)

    def check(self, api, item, out, recorded):
        code, text = out
        failures = []
        if code != 0:
            failures.append(Failure(item.uid, "exit", f"cli.main returned {code}"))
        if recorded is not None and text.encode() != recorded["stdout"].encode():
            failures.append(Failure(item.uid, "bytes", "stdout differs from the recorded bytes"))
        return failures

    def probe(self, api, item, out, tr, counts):
        _probe_report(api, tr, counts)


class Oracle7:
    name = "oracle7"
    setup_repeats = 5
    round_calls = window_calls = 16
    calibration = ("small",)

    def __init__(self, pool=64):
        self.pool = pool

    def recorded_key(self, seed):
        return f"seed={seed} requests={ORACLE_REQUESTS}"

    def build(self, api, seed, tr):
        return [
            Item(f"q{i:02d}", _generated(api, tr, f"q{i:02d}", ORACLE_GEOMETRY, ORACLE_REQUESTS, s))
            for i, s in enumerate(item_seeds(self.name, seed, self.pool))
        ]

    def run(self, api, item, tr, calls):
        return _run_oracle(api, item, tr, calls)

    def check(self, api, item, result, recorded):
        scenario, uid = item.scenario, item.uid
        failures = []
        if sorted(result.order) != list(range(len(scenario.requests))):
            failures.append(Failure(uid, "order", "oracle order is not a permutation"))
            return failures
        replayed = _replay_order(api, scenario, result.order, NullTracer(), uid)
        if replayed.as_tuple() != result.totals.as_tuple():
            failures.append(Failure(uid, "replay", f"totals {result.totals.as_tuple()} != replay {replayed.as_tuple()}"))
        if "best" not in item.cache:
            item.cache["best"] = min(
                (api.run_scheduler(scenario, alg).totals.tdat, alg) for alg in ALGORITHMS
            )
        best_tdat, best_alg = item.cache["best"]
        if best_tdat < result.totals.tdat:
            failures.append(Failure(uid, "dominance", f"{best_alg} tdat {best_tdat} < oracle {result.totals.tdat}"))
        if recorded is not None:
            want = recorded[uid]
            got = {"order": list(result.order), "totals": list(result.totals.as_tuple())}
            if got != want:
                failures.append(Failure(uid, "totals", f"{got} != recorded {want}"))
        return failures

    def probe(self, api, item, result, tr, counts):
        _replay_order(api, item.scenario, result.order, tr, item.uid)


class _Scheduled:
    """A pool of scenarios; a unit is one scheduler on one of them."""

    round_calls = len(ALGORITHMS)  # every scheduler once, on one scenario
    window_calls = 1  # a call takes long enough to calibrate after each
    calibration = ("small", "large")  # the queues are large
    prefix = ""

    def scenario(self, api, seed, uid, tr):
        raise NotImplementedError

    def build(self, api, seed, tr):
        items = []
        for i, s in enumerate(item_seeds(self.name, seed, self.pool)):
            uid = f"{self.prefix}{i}"
            scenario = self.scenario(api, s, uid, tr)
            shared: dict = {}
            items.extend(Item(f"{uid}/{alg}", scenario, alg, shared) for alg in ALGORITHMS)
        return items

    def run(self, api, item, tr, calls):
        return _schedule(api, item, tr, calls)

    def check(self, api, item, out, recorded):
        run, violations = out
        failures = [Failure(item.uid, "verify_trace", violations[0])] if violations else []
        return failures + self.check_run(api, item, run, recorded)

    def probe(self, api, item, out, tr, counts):
        _probe_run(api, item, out[0], tr, counts)


class SparseClean(_Scheduled):
    name = "sparse_clean"
    setup_repeats = 5
    prefix = "s"

    def __init__(self, requests=2000, pool=8):
        self.requests = requests
        self.pool = pool

    def recorded_key(self, seed):
        return f"seed={seed} requests={self.requests}"

    def scenario(self, api, seed, uid, tr):
        return _generated(api, tr, uid, SPARSE_GEOMETRY, self.requests, seed)

    def check_run(self, api, item, run, recorded):
        failures = []
        if sorted(run.order) != list(range(len(item.scenario.requests))):
            failures.append(Failure(item.uid, "order", "order is not a permutation of the ranks"))
        if recorded is not None and list(run.totals.as_tuple()) != recorded[item.uid]:
            failures.append(Failure(item.uid, "totals", f"{run.totals.as_tuple()} != recorded {recorded[item.uid]}"))
        return failures


class DenseFaulty(_Scheduled):
    name = "dense_faulty"
    setup_repeats = 5
    prefix = "d"

    def __init__(self, requests=20_000, addresses=4000, bad=40, pool=1):
        self.requests = requests
        self.addresses = addresses
        self.bad = bad
        self.pool = pool

    def recorded_key(self, seed):
        # Fixes to retry-at-tail and to the probe bound will change these
        # totals, so none are recorded.
        return None

    def scenario(self, api, seed, uid, tr):
        return _round_trip(api, tr, uid, dense_scenario(api, seed, self.requests, self.addresses, self.bad))

    def check_run(self, api, item, run, recorded):
        scenario = item.scenario
        failures = []
        abandoned = set(run.abandoned)
        served = [r for r in run.order if r not in abandoned]
        if sorted(served + list(run.abandoned)) != list(range(len(scenario.requests))):
            failures.append(Failure(item.uid, "coverage", "served plus abandoned is not every rank once"))
        if item.alg != "modsbsm":
            return failures
        if "overrun" not in item.cache:
            # The simulator is deterministic: the count holds for every run of this scenario.
            faults = api.FaultModel(scenario.faults)
            api.execute(scenario, faults)
            probes = [faults.probe_count(spec.address) for spec in scenario.faults]
            item.cache["overrun"] = [p for p in probes if p > PROBE_BOUND]
        overrun = item.cache["overrun"]
        if overrun:
            failures.append(Failure(
                item.uid, "probe_bound",
                f"{len(overrun)} bad addresses probed more than {PROBE_BOUND} times (max {max(overrun)})",
                output=False,
            ))
        return failures


def census(api, seed, tr, counts, repeats=3):
    """Call every layer on one faulty 7-request queue, ``repeats`` times."""
    for _ in range(repeats):
        scenario = _generated(api, tr, "census", ORACLE_GEOMETRY, ORACLE_REQUESTS, seed, bad=1)
        for alg in ALGORITHMS:
            item = Item(f"census/{alg}", scenario, alg)
            run, _ = _schedule(api, item, tr, [])
            _probe_run(api, item, run, tr, counts)
        _run_oracle(api, Item("census", scenario), tr, [])
        _probe_report(api, tr, counts)
        _run_cli(api, tr, "census", [])


def workloads(smoke: bool = False) -> dict:
    """The four workloads, at full size or at the self-test's small size."""
    if smoke:
        found = [Paper6(), SparseClean(requests=200, pool=2), DenseFaulty(2000, 400, 10, pool=1), Oracle7(pool=4)]
    else:
        found = [Paper6(), SparseClean(), DenseFaulty(), Oracle7()]
    return {w.name: w for w in found}
