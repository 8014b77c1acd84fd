"""Host-time benchmark for plattersim.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload paper6 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload, both runs

One process, one thread, one caller making back-to-back calls (a closed
loop); each workload runs in its own process.  Host time is the only time
measured: the simulated totals are outputs that the checks compare, not
metrics.  The workloads and why each was chosen are in ``workloads.py``.

Untraced run (``--trace 0``), the end-to-end metrics:

* ``setup_s`` -- importing plattersim and building the workload's input
  pool; the median of several set-ups spread over the run.
* ``call_ms_p50`` / ``call_ms_p95`` -- median and 95th-percentile host
  latency of one call: one ``cli.main`` (paper6), one ``optimal_order``
  (oracle7), or one scheduler run plus its ``verify_trace`` (sparse_clean,
  dense_faulty), taken over rounds of 20 calls (paper6), 16 (oracle7) or
  every scheduler once on one scenario (see ``call_percentiles``).  The
  call count is printed and is the result's ``attempted``.
* ``requests_per_s`` -- simulated requests per host second at the median
  call time of each kind of call, summed over the twelve schedulers.
* ``peak_rss_mib`` -- peak resident memory of the process.
* ``ok_frac`` -- operations that broke no failure rule over operations
  attempted, i.e. one minus the failed fraction.

The times behind the three timing metrics and ``setup_s`` are scaled to the
host's undisturbed speed (see ``HostClock``); the unscaled median is
printed beside them.

Traced run (``--trace 1``): the same calls, first untraced and then with a
span around every call into a layer, followed by per-layer probes and a
census (see ``workloads.py``).  Spans are written to ``bench/results/``.
Per-layer ``<function>.ms`` values are the unscaled median time of one
call.  ``<layer>.self_share`` is the layer's self time over the traced
calls' time, and ``...run_scheduler.<alg>.share`` that scheduler's share;
only layers the benchmark calls directly can be separated this way.
``trace.overhead_ms`` is traced minus untraced wall time per call.

The recorded-output checks (``expected.json``, written by ``record.py``)
apply at the default seed, 1.  Gain claims must also hold on the held-out
seed, 7919, which no tuning uses.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from spans import NullTracer, Tracer
from workloads import ALGORITHMS, absent_names, census, load_api, workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919
# Other tenants of a shared host slow everything on it by up to 2x, for
# seconds to minutes at a time; the benchmark scales its times to the host's
# undisturbed speed with ``HostClock``.
WINDOW_SHARE = 0.5  # calibration time per second of timed work
WINDOW_MIN_S = 0.05
MIN_ROUNDS = 4

END_TO_END_UNITS = {
    "setup_s": "s",
    "call_ms_p50": "ms",
    "call_ms_p95": "ms",
    "requests_per_s": "req/s",
    "peak_rss_mib": "MiB",
    "ok_frac": "ratio",
}
TIMED_FUNCTIONS = (
    "workload.generate",
    "workload.render_scenario",
    "workload.parse_scenario",
    *(f"schedulers.run_scheduler.{alg}" for alg in ALGORITHMS),
    "schedulers.retry_at_tail",
    "modsbsm.execute",
    "modsbsm.arrange",
    "metrics.replay",
    "metrics.totals",
    "oracle.verify_trace",
    "oracle.optimal_order",
    "report.compare_builtin_suite",
    "report.render_comparison_table",
    "cli.main",
)
DIRECT_LAYERS = ("schedulers", "oracle", "cli", "bench")
PER_LAYER_UNITS = {
    **{f"{name}.ms": "ms" for name in TIMED_FUNCTIONS},
    "cli.main.self_ms": "ms",
    "schedulers.retry_at_tail.useful_ratio": "ratio",
    "modsbsm.passes": "count",
    "faults.probes": "count",
    "faults.probe_overrun_addrs": "count",
    "metrics.replay.steps": "count",
    "report.ref_delta_cells": "count",
    **{f"{layer}.self_share": "ratio" for layer in DIRECT_LAYERS},
    **{f"schedulers.run_scheduler.{alg}.share": "ratio" for alg in ALGORITHMS},
    "trace.unit_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.spans": "count",
}


def git_commit(root: Path) -> str:
    """HEAD's commit id read from ``.git``, or ``unknown`` outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata() -> dict:
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


def recorded_outputs(workload, seed: int):
    path = BENCH / "expected.json"
    key = workload.recorded_key(seed)
    if key is None or not path.is_file():
        return None
    return json.loads(path.read_text()).get(workload.name, {}).get(key)


class Tally:
    """Operations attempted and failed; ``correct`` while every output checks out."""

    SHOWN = 10

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.shown = 0

    def add(self, attempted: int, failures) -> None:
        self.attempted += attempted
        self.failed += len({failure.op for failure in failures})
        self.correct = self.correct and not any(failure.output for failure in failures)
        for failure in failures[: max(0, self.SHOWN - self.shown)]:
            print(f"FAILED {failure.op} [{failure.rule}] {failure.detail}", file=sys.stderr)
            self.shown += 1

    def result(self, metrics: dict, units: dict) -> dict:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }


def small_loop() -> int:
    """Fixed work on a few small objects, like the report and the oracle's search."""
    items = sorted((i * 7919 % 1000, i) for i in range(4000))
    counts: dict[int, int] = {}
    for key, value in items:
        counts[key] = counts.get(key, 0) + value
    pairs = [divmod(i, 7) for i in range(2000)]
    return sum(q for q, _ in pairs) + len(counts)


def large_loop() -> int:
    """Fixed work on some megabytes of fresh objects, like a 20,000-request queue."""
    objs = [(i * 7919 % 20011, str(i), [i]) for i in range(20000)]
    index = {key: value for key, _, value in objs}
    objs.sort()
    return sum(index[key][0] for key, _, _ in objs)


# Each loop and its undisturbed time: the fastest seen on a 2-vCPU x86-64
# VM under Python 3.11.
CALIBRATION = {"small": (small_loop, 0.0023), "large": (large_loop, 0.028)}


class HostClock:
    """How much slower than undisturbed the host runs, measured between timed work.

    After each stretch of timed work the clock runs its calibration loops
    in turn for half as long as the work took, and reports the mean time of
    each over that window against its undisturbed time.  The host's
    slowdown drifts over seconds but holds from one half-second to the
    next, so the work is scaled by the mean of the windows just before and
    just after it.  Different code slows down differently, so a workload
    names the loops that resemble its work (``calibration``).  No loop
    touches plattersim, so the scale does not move when the program gets
    faster.
    """

    def __init__(self, loops):
        self.loops = [CALIBRATION[name] for name in loops]
        self.before = self.window(WINDOW_MIN_S)

    def window(self, seconds: float) -> float:
        spent = [[] for _ in self.loops]
        start = perf_counter()
        while True:
            for (loop, _), times in zip(self.loops, spent):
                t0 = perf_counter()
                loop()
                times.append(perf_counter() - t0)
            if perf_counter() - start >= seconds:
                break
        return statistics.geometric_mean(
            statistics.fmean(times) / undisturbed for (_, undisturbed), times in zip(self.loops, spent)
        )

    def scale(self, work_s: float, next_s: float = 0.0) -> float:
        """The factor that takes ``work_s`` seconds just spent to undisturbed seconds.

        The window also serves as the one before the next stretch of work,
        expected to take ``next_s`` seconds, so it is long enough for both.
        """
        after = self.window(max(WINDOW_SHARE * max(work_s, next_s), WINDOW_MIN_S))
        factor = 2 / (self.before + after)
        self.before = after
        return factor


def percentile95(times) -> float:
    return statistics.quantiles(times, n=20, method="inclusive")[18]


def call_percentiles(scaled_rounds, by_kind) -> tuple[float, float]:
    """Median and 95th percentile of one call, robust to the host's hiccups.

    Where a round repeats one kind of call, the median is over all calls
    and the tail is each round's 95th percentile, median over rounds: a
    tail taken over the whole run would follow how often the host hiccuped.
    Where a round runs each kind once (every scheduler on one scenario),
    both are taken over the typical round, each kind at its median, so
    that neither jumps between kinds from run to run.
    """
    if len(by_kind) == 1:
        (runs,) = by_kind.values()
        return (
            statistics.median(secs for secs, _ in runs),
            statistics.median(percentile95([secs for _, secs, _ in r]) for r in scaled_rounds),
        )
    typical = [statistics.median(secs for secs, _ in runs) for runs in by_kind.values()]
    return statistics.median(typical), percentile95(typical)


def measure(workload, seed: int, seconds: float, recorded) -> dict:
    """The untraced run: end-to-end metrics."""
    null = NullTracer()
    clock = HostClock(workload.calibration)
    setup: list[float] = []
    api = items = None
    calls: list[tuple[str, float, int]] = []
    # The calls between two calibration windows, their times scaled.
    scaled_rounds: list[list[tuple[str, float, int]]] = []
    # Seconds the calls between two windows last took, by their position in the round.
    window_s: dict[int, float] = {}
    tally = Tally()
    units = 0
    start = perf_counter()
    while (
        len(setup) < workload.setup_repeats
        or perf_counter() - start < seconds
        or units < MIN_ROUNDS * workload.round_calls
        or units % workload.round_calls
    ):
        # Set-ups are spread over the run so that one slow spell of the host
        # does not decide them all.
        if len(setup) < workload.setup_repeats and (
            perf_counter() - start >= seconds * len(setup) / workload.setup_repeats
        ):
            gc.unfreeze()
            api = items = None  # free the previous pool before building the next
            gc.collect()
            t0 = perf_counter()
            api = load_api(SRC)
            items = workload.build(api, seed, null)
            elapsed = perf_counter() - t0
            setup.append(elapsed * clock.scale(elapsed, window_s.get(units % workload.round_calls, 0.0)))
            gc.freeze()
            continue
        if units % workload.window_calls == 0:
            first = len(calls)
            position = units % workload.round_calls
            t0 = perf_counter()
        # Start each call from empty young generations, so that the
        # collections inside it depend only on its own work.
        gc.collect()
        item = items[units % len(items)]
        units += 1
        before = len(calls)
        out = workload.run(api, item, null, calls)
        tally.add(len(calls) - before, workload.check(api, item, out, recorded))
        del out
        if units % workload.window_calls == 0:
            window_s[position] = perf_counter() - t0
            factor = clock.scale(window_s[position], window_s.get(units % workload.round_calls, 0.0))
            scaled_rounds.append([(kind, secs * factor, requests) for kind, secs, requests in calls[first:]])
    scaled = [call for round_calls in scaled_rounds for call in round_calls]

    by_kind = defaultdict(list)
    for kind, secs, requests in scaled:
        by_kind[kind].append((secs, requests))
    p50, p95 = call_percentiles(scaled_rounds, by_kind)
    metrics = {
        "setup_s": statistics.median(setup),
        "call_ms_p50": p50 * 1e3,
        "call_ms_p95": p95 * 1e3,
        "requests_per_s": (
            sum(statistics.median(r for _, r in runs) for runs in by_kind.values())
            / sum(statistics.median(s for s, _ in runs) for runs in by_kind.values())
        ),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": 1 - tally.failed / tally.attempted,
    }
    raw = [secs for _, secs, _ in calls]
    print(f"units: {units} over a pool of {len(items)}; calls: {len(scaled)} timed, "
          f"unscaled p50 {statistics.median(raw) * 1e3:.4g} ms")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    return tally.result(metrics, END_TO_END_UNITS)


def trace(workload, seed: int, seconds: float, recorded) -> dict:
    """The traced run: per-layer metrics, spans written to ``RESULTS``."""
    api = load_api(SRC)
    tracer = Tracer(workload.name)
    items = tracer.call("setup", "setup", workload.build, api, seed, tracer)
    gc.collect()
    gc.freeze()

    null = NullTracer()
    tally = Tally()
    untraced: list[float] = []
    start = perf_counter()
    while perf_counter() - start < seconds / 2 or len(untraced) < MIN_ROUNDS * workload.round_calls:
        item = items[len(untraced) % len(items)]
        calls: list = []
        gc.collect()
        t0 = perf_counter()
        out = workload.run(api, item, null, calls)
        untraced.append(perf_counter() - t0)
        tally.add(len(calls), workload.check(api, item, out, recorded))
        del out

    counts = defaultdict(list)
    for k in range(len(untraced)):
        item = items[k % len(items)]
        calls = []
        gc.collect()
        out = tracer.call("unit", item.uid, workload.run, api, item, tracer, calls)
        tracer.call("probe", item.uid, workload.probe, api, item, out, tracer, counts)
        tally.add(len(calls), workload.check(api, item, out, recorded))
        del out
    census_counts = defaultdict(list)
    tracer.call("census", "census", census, api, seed, tracer, census_counts)
    tracer.write(RESULTS / f"spans-{workload.name}-seed{seed}.json")

    own = tracer.durations(("setup", "unit", "probe"))
    fallback = tracer.durations(("census",))

    def ms(name):
        found = own.get(name) or fallback.get(name)
        return statistics.median(found) * 1e3 if found else 0.0

    def count(name, reduce=statistics.median):
        found = counts.get(name) or census_counts.get(name)
        return reduce(found) if found else 0

    traced = own["unit"]
    in_units = tracer.durations(("unit",))
    layer_self = tracer.layer_self_seconds("unit")
    retry_visits = count("retry.visits", sum)
    metrics = {f"{name}.ms": ms(name) for name in TIMED_FUNCTIONS}
    metrics.update({
        "cli.main.self_ms": ms("cli.main") - ms("report.compare_builtin_suite") - ms("report.render_comparison_table"),
        "schedulers.retry_at_tail.useful_ratio": count("retry.served", sum) / retry_visits if retry_visits else 0.0,
        "modsbsm.passes": count("modsbsm.passes"),
        "faults.probes": count("faults.probes"),
        "faults.probe_overrun_addrs": count("faults.probe_overrun_addrs"),
        "metrics.replay.steps": count("metrics.replay.steps"),
        "report.ref_delta_cells": count("report.ref_delta_cells"),
        **{f"{layer}.self_share": layer_self.get(layer, 0.0) / sum(traced) for layer in DIRECT_LAYERS},
        **{
            f"schedulers.run_scheduler.{alg}.share":
                sum(in_units.get(f"schedulers.run_scheduler.{alg}", [])) / sum(traced)
            for alg in ALGORITHMS
        },
        "trace.unit_ms": statistics.median(traced) * 1e3,
        "trace.overhead_ms": (sum(traced) - sum(untraced)) / len(traced) * 1e3,
        "trace.spans": len(tracer.spans),
    })
    print(f"units: {len(traced)} traced, {len(untraced)} untraced; absent: {absent_names(api) or 'none'}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {PER_LAYER_UNITS[name]}")
    return tally.result(metrics, PER_LAYER_UNITS)


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in its own process."""
    summary = {"meta": run_metadata(), "seed": seed, "seconds": seconds, "workloads": {}}
    print(json.dumps(summary["meta"]))
    status = 0
    for name in workloads():
        summary["workloads"][name] = {}
        for mode in ("0", "1"):
            argv = [sys.executable, str(Path(__file__)), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", mode]
            done = subprocess.run(argv, capture_output=True, text=True, timeout=600)
            sys.stderr.write(done.stderr)
            if done.returncode != 0:
                print(f"{name} --trace {mode}: exit {done.returncode}")
                status = 1
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            summary["workloads"][name]["per_layer" if mode == "1" else "end_to_end"] = result
            metrics = result["metrics"]
            if mode == "0":
                print(f"\n{name}: correct={result['correct']} calls={result['attempted']} failed={result['failed']}")
                for metric, entry in metrics.items():
                    print(f"  {metric:<16}{entry['value']:>14.6g} {entry['unit']}")
            else:
                shares = ", ".join(f"{layer} {metrics[f'{layer}.self_share']['value']:.2f}" for layer in DIRECT_LAYERS)
                sstf = metrics["schedulers.run_scheduler.sstf.share"]["value"]
                print(f"  traced time by layer: {shares} (sstf alone {sstf:.2f})")
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"summary-seed{seed}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"\nper-layer metrics written to {path.relative_to(ROOT)}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for selftest.py")
    args = parser.parse_args(argv)

    if not (SRC / "plattersim" / "__init__.py").is_file():
        print(f"error: no plattersim sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    found = workloads(args.smoke)
    if args.workload not in found:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(found)} or all")
    workload = found[args.workload]
    print(json.dumps(run_metadata()))
    recorded = recorded_outputs(workload, args.seed)
    run = trace if args.trace else measure
    result = run(workload, args.seed, args.seconds, recorded)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
