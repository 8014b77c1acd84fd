"""Column pricing and sliced plans against the loops they replaced (``reference_loops``).

Raw scenarios repeat addresses, mark some bad, and put the head anywhere,
the disk edges included.  Every plan is replayed through its ``via``
waypoints, a faulty baseline's visits and abandoned requests checked
against the retry-at-tail deque loop; traces are then
tampered with (latency, transfer, seek, an out-of-bounds address, a visit
replaced by another requested address, a repeated step, a cut), and some
are handed over as a ``Trace`` of list columns, before ``verify_trace``
checks them.  The baselines' plans, sliced from the
scenario's sweep lists, are checked against plans built one track group at
a time; SSTF's legs, the head in mrsa's median window, read that order in runs
no two of which could merge, and a walk without legs never builds the priced
layout.  Every baseline record, each sweep both ways, equals the replay of
its plan whatever order the scenario's cached sweep lists and priced layout
were filled in.  Rendered scenarios, their lines mutated, parse as the per-line
loop parses them, into one address object per distinct address.  A last
test counts Python-level calls to show that no layer makes one per visit,
cold caches included.
"""

import dataclasses
import gc
import re
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_loops as ref
from plattersim.faults import FaultModel, FaultSpec
from plattersim.geometry import DiskGeometry, GeometryBoundsError, PhysicalAddress
from plattersim.metrics import SchedulerRun, ServiceStep, Trace, replay, totals
from plattersim.oracle import optimal_order, verify_trace
from plattersim.schedulers import (
    ALGORITHM_NAMES,
    RETRY_LIMIT,
    SWEEP_NAMES,
    _plan,
    run_scheduler,
)
from plattersim.workload import (
    OPS,
    GeneratorParams,
    MemoryRequest,
    Scenario,
    ScenarioError,
    generate,
    parse_scenario,
    render_scenario,
)


def _addresses(geometry):
    return st.builds(
        PhysicalAddress,
        st.integers(0, geometry.num_tracks - 1),
        st.integers(1, geometry.num_platters),
        st.integers(0, geometry.sectors_per_track - 1),
    )


def _outside(geometry):
    """Addresses that ``validate`` rejects, one component out of range."""
    return st.one_of(
        st.builds(
            PhysicalAddress,
            st.integers(geometry.num_tracks, geometry.num_tracks + 3),
            st.integers(1, geometry.num_platters),
            st.integers(0, geometry.sectors_per_track - 1),
        ),
        st.builds(
            PhysicalAddress,
            st.integers(0, geometry.num_tracks - 1),
            st.integers(geometry.num_platters + 1, geometry.num_platters + 2),
            st.integers(0, geometry.sectors_per_track - 1),
        ),
        st.builds(
            PhysicalAddress,
            st.integers(0, geometry.num_tracks - 1),
            st.integers(1, geometry.num_platters),
            st.integers(geometry.sectors_per_track, geometry.sectors_per_track + 2),
        ),
    )


@st.composite
def scenarios(draw):
    geometry = DiskGeometry(
        draw(st.integers(1, 3)), draw(st.integers(1, 12)), draw(st.integers(1, 8))
    )
    address = _addresses(geometry)
    pool = draw(st.lists(address, min_size=1, max_size=5, unique=True))
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16))
    bad = draw(st.lists(st.sampled_from(pool), unique=True, max_size=3))
    top = geometry.num_tracks - 1
    head_track = draw(st.sampled_from([0, top, draw(st.integers(0, top))]))
    head = PhysicalAddress(
        head_track,
        draw(st.integers(1, geometry.num_platters)),
        draw(st.integers(0, geometry.sectors_per_track - 1)),
    )
    return Scenario(
        geometry=geometry,
        initial_head=head,
        requests=tuple(MemoryRequest(address=a, arrival_rank=i) for i, a in enumerate(picks)),
        faults=tuple(FaultSpec(a, draw(st.integers(0, 1))) for a in bad),
    )


def _plans(scenario):
    """(algorithm, direction, order, via, legs) of every baseline, each sweep both ways."""
    for algorithm in ALGORITHM_NAMES:
        if algorithm == "modsbsm":
            continue
        for direction in ("up", "down") if algorithm in SWEEP_NAMES else (None,):
            yield (algorithm, direction, *_plan(scenario, algorithm, direction, False))


def _probes(scenario, faults):
    return [faults.probe_count(spec.address) for spec in scenario.faults]


def _outcome(fn, *args):
    """What a call returned, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (GeometryBoundsError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_plans_price_retry_and_total_as_the_per_visit_loops(scenario):
    n = len(scenario.requests)
    for algorithm, direction, order, via, _ in _plans(scenario):
        run = run_scheduler(scenario, algorithm, direction=direction)
        ref_faults = FaultModel(scenario.faults)
        ref_visits, _, ref_abandoned = ref.retry_at_tail(order, scenario, ref_faults)
        visits = [scenario.requests[rank].address for rank in ref_visits]
        assert run.visits == tuple(visits), algorithm
        assert run.abandoned == tuple(ref_abandoned), algorithm
        abandoned_at = Counter(scenario.requests[rank].address for rank in run.abandoned)
        probes = [RETRY_LIMIT * abandoned_at[spec.address] for spec in scenario.faults]
        assert probes == _probes(scenario, ref_faults), algorithm

        steps = replay(scenario.geometry, scenario.initial_head, visits, via)
        assert steps == ref.replay(scenario.geometry, scenario.initial_head, visits, via)
        assert all(type(s) is ServiceStep for s in steps)
        assert totals(steps, n).as_tuple()[:3] == ref.totals_tuple(steps)
        assert run.steps == tuple(steps), algorithm
    run = run_scheduler(scenario, "modsbsm")
    assert list(run.steps) == ref.replay(scenario.geometry, scenario.initial_head, run.visits)


def _scenario(geometry, head, addresses, bad=()):
    """A scenario from (track, platter, sector) triples, its bad addresses read as bit 0."""
    return Scenario(
        geometry=DiskGeometry(*geometry),
        initial_head=PhysicalAddress(*head),
        requests=tuple(
            MemoryRequest(PhysicalAddress(*a), arrival_rank=i) for i, a in enumerate(addresses)
        ),
        faults=tuple(FaultSpec(PhysicalAddress(*a), 0) for a in bad),
    )


DISK = (2, 10, 4)


@settings(max_examples=150, deadline=None)
@given(scenarios())
# A strictly descending queue, one of its addresses bad.
@example(_scenario(DISK, (5, 1, 0), [(8, 1, 3), (6, 2, 1), (3, 1, 2), (1, 2, 0)], [(3, 1, 2)]))
# One track group, the head on its track.
@example(_scenario(DISK, (4, 2, 2), [(4, 1, 3), (4, 2, 0), (4, 1, 3), (4, 2, 1)], [(4, 2, 0)]))
# The head on track 0, then on the top track: a sweep toward it has an empty first leg.
@example(_scenario(DISK, (0, 1, 1), [(3, 1, 2), (7, 2, 0), (5, 1, 3)], [(7, 2, 0)]))
@example(_scenario(DISK, (9, 2, 3), [(3, 1, 2), (7, 2, 0), (5, 1, 3)], [(3, 1, 2)]))
# One sector per track: every latency is 0, either way.
@example(_scenario((3, 10, 1), (5, 2, 0), [(2, 1, 0), (8, 3, 0), (5, 1, 0), (2, 2, 0)]))
# A bad address alone on the leg after the turn, so SCAN's and C-SCAN's
# retry tail starts where their edge waypoints lead, whichever way they go.
@example(_scenario(DISK, (5, 1, 1), [(3, 1, 2), (8, 2, 3)], [(8, 2, 3)]))
@example(_scenario(DISK, (5, 1, 1), [(8, 2, 3), (3, 1, 2)], [(3, 1, 2)]))
def test_baseline_records_equal_replay_whatever_the_cache_state(scenario):
    n = len(scenario.requests)
    plans = {(a, d): (order, via) for a, d, order, via, _ in _plans(dataclasses.replace(scenario))}
    # Two copies fill their sweep lists and layout in opposite algorithm
    # orders; every run also gets a copy of its own, whose caches are cold.
    forward, backward = dataclasses.replace(scenario), dataclasses.replace(scenario)
    runs = {key: run_scheduler(forward, key[0], direction=key[1]) for key in plans}
    rerun = {key: run_scheduler(backward, key[0], direction=key[1]) for key in reversed(plans)}
    up = [scenario.addresses[rank] for rank in forward.sweeps[2]]
    assert forward.sweep_layout == replay(scenario.geometry, scenario.initial_head, up)
    for (algorithm, direction), (order, via) in plans.items():
        ref_visits, _, abandoned = ref.retry_at_tail(order, scenario, FaultModel(scenario.faults))
        visits = [scenario.addresses[rank] for rank in ref_visits]
        steps = replay(scenario.geometry, scenario.initial_head, visits, via)
        expected = SchedulerRun(
            algorithm, tuple(order), steps, totals(steps, n), abandoned=tuple(abandoned),
            note="failed visits retried at queue tail" if abandoned else "",
        )
        alone = run_scheduler(dataclasses.replace(scenario), algorithm, direction=direction)
        key = algorithm, direction
        assert runs[key] == rerun[key] == alone == expected, key


@settings(max_examples=200, deadline=None)
@given(scenarios(), st.data())
def test_replay_prices_any_via_and_raises_as_the_per_visit_loop(scenario, data):
    geometry = scenario.geometry
    address = st.one_of(_addresses(geometry), _outside(geometry))
    head = data.draw(st.one_of(st.just(scenario.initial_head), address))
    visits = data.draw(st.lists(address, max_size=8))
    via = data.draw(st.dictionaries(
        st.integers(-2, len(visits) + 1),
        st.lists(st.integers(0, geometry.num_tracks - 1), max_size=3),
        max_size=3,
    ))
    assert _outcome(replay, geometry, head, visits, via) == _outcome(
        ref.replay, geometry, head, visits, via
    )


@st.composite
def _tampered(draw, scenario, steps):
    steps = list(steps)
    for _ in range(draw(st.integers(0, 3))):
        if not steps:
            break
        i = draw(st.integers(0, len(steps) - 1))
        kind = draw(st.sampled_from(["latency", "transfer", "seek", "rogue", "swap", "repeat", "cut"]))
        delta = draw(st.integers(-4, 4).filter(bool))
        step = steps[i]
        if kind == "rogue":
            steps[i] = step._replace(address=draw(_outside(scenario.geometry)))
        elif kind == "swap":  # another requested address, its costs left as they were
            steps[i] = step._replace(address=draw(st.sampled_from(scenario.addresses)))
        elif kind == "repeat":
            steps.insert(i, step)
        elif kind == "cut":
            steps = steps[:i]
        else:
            steps[i] = step._replace(**{kind: getattr(step, kind) + delta})
    if draw(st.booleans()):
        trace = Trace.of(steps)
        return Trace(*map(list, (trace.visits, trace.seeks, trace.latencies, trace.transfers)))
    return steps


@settings(max_examples=200, deadline=None)
@given(scenarios(), st.data())
def test_verify_trace_reports_tampered_traces_as_the_per_step_loop(scenario, data):
    algorithm = data.draw(st.sampled_from(ALGORITHM_NAMES))
    run = run_scheduler(scenario, algorithm)
    trace = data.draw(_tampered(scenario, run.steps))
    assert verify_trace(scenario, trace) == ref.verify_trace(scenario, trace)
    assert verify_trace(scenario, trace, run.totals) == ref.verify_trace(scenario, trace, run.totals)
    columns = Trace.of(trace)
    assert verify_trace(scenario, columns) == verify_trace(scenario, list(columns))
    assert verify_trace(scenario, columns, run.totals) == verify_trace(scenario, trace, run.totals)


@st.composite
def _queues(draw):
    """Repeated tracks in either queue direction, the head below, above, on or between them."""
    geometry = DiskGeometry(draw(st.integers(1, 2)), draw(st.integers(1, 16)), draw(st.integers(1, 4)))
    top = geometry.num_tracks - 1
    tracks = draw(st.lists(st.integers(0, top), min_size=1, max_size=14))
    arrival = draw(st.sampled_from(["ascending", "descending", "random"]))
    if arrival != "random":
        tracks.sort(reverse=arrival == "descending")
    low, high = min(tracks), max(tracks)
    head_track = draw(st.one_of(
        st.integers(0, low), st.integers(high, top), st.sampled_from(tracks), st.integers(low, high)
    ))

    def address(track):
        return PhysicalAddress(
            track,
            draw(st.integers(1, geometry.num_platters)),
            draw(st.integers(0, geometry.sectors_per_track - 1)),
        )

    return Scenario(
        geometry=geometry,
        initial_head=address(head_track),
        requests=tuple(MemoryRequest(address(t), arrival_rank=i) for i, t in enumerate(tracks)),
    )


@settings(max_examples=300, deadline=None)
@given(_queues())
def test_sliced_plans_match_the_per_group_loops(scenario):
    for variant in SWEEP_NAMES:
        for direction in ("up", "down"):
            plan = _plan(scenario, variant, direction, False)
            assert plan[:2] == ref._sweep_plan(scenario, variant, direction), (variant, direction)
    for algorithm, reference in ref.PLANS.items():
        assert _plan(scenario, algorithm, None, False)[:2] == reference(scenario), algorithm


@settings(max_examples=300, deadline=None)
@given(_queues(), st.data())
def test_sstf_legs_read_the_per_group_order_in_runs_that_cannot_merge(scenario, data):
    # The head inside the median window, so mrsa takes its SSTF branch.
    tracks = sorted(scenario.tracks)
    track = data.draw(st.integers(tracks[(len(tracks) - 1) // 2], tracks[len(tracks) // 2]))
    scenario = dataclasses.replace(scenario, initial_head=scenario.initial_head._replace(track=track))
    up = scenario.sweeps[2]
    for algorithm in ("sstf", "mrsa"):
        order, via, legs = _plan(scenario, algorithm, None, False)
        read = [rank for lo, hi, forward in legs for rank in (up[lo:hi] if forward else up[lo:hi][::-1])]
        assert read == order == ref._sstf_plan(scenario)[0] and via == {}, algorithm
        assert sorted(i for lo, hi, _ in legs for i in range(lo, hi)) == list(range(len(up)))
        assert all(lo < hi for lo, hi, _ in legs)
        for (lo, hi, forward), (next_lo, next_hi, next_forward) in zip(legs, legs[1:]):
            assert forward != next_forward or (next_lo != hi if forward else next_hi != lo), legs


def test_walks_without_legs_leave_the_sweep_layout_unbuilt():
    scenario = generate(DiskGeometry(4, 200, 8), GeneratorParams(7, seed=3, bad_count=2))
    for price in (lambda s: run_scheduler(s, "fcfs"), lambda s: run_scheduler(s, "modsbsm"), optimal_order):
        fresh = dataclasses.replace(scenario)
        price(fresh)
        assert "sweep_layout" not in vars(fresh), price
    run_scheduler(fresh, "sstf")
    assert "sweep_layout" in vars(fresh)


GEOMETRY = DiskGeometry(2, 10, 4)
IN = PhysicalAddress(5, 1, 2)


@pytest.mark.parametrize(
    "head, visits, message",
    [
        (PhysicalAddress(10, 1, 0), [PhysicalAddress(3, 3, 0)], "track 10 out of range 0..9"),
        (IN, [PhysicalAddress(3, 3, 0), IN, PhysicalAddress(12, 1, 0)], "platter 3 out of range 1..2"),
        (IN, [IN, PhysicalAddress(9, 2, 3), PhysicalAddress(3, 1, 4)], "sector 4 out of range 0..3"),
    ],
    ids=["head", "first-visit", "last-visit"],
)
def test_replay_raises_for_the_first_address_out_of_bounds(head, visits, message):
    with pytest.raises(GeometryBoundsError) as raised:
        replay(GEOMETRY, head, visits)
    assert type(raised.value) is GeometryBoundsError
    assert str(raised.value) == message


def test_verify_trace_lists_two_tampered_steps_around_a_rogue_address():
    scenario = Scenario(
        geometry=DiskGeometry(4, 200, 8),
        initial_head=PhysicalAddress(50, 1, 0),
        requests=tuple(
            MemoryRequest(address=PhysicalAddress(*a), arrival_rank=i)
            for i, a in enumerate([(52, 1, 1), (60, 2, 3), (40, 1, 7), (45, 3, 2)])
        ),
    )
    steps = list(run_scheduler(scenario, "fcfs").steps)
    steps[0] = steps[0]._replace(latency=9, seek=1)
    steps[1] = steps[1]._replace(address=PhysicalAddress(200, 2, 3))
    steps[2] = steps[2]._replace(transfer=5)
    assert verify_trace(scenario, steps) == [
        "step 1: latency 9 outside 0..7",
        "step 1: latency 9 != re-priced 1",
        "step 1: seek 1 below track distance 2",
        "step 2: address out of bounds (track 200 out of range 0..199)",
        "step 3: transfer 5 != re-priced 2",
        "step 3: seek 20 below track distance 160",
        "coverage: PhysicalAddress(track=60, platter=2, sector=3) requested 1 times, visited 0",
        "coverage: trace is not a permutation of the request queue",
    ]


def test_verify_trace_lists_the_short_address_before_the_permutation_line():
    scenario = Scenario(
        geometry=DiskGeometry(4, 200, 8),
        initial_head=PhysicalAddress(50, 1, 0),
        requests=tuple(
            MemoryRequest(address=PhysicalAddress(*a), arrival_rank=i)
            for i, a in enumerate([(52, 1, 1), (60, 2, 3), (40, 1, 7), (45, 3, 2)])
        ),
    )
    run = run_scheduler(scenario, "fcfs")
    steps = list(run.steps)
    steps[1] = steps[1]._replace(address=PhysicalAddress(52, 1, 1))
    messages = verify_trace(scenario, steps, run.totals)
    assert messages == ref.verify_trace(scenario, steps, run.totals)
    assert messages == [
        "step 2: latency 2 != re-priced 0",
        "step 2: transfer 2 != re-priced 1",
        "step 3: latency 4 != re-priced 6",
        "step 3: transfer 2 != re-priced 1",
        "coverage: PhysicalAddress(track=60, platter=2, sector=3) requested 1 times, visited 0",
        "coverage: trace is not a permutation of the request queue",
    ]


def _moved(lines, k, draw):
    """Line ``k``, indented or not, moved to the start or the end."""
    line = draw(st.sampled_from(("", " "))) + lines.pop(k)
    lines.insert(draw(st.sampled_from((0, len(lines)))), line)


def _edited(edit):
    def mutate(lines, k, draw):
        lines[k] = edit(lines[k], draw)
    return mutate


# Each takes the rendered lines, a line index and a draw function, and changes
# the lines in place: some keep the file valid, some make it fail.
LINE_MUTATIONS = (
    _edited(lambda line, draw: line + "  # note"),
    lambda lines, k, draw: lines.insert(k, draw(st.sampled_from(("", "   ", "# note")))),
    _edited(lambda line, draw: re.sub(r"([0-9]+)([tps])", r"0\1\2", line)),
    _edited(lambda line, draw: line + " op=r" if line.startswith("request") and "op=" not in line else line),
    _edited(lambda line, draw: line.replace(" ", "\t")),
    _edited(lambda line, draw: " " + line),
    _edited(lambda line, draw: re.sub(r"t[0-9]+p", "t0p", line, count=1)),
    _edited(lambda line, draw: line[: draw(st.integers(0, len(line)))]),
    _edited(lambda line, draw: re.sub(r"(?<![0-9])[0-9]+t", "999t", line, count=1)),
    lambda lines, k, draw: lines.insert(k, lines[k]),
    _moved,
)


@st.composite
def scenario_texts(draw):
    """Rendered raw scenarios, some writes among the requests, a few lines mutated."""
    scenario = draw(scenarios())
    writes = draw(st.lists(st.booleans(), min_size=len(scenario.requests), max_size=len(scenario.requests)))
    requests = tuple(
        dataclasses.replace(req, op=OPS[w]) for req, w in zip(scenario.requests, writes)
    )
    lines = render_scenario(dataclasses.replace(scenario, requests=requests)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        draw(st.sampled_from(LINE_MUTATIONS))(lines, draw(st.integers(0, len(lines) - 1)), draw)
    end = draw(st.sampled_from(("\n", "\r\n")))
    return end.join(lines) + end


def _parsed(parse, text):
    """The scenario text parses to, or the message, line and entry of its error."""
    try:
        return parse(text)
    except ScenarioError as exc:
        return str(exc), exc.line, exc.entry


_HEADER = "geometry platters=2 tracks=10 sectors=8\nhead 3t1p1s\n"


@settings(deadline=None)
@given(scenario_texts())
@example(_HEADER + "request 3t1p1s\nrequest 003t01p1s op=r\nrequest 4t2p0s op=w\nbad 3t1p01s bit=0\n")
@example(_HEADER + "request 2t1p1s\nbad 2t1p1s bit=1\n request 02t1p1s op=w\n")
@example(" request 2t1p1s\n" + _HEADER + "request 2t1p1s\n")
@example(_HEADER + "request 2t1p1s\nrequest 2t0p1s\n")
@example(_HEADER + "request 2t1p1s\nrequest 10t1p1s\n")
@example(_HEADER + "request 2t1p1s\nrequest " + "1" * 4301 + "t1p1s\n")
def test_parse_scenario_matches_the_per_line_loop_and_shares_addresses(text):
    scenario = _parsed(parse_scenario, text)
    assert scenario == _parsed(ref.parse_scenario, text)
    if not isinstance(scenario, Scenario):
        return
    assert len({id(a) for a in scenario.addresses}) == len(scenario.requested)
    shared = dict(zip(scenario.addresses, scenario.addresses))
    for address in (scenario.initial_head, *(spec.address for spec in scenario.faults)):
        assert shared.get(address, address) is address


def _calls(fn, *args):
    """Python-level function calls (profile ``call`` events) made while ``fn(*args)`` runs.

    The collector is off meanwhile: its callbacks (Hypothesis installs one)
    run once per collection, and collections grow with the allocations.
    """
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    collecting = gc.isenabled()
    gc.disable()
    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls


def _clean_pass(n):
    geometry = DiskGeometry(4, 1000, 16)
    scenario = generate(geometry, GeneratorParams(request_count=n, seed=3))
    # A fault table whose address no request touches: every visit is clean,
    # and verify_trace still checks the fault-free scenario's permutation rule.
    requested = {req.address for req in scenario.requests}
    unused = next(
        PhysicalAddress(t, 1, 0) for t in range(geometry.num_tracks)
        if PhysicalAddress(t, 1, 0) not in requested
    )
    via = {n // 2: (0,)}
    # The schedulers take the faulty path; a head on the edge track picks
    # the same plan kind (mrsa's sweep) at every size.
    faulty = dataclasses.replace(
        scenario, initial_head=PhysicalAddress(0, 1, 0), faults=(FaultSpec(unused, 1),)
    )

    def run(faulty):
        steps = replay(geometry, scenario.initial_head, scenario.addresses, via)
        run_totals = totals(steps, n)
        assert verify_trace(scenario, steps, run_totals) == []
        for algorithm in ALGORITHM_NAMES:
            scheduled = run_scheduler(faulty, algorithm)
            assert verify_trace(faulty, scheduled.steps, scheduled.totals) == [], algorithm

    return run, faulty


def test_no_python_call_per_visit():
    counts = []
    for n in (10**3, 10**4):
        run, faulty = _clean_pass(n)
        run(faulty)  # warm the ABC caches that Counter's first isinstance fills
        # A fresh copy: its sweep lists and priced layout are built in the counted pass.
        counts.append(_calls(run, dataclasses.replace(faulty)))
    small, large = counts
    assert small == large

