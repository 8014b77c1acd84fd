"""Column pricing and sliced plans against the loops they replaced (``reference_loops``).

Raw scenarios repeat addresses, mark some bad, and put the head anywhere,
the disk edges included; their sweeps are hinted up, so ``use_hints`` runs
each sweep up and its absence down.  Every plan is priced by the per-visit
loop through its legs' edge tracks, keyed by visit position as ``via``, a
faulty baseline's visits and abandoned requests checked against the
retry-at-tail deque loop; traces are then tampered with (latency, transfer,
seek, an out-of-bounds address, a visit replaced by another requested
address, a repeated step, a cut), and some
are handed over as a ``Trace`` of list columns, before ``verify_trace``
checks them.  The baselines' plans, sliced from the
scenario's sweep lists, are checked against plans built one track group at
a time; SSTF's legs, the head in mrsa's median window, read that order in runs
no two of which could merge, and a walk without legs never builds the priced
layout.  Every baseline record, each sweep both ways, equals the replay of
its plan whatever order the scenario's cached sweep lists and priced layout
were filled in.  Rendered scenarios, their lines mutated, parse as the per-line
loop parses them, into one address object per distinct address, and queues
with requests off the disk or out of rank fail ``Scenario``'s column checks
with the per-request loop's first error.  The last tests count Python-level
calls to show that no layer makes one per visit, cold caches included, and
that checking a queue makes none per request.
"""

import dataclasses
import gc
import re
import sys
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_loops as ref
from plattersim.geometry import DiskGeometry, GeometryBoundsError, PhysicalAddress
from plattersim.metrics import SchedulerRun, ServiceStep, Trace, replay, totals
from plattersim.modsbsm import FaultModel
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
    FaultSpec,
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


def _via(legs):
    """Each non-empty leg's edges keyed by the visit position where the leg starts."""
    via, position = {}, 0
    for a, b, edges in legs:
        if a < b and edges:
            via[position] = edges
        position += b - a
    return via


def _sweeps_up(scenario):
    """The scenario with every sweep hinted up: use_hints=True runs them up, False down."""
    return dataclasses.replace(scenario, direction_hints=tuple((name, "up") for name in SWEEP_NAMES))


def _plans(scenario):
    """(algorithm, use_hints, order, via) of every baseline, each sweep both ways."""
    for algorithm in ALGORITHM_NAMES:
        if algorithm == "modsbsm":
            continue
        for use_hints in (True, False) if algorithm in SWEEP_NAMES else (False,):
            order, legs = _plan(scenario, algorithm, use_hints)
            yield algorithm, use_hints, order, _via(legs)


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
    scenario = _sweeps_up(scenario)
    for algorithm, use_hints, order, via in _plans(scenario):
        run = run_scheduler(scenario, algorithm, use_hints=use_hints)
        ref_faults = FaultModel(scenario.faults)
        ref_visits, _, ref_abandoned = ref.retry_at_tail(order, scenario, ref_faults)
        visits = [scenario.requests[rank].address for rank in ref_visits]
        assert run.visits == tuple(visits), algorithm
        assert run.abandoned == tuple(ref_abandoned), algorithm
        abandoned_at = Counter(scenario.requests[rank].address for rank in run.abandoned)
        probes = [RETRY_LIMIT * abandoned_at[spec.address] for spec in scenario.faults]
        assert probes == _probes(scenario, ref_faults), algorithm

        steps = ref.replay(scenario.geometry, scenario.initial_head, visits, via)
        assert run.steps == steps, algorithm
        assert all(type(s) is ServiceStep for s in run.steps)
        assert run.totals.as_tuple()[:3] == ref.totals_tuple(steps), algorithm
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
# Three groups below a head on track 5, two above it.
_BOTH_SIDES = [(4, 1, 2), (8, 2, 3), (1, 2, 0), (3, 1, 1), (7, 1, 3), (4, 2, 0)]


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
# Bad ranks at the first and the last up index of a leg read backward: the
# groups below the head (every sweep down, SCAN and LOOK after turning
# there), then those above it (C-SCAN and C-LOOK down, SCAN and LOOK down
# after turning).
@example(_scenario(DISK, (5, 1, 1), _BOTH_SIDES, [(1, 2, 0), (4, 2, 0)]))
@example(_scenario(DISK, (5, 1, 1), _BOTH_SIDES, [(7, 1, 3), (8, 2, 3)]))
# SSTF turns at every visit (tracks 19, 22, 15, 29, 0 from 20): five legs,
# a bad rank in each, one of them requested twice.
@example(_scenario(
    (2, 40, 4), (20, 1, 0),
    [(22, 2, 3), (0, 1, 3), (19, 1, 1), (15, 1, 0), (29, 2, 2), (19, 2, 0), (0, 1, 3)],
    [(19, 1, 1), (22, 2, 3), (15, 1, 0), (29, 2, 2), (0, 1, 3)],
))
# One bad address requested twice on the head's track, with requests on
# both sides: its group ends the lower run (bisect_right, going down) or
# starts the upper one (bisect_left, going up).
@example(_scenario(DISK, (5, 1, 1), [(5, 2, 3), (2, 1, 0), (5, 1, 0), (8, 2, 1), (5, 2, 3)], [(5, 2, 3)]))
def test_baseline_records_equal_replay_whatever_the_cache_state(scenario):
    n = len(scenario.requests)
    scenario = _sweeps_up(scenario)
    plans = {(a, h): (order, via) for a, h, order, via in _plans(dataclasses.replace(scenario))}
    # Two copies fill their sweep lists and layout in opposite algorithm
    # orders; every run also gets a copy of its own, whose caches are cold.
    forward, backward = dataclasses.replace(scenario), dataclasses.replace(scenario)
    runs = {key: run_scheduler(forward, key[0], use_hints=key[1]) for key in plans}
    rerun = {key: run_scheduler(backward, key[0], use_hints=key[1]) for key in reversed(plans)}
    # The round trip, its way back included, and the bad ranks' places on it.
    ring = [scenario.addresses[rank] for rank in forward.sweeps[2]]
    assert len(ring) == 2 * n - 1
    bad = {spec.address for spec in scenario.faults}
    for scenario_copy in (forward, backward):
        assert scenario_copy.sweep_layout == replay(scenario.geometry, scenario.initial_head, ring)
        assert scenario_copy.bad_positions == [i for i, a in enumerate(ring) if a in bad]
    for (algorithm, use_hints), (order, via) in plans.items():
        ref_visits, _, abandoned = ref.retry_at_tail(order, scenario, FaultModel(scenario.faults))
        visits = [scenario.addresses[rank] for rank in ref_visits]
        steps = Trace.of(ref.replay(scenario.geometry, scenario.initial_head, visits, via))
        expected = SchedulerRun(
            algorithm, tuple(order), steps, totals(steps, n), abandoned=tuple(abandoned),
        )
        alone = run_scheduler(dataclasses.replace(scenario), algorithm, use_hints=use_hints)
        key = algorithm, use_hints
        assert runs[key] == rerun[key] == alone == expected, key


@settings(max_examples=200, deadline=None)
@given(scenarios(), st.data())
def test_replay_prices_and_raises_as_the_per_visit_loop(scenario, data):
    geometry = scenario.geometry
    address = st.one_of(_addresses(geometry), _outside(geometry))
    head = data.draw(st.one_of(st.just(scenario.initial_head), address))
    visits = data.draw(st.lists(address, max_size=8))
    assert _outcome(replay, geometry, head, visits) == _outcome(ref.replay, geometry, head, visits)


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
    scenario = _sweeps_up(scenario)
    for variant in SWEEP_NAMES:
        for use_hints, direction in ((True, "up"), (False, "down")):
            order, legs = _plan(scenario, variant, use_hints)
            assert (order, _via(legs)) == ref._sweep_plan(scenario, variant, direction), (variant, direction)
    for algorithm, reference in ref.PLANS.items():
        order, legs = _plan(scenario, algorithm, False)
        assert (order, _via(legs)) == reference(scenario), algorithm


@settings(max_examples=300, deadline=None)
@given(_queues(), st.data())
def test_sstf_legs_read_the_per_group_order_in_runs_that_cannot_merge(scenario, data):
    # The head inside the median window, so mrsa takes its SSTF branch.
    tracks = sorted(scenario.tracks)
    track = data.draw(st.integers(tracks[(len(tracks) - 1) // 2], tracks[len(tracks) // 2]))
    scenario = dataclasses.replace(scenario, initial_head=scenario.initial_head._replace(track=track))
    ring = scenario.sweeps[2]
    n = len(scenario.requests)
    for algorithm in ("sstf", "mrsa"):
        order, legs = _plan(scenario, algorithm, False)
        assert [rank for a, b, _ in legs for rank in ring[a:b]] == order == ref._sstf_plan(scenario)[0], algorithm
        assert _via(legs) == {} and all(a < b for a, b, _ in legs), algorithm
        # Ring index i >= n - 1 is up position 2n - 2 - i, on the way back.
        assert sorted(i if i < n else 2 * n - 2 - i for a, b, _ in legs for i in range(a, b)) == list(range(n))
        # Two runs read the same way in a row would have been one leg; only
        # where the ring turns (b == n) can a run up and the next run down meet.
        for (_, b, _), (next_a, _, _) in zip(legs, legs[1:]):
            assert next_a != b or b == n, legs


def test_walks_without_legs_leave_the_sweep_layout_unbuilt():
    scenario = generate(DiskGeometry(4, 200, 8), GeneratorParams(7, seed=3, bad_count=2))
    for price in (lambda s: run_scheduler(s, "fcfs"), lambda s: run_scheduler(s, "modsbsm"), optimal_order):
        fresh = dataclasses.replace(scenario)
        price(fresh)
        assert not {"sweep_layout", "bad_positions"} & vars(fresh).keys(), price
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
        "coverage: PhysicalAddress(track=200, platter=2, sector=3) requested 0 times, visited 1",
    ]


def test_verify_trace_lists_the_repeated_and_the_missing_address():
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
        "coverage: PhysicalAddress(track=52, platter=1, sector=1) requested 1 times, visited 2",
        "coverage: PhysicalAddress(track=60, platter=2, sector=3) requested 1 times, visited 0",
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
        req._replace(op=OPS[w]) for req, w in zip(scenario.requests, writes)
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


@st.composite
def flawed_queues(draw):
    """A geometry, a head and a queue with requests off the disk and/or out of rank."""
    geometry = DiskGeometry(
        draw(st.integers(1, 3)), draw(st.integers(1, 12)), draw(st.integers(1, 8))
    )
    picks = draw(st.lists(_addresses(geometry), min_size=1, max_size=16))
    requests = [MemoryRequest(a, arrival_rank=i) for i, a in enumerate(picks)]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(requests) - 1))
        flaw = draw(st.sampled_from(("address", "rank", "both")))
        if flaw != "rank":
            requests[i] = requests[i]._replace(address=draw(_outside(geometry)))
        if flaw != "address":
            rank = draw(st.integers(0, 20).filter(lambda r: r != i))
            requests[i] = requests[i]._replace(arrival_rank=rank)
    return geometry, draw(_addresses(geometry)), tuple(requests)


@settings(deadline=None)
@given(flawed_queues())
def test_column_checks_raise_the_per_request_loops_first_error(queue):
    geometry, head, requests = queue
    with pytest.raises(ScenarioError) as want:
        ref.check_requests(geometry, requests)
    with pytest.raises(ScenarioError) as got:
        Scenario(geometry=geometry, initial_head=head, requests=requests)
    assert (str(got.value), got.value.entry) == (str(want.value), want.value.entry)


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
    # The first request's address is bad, and requested once at every size
    # (generate samples without replacement): each baseline retries and
    # abandons one rank, MODSBSM tables one entry, and verify_trace still
    # checks the fault-free scenario's exact counts on the replay.  A head
    # on the edge track picks the same plan kind (mrsa's sweep) at every size.
    faulty = dataclasses.replace(
        scenario,
        initial_head=PhysicalAddress(0, 1, 0),
        faults=(FaultSpec(scenario.addresses[0], 1),),
    )

    def run(faulty):
        steps = replay(geometry, scenario.initial_head, scenario.addresses)
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


def test_no_python_call_per_request_when_checking_a_queue():
    counts = []
    for n in (10**3, 10**4):
        scenario = generate(DiskGeometry(4, 1000, 16), GeneratorParams(request_count=n, seed=3))
        head, requests = scenario.initial_head, scenario.requests
        counts.append(_calls(Scenario, scenario.geometry, head, requests))
    small, large = counts
    assert small == large
