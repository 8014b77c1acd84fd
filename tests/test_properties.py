"""Properties of raw scenarios that ``generate`` cannot produce.

``generate`` samples addresses without replacement, so these scenarios are
built directly.  Bad-sector invariants: a small address pool makes the
queue repeat addresses, some of them bad, with writes, one to three
platters, any sector count and any head position; one address is always
requested at least three times and is usually bad, and the fault table
sometimes names one address that no request asks for, when the disk has
one.  SSTF: a small track pool makes equidistant neighbours, repeated
tracks and a head on, below or above the pending tracks common, and the
queue arrives ascending, descending or at random.  Parser: the bad-sector
scenarios plus drawn direction hints round-trip through their text, and
one injected content error is reported at its own line wherever the
geometry line sits.  Content checks: scenario parts with ops, ranks and
bits in and out of range, and queues empty or not, either fail at their
first bad entry or round-trip through their text.  MODSBSM: the bad-sector scenarios, and the same with
the head on an edge track, run the same as the request-object reference
engine, fresh, warm and after every baseline; two fixed scenarios send the
first pass up and down past a bad address requested four times.  Seek
floor: on all three kinds of scenario, with their faults and without, no
scheduler seeks less than ``reference_loops.seek_floor`` with
its sweeps going either way, and the nearer-extreme walks meet the floor
when no request is to a bad address.  Tampering: every scheduler's trace
on the bad-sector scenarios, with one visit of a clean address repeated or
dropped, an address no request names inserted, or a wrong request count,
and re-priced, is refused by ``verify_trace`` by that address or count.
"""

from dataclasses import replace
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_loops as ref
from plattersim.geometry import DiskGeometry, PhysicalAddress, render_index
from plattersim.metrics import replay, totals
from plattersim.modsbsm import PROBE_LIMIT, FaultModel, execute
from plattersim.oracle import verify_trace
from plattersim.schedulers import ALGORITHM_NAMES, BASELINE_NAMES, run_scheduler
from plattersim.workload import (
    DIRECTION_HINT_NAMES,
    DIRECTIONS,
    FaultSpec,
    MemoryRequest,
    Scenario,
    ScenarioError,
    parse_scenario,
    render_scenario,
)


@st.composite
def scenarios(draw):
    geometry = DiskGeometry(
        draw(st.integers(1, 3)), draw(st.integers(1, 12)), draw(st.integers(1, 8))
    )
    address = st.builds(
        PhysicalAddress,
        st.integers(0, geometry.num_tracks - 1),
        st.integers(1, geometry.num_platters),
        st.integers(0, geometry.sectors_per_track - 1),
    )
    pool = draw(st.lists(address, min_size=1, max_size=4, unique=True))
    # Every pool address is requested at least once, and one of them 2-5
    # more times, so repeats come on top of a queue that spans the pool.
    # The repeated address is bad unless a drawn boolean keeps it clean:
    # that is the case the probe cap is about.
    repeated = draw(st.sampled_from(pool))
    extra = [repeated] * draw(st.integers(2, 5))
    extra += draw(st.lists(st.sampled_from(pool), max_size=10))
    picks = draw(st.permutations(pool + extra))
    ops = draw(st.lists(st.sampled_from("rw"), min_size=len(picks), max_size=len(picks)))
    bad = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
    if repeated not in bad and not draw(st.booleans()):
        bad.append(repeated)
    # Sometimes a bad address outside the queue, on which no visit fails.
    disk = product(
        range(geometry.num_tracks),
        range(1, geometry.num_platters + 1),
        range(geometry.sectors_per_track),
    )
    outside = [a for a in map(PhysicalAddress._make, disk) if a not in pool]
    if outside and draw(st.booleans()):
        bad.append(draw(st.sampled_from(outside)))
    return Scenario(
        geometry=geometry,
        initial_head=draw(address),
        requests=tuple(
            MemoryRequest(address=a, op=op, arrival_rank=i)
            for i, (a, op) in enumerate(zip(picks, ops))
        ),
        faults=tuple(FaultSpec(a, draw(st.integers(0, 1))) for a in bad),
    )


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_requested_bad_addresses_probed_exactly_three_times_and_traces_verify(scenario):
    fault_model = FaultModel(scenario.faults)
    result = execute(scenario, fault_model)
    requested_bad = {spec.address for spec in scenario.faults} & scenario.requested.keys()
    for spec in scenario.faults:
        expected = PROBE_LIMIT if spec.address in requested_bad else 0
        assert fault_model.probe_count(spec.address) == expected
    assert set(result.resolved) == requested_bad
    requests = len(scenario.requests)
    ranks = list(range(requests))
    assert sorted(result.order) == ranks
    replayed = replay(scenario.geometry, scenario.initial_head, result.visits)
    assert result.totals == totals(replayed, requests)

    for algorithm in ALGORITHM_NAMES:
        run = run_scheduler(scenario, algorithm)
        assert sorted(run.order) == ranks, algorithm
        assert run.totals == totals(run.steps, requests), algorithm
        assert bool(run.note) == bool(run.abandoned), algorithm
        assert verify_trace(scenario, run.steps, run.totals) == [], algorithm


@settings(max_examples=200, deadline=None)
@given(scenarios(), st.data())
def test_a_tampered_trace_is_refused_by_address_or_count(scenario, data):
    # Each tamper is re-priced as a genuine trace would be, so only coverage
    # or the ADAT divisor can tell it from a run's own.
    n = len(scenario.requests)
    g = scenario.geometry
    disk = product(range(g.num_tracks), range(1, g.num_platters + 1), range(g.sectors_per_track))
    unrequested = [a for a in map(PhysicalAddress._make, disk) if a not in scenario.requested]
    bad = {spec.address for spec in scenario.faults}
    for algorithm in ALGORITHM_NAMES:
        visits = list(run_scheduler(scenario, algorithm).visits)
        tampers = []
        clean = [k for k, a in enumerate(visits) if a not in bad]
        if clean:
            k = data.draw(st.sampled_from(clean))
            a, r = visits[k], scenario.requested[visits[k]]
            line = f"coverage: {a} requested {r} times, visited"
            tampers.append((visits[: k + 1] + visits[k:], n, f"{line} {r + 1}"))  # repeated
            tampers.append((visits[:k] + visits[k + 1 :], n, f"{line} {r - 1}"))  # dropped
        if unrequested:
            a, k = data.draw(st.sampled_from(unrequested)), data.draw(st.integers(0, len(visits)))
            tampers.append((visits[:k] + [a] + visits[k:], n, f"coverage: {a} requested 0 times, visited 1"))
        wrong = data.draw(st.integers(1, 2 * n + 1).filter(lambda count: count != n))
        tampers.append((visits, wrong, f"totals: request_count {wrong} != queue length {n}"))
        for tampered, count, message in tampers:
            steps = replay(g, scenario.initial_head, tampered)
            assert message in verify_trace(scenario, steps, totals(steps, count)), (algorithm, message)


@st.composite
def edge_head_scenarios(draw):
    scenario = draw(scenarios())
    edge = draw(st.sampled_from((0, scenario.geometry.num_tracks - 1)))
    return replace(scenario, initial_head=scenario.initial_head._replace(track=edge))


def _four_bad_requests(head_track):
    """A bad address requested four times between clean ones: the first pass answers one from its table."""
    bad = PhysicalAddress(5, 1, 3)
    picks = [(2, 1, 0), bad, (9, 2, 5), bad, (11, 1, 1), bad, (5, 2, 3), bad, (2, 2, 7)]
    return Scenario(
        geometry=DiskGeometry(2, 12, 8),
        initial_head=PhysicalAddress(head_track, 2, 6),
        requests=tuple(MemoryRequest(PhysicalAddress(*a), "r", i) for i, a in enumerate(picks)),
        faults=(FaultSpec(bad, 1),),
    )


@settings(max_examples=300, deadline=None)
@given(st.one_of(scenarios(), edge_head_scenarios()))
@example(_four_bad_requests(1))  # the first pass goes up
@example(_four_bad_requests(11))  # and down
def test_execute_matches_the_request_object_reference(scenario):
    ref_faults = FaultModel(scenario.faults)
    order, visits, steps, decisions, entries = ref.modsbsm_execute(scenario, ref_faults)
    bad = [spec.address for spec in scenario.faults]
    # Twice on one scenario, then once more after every baseline has filled
    # the scenario's cached columns: no run may leave anything behind.
    for others in ((), (), BASELINE_NAMES):
        for algorithm in others:
            run_scheduler(scenario, algorithm)
        fault_model = FaultModel(scenario.faults)
        result = execute(scenario, fault_model)
        assert list(result.order) == order
        assert list(result.visits) == visits
        assert list(result.steps) == steps
        assert result.totals == totals(steps, len(scenario.requests))
        assert list(result.decisions) == decisions
        assert [(e.index, e.prescribed_bit, e.finalized) for e in result.bad_sector_table] == entries
        assert list(map(fault_model.probe_count, bad)) == list(map(ref_faults.probe_count, bad))


def _sstf_reference(scenario):
    """SSTF by rescanning every pending track at every step (quadratic)."""
    qa = scenario.queue_ascending
    remaining = {}
    for req in scenario.requests:
        remaining.setdefault(req.address.track, []).append(req.arrival_rank)
    order = []
    cur = scenario.initial_head.track
    moving_up = qa
    while remaining:
        t = min(remaining, key=lambda x: (abs(x - cur), x))
        if t != cur:
            moving_up = t > cur
        ranks = remaining.pop(t)
        order.extend(ranks if moving_up == qa else ranks[::-1])
        cur = t
    return order


@st.composite
def track_scenarios(draw):
    # Evenly spaced pools make equidistant neighbours common.
    gap = draw(st.integers(1, 3))
    steps = draw(st.one_of(
        st.integers(1, 5).map(range),
        st.lists(st.integers(0, 5), min_size=1, max_size=5, unique=True),
    ))
    offset = draw(st.integers(0, 3))
    pool = [offset + gap * k for k in steps]
    geometry = DiskGeometry(
        draw(st.integers(1, 3)), draw(st.integers(max(pool) + 1, 24)), draw(st.integers(1, 8))
    )
    top = geometry.num_tracks - 1
    tracks = draw(st.permutations(pool + draw(st.lists(st.sampled_from(pool), max_size=7))))
    arrival = draw(st.sampled_from(["ascending", "descending", "random"]))
    if arrival != "random":
        tracks.sort(reverse=arrival == "descending")
    head_track = draw(st.one_of(
        st.sampled_from(pool),
        st.sampled_from([(a + b) // 2 for a in pool for b in pool]),
        st.integers(0, min(pool)),
        st.integers(max(pool), top),
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
        requests=tuple(
            MemoryRequest(address=address(t), arrival_rank=i) for i, t in enumerate(tracks)
        ),
    )


@settings(max_examples=300, deadline=None)
@given(track_scenarios())
def test_sstf_and_mrsa_match_the_rescanning_reference(scenario):
    reference = _sstf_reference(scenario)
    assert list(run_scheduler(scenario, "sstf").order) == reference
    tracks = sorted(scenario.tracks)
    low, high = tracks[(len(tracks) - 1) // 2], tracks[len(tracks) // 2]
    if low <= scenario.initial_head.track <= high:
        assert list(run_scheduler(scenario, "mrsa").order) == reference
    else:
        assert run_scheduler(scenario, "mrsa").order == run_scheduler(scenario, "odsa").order


# Schedulers that head for the nearer extreme first (smcc judges it by the
# span's midpoint), so on a fault-free queue they seek exactly the floor.
FLOOR_SEEKERS = ("modsbsm", "odsa", "hdsa", "smcc")


@settings(max_examples=300, deadline=None)
@given(st.one_of(scenarios(), edge_head_scenarios(), track_scenarios()))
def test_no_scheduler_seeks_below_the_floor(scenario):
    up = tuple((name, "up") for name in DIRECTION_HINT_NAMES)
    for faults in {scenario.faults, ()}:
        queue = replace(scenario, faults=faults, direction_hints=up)
        floor = ref.seek_floor(queue)
        fault_free = not any(queue.on_bad_address)
        for algorithm in ALGORITHM_NAMES:
            # A sweep runs up with the hints and down, the default, without.
            for use_hints in (True, False) if algorithm in DIRECTION_HINT_NAMES else (False,):
                tskt = run_scheduler(queue, algorithm, use_hints=use_hints).totals.tskt
                assert tskt >= floor, (algorithm, use_hints)
                if fault_free and algorithm in FLOOR_SEEKERS:
                    assert tskt == floor, algorithm


@st.composite
def hinted_scenarios(draw):
    hints = draw(st.lists(
        st.tuples(st.sampled_from(DIRECTION_HINT_NAMES), st.sampled_from(DIRECTIONS)),
        max_size=4,
        unique_by=lambda hint: hint[0],
    ))
    return replace(draw(scenarios()), direction_hints=tuple(hints))


@settings(max_examples=100, deadline=None)
@given(hinted_scenarios())
def test_raw_scenarios_round_trip_through_text(scenario):
    assert parse_scenario(render_scenario(scenario)) == scenario


def _first_bad_entry(requests, faults):
    """The entry ``Scenario`` must name for these in-bounds parts, or None."""
    for i, (_, op, rank) in enumerate(requests):
        if op not in ("r", "w") or rank != i:
            return ("request", i)
    seen = set()
    for i, (address, bit) in enumerate(faults):
        if str(bit) not in ("0", "1") or address in seen:
            return ("bad", i)
        seen.add(address)
    return None


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_scenario_parts_either_fail_at_their_first_bad_entry_or_round_trip(data):
    draw = data.draw
    geometry = DiskGeometry(draw(st.integers(1, 2)), draw(st.integers(1, 6)), draw(st.integers(1, 4)))
    address = st.builds(
        PhysicalAddress,
        st.integers(0, geometry.num_tracks - 1),
        st.integers(1, geometry.num_platters),
        st.integers(0, geometry.sectors_per_track - 1),
    )
    # In-range parts, then up to two ops, ranks and bits each put out of
    # range; the queue may be empty.
    n, k = draw(st.integers(0, 5)), draw(st.integers(0, 3))
    ops = draw(st.lists(st.sampled_from("rw"), min_size=n, max_size=n))
    ranks = list(range(n))
    bits = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
    for column, wrong in ((ops, ("x", "R", "")), (ranks, (-1, n)), (bits, (-1, 2, True, 1.0))):
        for i in draw(st.sets(st.integers(0, len(column) - 1), max_size=2)) if column else ():
            column[i] = draw(st.sampled_from(wrong))
    addresses = draw(st.lists(address, min_size=n + k, max_size=n + k))
    requests = tuple(map(MemoryRequest._make, zip(addresses, ops, ranks)))
    faults = tuple(map(FaultSpec._make, zip(addresses[n:], bits)))
    expected = _first_bad_entry(requests, faults)
    head = draw(address)
    if expected is None and requests:
        scenario = Scenario(geometry, head, requests, faults)
        assert parse_scenario(render_scenario(scenario)) == scenario
    else:
        with pytest.raises(ScenarioError) as exc:
            Scenario(geometry, head, requests, faults)
        assert exc.value.entry == expected


ERROR_KINDS = (
    "head", "request", "bad", "duplicate bad", "unknown hint", "bad direction", "duplicate hint"
)


@settings(max_examples=200, deadline=None)
@given(hinted_scenarios(), st.sampled_from(ERROR_KINDS), st.data())
def test_an_injected_content_error_names_its_line(scenario, kind, data):
    g = scenario.geometry
    lines = render_scenario(scenario).splitlines()
    geometry_line = lines.pop(0)

    def insert(text):
        lines.insert(data.draw(st.integers(0, len(lines))), text)

    # The error is reported at the occurrence-th line starting with prefix.
    occurrence = 0
    if kind in ("head", "request", "bad"):
        component = data.draw(st.sampled_from(("track", "platter", "sector")))
        address = {
            "track": f"{g.num_tracks}t1p0s",
            "platter": f"0t{g.num_platters + 1}p0s",
            "sector": f"0t1p{g.sectors_per_track}s",
        }[component]
        prefix, fragment = f"{kind} {address}", f"{kind}: {component} "
        if kind == "head":
            lines[0] = prefix
        else:
            insert(prefix + (" bit=0" if kind == "bad" else ""))
    elif kind == "duplicate bad":
        address = render_index(scenario.initial_head)
        prefix, fragment, occurrence = f"bad {address} ", f"duplicate bad entry for {address}", 1
        insert(prefix + "bit=0")
        if scenario.initial_head not in {spec.address for spec in scenario.faults}:
            insert(prefix + "bit=1")
    elif kind == "unknown hint":
        prefix, fragment = "direction sstf=up", "unknown scheduler 'sstf'"
        insert(prefix)
    elif kind == "bad direction":
        prefix, fragment = "direction scan=sideways", "got 'sideways'"
        insert(prefix)
    else:
        name = scenario.direction_hints[0][0] if scenario.direction_hints else "scan"
        prefix, fragment, occurrence = f"direction {name}=", f"duplicate direction hint for {name}", 1
        insert(prefix + "up")
        if not scenario.direction_hints:
            insert(prefix + "down")
    insert(geometry_line)
    expected = [n for n, text in enumerate(lines, 1) if text.startswith(prefix)][occurrence]

    try:
        parse_scenario("\n".join(lines))
    except ScenarioError as exc:
        assert exc.line == expected, (str(exc), lines)
        assert str(exc).startswith(f"line {expected}: ") and fragment in str(exc)
    else:
        raise AssertionError(f"{kind} error was accepted: {lines}")
