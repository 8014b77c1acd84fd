"""Cost-model tests.

The rotational rule, priced by the column kernel ``step_costs`` that every
run uses, is checked against an independent brute-force oracle (literally
stepping the platter forward one sector at a time) before any frozen
values, so a regression in the modular arithmetic can't hide.
"""

import pytest
from hypothesis import given, strategies as st

from plattersim import totals_csv, trace_csv
from plattersim.geometry import DiskGeometry, PhysicalAddress
from plattersim.metrics import (
    AccessTotals,
    SchedulerRun,
    ServiceStep,
    Trace,
    energy_saved,
    improvement,
    replay,
    step_costs,
    totals,
)


def _spin_forward(prev, nxt, sectors):
    """Independent oracle: rotate one sector at a time until we arrive."""
    steps = 0
    cur = prev
    while cur != nxt:
        cur = (cur + 1) % sectors
        steps += 1
    return steps


def _latency(prev, nxt, sectors):
    """The latency ``step_costs`` prices for one step between two sectors."""
    _, (latency,), _ = step_costs(sectors, ([0, 0], [1, 1], [prev, nxt]))
    return latency


def test_rotational_delta_matches_brute_force_everywhere():
    for prev in range(8):
        for nxt in range(8):
            assert _latency(prev, nxt, 8) == _spin_forward(prev, nxt, 8)
    # One walk through every (prev, next) pair prices each step the same way.
    sectors = [s for prev in range(8) for nxt in range(8) for s in (prev, nxt)]
    _, latencies, _ = step_costs(8, ([0] * len(sectors), [1] * len(sectors), sectors))
    assert list(latencies) == [_spin_forward(a, b, 8) for a, b in zip(sectors, sectors[1:])]


def test_rotational_delta_examples():
    assert _latency(4, 4, 8) == 0  # same sector costs nothing
    assert _latency(6, 4, 8) == 6
    assert _latency(7, 2, 8) == 3


@given(
    sectors=st.integers(min_value=1, max_value=32),
    data=st.data(),
)
def test_rotational_delta_bounds_and_oracle(sectors, data):
    prev = data.draw(st.integers(min_value=0, max_value=sectors - 1))
    nxt = data.draw(st.integers(min_value=0, max_value=sectors - 1))
    delta = _latency(prev, nxt, sectors)
    assert 0 <= delta < sectors
    assert delta == _spin_forward(prev, nxt, sectors)


def test_transfer_cost():
    _, _, transfers = step_costs(8, ([0] * 5, [1, 1, 2, 4, 1], [0] * 5))
    assert list(transfers) == [1, 2, 3, 4]
    for prev, nxt, want in ((1, 1, 1), (1, 2, 2), (1, 4, 4), (4, 1, 4)):
        _, _, (transfer,) = step_costs(8, ([0, 0], [prev, nxt], [0, 0]))
        assert transfer == want


def test_replay_hand_example():
    # Worked by hand: head 50t1p0s then 52t1p1s, 52t1p3s, 40t1p0s.
    geom = DiskGeometry(4, 100, 8)
    head = PhysicalAddress(50, 1, 0)
    visits = [
        PhysicalAddress(52, 1, 1),
        PhysicalAddress(52, 1, 3),
        PhysicalAddress(40, 1, 0),
    ]
    steps = replay(geom, head, visits)
    assert [(s.seek, s.latency, s.transfer) for s in steps] == [
        (2, 1, 1),
        (0, 2, 1),
        (12, 5, 1),
    ]
    t = totals(steps)
    assert (t.tskt, t.trl, t.tdtt, t.tdat) == (14, 8, 3, 25)
    assert t.request_count == 3


def test_replay_rejects_out_of_bounds():
    geom = DiskGeometry(1, 10, 8)
    with pytest.raises(ValueError):
        replay(geom, PhysicalAddress(0, 1, 0), [PhysicalAddress(10, 1, 0)])


def test_totals_identity_and_adat_formatting():
    t = AccessTotals(tskt=204, trl=62, tdtt=20, request_count=20)
    assert t.tdat == 286
    assert t.adat_text == "14.30"
    assert AccessTotals(223, 75, 49, 20).adat_text == "17.35"
    assert AccessTotals(223, 51, 45, 20).adat_text == "15.95"
    assert AccessTotals(0, 0, 22, 22).adat_text == "1.00"
    with pytest.raises(ValueError, match="request_count must be >= 1"):
        AccessTotals(1, 1, 1, 0)


def test_adat_is_exact_internally():
    from fractions import Fraction

    assert AccessTotals(204, 62, 20, 20).adat == Fraction(286, 20)


def test_improvement_examples():
    vs_traditional = improvement([38.66, 18.03, 20.02, 24.61, 18.48, 21.99], 15.72)
    assert round(vs_traditional, 1) == 33.5
    vs_referred = improvement([16.55, 16.73, 18.60, 16.55, 16.53], 15.72)
    assert round(vs_referred, 1) == 7.5
    with pytest.raises(ValueError):
        improvement([], 1.0)
    with pytest.raises(ValueError, match="baseline mean is zero"):
        improvement([0.0], 1.0)


def test_energy_saved():
    assert energy_saved(5) == (300.0, 3.0)
    assert energy_saved(2) == (0.0, 0.0)
    assert energy_saved(10) == (800.0, 8.0)
    with pytest.raises(ValueError):
        energy_saved(1)


def test_trace_csv_round_trip():
    geom = DiskGeometry(4, 100, 8)
    steps = replay(
        geom,
        PhysicalAddress(50, 1, 0),
        [PhysicalAddress(52, 1, 1), PhysicalAddress(40, 2, 3)],
    )
    assert trace_csv(steps) == (
        "step,track,platter,sector,seek,latency,transfer,access\n"
        "1,52,1,1,2,1,1,4\n"
        "2,40,2,3,12,2,2,16\n"
    )


def test_trace_is_a_sequence_of_steps_built_on_access():
    geom = DiskGeometry(4, 100, 8)
    visits = [PhysicalAddress(52, 1, 1), PhysicalAddress(40, 2, 3), PhysicalAddress(40, 4, 3)]
    trace = replay(geom, PhysicalAddress(50, 1, 0), visits)
    rows = [
        ServiceStep(visits[0], 2, 1, 1),
        ServiceStep(visits[1], 12, 2, 2),
        ServiceStep(visits[2], 0, 0, 3),
    ]
    assert type(trace) is Trace and len(trace) == 3
    assert trace.visits == tuple(visits)
    assert (trace.seeks, trace.latencies, trace.transfers) == ((2, 12, 0), (1, 2, 0), (1, 2, 3))
    assert trace[0] == rows[0] and trace[-1] == rows[2] and trace[-2] == rows[1]
    assert type(trace[1]) is ServiceStep and trace[1].access == 16
    assert all(type(step) is ServiceStep for step in trace)
    assert list(trace) == rows
    with pytest.raises(IndexError):
        trace[3]

    tail = trace[1:]
    assert type(tail) is Trace and tail == rows[1:] and tail.visits == tuple(visits[1:])
    assert trace[::-1] == rows[::-1] and trace[5:] == []

    for other in (rows, tuple(rows), Trace.of(rows), Trace.of(iter(rows))):
        assert trace == other and other == trace and not trace != other
    changed = [rows[0], rows[1]._replace(latency=3), rows[2]]
    for other in (changed, tuple(changed), Trace.of(changed), rows[:2], "abc"):
        assert trace != other and other != trace
    assert trace != 3 and Trace.of(trace) is trace

    assert hash(trace) == hash(Trace.of(rows)) == hash(tuple(rows))
    first, second = (SchedulerRun("fcfs", (0, 1, 2), t, totals(t, 3)) for t in (trace, Trace.of(rows)))
    assert first == second and hash(first) == hash(second)
    assert first.visits == tuple(visits)


def test_traces_of_the_same_steps_are_equal_whatever_their_column_types():
    trace = replay(DiskGeometry(4, 100, 8), PhysicalAddress(50, 1, 0), [PhysicalAddress(52, 1, 1), PhysicalAddress(40, 2, 3)])
    lists = Trace(*map(list, (trace.visits, trace.seeks, trace.latencies, trace.transfers)))
    assert trace == lists and lists == trace and not trace != lists
    assert hash(trace) == hash(lists) and trace == tuple(lists)
    changed = Trace(list(trace.visits), list(trace.seeks), [1, 3], list(trace.transfers))
    assert trace != changed and changed != trace and trace != lists[:1]


def test_totals_csv_shape():
    t = AccessTotals(204, 78, 20, 20)
    text = totals_csv([("look", t)])
    assert text == "algorithm,tskt,trl,tdtt,tdat,adat\nlook,204,78,20,302,15.10\n"


def test_same_inputs_same_bytes():
    geom = DiskGeometry(2, 50, 8)
    visits = [PhysicalAddress(i, 1 + i % 2, (3 * i) % 8) for i in range(10)]
    first = trace_csv(replay(geom, PhysicalAddress(25, 1, 0), visits))
    second = trace_csv(replay(geom, PhysicalAddress(25, 1, 0), visits))
    assert first == second


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=500))
def test_steps_compose(a, b):
    step = ServiceStep(PhysicalAddress(a, 1, b % 8), seek=a, latency=b % 8, transfer=1)
    assert step.access == step.seek + step.latency + step.transfer


step_fields = st.tuples(
    st.builds(PhysicalAddress, st.integers(0, 9), st.integers(1, 3), st.integers(0, 7)),
    st.integers(0, 9),
    st.integers(0, 7),
    st.integers(1, 3),
)


@given(st.lists(step_fields, max_size=20))
def test_step_hashes_and_sorts_as_its_field_tuple(fields):
    steps = [ServiceStep(*f) for f in fields]
    assert [hash(s) for s in steps] == [hash(f) for f in fields]
    assert [tuple(s) for s in sorted(steps)] == sorted(fields)


def test_step_record_semantics():
    s = ServiceStep(address=PhysicalAddress(1, 2, 3), seek=4, latency=5, transfer=6)
    assert s == ServiceStep(PhysicalAddress(1, 2, 3), 4, 5, 6) == ((1, 2, 3), 4, 5, 6)
    assert s.access == 15
    assert repr(s) == (
        "ServiceStep(address=PhysicalAddress(track=1, platter=2, sector=3), "
        "seek=4, latency=5, transfer=6)"
    )
    with pytest.raises(AttributeError):
        s.seek = 0
