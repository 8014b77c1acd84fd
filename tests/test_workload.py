import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from plattersim import workload
from plattersim.faults import FaultSpec
from plattersim.geometry import DiskGeometry, PhysicalAddress, parse_index
from plattersim.workload import (
    BUILTIN_CASE_IDS,
    GeneratorParams,
    MemoryRequest,
    Scenario,
    ScenarioError,
    builtin_case,
    generate,
    parse_scenario,
    render_scenario,
)


def test_builtin_cases_basic_shape():
    assert BUILTIN_CASE_IDS == (1, 2, 3, 4, 5, 6)
    for case_id in BUILTIN_CASE_IDS:
        sc = builtin_case(case_id)
        assert len(sc.requests) == 20
        assert sc.geometry == DiskGeometry(4, 200, 8)
        assert [req.arrival_rank for req in sc.requests] == list(range(20))
        assert not sc.faults


def test_builtin_case_2_contents():
    sc = builtin_case(2)
    assert sc.initial_head == PhysicalAddress(75, 1, 7)
    assert sc.requests[0].address == PhysicalAddress(185, 1, 5)
    assert sc.requests[-1].address == PhysicalAddress(28, 1, 7)
    # arrival tracks never increase in this queue
    tracks = sc.tracks
    assert all(a >= b for a, b in zip(tracks, tracks[1:]))
    assert dict(sc.direction_hints) == {
        "scan": "down", "cscan": "down", "look": "down", "clook": "down"
    }


def test_builtin_case_6_sweeps_upward():
    sc = builtin_case(6)
    assert sc.initial_head == PhysicalAddress(90, 1, 6)
    assert sc.hint("look") == "up"
    assert sc.hint("cscan") == "up"


def test_queue_direction_detection():
    assert builtin_case(1).queue_ascending
    assert not builtin_case(2).queue_ascending
    assert builtin_case(3).queue_ascending
    assert builtin_case(4).queue_ascending
    assert not builtin_case(5).queue_ascending
    assert builtin_case(6).queue_ascending


def test_all_same_track_queue_counts_as_ascending():
    geom = DiskGeometry(1, 10, 8)
    reqs = tuple(
        MemoryRequest(address=PhysicalAddress(5, 1, s), arrival_rank=i)
        for i, s in enumerate((1, 4, 2))
    )
    sc = Scenario(geometry=geom, initial_head=PhysicalAddress(0, 1, 0), requests=reqs)
    assert sc.queue_ascending


def test_unknown_case_id():
    with pytest.raises(ValueError):
        builtin_case(7)


def test_render_parse_round_trip_for_all_cases():
    for case_id in BUILTIN_CASE_IDS:
        sc = builtin_case(case_id)
        assert parse_scenario(render_scenario(sc)) == sc


def test_render_is_stable():
    sc = builtin_case(3)
    assert render_scenario(sc) == render_scenario(builtin_case(3))


def test_parse_comments_blanks_and_op():
    text = """
# a scenario
geometry platters=2 tracks=100 sectors=8

head 10t1p0s   # trailing comment
request 5t1p3s
request 6t2p1s op=w
bad 5t1p3s bit=1
direction scan=up
"""
    sc = parse_scenario(text)
    assert sc.requests[1].op == "w"
    assert sc.requests[0].op == "r"
    assert sc.faults[0].true_bit == 1
    assert sc.hint("scan") == "up"
    # ops round-trip, default op is omitted
    rendered = render_scenario(sc)
    assert "request 6t2p1s op=w" in rendered
    assert "request 5t1p3s\n" in rendered


@pytest.mark.parametrize(
    "text,fragment,line",
    [
        ("head 1t1p1s\n", "missing geometry", None),
        ("geometry platters=1 tracks=10 sectors=8\n", "missing head", None),
        (
            "geometry platters=1 tracks=10 sectors=8\ngeometry platters=1 tracks=10 sectors=8\n",
            "geometry declared twice",
            2,
        ),
        (
            "geometry platters=1 tracks=10 sectors=8\nhead 1t1p1s\nhead 2t1p1s\n",
            "head declared twice",
            3,
        ),
        (
            "geometry platters=1 tracks=10 sectors=8\nhead 1t1p1s\nwibble 3t1p1s\n",
            "unknown directive",
            3,
        ),
        (
            "geometry platters=1 tracks=10 sectors=8\nhead 1t1p1s\nrequest 55t1p1s\n",
            "track 55 out of range 0..9",
            3,
        ),
        (
            "geometry platters=1 tracks=10 sectors=8\nhead 1t1p1s\nrequest 5t1p1s op=x\n",
            "op=r or op=w",
            3,
        ),
        (
            "geometry platters=1 tracks=10 sectors=8\nhead 1t1p1s\nbad 5t1p1s bit=2\n",
            "bit=0 or bit=1",
            3,
        ),
        (
            "geometry platters=1 tracks=10 sectors=8\nhead 1t1p1s\ndirection sstf=up\n",
            "unknown scheduler",
            3,
        ),
        (
            "geometry platters=1 tracks=10 sectors=8\nhead 1t1p1s\ndirection scan=sideways\n",
            "up or down",
            3,
        ),
        (
            "geometry platters=1 tracks=10 sectors=8\nhead 1t1p7s\nrequest 5t1p\n",
            "sector",
            3,
        ),
        (
            "geometry platters=1 tracks=10\nhead 1t1p1s\n",
            "platters=, tracks= and sectors=",
            1,
        ),
        (
            "geometry platters=1 tracks=10 sectors=8\nhead 1t1p1s\nrequest 5t0p1s\n",
            "platter is numbered from 1, got 0",
            3,
        ),
        (
            "geometry platters=1 tracks=10 sectors=8\nhead 1t0p1s\n",
            "platter is numbered from 1, got 0",
            2,
        ),
        (
            "geometry platters=1 tracks=10 sectors=8\nhead 1t1p1s\nbad 5t0p1s bit=1\n",
            "platter is numbered from 1, got 0",
            3,
        ),
        (
            "geometry platters=1 tracks=10 sectors=8\nhead 1t1p1s\nrequest 1t1p1s op=r x\n",
            "line 3: request takes an address and optional op=",
            3,
        ),
        (
            "geometry platters=1 tracks=10 sectors=8\nhead 2t1p1s 3t1p1s\n",
            "line 2: head takes exactly one address",
            2,
        ),
        (
            "geometry platters=1 tracks=10 sectors=8\nhead 1t1p1s\nbad 1t1p1s\n",
            "line 3: bad takes an address and bit=",
            3,
        ),
        (
            "geometry platters=1 tracks=10 sectors=8\nhead 1t1p1s\ndirection scan=up look=down\n",
            "line 3: direction takes one scheduler=up|down pair",
            3,
        ),
        (
            "geometry platters=1 tracks=10 sectors=8\nhead 1t1p1s\nbad 1t1p1s bit\n",
            "line 3: expected key=value, got 'bit'",
            3,
        ),
    ],
)
def test_parse_errors_carry_context(text, fragment, line):
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert fragment in str(exc.value)
    assert exc.value.line == line
    if line is not None:
        assert re.match(rf"line {line}: (?!line \d+:)", str(exc.value))


def test_non_integer_geometry_field_carries_one_line_prefix():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario("geometry platters=1 tracks=x sectors=8\nhead 0t1p0s\n")
    assert str(exc.value) == "line 1: tracks must be an integer, got 'x'"


def test_empty_scenario_parses_but_has_no_requests():
    sc = parse_scenario("geometry platters=1 tracks=10 sectors=8\nhead 0t1p0s\n")
    assert sc.requests == ()


def test_duplicate_bad_entry_rejected():
    text = (
        "geometry platters=1 tracks=10 sectors=8\nhead 1t1p1s\n"
        "bad 5t1p1s bit=0\nbad 5t1p1s bit=1\n"
    )
    with pytest.raises(ScenarioError, match="line 4: duplicate bad entry for 5t1p1s"):
        parse_scenario(text)


def test_on_bad_address_flags_each_rank_whose_address_is_in_the_fault_table():
    text = (
        "geometry platters=1 tracks=10 sectors=8\nhead 1t1p1s\n"
        "request 5t1p1s\nrequest 2t1p0s\nrequest 5t1p1s\nrequest 7t1p3s\n"
        "bad 5t1p1s bit=0\nbad 9t1p0s bit=1\n"
    )
    assert parse_scenario(text).on_bad_address == [True, False, True, False]


def test_duplicate_bad_entry_is_named_in_canonical_form():
    text = (
        "geometry platters=1 tracks=10 sectors=8\nhead 1t1p1s\n"
        "bad 5t1p1s bit=0\nbad 05t1p01s bit=1\n"
    )
    with pytest.raises(ScenarioError, match="^line 4: duplicate bad entry for 5t1p1s$"):
        parse_scenario(text)


def test_scenario_construction_checks_content_and_names_the_entry():
    geom = DiskGeometry(1, 10, 8)
    head = PhysicalAddress(1, 1, 1)
    reqs = tuple(
        MemoryRequest(address=PhysicalAddress(t, 1, 1), arrival_rank=i)
        for i, t in enumerate((3, 55))
    )
    with pytest.raises(ScenarioError) as exc:
        Scenario(geometry=geom, initial_head=head, requests=reqs)
    assert str(exc.value) == "request: track 55 out of range 0..9"
    assert exc.value.entry == ("request", 1)
    assert exc.value.line is None
    fault = FaultSpec(PhysicalAddress(5, 1, 1), 0)
    with pytest.raises(ScenarioError) as exc:
        Scenario(geometry=geom, initial_head=head, requests=reqs[:1], faults=(fault, fault))
    assert str(exc.value) == "duplicate bad entry for 5t1p1s"
    assert exc.value.entry == ("bad", 1)


def test_parse_index_runs_once_per_distinct_token(monkeypatch):
    tokens = Counter()

    def counted(token):
        tokens[token] += 1
        return parse_index(token)

    monkeypatch.setattr(workload, "parse_index", counted)
    text = (
        "geometry platters=1 tracks=10 sectors=8\nhead 5t1p1s\n"
        "request 05t1p1s\nrequest 2t1p0s op=w\nrequest 5t1p1s\nrequest 05t1p1s\n"
        "bad 2t1p0s bit=1\nbad 05t1p1s bit=0\nrequest 2t1p0s\n"
    )
    sc = parse_scenario(text)
    assert tokens == Counter({"5t1p1s": 1, "05t1p1s": 1, "2t1p0s": 1})
    five, two = sc.initial_head, sc.faults[0].address
    assert [a is five for a in sc.addresses] == [True, False, True, True, False]
    assert all(a is two for a in sc.addresses if a is not five)
    assert sc.faults[1].address is five


def test_an_out_of_bounds_token_on_two_request_lines_reports_the_first():
    text = (
        "geometry platters=1 tracks=10 sectors=8\nhead 1t1p1s\n"
        "request 2t1p1s\nrequest 12t1p1s\nrequest 3t1p1s\nrequest 12t1p1s\n"
    )
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(text)
    assert str(exc.value) == "line 4: request: track 12 out of range 0..9"
    assert (exc.value.line, exc.value.entry) == (4, ("request", 1))


_A = PhysicalAddress(1, 1, 1)


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((_A, "x"), {}, "op must be one of ('r', 'w'), got 'x'"),
        ((), {"address": _A, "op": "x"}, "op must be one of ('r', 'w'), got 'x'"),
        ((_A, "r", -1), {}, "arrival_rank must be >= 0"),
        ((), {"address": _A, "arrival_rank": -1}, "arrival_rank must be >= 0"),
    ],
)
def test_memory_request_rejects_an_unknown_op_and_a_negative_rank(args, kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MemoryRequest(*args, **kwargs)


def test_memory_request_is_the_tuple_of_its_fields():
    req = MemoryRequest(_A, arrival_rank=2)
    assert req == (_A, "r", 2)
    assert MemoryRequest(address=_A) == (_A, "r", 0)
    assert (req.address, req.op, req.arrival_rank) == (_A, "r", 2)
    # _replace and _make skip the checks.
    assert req._replace(op="x").op == "x"
    assert MemoryRequest._make((_A, "w", -1)).arrival_rank == -1


def test_ten_thousand_bad_lines_parse_within_two_seconds():
    lines = ["geometry platters=4 tracks=1000 sectors=8", "head 0t1p0s"]
    lines += [f"bad {i // 32}t{i // 8 % 4 + 1}p{i % 8}s bit={i % 2}" for i in range(10_000)]
    start = time.perf_counter()
    sc = parse_scenario("\n".join(lines))
    assert time.perf_counter() - start < 2.0
    assert len(sc.faults) == len({spec.address for spec in sc.faults}) == 10_000


# ---------------------------------------------------------------------------
# Generator


def test_generate_is_deterministic():
    geom = DiskGeometry(4, 200, 8)
    params = GeneratorParams(request_count=20, order="random", seed=99, bad_count=2)
    a = generate(geom, params)
    b = generate(geom, params)
    assert a == b
    assert render_scenario(a) == render_scenario(b)


def test_generate_orders():
    geom = DiskGeometry(4, 200, 8)
    asc = generate(geom, GeneratorParams(request_count=15, order="ascending", seed=7))
    tracks = asc.tracks
    assert list(tracks) == sorted(tracks)
    desc = generate(geom, GeneratorParams(request_count=15, order="descending", seed=7))
    assert list(desc.tracks) == sorted(desc.tracks, reverse=True)
    assert not desc.queue_ascending


def test_generate_distinct_addresses_and_faults_subset():
    geom = DiskGeometry(2, 30, 8)
    sc = generate(geom, GeneratorParams(request_count=25, order="random", seed=3, bad_count=5))
    addresses = [req.address for req in sc.requests]
    assert len(set(addresses)) == len(addresses)
    request_set = set(addresses)
    assert len(sc.faults) == 5
    for spec in sc.faults:
        assert spec.address in request_set
        assert spec.true_bit in (0, 1)


def test_generate_respects_capacity():
    geom = DiskGeometry(1, 2, 2)  # only 4 addressable sectors
    with pytest.raises(ValueError, match="exceeds"):
        generate(geom, GeneratorParams(request_count=5))


def test_generator_params_validation():
    with pytest.raises(ValueError):
        GeneratorParams(request_count=0)
    with pytest.raises(ValueError):
        GeneratorParams(request_count=5, order="sideways")
    with pytest.raises(ValueError):
        GeneratorParams(request_count=5, bad_count=6)
    with pytest.raises(ValueError):
        GeneratorParams(request_count=5, seed=-1)
    with pytest.raises(ValueError):
        GeneratorParams(request_count=5, seed=2**64)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    count=st.integers(min_value=1, max_value=30),
    order=st.sampled_from(("ascending", "descending", "random")),
)
def test_generated_scenarios_always_round_trip(seed, count, order):
    geom = DiskGeometry(4, 100, 8)
    sc = generate(geom, GeneratorParams(request_count=count, order=order, seed=seed))
    assert parse_scenario(render_scenario(sc)) == sc


def test_scenario_rejects_misnumbered_arrival_ranks():
    geom = DiskGeometry(1, 10, 8)
    reqs = (MemoryRequest(address=PhysicalAddress(5, 1, 0), arrival_rank=3),)
    with pytest.raises(ValueError, match="arrival_rank"):
        Scenario(geometry=geom, initial_head=PhysicalAddress(0, 1, 0), requests=reqs)
