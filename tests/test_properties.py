"""Bad-sector invariants on raw scenarios with repeated addresses.

``generate`` samples addresses without replacement, so these scenarios are
built directly: a small address pool makes the queue repeat addresses,
some of them bad, with writes, one to three platters, any sector count and
any head position.
"""

from hypothesis import given, settings, strategies as st

from plattersim.faults import FaultModel, FaultSpec
from plattersim.geometry import DiskGeometry, PhysicalAddress
from plattersim.metrics import replay, totals
from plattersim.modsbsm import PROBE_LIMIT, execute
from plattersim.oracle import verify_trace
from plattersim.schedulers import ALGORITHM_NAMES, run_scheduler
from plattersim.workload import MemoryRequest, Scenario


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
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=10))
    ops = draw(st.lists(st.sampled_from("rw"), min_size=len(picks), max_size=len(picks)))
    bad = draw(st.lists(st.sampled_from(pool), unique=True, max_size=len(pool)))
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
def test_bad_addresses_probed_at_most_three_times_and_traces_verify(scenario):
    fault_model = FaultModel(scenario.faults)
    result = execute(scenario, fault_model)
    for spec in scenario.faults:
        assert fault_model.probe_count(spec.address) <= PROBE_LIMIT
    ranks = list(range(len(scenario.requests)))
    assert sorted(result.order) == ranks
    assert result.totals == totals(replay(scenario.geometry, scenario.initial_head, result.visits))

    for algorithm in ALGORITHM_NAMES:
        run = run_scheduler(scenario, algorithm)
        assert sorted(run.order) == ranks, algorithm
        assert run.totals == totals(run.steps), algorithm
        assert verify_trace(scenario, run.steps, run.totals) == [], algorithm
