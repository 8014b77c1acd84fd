import pytest

from plattersim.faults import (
    FaultModel,
    FaultSpec,
    ProbeOutcome,
    savings_report,
)
from plattersim.geometry import PhysicalAddress
from plattersim.metrics import EnergyModel


def test_fault_model_counts_probes_of_bad_addresses():
    bad = PhysicalAddress(5, 1, 3)
    good = PhysicalAddress(6, 1, 0)
    model = FaultModel([FaultSpec(bad, 1)])
    assert model.access(good) is ProbeOutcome.READABLE
    assert model.probe_count(good) == 0
    for expected in (1, 2, 3):
        assert model.access(bad) is ProbeOutcome.UNREADABLE
        assert model.probe_count(bad) == expected
    assert model.true_bit(bad) == 1


def test_fault_model_names_a_duplicate_in_index_notation():
    addr = PhysicalAddress(5, 1, 1)
    with pytest.raises(ValueError, match=r"^duplicate fault entry for 5t1p1s$"):
        FaultModel([FaultSpec(addr, 0), FaultSpec(addr, 1)])


def test_fault_model_bad_addresses_is_a_read_only_view_of_the_table():
    bad = PhysicalAddress(5, 1, 3)
    model = FaultModel([FaultSpec(bad, 1)])
    assert list(model.bad_addresses) == [bad]
    assert PhysicalAddress(6, 1, 0) not in model.bad_addresses
    assert model.probe_count(bad) == 0  # looking is not probing
    with pytest.raises(AttributeError):
        model.bad_addresses.add(PhysicalAddress(6, 1, 0))


def test_fault_model_rejects_duplicates_and_bad_bits():
    addr = PhysicalAddress(1, 1, 1)
    with pytest.raises(ValueError):
        FaultModel([FaultSpec(addr, 0), FaultSpec(addr, 1)])
    with pytest.raises(ValueError):
        FaultSpec(addr, 2)


def test_savings_report_single_address():
    report = savings_report([PhysicalAddress(48, 1, 0)], projected_accesses=5)
    assert report.energy_total == 300.0
    assert report.heat_total == 3.0
    assert len(report.rows) == 1
    assert report.rows[0].energy == 300.0


def test_savings_report_scales_with_addresses_and_model():
    addresses = [PhysicalAddress(i, 1, 0) for i in range(3)]
    model = EnergyModel(energy_per_access=10.0, heat_per_access=2.0)
    report = savings_report(addresses, model, projected_accesses=4)
    assert report.energy_total == 3 * 10.0 * 2
    assert report.heat_total == 3 * 2.0 * 2


def test_savings_report_empty_and_domain_error():
    empty = savings_report([])
    assert empty.energy_total == 0.0 and empty.rows == ()
    with pytest.raises(ValueError):
        savings_report([PhysicalAddress(0, 1, 0)], projected_accesses=1)
