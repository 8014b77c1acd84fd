import pytest

from plattersim.faults import FaultModel, FaultSpec
from plattersim.geometry import PhysicalAddress


def test_fault_model_counts_probes_of_bad_addresses():
    bad = PhysicalAddress(5, 1, 3)
    good = PhysicalAddress(6, 1, 0)
    model = FaultModel([FaultSpec(bad, 1)])
    model.access(good)
    assert model.probe_count(good) == 0
    for expected in (1, 2, 3):
        model.access(bad)
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
