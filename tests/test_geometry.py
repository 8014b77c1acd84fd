import pytest
from hypothesis import given, strategies as st

from plattersim.geometry import (
    DiskGeometry,
    GeometryBoundsError,
    IndexSyntaxError,
    PhysicalAddress,
    parse_index,
    render_index,
    validate,
)


def test_parse_index_examples():
    assert parse_index("15t1p2s") == PhysicalAddress(15, 1, 2)
    assert parse_index("140t1p0s") == PhysicalAddress(140, 1, 0)
    assert parse_index("196t4p7s") == PhysicalAddress(196, 4, 7)


def test_parse_accepts_whitespace_and_leading_zeros():
    assert parse_index("  015t1p2s ") == PhysicalAddress(15, 1, 2)
    assert render_index(parse_index("015t01p02s")) == "15t1p2s"


@pytest.mark.parametrize(
    "text,field",
    [
        ("x15t1p2s", "track"),
        ("15t", "platter"),
        ("15t1p", "sector"),
        ("15t1p2", "sector"),
        ("15t1p2s9", "trailing"),
        ("", "track"),
    ],
)
def test_parse_rejects_malformed(text, field):
    with pytest.raises(IndexSyntaxError) as exc:
        parse_index(text)
    assert field in str(exc.value)


def test_render_is_canonical():
    assert render_index(PhysicalAddress(0, 1, 0)) == "0t1p0s"
    assert render_index(PhysicalAddress(199, 4, 7)) == "199t4p7s"


@given(
    track=st.integers(min_value=0, max_value=10_000),
    platter=st.integers(min_value=1, max_value=64),
    sector=st.integers(min_value=0, max_value=255),
)
def test_round_trip(track, platter, sector):
    addr = PhysicalAddress(track, platter, sector)
    assert parse_index(render_index(addr)) == addr


def test_address_component_validation():
    with pytest.raises(ValueError):
        PhysicalAddress(-1, 1, 0)
    with pytest.raises(ValueError):
        PhysicalAddress(0, 0, 0)  # platters are numbered from 1
    with pytest.raises(ValueError):
        PhysicalAddress(0, 1, -3)


triples = st.tuples(st.integers(0, 300), st.integers(1, 8), st.integers(0, 64))


@given(st.lists(triples, max_size=30))
def test_address_hashes_and_sorts_as_its_field_tuple(fields):
    addresses = [PhysicalAddress(*f) for f in fields]
    assert [hash(a) for a in addresses] == [hash(f) for f in fields]
    assert [tuple(a) for a in sorted(addresses)] == sorted(fields)


def test_address_record_semantics():
    a = PhysicalAddress(track=15, platter=1, sector=2)
    assert a == PhysicalAddress(15, 1, 2) == (15, 1, 2)
    assert repr(a) == "PhysicalAddress(track=15, platter=1, sector=2)"
    with pytest.raises(AttributeError):
        a.track = 16
    for track, platter, sector in [(-1, 1, 0), (0, 0, 0), (0, 1, -1)]:
        with pytest.raises(ValueError):
            PhysicalAddress(track=track, platter=platter, sector=sector)


def test_geometry_validation():
    with pytest.raises(ValueError):
        DiskGeometry(0, 200, 8)
    with pytest.raises(ValueError):
        DiskGeometry(4, 0, 8)
    with pytest.raises(ValueError, match="sectors_per_track must be >= 1, got 0"):
        DiskGeometry(1, 10, 0)
    geom = DiskGeometry(4, 200, 8)
    assert geom.address_count == 4 * 200 * 8


@pytest.mark.parametrize(
    "addr,component",
    [
        (PhysicalAddress(200, 1, 0), "track"),
        (PhysicalAddress(0, 5, 0), "platter"),
        (PhysicalAddress(0, 1, 8), "sector"),
    ],
)
def test_validate_names_offending_component(addr, component):
    geom = DiskGeometry(4, 200, 8)
    with pytest.raises(GeometryBoundsError) as exc:
        validate(geom, addr)
    assert exc.value.component == component


def test_validate_accepts_boundary_values():
    geom = DiskGeometry(4, 200, 8)
    validate(geom, PhysicalAddress(0, 1, 0))
    validate(geom, PhysicalAddress(199, 4, 7))
