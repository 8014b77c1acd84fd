"""Disk geometry and the compact index notation for physical addresses.

An address names one sector on a multi-platter disk and is written
``<track>t<platter>p<sector>s``, e.g. ``15t1p2s`` for track 15, platter 1,
sector 2.  Tracks and sectors are numbered from zero; platters are numbered
from one.  Parsing takes ASCII digits and is tolerant of leading zeros;
rendering always produces the canonical form without them.  Bounds
checking is a separate step from parsing so callers can attach their own
context (file name, line number) to whichever one fails.

``PhysicalAddress`` is a named tuple, so hashing, equality and ordering run
in C.  It therefore compares equal to the plain tuple of its fields, and
``_replace``/``_make`` build addresses without the field checks (nothing in
the package calls them).
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from typing import Sequence

_INDEX_RE = re.compile(r"([0-9]+)t([0-9]+)p([0-9]+)s")
_PREFIX = r"([0-9]+t([0-9]+p([0-9]+s)?)?)?"  # how far a bad index reads: a group per field closed
_FIELDS = ("track", "platter", "sector", "trailing text after sector")


class IndexSyntaxError(ValueError):
    """Address text does not match ``<track>t<platter>p<sector>s``."""


class ParameterError(ValueError):
    """A caller's parameter is out of range: a disk shape, a generator setting, a read count."""


class GeometryBoundsError(ValueError):
    """An address component falls outside the disk geometry."""

    def __init__(self, component: str, value: int, low: int, high: int):
        self.component = component
        self.value = value
        self.low = low
        self.high = high
        super().__init__(f"{component} {value} out of range {low}..{high}")


@dataclass(frozen=True)
class DiskGeometry:
    """Shape of the disk: platter count, tracks per surface, sectors per track."""

    num_platters: int
    num_tracks: int
    sectors_per_track: int

    def __post_init__(self):
        if self.num_platters < 1:
            raise ParameterError(f"num_platters must be >= 1, got {self.num_platters}")
        if self.num_tracks < 1:
            raise ParameterError(f"num_tracks must be >= 1, got {self.num_tracks}")
        if self.sectors_per_track < 1:
            raise ParameterError(
                f"sectors_per_track must be >= 1, got {self.sectors_per_track}"
            )

    @property
    def address_count(self) -> int:
        return self.num_platters * self.num_tracks * self.sectors_per_track


class PhysicalAddress(namedtuple("PhysicalAddress", "track platter sector")):
    """One addressable sector: (track, platter, sector)."""

    __slots__ = ()

    def __new__(cls, track: int, platter: int, sector: int):
        if track < 0:
            raise ValueError(f"track must be >= 0, got {track}")
        if platter < 1:
            raise ValueError(f"platter is numbered from 1, got {platter}")
        if sector < 0:
            raise ValueError(f"sector must be >= 0, got {sector}")
        return tuple.__new__(cls, (track, platter, sector))


def parse_index(text: str) -> PhysicalAddress:
    """Parse ``<track>t<platter>p<sector>s`` into a PhysicalAddress.

    Leading zeros are accepted; use :func:`render_index` to canonicalize.
    """
    s = text.strip()
    m = _INDEX_RE.fullmatch(s)
    if m is None:
        field = _FIELDS[3 - re.match(_PREFIX, s).groups().count(None)]
        raise IndexSyntaxError(f"bad index {text!r}: expected <track>t<platter>p<sector>s ({field})")
    return PhysicalAddress(int(m.group(1)), int(m.group(2)), int(m.group(3)))


def render_index(address: PhysicalAddress) -> str:
    """Render an address in canonical ``<track>t<platter>p<sector>s`` form."""
    return f"{address.track}t{address.platter}p{address.sector}s"


def validate(geometry: DiskGeometry, address: PhysicalAddress) -> None:
    """Raise :class:`GeometryBoundsError` if the address is outside the disk."""
    if not 0 <= address.track < geometry.num_tracks:
        raise GeometryBoundsError("track", address.track, 0, geometry.num_tracks - 1)
    if not 1 <= address.platter <= geometry.num_platters:
        raise GeometryBoundsError("platter", address.platter, 1, geometry.num_platters)
    if not 0 <= address.sector < geometry.sectors_per_track:
        raise GeometryBoundsError(
            "sector", address.sector, 0, geometry.sectors_per_track - 1
        )


def within(geometry: DiskGeometry, columns: Sequence[Sequence[int]]) -> bool:
    """Whether all addresses in (track, platter, sector) columns pass :func:`validate`."""
    tops = (geometry.num_tracks - 1, geometry.num_platters, geometry.sectors_per_track - 1)
    return all(not col or (low <= min(col) and max(col) <= top)
               for col, low, top in zip(columns, (0, 1, 0), tops))
