"""Unreadable-sector bookkeeping.

A fault table marks addresses whose stored bit cannot be read directly and
records what that bit actually is.  ``FaultModel`` wraps the table at run
time and counts MODSBSM's probes of each bad address; a baseline's probes of
one are ``RETRY_LIMIT`` times the requests it abandons there.  Once MODSBSM
has pinned a bad sector's content down, later reads are answered from its
prescribed-bit entry instead of touching the platter again
(``metrics.energy_saved`` prices those avoided reads from a projected read
count, not from probe counts).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, KeysView

from .geometry import PhysicalAddress, render_index


@dataclass(frozen=True)
class FaultSpec:
    """One permanently unreadable sector and the bit value it holds."""

    address: PhysicalAddress
    true_bit: int

    def __post_init__(self):
        if self.true_bit not in (0, 1):
            raise ValueError(f"true_bit must be 0 or 1, got {self.true_bit}")


class FaultModel:
    """Runtime view of a fault table with per-address probe counting."""

    def __init__(self, table: Iterable[FaultSpec] = ()):
        self._bits: dict[PhysicalAddress, int] = {}
        self._probes: dict[PhysicalAddress, int] = {}
        for spec in table:
            if spec.address in self._bits:
                raise ValueError(f"duplicate fault entry for {render_index(spec.address)}")
            self._bits[spec.address] = spec.true_bit
            self._probes[spec.address] = 0

    @property
    def bad_addresses(self) -> KeysView[PhysicalAddress]:
        """Read-only view of the table's addresses; probing them is :meth:`access`."""
        return self._bits.keys()

    def access(self, address: PhysicalAddress) -> None:
        """Physically probe an address; bad addresses count every probe."""
        if address in self._bits:
            self._probes[address] += 1

    def true_bit(self, address: PhysicalAddress) -> int:
        return self._bits[address]

    def probe_count(self, address: PhysicalAddress) -> int:
        return self._probes.get(address, 0)
