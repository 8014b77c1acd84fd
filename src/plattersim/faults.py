"""Unreadable-sector bookkeeping.

A fault table marks addresses whose stored bit cannot be read directly and
records what that bit actually is.  A ``FaultSpec`` is a plain named tuple,
checked only as part of a ``Scenario``, and MODSBSM prescribes its bit.
``FaultModel`` wraps the table at run time and only counts MODSBSM's probes
of each bad address; a baseline's probes of one are ``RETRY_LIMIT`` times
the requests it abandons there.  Once MODSBSM has pinned a bad sector's
content down, later reads are answered from its prescribed-bit entry instead
of touching the platter again (``metrics.energy_saved`` prices those avoided
reads from a projected read count, not from probe counts).
"""

from __future__ import annotations

from typing import Iterable, KeysView, NamedTuple

from .geometry import PhysicalAddress, render_index


class FaultSpec(NamedTuple):
    """One permanently unreadable sector and the bit value it holds."""

    address: PhysicalAddress
    true_bit: int


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
