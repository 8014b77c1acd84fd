"""Unreadable-sector bookkeeping.

A fault table marks addresses whose stored bit cannot be read directly and
records what that bit actually is.  ``FaultModel`` wraps the table at run
time: every physical probe of a bad address is counted, which is what the
savings accounting hangs off — once a bad sector's content is pinned down
by the scheduler, later reads are answered from its prescribed-bit entry
instead of touching the platter again.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, KeysView

from .geometry import PhysicalAddress, render_index
from .metrics import EnergyModel, energy_saved


class ProbeOutcome(enum.Enum):
    READABLE = "readable"
    UNREADABLE = "unreadable"


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

    def access(self, address: PhysicalAddress) -> ProbeOutcome:
        """Physically probe an address; bad addresses count every probe."""
        if address in self._bits:
            self._probes[address] += 1
            return ProbeOutcome.UNREADABLE
        return ProbeOutcome.READABLE

    def true_bit(self, address: PhysicalAddress) -> int:
        return self._bits[address]

    def probe_count(self, address: PhysicalAddress) -> int:
        return self._probes.get(address, 0)


@dataclass(frozen=True)
class SavingsRow:
    address: PhysicalAddress
    energy: float
    heat: float


@dataclass(frozen=True)
class SavingsReport:
    rows: tuple[SavingsRow, ...]
    energy_total: float
    heat_total: float


def savings_report(
    resolved: Iterable[PhysicalAddress],
    model: EnergyModel = EnergyModel(),
    projected_accesses: int = 5,
) -> SavingsReport:
    """Energy/heat avoided for each resolved bad address over its lifetime.

    ``resolved`` are addresses whose prescribed bit has been finalized;
    ``projected_accesses`` is how many times each would be read in total.
    """
    rows = []
    for address in resolved:
        energy, heat = energy_saved(projected_accesses, model)
        rows.append(SavingsRow(address, energy, heat))
    return SavingsReport(
        rows=tuple(rows),
        energy_total=sum(r.energy for r in rows),
        heat_total=sum(r.heat for r in rows),
    )
