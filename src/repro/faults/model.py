"""The single stuck-at fault model.

A fault is a net stuck at 0 or 1.  Two kinds of sites exist:

* **stem** faults — the output net of a gate (or a PI) is stuck; every
  reader of the net sees the stuck value;
* **branch** faults — one *fanout branch* is stuck: only the gate reading
  the net through that pin sees the stuck value.  Branch faults matter
  at fanout stems, where a branch fault is not equivalent to the stem
  fault.

The paper's target list ``F`` is "the target list of stuck-at faults of
the combinational circuit to be tested"; we build the standard full
universe (stem + branch faults) and collapse it by structural
equivalence (:mod:`repro.faults.collapse`) before handing it to ATPG.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable

from repro.circuit.netlist import Circuit


@dataclass(frozen=True)
class FaultSite:
    """Where a fault lives.

    ``net`` is the stuck net.  For a stem fault, ``gate`` is ``None``;
    for a branch fault, ``gate``/``pin`` identify the reading gate and
    its fanin position.
    """

    net: str
    gate: str | None = None
    pin: int | None = None

    @property
    def is_branch(self) -> bool:
        """True for fanout-branch sites."""
        return self.gate is not None

    def sort_key(self) -> tuple[str, str, int]:
        """Total-order key (stem sites sort before branch sites on a net)."""
        return (self.net, self.gate or "", -1 if self.pin is None else self.pin)

    def __lt__(self, other: "FaultSite") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        if self.is_branch:
            return f"{self.net}->{self.gate}.{self.pin}"
        return self.net


@dataclass(frozen=True)
class Fault:
    """A single stuck-at fault: ``site`` stuck at ``value``."""

    site: FaultSite
    value: int

    def __post_init__(self) -> None:
        if self.value not in (0, 1):
            raise ValueError(f"stuck value must be 0 or 1, got {self.value!r}")

    @classmethod
    def stem(cls, net: str, value: int) -> "Fault":
        """Convenience constructor for a stem fault."""
        return cls(FaultSite(net), value)

    @classmethod
    def branch(cls, net: str, gate: str, pin: int, value: int) -> "Fault":
        """Convenience constructor for a fanout-branch fault."""
        return cls(FaultSite(net, gate, pin), value)

    def sort_key(self) -> tuple[tuple[str, str, int], int]:
        """Total-order key: by site, then stuck value."""
        return (self.site.sort_key(), self.value)

    def __lt__(self, other: "Fault") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self) -> str:
        return f"{self.site}/SA{self.value}"


def effective_reader_count(circuit: Circuit, net: str) -> int:
    """How many observation paths leave ``net``: its gate readers, plus
    one if it is itself a primary output (a PO is a direct observation
    point, so a net that is both PO and gate fanin behaves like a
    fanout stem)."""
    return len(circuit.fanouts(net)) + (1 if net in set(circuit.outputs) else 0)


def full_fault_list(circuit: Circuit) -> list[Fault]:
    """The uncollapsed single stuck-at universe of ``circuit``.

    Stem faults on every net, plus branch faults on every fanin pin of
    nets with more than one *effective* reader — gate readers plus
    direct PO observation (for true single-reader nets the branch is
    structurally identical to the stem, so it is omitted at build time
    rather than collapsed later).
    """
    faults: list[Fault] = []
    for net in circuit.nodes:
        for value in (0, 1):
            faults.append(Fault.stem(net, value))
    for gate in circuit.gates.values():
        for pin, fanin_net in enumerate(gate.fanins):
            if effective_reader_count(circuit, fanin_net) > 1:
                for value in (0, 1):
                    faults.append(Fault.branch(fanin_net, gate.name, pin, value))
    return faults


def output_stem_faults(circuit: Circuit) -> list[Fault]:
    """Stem faults on primary outputs only (useful in tests)."""
    return [Fault.stem(net, v) for net in circuit.outputs for v in (0, 1)]


def fault_list_digest(faults: Iterable[Fault]) -> str:
    """SHA-256 of a fault list's text, one fault per line, in order."""
    return hashlib.sha256("\n".join(str(f) for f in faults).encode()).hexdigest()
