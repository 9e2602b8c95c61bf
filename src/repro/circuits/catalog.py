"""The benchmark catalog: every circuit the paper's evaluation touches.

Each entry records the *real* ISCAS statistics (PI / PO / FF / gate
counts, from the published suite profiles [9][10]) and provides either
the embedded genuine netlist (c17, s27) or a seeded synthetic stand-in
with the same input, output and gate counts at ``scale=1.0``.

``load_circuit(name, scale=...)`` is the single entry point; sequential
circuits are returned in their full-scan combinational view by default,
matching the paper's "full-scan version of ISCAS'89" setup.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.circuit.bench import parse_bench
from repro.circuit.fullscan import full_scan_view
from repro.circuit.generate import GeneratorSpec, generate_circuit
from repro.circuit.netlist import Circuit
from repro.circuits.data import EMBEDDED_BENCHES


@dataclass(frozen=True)
class CatalogEntry:
    """One benchmark circuit: real-suite statistics plus provenance."""

    name: str
    n_inputs: int
    n_outputs: int
    n_gates: int
    n_dffs: int = 0
    embedded: bool = False

    @property
    def is_sequential(self) -> bool:
        """True for ISCAS'89 members (tested via their full-scan view)."""
        return self.n_dffs > 0

    @property
    def scan_inputs(self) -> int:
        """PI count of the full-scan combinational view (PI + FF)."""
        return self.n_inputs + self.n_dffs


# Real suite statistics (Brglez et al. [9][10]).  Gate counts follow the
# commonly cited profiles; they parameterise the synthetic stand-ins.
_RAW_CATALOG: tuple[CatalogEntry, ...] = (
    # ISCAS'85 (combinational)
    CatalogEntry("c17", 5, 2, 6, embedded=True),
    CatalogEntry("c432", 36, 7, 160),
    CatalogEntry("c499", 41, 32, 202),
    CatalogEntry("c880", 60, 26, 383),
    CatalogEntry("c1355", 41, 32, 546),
    CatalogEntry("c1908", 33, 25, 880),
    CatalogEntry("c2670", 233, 140, 1193),
    CatalogEntry("c3540", 50, 22, 1669),
    CatalogEntry("c5315", 178, 123, 2307),
    CatalogEntry("c6288", 32, 32, 2416),
    CatalogEntry("c7552", 207, 108, 3512),
    # ISCAS'89 (sequential; tested full-scan)
    CatalogEntry("s27", 4, 1, 10, n_dffs=3, embedded=True),
    CatalogEntry("s298", 3, 6, 119, n_dffs=14),
    CatalogEntry("s344", 9, 11, 160, n_dffs=15),
    CatalogEntry("s382", 3, 6, 158, n_dffs=21),
    CatalogEntry("s420", 18, 1, 218, n_dffs=16),
    CatalogEntry("s641", 35, 24, 379, n_dffs=19),
    CatalogEntry("s713", 35, 23, 393, n_dffs=19),
    CatalogEntry("s820", 18, 19, 289, n_dffs=5),
    CatalogEntry("s838", 34, 1, 446, n_dffs=32),
    CatalogEntry("s953", 16, 23, 395, n_dffs=29),
    CatalogEntry("s1196", 14, 14, 529, n_dffs=18),
    CatalogEntry("s1238", 14, 14, 508, n_dffs=18),
    CatalogEntry("s1423", 17, 5, 657, n_dffs=74),
    CatalogEntry("s5378", 35, 49, 2779, n_dffs=179),
    CatalogEntry("s9234", 36, 39, 5597, n_dffs=211),
    CatalogEntry("s13207", 62, 152, 7951, n_dffs=638),
    CatalogEntry("s15850", 77, 150, 9772, n_dffs=534),
)

CATALOG: dict[str, CatalogEntry] = {e.name: e for e in _RAW_CATALOG}

#: The circuits the paper's Tables 1/2 and Figure 2 report on.
PAPER_CIRCUITS: tuple[str, ...] = (
    "c499",
    "c880",
    "c1355",
    "c1908",
    "c7552",
    "s420",
    "s641",
    "s820",
    "s838",
    "s953",
    "s1238",
    "s1423",
    "s5378",
    "s9234",
    "s13207",
    "s15850",
)

#: Master seed for the synthetic suite (change to regenerate a new suite).
SUITE_SEED = 2001


def catalog_names() -> list[str]:
    """All catalog circuit names (ISCAS'85 first, then ISCAS'89)."""
    return list(CATALOG)


def load_circuit(
    name: str, scale: float = 1.0, full_scan: bool = True
) -> Circuit:
    """Load a benchmark circuit by name.

    Parameters
    ----------
    name:
        A catalog name (``"c880"``, ``"s1238"``, ...).
    scale:
        Size factor applied to the *synthetic* stand-ins (gate, PI, PO
        and FF counts are scaled down together, with sane floors).  The
        embedded genuine circuits ignore ``scale``.  Benchmarks use
        ``scale < 1`` to keep pure-Python runtimes reasonable; the
        experiment drivers accept ``--scale`` to run full-size.
    full_scan:
        Return the combinational full-scan view of sequential circuits
        (the paper's setup).  ``False`` returns the raw sequential
        netlist.
    """
    entry = CATALOG.get(name)
    if entry is None:
        raise KeyError(
            f"unknown circuit {name!r}; known: {', '.join(catalog_names())}"
        )
    if entry.embedded:
        circuit = parse_bench(EMBEDDED_BENCHES[name], name)
    else:
        circuit = generate_circuit(_scaled_spec(entry, scale))
    if full_scan and circuit.is_sequential():
        circuit = full_scan_view(circuit, name=name)
    return circuit


def _scaled_spec(entry: CatalogEntry, scale: float) -> GeneratorSpec:
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")

    def scaled(value: int, floor: int) -> int:
        return max(floor, round(value * scale))

    n_outputs = scaled(entry.n_outputs, 1)
    n_gates = max(scaled(entry.n_gates, 4), n_outputs + 3)
    return GeneratorSpec(
        name=entry.name,
        n_inputs=scaled(entry.n_inputs, 3),
        n_outputs=n_outputs,
        n_gates=n_gates,
        n_dffs=scaled(entry.n_dffs, 1) if entry.n_dffs else 0,
        seed=SUITE_SEED,
    )
