"""repro — set-covering reseeding for Functional BIST.

A full reimplementation of Chiusano, Di Carlo, Prinetto & Wunderlich,
*On Applying the Set Covering Model to Reseeding* (DATE 2001), together
with every substrate the paper's flow depends on: a gate-level circuit
model with ISCAS ``.bench`` I/O, stuck-at fault modelling and collapsing,
bit-parallel logic/fault simulation, a PODEM-based ATPG, accumulator and
LFSR test pattern generators, a covering-table reduction + exact-ILP
solver chain, and a GATSBY-style genetic-algorithm baseline.

Typical use — a :class:`Session` runs the flow for one circuit::

    from repro import PipelineConfig, Session, load_circuit

    session = Session(load_circuit("s1238", scale=0.5), PipelineConfig())
    result = session.run("adder")
    print(result.summary())

Batch use — shared circuit-level artefacts, on-disk artifact cache and
a circuits x TPGs x configs orchestrator::

    from repro import Session, sweep

    session = Session.from_name("s1238", scale=0.5, cache=".repro-cache")
    result = session.run("adder")          # warm re-runs skip ATPG
    grid = sweep(["c880", "s1238"], ["adder", "multiplier"], workers=4)
"""

from repro.circuit import Circuit, Gate, GateType, parse_bench, write_bench
from repro.circuits import CATALOG, PAPER_CIRCUITS, load_circuit
from repro.faults import Fault, collapse_faults, full_fault_list
from repro.sim import BatchFaultSimulator, CompiledCircuit, FaultSimulator
from repro.diagnosis import (
    Candidate,
    DiagnosisResult,
    FailLog,
    FaultDictionary,
    SignatureBisector,
    SimulatedTester,
    diagnose_effect_cause,
    make_fail_log,
)
from repro.atpg import AtpgEngine
from repro.tpg import TestPatternGenerator, make_tpg
from repro.reseeding import (
    DetectionMatrix,
    InitialReseedingBuilder,
    ReseedingSolution,
    Triplet,
    trim_solution,
)
from repro.setcover import CoverMatrix, reduce_matrix, solve_cover
from repro.gatsby import GatsbyReseeder
from repro.flow import (
    ArtifactCache,
    PipelineConfig,
    PipelineResult,
    Session,
    sweep,
)
from repro.utils import BitVector, Registry, RngStream, UnknownComponentError

__version__ = "1.0.0"

__all__ = [
    "ArtifactCache",
    "AtpgEngine",
    "BatchFaultSimulator",
    "BitVector",
    "CATALOG",
    "Candidate",
    "CompiledCircuit",
    "CoverMatrix",
    "Circuit",
    "DetectionMatrix",
    "DiagnosisResult",
    "FailLog",
    "Fault",
    "FaultDictionary",
    "FaultSimulator",
    "Gate",
    "GateType",
    "GatsbyReseeder",
    "InitialReseedingBuilder",
    "PAPER_CIRCUITS",
    "PipelineConfig",
    "PipelineResult",
    "Registry",
    "ReseedingSolution",
    "RngStream",
    "Session",
    "SignatureBisector",
    "SimulatedTester",
    "TestPatternGenerator",
    "Triplet",
    "UnknownComponentError",
    "collapse_faults",
    "diagnose_effect_cause",
    "full_fault_list",
    "load_circuit",
    "make_fail_log",
    "make_tpg",
    "parse_bench",
    "reduce_matrix",
    "solve_cover",
    "sweep",
    "trim_solution",
    "write_bench",
]
