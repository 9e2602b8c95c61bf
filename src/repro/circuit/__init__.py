"""Gate-level combinational circuit model and I/O.

The circuit model is the substrate everything else stands on: the fault
model enumerates its nodes, the simulators evaluate it, the ATPG searches
it, and the reseeding flow tests it.  Circuits are combinational; the
sequential ISCAS'89 benchmarks enter the flow through the full-scan
transformation (:mod:`repro.circuit.fullscan`), exactly as in the paper
("the full-scan version of ISCAS'89 benchmark circuits").
"""

from repro.circuit.gates import (
    Fold,
    GateType,
    eval_gates,
    gate_form,
)
from repro.circuit.netlist import Circuit, Gate
from repro.circuit.bench import parse_bench, parse_bench_file, write_bench
from repro.circuit.fullscan import full_scan_view, partial_scan_view
from repro.circuit.generate import GeneratorSpec, generate_circuit
from repro.circuit.validate import CircuitError, validate_circuit

__all__ = [
    "Circuit",
    "CircuitError",
    "Fold",
    "Gate",
    "GateType",
    "GeneratorSpec",
    "eval_gates",
    "gate_form",
    "full_scan_view",
    "generate_circuit",
    "partial_scan_view",
    "parse_bench",
    "parse_bench_file",
    "validate_circuit",
    "write_bench",
]
