"""Logic and fault simulation.

* :mod:`repro.sim.logic` — 64-way bit-parallel true-value simulation.
* :mod:`repro.sim.batch` — batched PPSFP stuck-at fault simulation with
  fault dropping, the one fault simulator for 0/1 and 0/1/X (the packed
  carrier picks the logic: planes run 3-valued), and
  :func:`parallel_detection_rows`, which builds a first-detection table
  through a simulator or a process pool of simulators with its settings.
* :mod:`repro.sim.fault` — :class:`FaultSimulator`, the historical name
  of :class:`BatchFaultSimulator`, plus the legacy per-fault
  :class:`SerialFaultSimulator` baseline.
* :mod:`repro.sim.event` — a slow, obviously-correct single-pattern
  reference simulator used to cross-check the packed engines.
* :mod:`repro.sim.threeval` — three-valued (0/1/X) true-value
  simulation of packed planes (:func:`logic_sim_3v`) and its scalar
  oracle.
"""

from repro.sim.logic import CompiledCircuit, simulate_patterns
from repro.sim.batch import BatchFaultSimulator, parallel_detection_rows
from repro.sim.fault import FaultSimulator, SerialFaultSimulator, detected_faults
from repro.sim.event import ReferenceSimulator
from repro.sim.sequential import SequentialSimulator
from repro.sim.misr import Misr, aliasing_rate, golden_signature, x_masked_signature
from repro.sim.threeval import logic_sim_3v, logic_sim_3v_scalar

__all__ = [
    "BatchFaultSimulator",
    "CompiledCircuit",
    "FaultSimulator",
    "SerialFaultSimulator",
    "Misr",
    "ReferenceSimulator",
    "SequentialSimulator",
    "aliasing_rate",
    "detected_faults",
    "golden_signature",
    "logic_sim_3v",
    "logic_sim_3v_scalar",
    "parallel_detection_rows",
    "simulate_patterns",
    "x_masked_signature",
]
