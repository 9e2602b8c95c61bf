"""Logic and fault simulation.

* :mod:`repro.sim.logic` — 64-way bit-parallel true-value simulation.
* :mod:`repro.sim.batch` — batched PPSFP stuck-at fault simulation with
  fault dropping (the engine behind :class:`FaultSimulator`), and
  :func:`parallel_detection_rows`, which builds a first-detection table
  through a simulator or a process pool of its class.
* :mod:`repro.sim.fault` — the :class:`FaultSimulator` compatibility
  wrapper plus the legacy per-fault :class:`SerialFaultSimulator`
  baseline.
* :mod:`repro.sim.event` — a slow, obviously-correct single-pattern
  reference simulator used to cross-check the packed engines.
* :mod:`repro.sim.threeval` — three-valued (0/1/X) packed simulation:
  :func:`logic_sim_3v` true-value planes and the
  :class:`XFaultSimulator` with pessimistic (X-masking) detection.
"""

from repro.sim.logic import CompiledCircuit, simulate_patterns
from repro.sim.batch import BatchFaultSimulator, parallel_detection_rows
from repro.sim.fault import FaultSimulator, SerialFaultSimulator, detected_faults
from repro.sim.event import ReferenceSimulator
from repro.sim.sequential import SequentialSimulator
from repro.sim.misr import Misr, aliasing_rate, golden_signature, x_masked_signature
from repro.sim.threeval import XFaultSimulator, logic_sim_3v, logic_sim_3v_scalar

__all__ = [
    "BatchFaultSimulator",
    "CompiledCircuit",
    "FaultSimulator",
    "SerialFaultSimulator",
    "Misr",
    "ReferenceSimulator",
    "SequentialSimulator",
    "XFaultSimulator",
    "aliasing_rate",
    "detected_faults",
    "golden_signature",
    "logic_sim_3v",
    "logic_sim_3v_scalar",
    "parallel_detection_rows",
    "simulate_patterns",
    "x_masked_signature",
]
