"""Logic and fault simulation.

* :mod:`repro.sim.logic` — 64-way bit-parallel true-value simulation.
* :mod:`repro.sim.batch` — batched PPSFP stuck-at fault simulation with
  fault dropping, the one fault simulator for 0/1 and 0/1/X (the packed
  carrier picks the logic: planes run 3-valued), and
  :func:`parallel_detection_rows`, which builds a first-detection table
  through a simulator or a process pool of simulators with its settings.
* :mod:`repro.sim.fault` — :class:`FaultSimulator`, the historical name
  of :class:`BatchFaultSimulator`.
* :mod:`repro.sim.threeval` — three-valued (0/1/X) true-value
  simulation of packed planes (:func:`logic_sim_3v`).
* :mod:`repro.sim.misr` — MISR signature compaction.

The slow, obviously-correct references the packed engines are pinned
against (a per-fault fault simulator, a single-pattern interpreter, a
clocked sequential simulator and the scalar 0/1/X walks) are test
oracles and live in ``tests/oracles/``.
"""

from repro.sim.logic import CompiledCircuit, simulate_patterns
from repro.sim.batch import BatchFaultSimulator, parallel_detection_rows
from repro.sim.fault import FaultSimulator
from repro.sim.misr import Misr, aliasing_rate, golden_signature, x_masked_signature
from repro.sim.threeval import logic_sim_3v

__all__ = [
    "BatchFaultSimulator",
    "CompiledCircuit",
    "FaultSimulator",
    "Misr",
    "aliasing_rate",
    "golden_signature",
    "logic_sim_3v",
    "parallel_detection_rows",
    "simulate_patterns",
    "x_masked_signature",
]
