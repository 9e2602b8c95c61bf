"""Deterministic test pattern generation.

Stand-in for the commercial gate-level ATPG (TestGen) the paper uses to
obtain the complete deterministic test set ``ATPGTS`` and target fault
list ``F`` (Section 3.1).  The flow is the classic three-phase one:

1. random-pattern phase with fault dropping (:mod:`repro.atpg.random_gen`),
2. PODEM deterministic top-off for the random-resistant tail — the
   fault-parallel :mod:`repro.atpg.batch_podem`, with the scalar
   :mod:`repro.atpg.podem` as its lane-by-lane differential oracle,
3. reverse-order static compaction (:mod:`repro.atpg.compaction`).

PODEM's five-valued D-algebra (0/1/X/D/D') is a (good, faulty) pair of
three-valued values, so it needs no value system of its own: the batch
engine implies both machines on interval rails (known-1, not-known-0),
one reduce per fold group of a level, and the scalar engine evaluates
each machine with three-valued codes.
"""

from repro.atpg.podem import Podem, PodemResult, PodemStatus, TestCube
from repro.atpg.batch_podem import BatchPodem
from repro.atpg.random_gen import RandomPhaseResult, random_phase
from repro.atpg.compaction import reverse_order_compaction
from repro.atpg.engine import (
    AtpgConsistencyError,
    AtpgEngine,
    AtpgResult,
)
from repro.atpg.scoap import ScoapMeasures, compute_scoap

__all__ = [
    "AtpgConsistencyError",
    "AtpgEngine",
    "AtpgResult",
    "BatchPodem",
    "Podem",
    "PodemResult",
    "PodemStatus",
    "RandomPhaseResult",
    "ScoapMeasures",
    "TestCube",
    "compute_scoap",
    "random_phase",
    "reverse_order_compaction",
]
