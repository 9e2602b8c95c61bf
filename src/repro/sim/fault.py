"""Parallel-pattern stuck-at fault simulation: the historical name.

:class:`FaultSimulator` is :class:`repro.sim.batch.BatchFaultSimulator`,
the one fault simulator.  It runs one fault machine per
fanout-free-region root, not per fault, and reads each fault's
detection off a good-machine trace of its region.  The root machines
are simulated in batches: the faulty values of every node a batch
touches are stacked along a batch axis into ``(batch, n_words)``
``uint64`` arrays (64 patterns per word, pattern ``64*w + b`` in bit
``b`` of word ``w``), and the whole batch propagates through one
shared, levelized cone-union schedule.  The any-pattern queries
(``detected`` / ``first_detection_index`` / ``fault_coverage``) are
one-row views of the Detection Matrix row scan, which applies **fault
dropping**: the words of the pattern set are scanned in order and a
fault leaves the active set once a word detects it, so it never pays
for the remaining patterns.  The packed carrier picks the logic:
:class:`~repro.utils.bitvec.PackedPlanes` run 0/1/X with pessimistic
detection, anything else runs 0/1.

A fault is detected by pattern ``p`` when any primary output differs
from the fault-free value under ``p``.  The simulator fills the paper's
Detection Matrix: ``d[i][j] = 1`` iff triplet ``i``'s test set detects
fault ``j`` (Section 3), and does the fault grading inside ATPG, GATSBY
and the trade-off explorer.
"""

from __future__ import annotations

from repro.sim.batch import BatchFaultSimulator

__all__ = ["FaultSimulator"]

#: The default fault simulator: the historical name of the batched
#: engine, kept for every call site that imports it.
FaultSimulator = BatchFaultSimulator
