"""MISR response compaction (the BIST output side).

A BIST architecture needs the test *responses* compacted as well as the
stimuli generated; the arithmetic-BIST literature the paper builds on
([1][2]) pairs the accumulator TPG with a Multiple-Input Signature
Register.  This module provides a classic LFSR-based MISR: each cycle
the register shifts (with polynomial feedback) and XORs the response
vector in; after the test, the register holds a signature compared
against the fault-free golden value.

The aliasing probability of an n-bit MISR is ~2^-n; :func:`aliasing_rate`
measures it empirically for the test suite.

**X-masking** (:meth:`Misr.masked_step` / :meth:`Misr.masked_signature` /
:func:`x_masked_signature`): a single X entering a MISR corrupts the
whole signature — after one feedback shift the unknown smears across the
register and the compare against the golden value is meaningless.  The
standard tester fix is to *mask* unknown response bits to a fixed value
(0 here) before compaction, so the signature stays deterministic and
comparable; the price is that faults observable only on masked bits go
undetected.  On an X-free response stream the masked signature is
bit-identical to :meth:`Misr.signature` (the differential suite pins
this).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.circuit.netlist import Circuit
from repro.sim.logic import CompiledCircuit
from repro.sim.threeval import logic_sim_3v
from repro.tpg.lfsr import taps_for_width
from repro.utils.bitvec import BitVector, PackedPlanes, unpack_words


class Misr:
    """An n-bit LFSR-based multiple-input signature register."""

    def __init__(self, width: int, taps: tuple[int, ...] | None = None) -> None:
        if width <= 0:
            raise ValueError(f"MISR width must be positive, got {width}")
        self.width = width
        self.taps = tuple(taps) if taps is not None else taps_for_width(width)
        if not self.taps or any(not 0 <= t < width for t in self.taps):
            raise ValueError(f"invalid tap set {self.taps} for width {width}")

    def step(self, state: BitVector, response: BitVector) -> BitVector:
        """One compaction cycle: shift with feedback, XOR the response in."""
        if state.width != self.width or response.width != self.width:
            raise ValueError("state/response width must equal MISR width")
        feedback = 0
        for tap in self.taps:
            feedback ^= state.bit(tap)
        shifted = BitVector(((state.value << 1) | feedback), self.width)
        return shifted ^ response

    def signature(
        self, responses: Iterable[BitVector], seed: BitVector | None = None
    ) -> BitVector:
        """Compact a response sequence into a signature."""
        state = seed if seed is not None else BitVector.zeros(self.width)
        for response in responses:
            state = self.step(state, response)
        return state

    def masked_step(
        self, state: BitVector, value: BitVector, care: BitVector
    ) -> BitVector:
        """One X-masked compaction cycle: unknown response bits (care 0)
        are forced to 0 before the XOR, so an X never enters the
        register.  With ``care`` all ones this is exactly :meth:`step`."""
        if care.width != self.width:
            raise ValueError("care width must equal MISR width")
        return self.step(state, value & care)

    def masked_signature(
        self,
        responses: Iterable[tuple[BitVector, BitVector]],
        seed: BitVector | None = None,
    ) -> tuple[BitVector, int]:
        """Compact ``(value, care)`` response pairs with X-masking.

        Returns ``(signature, n_masked)`` where ``n_masked`` counts the
        response bits that were forced to 0 because they carried X —
        the tester's observability loss for this pattern sequence.
        """
        state = seed if seed is not None else BitVector.zeros(self.width)
        all_ones = (1 << self.width) - 1
        n_masked = 0
        for value, care in responses:
            n_masked += bin(~care.value & all_ones).count("1")
            state = self.masked_step(state, value, care)
        return state, n_masked


def golden_signature(
    circuit: Circuit, patterns: Sequence[BitVector], misr: Misr | None = None
) -> BitVector:
    """The fault-free signature of ``circuit`` for a pattern sequence."""
    misr = misr or Misr(circuit.n_outputs)
    if misr.width != circuit.n_outputs:
        raise ValueError(
            f"MISR width {misr.width} != circuit output count {circuit.n_outputs}"
        )
    responses = CompiledCircuit(circuit).simulate_patterns(list(patterns))
    return misr.signature(responses)


def x_masked_signature(
    circuit: Circuit | CompiledCircuit, planes: PackedPlanes, misr: Misr | None = None
) -> tuple[BitVector, int]:
    """The X-masked fault-free signature for a three-valued stimulus.

    Simulates ``planes`` (0/1/X input patterns, one per lane) through the
    three-valued engine, masks unknown output bits to 0 and compacts the
    rest; returns ``(signature, n_masked)``.  ``circuit`` may be already
    compiled (see :func:`~repro.sim.threeval.logic_sim_3v`).  For X-free
    stimuli this equals :func:`golden_signature` on the same patterns
    with ``n_masked == 0``.
    """
    misr = misr or Misr(circuit.n_outputs)
    if misr.width != circuit.n_outputs:
        raise ValueError(
            f"MISR width {misr.width} != circuit output count {circuit.n_outputs}"
        )
    out = logic_sim_3v(circuit, planes)
    values = unpack_words(out.value, out.n_patterns)
    cares = unpack_words(out.care, out.n_patterns)
    return misr.masked_signature(zip(values, cares))


def aliasing_rate(
    misr: Misr,
    good_responses: Sequence[BitVector],
    corrupted_runs: Sequence[Sequence[BitVector]],
) -> float:
    """Fraction of corrupted response runs whose signature still equals
    the good signature (empirical aliasing estimate)."""
    if not corrupted_runs:
        return 0.0
    golden = misr.signature(good_responses)
    aliases = sum(
        1 for run in corrupted_runs if misr.signature(run) == golden
    )
    return aliases / len(corrupted_runs)
