"""Gate types and their evaluation semantics.

The gate algebra is written once, for 0/1 and 0/1/X alike:

* :func:`eval_gates` — the packed kernel.  Gate state is ``uint64``
  words with ``m`` bit-planes side by side on the word axis: ``m = 1``
  is plain 0/1 words, ``m = 2`` a value plane followed by a care plane
  (0/1/X; see ``docs/internals-bitpacking.md``).  One kernel serves a
  single gate, a rectangular (level, type, arity) group and the
  segmented ``reduceat`` group, so the logic simulator, the fault
  machine, fault injection and the batch PODEM all share it.
* :func:`eval_gate_3v_scalar` — the scalar oracle on codes 0/1/2
  (2 = X).  On 0/1 codes it is plain Boolean evaluation; the reference
  simulators use it, and the differential suite pins the kernel to it.
"""

from __future__ import annotations

from enum import Enum
from functools import reduce
from typing import Sequence

import numpy as np

from repro.utils.kernels import kernel

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


class GateType(Enum):
    """The gate library: the ISCAS ``.bench`` primitive set plus
    constants and flip-flops (flip-flops only appear in sequential
    netlists, before the full-scan transformation)."""

    INPUT = "INPUT"
    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUF = "BUF"
    CONST0 = "CONST0"
    CONST1 = "CONST1"
    DFF = "DFF"

    @property
    def min_fanin(self) -> int:
        """Minimum number of fanin nets for this gate type."""
        return _FANIN_RANGE[self][0]

    @property
    def max_fanin(self) -> int | None:
        """Maximum number of fanin nets, or ``None`` for unbounded."""
        return _FANIN_RANGE[self][1]

    @property
    def is_source(self) -> bool:
        """True for nodes with no logic fanin (inputs, constants)."""
        return self in (GateType.INPUT, GateType.CONST0, GateType.CONST1)


_FANIN_RANGE: dict[GateType, tuple[int, int | None]] = {
    GateType.INPUT: (0, 0),
    GateType.CONST0: (0, 0),
    GateType.CONST1: (0, 0),
    GateType.AND: (1, None),
    GateType.NAND: (1, None),
    GateType.OR: (1, None),
    GateType.NOR: (1, None),
    GateType.XOR: (1, None),
    GateType.XNOR: (1, None),
    GateType.NOT: (1, 1),
    GateType.BUF: (1, 1),
    GateType.DFF: (1, 1),
}

#: Gate types whose output is a function of present inputs only.
COMBINATIONAL_TYPES = frozenset(
    t for t in GateType if t not in (GateType.DFF, GateType.INPUT)
)


#: Three-valued X code used by the scalar oracle and the unpacked
#: (per-pattern / per-lane) views of the packed planes.
X3 = 2


def eval_gate_3v_scalar(gtype: GateType, fanin_codes: Sequence[int]) -> int:
    """Scalar three-valued gate evaluation on codes 0/1/2 (2 = X).

    The from-the-definition oracle for :func:`eval_gates`: a gate output
    is known exactly when the known fanins force it (a known
    controlling value) or every fanin is known.  On 0/1 codes this is
    plain Boolean evaluation.  Deliberately slow and obvious — the
    differential suite pins the kernel against this, bit for bit, at
    ``m = 1`` and ``m = 2``.
    """
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return 1
    if gtype in (GateType.INPUT, GateType.DFF):
        raise ValueError(f"{gtype.name} nodes are not evaluated; they are sources")
    if any(code not in (0, 1, X3) for code in fanin_codes):
        raise ValueError(f"three-valued codes must be 0/1/2, got {fanin_codes!r}")
    invert = inversion_parity(gtype)
    if gtype in (GateType.AND, GateType.NAND):
        if any(code == 0 for code in fanin_codes):
            base = 0
        elif all(code == 1 for code in fanin_codes):
            base = 1
        else:
            return X3
    elif gtype in (GateType.OR, GateType.NOR):
        if any(code == 1 for code in fanin_codes):
            base = 1
        elif all(code == 0 for code in fanin_codes):
            base = 0
        else:
            return X3
    elif gtype in (GateType.XOR, GateType.XNOR):
        if any(code == X3 for code in fanin_codes):
            return X3
        base = reduce(lambda a, b: a ^ b, fanin_codes)
    elif gtype in (GateType.NOT, GateType.BUF):
        if fanin_codes[0] == X3:
            return X3
        base = fanin_codes[0]
    else:
        raise ValueError(f"unknown gate type {gtype!r}")
    return base ^ invert


def _fold(
    ufunc: np.ufunc, x: np.ndarray, axis: int, starts: np.ndarray | None
) -> np.ndarray:
    """Reduce the fanin axis of ``x`` with ``ufunc``: plainly along
    ``axis``, or segmented at ``starts`` along axis 0."""
    if starts is None:
        return ufunc.reduce(x, axis=axis)
    return ufunc.reduceat(x, starts, axis=0)


@kernel
def eval_gates(
    gtype: GateType,
    fanins: np.ndarray,
    m: int = 1,
    axis: int = 0,
    starts: np.ndarray | None = None,
) -> np.ndarray:
    """Evaluate gates of one type on gathered packed fanin state.

    The last axis of ``fanins`` holds ``m`` bit-planes side by side, each
    ``n`` ``uint64`` words wide (bit ``k`` of word ``w`` is pattern or
    lane ``64*w + k``):

    * ``m = 1`` — one plane of 0/1 values;
    * ``m = 2`` — the value plane, then the care plane (1 = known 0/1,
      0 = X), with the invariant ``value & ~care == 0``.

    The fanin axis is reduced away, in one of three shapes:

    * a single gate — fanins stacked on ``axis=0``;
    * a rectangular group of same-type, same-arity gates —
      ``(gates, arity, ...)`` with ``axis=1``;
    * a segmented group of same-type gates of mixed arity — fanins
      concatenated on axis 0 and ``starts`` marking each gate's first
      fanin row, as :meth:`numpy.ufunc.reduceat` expects.

    The X semantics are those of :func:`eval_gate_3v_scalar`: AND is
    known where every fanin is known or some fanin is a known 0, OR
    where every fanin is known or some fanin is a known 1, XOR only where
    every fanin is known; inverting types flip the value bit of known
    lanes.  ``fanins`` is consumed: the result may share its memory.
    """
    if gtype in (GateType.AND, GateType.NAND):
        ufunc = np.bitwise_and
    elif gtype in (GateType.OR, GateType.NOR):
        ufunc = np.bitwise_or
    elif gtype in (GateType.XOR, GateType.XNOR):
        ufunc = np.bitwise_xor
    elif gtype in (GateType.NOT, GateType.BUF):
        ufunc = None
    else:
        raise ValueError(f"gate type {gtype!r} has no packed evaluation form")
    if ufunc is None:
        # One fanin per gate: the gather already is the result.
        if starts is not None:
            out = fanins
        else:
            out = fanins[0] if axis == 0 else fanins[:, 0]
    elif m == 1:
        out = _fold(ufunc, fanins, axis, starts)
    else:
        n = fanins.shape[-1] // 2
        value = fanins[..., :n]
        # One AND fold over both planes: AND of the values, AND of the cares.
        out = _fold(np.bitwise_and, fanins, axis, starts)
        if ufunc is np.bitwise_and:
            out[..., n:] |= _fold(np.bitwise_or, fanins[..., n:] & ~value, axis, starts)
        elif ufunc is np.bitwise_or:
            # value & ~care == 0, so a set value bit is a known 1.
            ones = _fold(np.bitwise_or, value, axis, starts)
            out[..., :n] = ones
            out[..., n:] |= ones
        else:
            out[..., :n] = _fold(np.bitwise_xor, value, axis, starts)
            out[..., :n] &= out[..., n:]
    if gtype in (GateType.NAND, GateType.NOR, GateType.XNOR, GateType.NOT):
        if m == 1:
            out ^= _ALL_ONES
        else:
            # Known lanes flip: care & ~value == care ^ value.
            n = out.shape[-1] // 2
            out[..., :n] ^= out[..., n:]
    return out


def controlling_value(gtype: GateType) -> int | None:
    """The controlling input value of a gate, or ``None`` if it has none
    (XOR/XNOR/BUF/NOT).  Used by the PODEM backtrace and the D-frontier
    analysis."""
    if gtype in (GateType.AND, GateType.NAND):
        return 0
    if gtype in (GateType.OR, GateType.NOR):
        return 1
    return None


def inversion_parity(gtype: GateType) -> int:
    """1 if the gate inverts (NAND/NOR/XNOR/NOT), else 0."""
    return 1 if gtype in (GateType.NAND, GateType.NOR, GateType.XNOR, GateType.NOT) else 0
