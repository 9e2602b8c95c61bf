"""Gate types and their evaluation semantics.

The gate algebra is written once, for 0/1 and 0/1/X alike:

* :func:`eval_gates` — the packed kernel, on the **normalized gate
  form**: every evaluated gate is one of three folds (AND, OR, XOR)
  plus an output inversion (:func:`gate_form`; BUF and NOT are one-pin
  ANDs, NAND/NOR/XNOR carry the inversion).  Gate state is ``uint64``
  words with ``m`` bit-planes side by side on the word axis: ``m = 1``
  is plain 0/1 words, ``m = 2`` a value plane followed by a care plane
  (0/1/X; see ``docs/internals-bitpacking.md``).  Gates of one fold
  and mixed arity share one call once the narrower ones are padded
  with the fold's identity (:data:`FOLD_IDENTITY`), which is what every
  levelized sweep does (:mod:`repro.sim.logic`).
* :func:`eval_gate_3v_scalar` — the scalar oracle on codes 0/1/2
  (2 = X).  On 0/1 codes it is plain Boolean evaluation; the reference
  simulators use it, and the differential suite pins the kernel to it.
"""

from __future__ import annotations

from enum import Enum, IntEnum
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


class Fold(IntEnum):
    """The three folds of the normalized gate form: every evaluated gate
    is one fold over its fanins plus an output inversion (see
    :data:`GATE_FORMS`)."""

    AND = 0
    OR = 1
    XOR = 2


#: The normalized form of every evaluated gate type: ``(fold, output
#: inverted)``.  BUF and NOT are one-pin ANDs; NAND, NOR and XNOR carry
#: the inversion of AND, OR and XOR.
GATE_FORMS: dict[GateType, tuple[Fold, int]] = {
    GateType.AND: (Fold.AND, 0), GateType.NAND: (Fold.AND, 1),
    GateType.BUF: (Fold.AND, 0), GateType.NOT: (Fold.AND, 1),
    GateType.OR: (Fold.OR, 0), GateType.NOR: (Fold.OR, 1),
    GateType.XOR: (Fold.XOR, 0), GateType.XNOR: (Fold.XOR, 1),
}

#: The known constant each fold ignores (1 for AND, 0 for OR and XOR):
#: padding a gate's fanins with it changes no output bit, at ``m = 1``
#: or ``m = 2``, so gates of mixed arity share one rectangular fold.
FOLD_IDENTITY: dict[Fold, int] = {Fold.AND: 1, Fold.OR: 0, Fold.XOR: 0}

_UFUNC = (np.bitwise_and, np.bitwise_or, np.bitwise_xor)


def gate_form(gtype: GateType) -> tuple[Fold, int]:
    """The ``(fold, output inverted)`` form of an evaluated gate type;
    :class:`ValueError` for sources and flip-flops, which have none."""
    form = GATE_FORMS.get(gtype)
    if form is None:
        raise ValueError(f"gate type {gtype!r} has no packed evaluation form")
    return form


@kernel
def eval_gates(
    fold: Fold,
    invert: int | slice,
    fanins: np.ndarray,
    m: int = 1,
    axis: int = 0,
) -> np.ndarray:
    """Evaluate gates of one fold on gathered packed fanin state.

    ``fold`` and ``invert`` are a normalized gate form (see
    :func:`gate_form`): ``invert`` is ``0``, ``1`` (every gate
    inverts), or, for a bucket, the slice of its gates that invert (a
    plan puts a bucket's inverting gates last, so this is a tail).

    The last axis of ``fanins`` holds ``m`` bit-planes side by side, each
    ``n`` ``uint64`` words wide (bit ``k`` of word ``w`` is pattern or
    lane ``64*w + k``):

    * ``m = 1`` — one plane of 0/1 values;
    * ``m = 2`` — the value plane, then the care plane (1 = known 0/1,
      0 = X), with the invariant ``value & ~care == 0``.

    The fanin axis, ``axis``, is reduced away: ``0`` for one gate's
    stacked fanins, ``1`` for a bucket ``(gates, width, ...)`` whose
    narrower gates are padded with the fold's identity
    (:data:`FOLD_IDENTITY`).

    The X semantics are those of :func:`eval_gate_3v_scalar`: AND is
    known where every fanin is known or some fanin is a known 0, OR
    where every fanin is known or some fanin is a known 1, XOR only where
    every fanin is known; inversion flips the value bit of known lanes.
    ``fanins`` is consumed: the result may share its memory.
    """
    if fanins.shape[axis] == 1:
        # A one-pin fold is its pin, on every plane.
        out = fanins[0] if axis == 0 else fanins[:, 0]
    elif m == 1:
        out = _UFUNC[fold].reduce(fanins, axis=axis)
    else:
        n = fanins.shape[-1] // 2
        value = fanins[..., :n]
        # One AND fold over both planes: AND of the values, AND of the cares.
        out = np.bitwise_and.reduce(fanins, axis=axis)
        if fold is Fold.AND:
            # value & ~care == 0, so care ^ value is a known 0.
            out[..., n:] |= np.bitwise_or.reduce(fanins[..., n:] ^ value, axis=axis)
        elif fold is Fold.OR:
            # ... and a set value bit is a known 1.
            out[..., :n] = np.bitwise_or.reduce(value, axis=axis)
            out[..., n:] |= out[..., :n]
        else:
            out[..., :n] = np.bitwise_xor.reduce(value, axis=axis)
            out[..., :n] &= out[..., n:]
    if isinstance(invert, slice):
        rows = out[invert]
    elif invert:
        rows = out
    else:
        return out
    if m == 1:
        rows ^= _ALL_ONES
    else:
        # Known lanes flip: care & ~value == care ^ value.
        n = out.shape[-1] // 2
        rows[..., :n] ^= rows[..., n:]
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
    return GATE_FORMS.get(gtype, (None, 0))[1]
