"""Scalar references of the packed kernels: one value at a time.

Each function here is the from-the-definition oracle of one packed
kernel, deliberately slow and obvious:

* :func:`eval_gate_3v_scalar` — of :func:`~repro.circuit.gates.eval_gates`;
* :func:`logic_sim_3v_scalar` — of :func:`~repro.sim.threeval.logic_sim_3v`;
* :func:`pack_patterns_scalar` / :func:`unpack_words_scalar` — of
  :func:`~repro.utils.bitvec.pack_patterns` /
  :func:`~repro.utils.bitvec.unpack_words`;
* :func:`planes_from_codes_scalar` — of
  :meth:`~repro.utils.bitvec.PackedPlanes.from_codes`.

The differential suite pins each kernel against its reference bit for
bit, and the 0/1/X throughput floor times them against each other.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

import numpy as np

from repro.circuit.gates import X3, GateType, inversion_parity
from repro.circuit.netlist import Circuit
from repro.utils.bitvec import (
    WORD_BITS,
    X_CODE,
    BitVector,
    PackedPlanes,
    n_words_for,
)


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


def logic_sim_3v_scalar(circuit: Circuit, codes: np.ndarray) -> np.ndarray:
    """Scalar three-valued oracle: one gate evaluation at a time.

    ``codes`` has shape ``(n_inputs, n_patterns)`` over 0/1/2 (2 = X);
    the result has shape ``(n_outputs, n_patterns)``.  Deliberately a
    per-pattern Python topological walk over
    :func:`eval_gate_3v_scalar` — the
    from-the-definition reference the differential suite (and the
    throughput floor) pins :func:`logic_sim_3v` against.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    if codes.ndim != 2 or codes.shape[0] != circuit.n_inputs:
        raise ValueError(
            f"codes must be (n_inputs, n_patterns) = ({circuit.n_inputs}, *), "
            f"got {codes.shape}"
        )
    n_patterns = codes.shape[1]
    out = np.empty((circuit.n_outputs, n_patterns), dtype=np.uint8)
    topo = circuit.topo_order()
    input_index = {name: i for i, name in enumerate(circuit.inputs)}
    for p in range(n_patterns):
        values: dict[str, int] = {
            name: int(codes[i, p]) for name, i in input_index.items()
        }
        for name in topo:
            if name in values:
                continue
            gate = circuit.gates[name]
            values[name] = eval_gate_3v_scalar(
                gate.gtype, [values[f] for f in gate.fanins]
            )
        for k, name in enumerate(circuit.outputs):
            out[k, p] = values[name]
    return out


def pack_patterns_scalar(patterns: Sequence[BitVector], width: int) -> np.ndarray:
    """Reference scalar implementation of :func:`pack_patterns`.

    One Python-level bit test per (pattern, input bit) — obviously
    correct, and kept as the oracle the vectorized implementation is
    differentially tested against.
    """
    if not patterns:
        return np.zeros((width, 0), dtype=np.uint64)
    n_words = (len(patterns) + WORD_BITS - 1) // WORD_BITS
    out = np.zeros((width, n_words), dtype=np.uint64)
    for index, pattern in enumerate(patterns):
        if pattern.width != width:
            raise ValueError(
                f"pattern {index} has width {pattern.width}, expected {width}"
            )
        word, bit = divmod(index, WORD_BITS)
        value = pattern.value
        for input_bit in range(width):
            if (value >> input_bit) & 1:
                out[input_bit, word] |= np.uint64(1 << bit)
    return out


def unpack_words_scalar(words: np.ndarray, n_patterns: int) -> list[BitVector]:
    """Reference scalar implementation of :func:`unpack_words`."""
    width = words.shape[0]
    patterns: list[BitVector] = []
    for index in range(n_patterns):
        word, bit = divmod(index, WORD_BITS)
        value = 0
        for input_bit in range(width):
            if (int(words[input_bit, word]) >> bit) & 1:
                value |= 1 << input_bit
        patterns.append(BitVector(value, width))
    return patterns


def planes_from_codes_scalar(codes: np.ndarray) -> "PackedPlanes":
    """Reference scalar implementation of :meth:`PackedPlanes.from_codes`.

    One Python-level bit test per (row, pattern) — obviously correct,
    kept as the oracle for the vectorized packer.
    """
    codes = np.asarray(codes, dtype=np.uint8)
    width, n_patterns = codes.shape
    n_words = n_words_for(n_patterns) or 1
    value = np.zeros((width, n_words), dtype=np.uint64)
    care = np.zeros((width, n_words), dtype=np.uint64)
    for row in range(width):
        for index in range(n_patterns):
            word, bit = divmod(index, WORD_BITS)
            code = int(codes[row, index])
            if code == 1:
                value[row, word] |= np.uint64(1 << bit)
            if code != X_CODE:
                care[row, word] |= np.uint64(1 << bit)
    return PackedPlanes(value, care, n_patterns)
