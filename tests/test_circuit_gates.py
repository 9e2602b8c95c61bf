"""Tests for gate evaluation semantics: the scalar oracle and the one
packed kernel.

* the scalar oracle :func:`eval_gate_3v_scalar` against a hand-written
  D-algebra table, and as plain Boolean evaluation on 0/1 codes;
* the exhaustive gate-algebra differential: :func:`eval_gates` against
  the oracle for every gate type at arity 1–4 (1 for NOT/BUF) and every
  code tuple, in every reduction shape (single gate, rectangular group,
  a bucket of mixed arity padded with the fold's identity), at
  ``m = 1`` on 0/1 and ``m = 2`` on 0/1/X.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.circuit.gates import (
    FOLD_IDENTITY,
    X3,
    GateType,
    controlling_value,
    eval_gate_3v_scalar,
    eval_gates,
    gate_form,
    inversion_parity,
)
from repro.utils.bitvec import PackedPlanes, tail_mask

_TRUTH_2IN = {
    GateType.AND: lambda a, b: a & b,
    GateType.NAND: lambda a, b: 1 - (a & b),
    GateType.OR: lambda a, b: a | b,
    GateType.NOR: lambda a, b: 1 - (a | b),
    GateType.XOR: lambda a, b: a ^ b,
    GateType.XNOR: lambda a, b: 1 - (a ^ b),
}

#: Every gate type with a packed evaluation form.
PACKED_TYPES = list(_TRUTH_2IN) + [GateType.NOT, GateType.BUF]

_INVERTING = {GateType.NAND, GateType.NOR, GateType.XNOR, GateType.NOT}


def _ref_gate3(gtype: GateType, codes: list[int]) -> int:
    """Three-valued gate semantics, straight from the D-algebra: a
    controlling value decides regardless of X; XOR is X if any fanin is."""
    if gtype in (GateType.AND, GateType.NAND):
        if 0 in codes:
            out = 0
        elif X3 in codes:
            out = X3
        else:
            out = 1
    elif gtype in (GateType.OR, GateType.NOR):
        if 1 in codes:
            out = 1
        elif X3 in codes:
            out = X3
        else:
            out = 0
    elif gtype in (GateType.XOR, GateType.XNOR):
        out = X3 if X3 in codes else sum(codes) % 2
    else:  # NOT / BUF
        out = codes[0]
    if gtype in _INVERTING and out != X3:
        out = 1 - out
    return out


def _arities(gtype: GateType) -> list[int]:
    return [1] if gtype in (GateType.NOT, GateType.BUF) else [1, 2, 3, 4]


def _state(codes: np.ndarray, m: int) -> np.ndarray:
    """Pack ``(rows, lanes)`` codes into ``m``-plane state rows."""
    planes = PackedPlanes.from_codes(codes)
    return planes.words.copy() if m == 2 else planes.value.copy()


def _codes(state: np.ndarray, m: int, n_lanes: int) -> np.ndarray:
    """Unpack ``m``-plane state rows back to codes, checking the plane
    invariant on the way (``PackedPlanes`` rejects ``v & ~c != 0``)."""
    state = state.reshape(-1, state.shape[-1])
    n = state.shape[1] // m
    value = state[:, :n]
    care = state[:, n:] if m == 2 else np.full_like(value, np.uint64(2**64 - 1))
    mask = tail_mask(n_lanes)
    return PackedPlanes(value & mask, care & mask, n_lanes).to_codes()


class TestScalarEval:
    """The scalar oracle on 0/1 codes is plain Boolean evaluation."""

    @pytest.mark.parametrize("gtype", list(_TRUTH_2IN))
    def test_two_input_truth_tables(self, gtype):
        for a, b in itertools.product((0, 1), repeat=2):
            assert eval_gate_3v_scalar(gtype, [a, b]) == _TRUTH_2IN[gtype](a, b)

    def test_not_and_buf(self):
        assert eval_gate_3v_scalar(GateType.NOT, [0]) == 1
        assert eval_gate_3v_scalar(GateType.NOT, [1]) == 0
        assert eval_gate_3v_scalar(GateType.BUF, [1]) == 1

    def test_constants(self):
        assert eval_gate_3v_scalar(GateType.CONST0, []) == 0
        assert eval_gate_3v_scalar(GateType.CONST1, []) == 1

    def test_wide_gates(self):
        assert eval_gate_3v_scalar(GateType.AND, [1, 1, 1, 1]) == 1
        assert eval_gate_3v_scalar(GateType.AND, [1, 1, 0, 1]) == 0
        assert eval_gate_3v_scalar(GateType.XOR, [1, 1, 1]) == 1

    def test_input_not_evaluable(self):
        with pytest.raises(ValueError):
            eval_gate_3v_scalar(GateType.INPUT, [])

    def test_dff_not_evaluable(self):
        with pytest.raises(ValueError):
            eval_gate_3v_scalar(GateType.DFF, [0])

    @pytest.mark.parametrize("gtype", PACKED_TYPES)
    def test_oracle_matches_d_algebra_table(self, gtype):
        for arity in _arities(gtype):
            for codes in itertools.product((0, 1, X3), repeat=arity):
                assert eval_gate_3v_scalar(gtype, list(codes)) == _ref_gate3(
                    gtype, list(codes)
                ), (gtype, codes)


class TestPackedEval:
    @pytest.mark.parametrize("gtype", PACKED_TYPES)
    def test_packed_matches_scalar(self, gtype):
        """The exhaustive differential: every arity, every code tuple,
        every reduction shape, both plane counts."""
        for m, alphabet in ((1, (0, 1)), (2, (0, 1, X3))):
            # Every gate sees the same lane count: all tuples at arity 4,
            # tiled at lower arities (81 lanes at m = 2 span two words).
            n_lanes = len(alphabet) ** 4
            per_arity = {}
            for arity in _arities(gtype):
                tuples = np.array(
                    list(itertools.product(alphabet, repeat=arity)), dtype=np.uint8
                ).T
                codes = np.resize(tuples, (arity, n_lanes))
                # A second gate per group reads the 0/1-swapped codes.
                swapped = np.where(codes == X3, X3, 1 - codes).astype(np.uint8)
                want = [
                    [eval_gate_3v_scalar(gtype, list(c[:, k])) for k in range(n_lanes)]
                    for c in (codes, swapped)
                ]
                per_arity[arity] = (codes, swapped, want)
                # Single gate: fanins stacked on axis 0.
                out = eval_gates(*gate_form(gtype), _state(codes, m), m, axis=0)
                assert _codes(out, m, n_lanes)[0].tolist() == want[0], (m, arity)
                # Rectangular group (gates, arity, batch, words), axis 1.
                group = np.stack([_state(codes, m), _state(swapped, m)])[:, :, None]
                out = eval_gates(*gate_form(gtype), group, m, axis=1)
                assert out.shape[:2] == (2, 1)
                assert _codes(out, m, n_lanes).tolist() == want, (m, arity)
            # Padded bucket: every arity (and both gates) in one call,
            # the narrower gates padded with the fold's identity.
            fold, invert = gate_form(gtype)
            width = max(per_arity)
            gates, wants = [], []
            for codes, swapped, want in per_arity.values():
                for gate_codes, gate_want in zip((codes, swapped), want):
                    pad = np.full(
                        (width - len(gate_codes), n_lanes), FOLD_IDENTITY[fold]
                    )
                    gates.append(_state(np.concatenate([gate_codes, pad]), m))
                    wants.append(gate_want)
            out = eval_gates(fold, invert, np.stack(gates), m, axis=1)
            assert _codes(out, m, n_lanes).tolist() == wants, m

    def test_packed_buf_copies(self):
        state = np.array([[7], [9]], dtype=np.uint64)
        out = eval_gates(*gate_form(GateType.BUF), state[[1]][:, None], axis=1)
        out[0] = 0
        assert state.tolist() == [[7], [9]]

    def test_packed_constants_rejected(self):
        for gtype in (GateType.CONST0, GateType.INPUT, GateType.DFF):
            with pytest.raises(ValueError):
                gate_form(gtype)


class TestGateMetadata:
    def test_controlling_values(self):
        assert controlling_value(GateType.AND) == 0
        assert controlling_value(GateType.NAND) == 0
        assert controlling_value(GateType.OR) == 1
        assert controlling_value(GateType.NOR) == 1
        assert controlling_value(GateType.XOR) is None

    def test_inversion_parity(self):
        assert inversion_parity(GateType.NAND) == 1
        assert inversion_parity(GateType.NOR) == 1
        assert inversion_parity(GateType.NOT) == 1
        assert inversion_parity(GateType.XNOR) == 1
        assert inversion_parity(GateType.AND) == 0
        assert inversion_parity(GateType.BUF) == 0

    def test_fanin_ranges(self):
        assert GateType.NOT.max_fanin == 1
        assert GateType.AND.max_fanin is None
        assert GateType.INPUT.min_fanin == 0

    def test_is_source(self):
        assert GateType.INPUT.is_source
        assert GateType.CONST1.is_source
        assert not GateType.AND.is_source
