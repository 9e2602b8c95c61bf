"""The five-valued D-algebra, as good/faulty two-machine cases through
the one gate kernel.

A D-algebra value is a (good, faulty) pair of three-valued values.  The
batch PODEM carries it as ``m = 2`` planes whose words hold the good
machine first and the faulty machine second — value words
``[good, faulty]``, then care words ``[good, faulty]`` — so one
:func:`~repro.circuit.gates.eval_gates` call implies both machines.
These cases drive that layout with one lane per machine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import Circuit, Gate
from repro.circuit.gates import X3, GateType, eval_gates, gate_form
from repro.sim.logic import CompiledCircuit

ZERO, ONE, D, DBAR, X = (0, 0), (1, 1), (1, 0), (0, 1), (X3, X3)


def _row(value: tuple[int, int]) -> list[int]:
    """One fanin's words: value (good, faulty), then care (good, faulty)."""
    return [int(code == 1) for code in value] + [int(code != X3) for code in value]


def _pair(words: np.ndarray) -> tuple[int, int]:
    v_good, v_faulty, c_good, c_faulty = (int(word) & 1 for word in words)
    return (v_good if c_good else X3, v_faulty if c_faulty else X3)


def eval5(gtype: GateType, fanins: list[tuple[int, int]]) -> tuple[int, int]:
    """Evaluate one gate on both machines with the packed kernel."""
    words = np.array([_row(value) for value in fanins], dtype=np.uint64)
    return _pair(eval_gates(*gate_form(gtype), words, 2, axis=0))


class TestDAlgebra:
    def test_and_with_d(self):
        assert eval5(GateType.AND, [D, ONE]) == D
        assert eval5(GateType.AND, [D, ZERO]) == ZERO
        assert eval5(GateType.AND, [D, DBAR]) == ZERO

    def test_and_with_x(self):
        # AND(D, X): good = X, faulty = 0
        assert eval5(GateType.AND, [D, X]) == (X3, 0)

    def test_or_with_d(self):
        assert eval5(GateType.OR, [D, ZERO]) == D
        assert eval5(GateType.OR, [D, ONE]) == ONE
        assert eval5(GateType.OR, [D, DBAR]) == ONE

    def test_not_flips_d(self):
        assert eval5(GateType.NOT, [D]) == DBAR
        assert eval5(GateType.NOT, [DBAR]) == D

    def test_nand_nor(self):
        assert eval5(GateType.NAND, [D, ONE]) == DBAR
        assert eval5(GateType.NOR, [D, ZERO]) == DBAR

    def test_xor_propagates_d(self):
        assert eval5(GateType.XOR, [D, ZERO]) == D
        assert eval5(GateType.XOR, [D, ONE]) == DBAR
        assert eval5(GateType.XOR, [D, D]) == ZERO
        assert eval5(GateType.XOR, [D, DBAR]) == ONE

    def test_xnor(self):
        assert eval5(GateType.XNOR, [D, ZERO]) == DBAR

    def test_xor_with_x_is_x(self):
        assert eval5(GateType.XOR, [D, X]) == X

    def test_buf_identity(self):
        assert eval5(GateType.BUF, [D]) == D

    def test_constants_eval(self):
        # Constants have no fanin; the simulator materialises them as
        # known on both machines, whatever the inputs carry.
        circuit = Circuit(
            "consts",
            ["a"],
            ["z", "o"],
            [Gate("z", GateType.CONST0, ()), Gate("o", GateType.CONST1, ())],
        )
        compiled = CompiledCircuit(circuit)
        state = compiled.simulate(np.array([_row(X)], dtype=np.uint64), 2)
        assert _pair(state[compiled.index["z"]]) == ZERO
        assert _pair(state[compiled.index["o"]]) == ONE

    def test_sources_rejected(self):
        with pytest.raises(ValueError):
            gate_form(GateType.INPUT)
