"""Tests for the gate-level accumulator netlists.

The headline property: the ripple-carry netlists compute exactly the
same next-state function as the behavioural accumulators, exhaustively
for small widths and sampled for larger ones.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.validate import validate_circuit
from repro.tpg.accumulator import AdderAccumulator, SubtracterAccumulator
from repro.tpg.hardware import (
    NetlistTpg,
    adder_accumulator_netlist,
    subtracter_accumulator_netlist,
)
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream


class TestNetlistStructure:
    def test_adder_netlist_wellformed(self):
        circuit = adder_accumulator_netlist(8)
        validate_circuit(circuit, allow_dangling=True)
        assert circuit.n_inputs == 16
        assert circuit.n_outputs == 8

    def test_subtracter_netlist_wellformed(self):
        circuit = subtracter_accumulator_netlist(8)
        validate_circuit(circuit, allow_dangling=True)

    def test_width_validation(self):
        with pytest.raises(ValueError):
            adder_accumulator_netlist(0)

    def test_width_one_adder(self):
        # degenerate: next = s0 ^ g0, no carry chain at all
        tpg = NetlistTpg(adder_accumulator_netlist(1), 1)
        assert tpg.next_state(BitVector(1, 1), BitVector(1, 1)).value == 0
        assert tpg.next_state(BitVector(0, 1), BitVector(1, 1)).value == 1


class TestBehaviouralEquivalence:
    def test_adder_exhaustive_width_4(self):
        netlist = NetlistTpg(adder_accumulator_netlist(4), 4)
        behavioural = AdderAccumulator(4)
        for state in range(16):
            for sigma in range(16):
                s, g = BitVector(state, 4), BitVector(sigma, 4)
                assert netlist.next_state(s, g) == behavioural.next_state(s, g), (
                    state,
                    sigma,
                )

    def test_subtracter_exhaustive_width_4(self):
        netlist = NetlistTpg(subtracter_accumulator_netlist(4), 4)
        behavioural = SubtracterAccumulator(4)
        for state in range(16):
            for sigma in range(16):
                s, g = BitVector(state, 4), BitVector(sigma, 4)
                assert netlist.next_state(s, g) == behavioural.next_state(s, g), (
                    state,
                    sigma,
                )

    @settings(max_examples=50, deadline=None)
    @given(
        width=st.integers(min_value=1, max_value=24),
        state=st.integers(min_value=0),
        sigma=st.integers(min_value=0),
        subtract=st.booleans(),
    )
    def test_random_widths_and_operands(self, width, state, sigma, subtract):
        if subtract:
            netlist = NetlistTpg(subtracter_accumulator_netlist(width), width)
            behavioural = SubtracterAccumulator(width)
        else:
            netlist = NetlistTpg(adder_accumulator_netlist(width), width)
            behavioural = AdderAccumulator(width)
        s = BitVector(state % (1 << width), width)
        g = BitVector(sigma % (1 << width), width)
        assert netlist.next_state(s, g) == behavioural.next_state(s, g)

    def test_whole_evolutions_match(self, rng):
        width = 10
        netlist = NetlistTpg(adder_accumulator_netlist(width), width)
        behavioural = AdderAccumulator(width)
        delta = BitVector.random(width, rng)
        sigma = behavioural.suggest_sigma(rng)
        assert netlist.evolve(delta, sigma, 30) == behavioural.evolve(delta, sigma, 30)


class TestNetlistTpgInterface:
    def test_rejects_wrong_interface(self, c17):
        with pytest.raises(ValueError, match="convention"):
            NetlistTpg(c17, 5)

    def test_name_mentions_netlist(self):
        tpg = NetlistTpg(adder_accumulator_netlist(4), 4)
        assert tpg.name.startswith("netlist:")

    def test_suggest_sigma_odd(self):
        tpg = NetlistTpg(adder_accumulator_netlist(6), 6)
        stream = RngStream(1, "hw")
        for _ in range(20):
            assert tpg.suggest_sigma(stream).bit(0) == 1

    def test_usable_in_pipeline(self):
        """The gate-level TPG drops into the covering flow unchanged."""
        from repro.circuits import load_circuit
        from repro.flow import PipelineConfig, Session

        circuit = load_circuit("c17")
        tpg = NetlistTpg(adder_accumulator_netlist(circuit.n_inputs), circuit.n_inputs)
        result = Session(circuit, PipelineConfig(evolution_length=8)).run(tpg)
        assert result.n_triplets >= 1
        assert result.trimmed.undetected == ()

    def test_tpg_netlist_is_itself_testable(self):
        """The Functional BIST premise: the TPG is mission logic, so the
        ATPG substrate can target the TPG's own faults."""
        from repro.atpg.engine import AtpgEngine

        netlist = adder_accumulator_netlist(4)
        result = AtpgEngine(netlist, seed=3).run()
        assert result.test_length > 0
        assert len(result.target_faults) > 0
