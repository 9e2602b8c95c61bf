"""Tests for the sequential simulator, including the full-scan contract."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.bench import parse_bench
from repro.circuit.fullscan import PPO_SUFFIX, full_scan_view
from repro.circuit.generate import GeneratorSpec, generate_circuit
from repro.circuits.data import S27_BENCH
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream

from oracles.reference import ReferenceSimulator
from oracles.sequential import SequentialSimulator


def _s27():
    return parse_bench(S27_BENCH, "s27")


class TestBasics:
    def test_initial_state_zero(self):
        simulator = SequentialSimulator(_s27())
        assert all(v == 0 for v in simulator.state.values())

    def test_load_state(self):
        simulator = SequentialSimulator(_s27(), initial_state={"G5": 1})
        assert simulator.state["G5"] == 1

    def test_load_unknown_ff_rejected(self):
        with pytest.raises(KeyError):
            SequentialSimulator(_s27()).load_state({"G0": 1})

    def test_load_bad_value_rejected(self):
        with pytest.raises(ValueError):
            SequentialSimulator(_s27()).load_state({"G5": 2})

    def test_pattern_width_checked(self):
        simulator = SequentialSimulator(_s27())
        with pytest.raises(ValueError, match="width"):
            simulator.step(BitVector(0, 3))

    def test_state_vector(self):
        simulator = SequentialSimulator(_s27(), initial_state={"G5": 1, "G7": 1})
        vector = simulator.state_vector()
        assert vector.width == 3
        assert vector.popcount() == 2

    def test_state_vector_needs_ffs(self, c17):
        with pytest.raises(ValueError):
            SequentialSimulator(c17).state_vector()

    def test_combinational_circuit_steps_are_stateless(self, c17):
        simulator = SequentialSimulator(c17)
        pattern = BitVector.ones(5)
        assert simulator.step(pattern) == simulator.step(pattern)

    def test_run_length(self):
        simulator = SequentialSimulator(_s27())
        outputs = simulator.run([BitVector(0, 4)] * 5)
        assert len(outputs) == 5

    def test_state_actually_evolves(self):
        simulator = SequentialSimulator(_s27())
        states = []
        for value in [0b0000, 0b1111, 0b0101, 0b0011, 0b1000]:
            simulator.step(BitVector(value, 4))
            states.append(tuple(simulator.state.values()))
        assert len(set(states)) > 1


class TestFullScanContract:
    """full_scan_view must be the exact combinational unrolling of one
    clock of the sequential machine."""

    def _check_one_clock(self, sequential, rng):
        scan = full_scan_view(sequential)
        scan_sim = ReferenceSimulator(scan)
        seq_sim = SequentialSimulator(sequential)
        dffs = seq_sim.dff_names
        for _ in range(20):
            # random present state + input
            state = {name: rng.getrandbits(1) for name in dffs}
            seq_sim.load_state(state)
            pi_pattern = BitVector.random(len(sequential.inputs), rng)
            expected_po = seq_sim.step(pi_pattern)
            expected_next = dict(seq_sim.state)
            # the scan view puts PIs first, then DFF outputs as PPIs
            scan_bits = list(pi_pattern.bits())
            for name in scan.inputs[len(sequential.inputs) :]:
                scan_bits.append(state[name])
            values = scan_sim.node_values(BitVector.from_bits(scan_bits))
            for position, po in enumerate(sequential.outputs):
                assert values[po] == expected_po.bit(position), po
            for name in dffs:
                assert values[f"{name}{PPO_SUFFIX}"] == expected_next[name], name

    def test_s27_contract(self, rng):
        self._check_one_clock(_s27(), rng)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        n_dffs=st.integers(min_value=1, max_value=6),
    )
    def test_random_sequential_circuits_contract(self, seed, n_dffs):
        circuit = generate_circuit(
            GeneratorSpec("seqprop", 5, 3, 25, n_dffs=n_dffs, seed=seed)
        )
        self._check_one_clock(circuit, RngStream(seed, "fullscan-contract"))
