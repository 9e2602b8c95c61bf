"""Tests for MISR response compaction."""

from __future__ import annotations

import pytest

from repro.faults.model import Fault
from repro.sim.misr import Misr, aliasing_rate, golden_signature
from repro.utils.bitvec import BitVector

from oracles.reference import ReferenceSimulator


class TestMisrMechanics:
    def test_width_validated(self):
        with pytest.raises(ValueError):
            Misr(0)
        with pytest.raises(ValueError):
            Misr(4, taps=(9,))

    def test_step_width_checked(self):
        misr = Misr(4)
        with pytest.raises(ValueError):
            misr.step(BitVector(0, 4), BitVector(0, 5))

    def test_zero_responses_zero_signature(self):
        misr = Misr(4)
        assert misr.signature([BitVector.zeros(4)] * 10).value == 0

    def test_signature_depends_on_order(self):
        misr = Misr(4)
        a = [BitVector(1, 4), BitVector(2, 4), BitVector(4, 4)]
        b = [BitVector(4, 4), BitVector(2, 4), BitVector(1, 4)]
        assert misr.signature(a) != misr.signature(b)

    def test_signature_deterministic(self, rng):
        misr = Misr(8)
        responses = [BitVector.random(8, rng) for _ in range(20)]
        assert misr.signature(responses) == misr.signature(responses)

    def test_seed_changes_signature(self, rng):
        misr = Misr(8)
        responses = [BitVector.random(8, rng) for _ in range(5)]
        assert misr.signature(responses) != misr.signature(
            responses, seed=BitVector.ones(8)
        )

    def test_linearity(self, rng):
        """MISRs are linear: sig(a xor b) == sig(a) xor sig(b) with a
        zero seed (the property aliasing analysis rests on)."""
        misr = Misr(8)
        a = [BitVector.random(8, rng) for _ in range(12)]
        b = [BitVector.random(8, rng) for _ in range(12)]
        xored = [x ^ y for x, y in zip(a, b)]
        assert misr.signature(xored) == misr.signature(a) ^ misr.signature(b)


class TestSignatureTesting:
    def test_golden_signature_matches_manual(self, c17):
        patterns = [BitVector(v, 5) for v in range(10)]
        misr = Misr(2)
        manual = misr.signature(
            [ReferenceSimulator(c17).outputs(p) for p in patterns]
        )
        assert golden_signature(c17, patterns, misr) == manual

    def test_width_mismatch_rejected(self, c17):
        with pytest.raises(ValueError, match="width"):
            golden_signature(c17, [BitVector(0, 5)], Misr(5))

    def test_faulty_circuit_changes_signature(self, rng):
        """Every detected output fault corrupts the signature of an
        8-bit MISR (aliasing probability ~2^-8; with a handful of faults
        a collision would indicate a real compaction bug)."""
        from repro.circuit.generate import GeneratorSpec, generate_circuit

        circuit = generate_circuit(GeneratorSpec("misr8", 10, 8, 60, seed=11))
        patterns = [BitVector.random(10, rng) for _ in range(48)]
        reference = ReferenceSimulator(circuit)
        misr = Misr(8)
        good_responses = [reference.outputs(p) for p in patterns]
        good_signature = misr.signature(good_responses)
        faults = [Fault.stem(net, v) for net in circuit.outputs for v in (0, 1)]
        for fault in faults:
            bad_responses = [reference.outputs(p, fault) for p in patterns]
            if bad_responses == good_responses:
                continue  # fault not detected by these patterns
            assert misr.signature(bad_responses) != good_signature, str(fault)

    def test_aliasing_rate_bounds(self, rng):
        misr = Misr(4)
        good = [BitVector.random(4, rng) for _ in range(16)]
        corrupted = []
        for _ in range(50):
            run = list(good)
            position = rng.randrange(len(run))
            run[position] = run[position] ^ BitVector(1 << rng.randrange(4), 4)
            corrupted.append(run)
        rate = aliasing_rate(misr, good, corrupted)
        assert 0.0 <= rate <= 1.0
        # single-bit corruptions never alias in a linear MISR
        assert rate == 0.0

    def test_aliasing_rate_empty(self, rng):
        misr = Misr(4)
        assert aliasing_rate(misr, [BitVector.zeros(4)], []) == 0.0

    def test_aliasing_detects_identical_run(self, rng):
        misr = Misr(4)
        good = [BitVector.random(4, rng) for _ in range(8)]
        assert aliasing_rate(misr, good, [list(good)]) == 1.0
