"""Fail-log generation: inject known faults, record what a tester sees.

Diagnosis needs ground truth to be validated against, so this module
plays the *defective device*: it simulates a circuit with one or more
stuck-at faults injected **simultaneously** (the single-fault engines in
:mod:`repro.sim` cannot compose faults on one machine) and packages the
observed responses as a :class:`FailLog` — exactly the data an ATE
captures from a failing die.

:class:`SimulatedTester` wraps a fail log as the *signature-mode*
oracle: it answers prefix-signature and window-capture queries the way
a BIST re-run on real hardware would, while counting every query so the
diagnosis engine's re-simulation budget can be asserted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.circuit.gates import eval_gates, gate_form
from repro.circuit.netlist import Circuit
from repro.faults.model import Fault
from repro.sim.logic import CompiledCircuit
from repro.sim.misr import Misr
from repro.utils.bitvec import BitVector, PackedPatterns, as_packed, unpack_words

_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def simulate_with_faults(
    compiled: CompiledCircuit,
    input_words: np.ndarray,
    faults: tuple[Fault, ...] | list[Fault],
) -> np.ndarray:
    """Word-parallel simulation with every fault in ``faults`` injected
    on the *same* machine.

    Returns the full ``(n_nodes, n_words)`` value array.  Stem faults
    freeze their net's row; branch faults re-evaluate the reading gate
    with the faulty pin stuck, using the (possibly already faulty)
    values of the other pins — which is what distinguishes a true
    multi-fault machine from a batch of independent single faults.  A
    fault whose net or pin the circuit lacks raises :class:`KeyError`.
    """
    levels = compiled.node_levels
    stems: dict[int, list[tuple[int, int]]] = {}  # level -> [(node, stuck)]
    branches: dict[int, dict[int, list[tuple[int, int]]]] = {}
    # level -> gate id -> [(pin, stuck)]; grouped so two branch faults on
    # one gate force both pins in a single re-evaluation.
    for fault in faults:
        node_id, gate_id, pin = compiled.fault_site(fault)
        if gate_id is not None:
            level = int(levels[gate_id])
            branches.setdefault(level, {}).setdefault(gate_id, []).append(
                (pin, fault.value)
            )
        else:
            stems.setdefault(int(levels[node_id]), []).append(
                (node_id, fault.value)
            )

    values = compiled.source_state(input_words)

    def apply_forcings(level: int) -> None:
        # Branch re-evaluations first, stem freezes second: a stem fault
        # on a gate's output dominates any branch fault feeding that
        # same gate (the output is stuck no matter what the gate reads),
        # so the freeze must land last.
        for gate_id, pins in branches.get(level, {}).items():
            fanin_words = values[list(compiled.gate_fanins[gate_id])]
            for pin, stuck in pins:
                fanin_words[pin] = _ALL_ONES if stuck else 0
            values[gate_id, :] = eval_gates(
                *gate_form(compiled.gate_types[gate_id]), fanin_words
            )
        for node_id, stuck in stems.get(level, ()):
            values[node_id, :] = _ALL_ONES if stuck else 0

    # Sources sit at level 0; gates start at level 1.
    apply_forcings(0)
    for level, buckets in compiled.plan:
        for fold, invert, out_ids, fanins in buckets:
            values[out_ids, :] = eval_gates(fold, invert, values[fanins], axis=1)
        # Forced sites are re-asserted *after* their level evaluates, so
        # a site inside another fault's cone still holds its stuck value.
        apply_forcings(level)
    return values[: compiled.n_nodes]


def faulty_responses(
    compiled: CompiledCircuit,
    patterns: "list[BitVector] | PackedPatterns",
    faults: tuple[Fault, ...] | list[Fault],
) -> list[BitVector]:
    """Primary-output vectors of the multi-fault machine, one per
    pattern (bit ``k`` = value of ``circuit.outputs[k]``)."""
    if not len(patterns):
        return []
    packed = as_packed(patterns, compiled.n_inputs)
    values = simulate_with_faults(compiled, packed.words, faults)
    return unpack_words(values[compiled.output_ids, :], packed.n_patterns)


@dataclass
class FailLog:
    """What the tester captured from one failing device.

    ``responses`` is the observed primary-output vector per applied
    pattern; ``injected`` records the ground-truth fault set for
    synthesised scenarios (empty when the log comes from real silicon).
    """

    circuit_name: str
    patterns: list[BitVector]
    responses: list[BitVector]
    injected: tuple[Fault, ...] = ()

    @property
    def n_patterns(self) -> int:
        """Number of applied patterns."""
        return len(self.patterns)

    def packed(self, width: int) -> PackedPatterns:
        """The applied patterns in word-parallel packed form.

        Packed on first use and cached on the log, so every diagnosis
        engine consuming this log shares one packing instead of
        re-packing per call.
        """
        cached: PackedPatterns | None = getattr(self, "_packed", None)
        if (
            cached is None
            or cached.width != width
            or cached.n_patterns != len(self.patterns)
        ):
            cached = PackedPatterns.from_patterns(self.patterns, width)
            self._packed = cached
        return cached

    def attach_packed(self, packed: PackedPatterns) -> "FailLog":
        """Pre-seed the packed-pattern cache with an already-packed form
        of this log's pattern sequence (the serve layer shares one
        packing across every fail log of a tester batch)."""
        if packed.n_patterns != len(self.patterns):
            raise ValueError(
                f"packed carries {packed.n_patterns} patterns, "
                f"log has {len(self.patterns)}"
            )
        self._packed = packed
        return self


def make_fail_log(
    circuit: Circuit,
    patterns: list[BitVector],
    faults: Fault | tuple[Fault, ...] | list[Fault],
    compiled: CompiledCircuit | None = None,
) -> FailLog:
    """Synthesise a ground-truth fail log by injecting ``faults``."""
    if isinstance(faults, Fault):
        faults = (faults,)
    compiled = compiled or CompiledCircuit(circuit)
    return FailLog(
        circuit_name=circuit.name,
        patterns=list(patterns),
        responses=faulty_responses(compiled, list(patterns), faults),
        injected=tuple(faults),
    )


@dataclass
class SimulatedTester:
    """A BIST tester stand-in for signature-mode diagnosis.

    Real flow: the device ran the full session once and its final MISR
    signature mismatched; the tester can then *re-run* the session from
    the start up to any pattern count and unload the intermediate
    signature (``prefix_signature``), or re-run a localized window with
    per-cycle response capture (``window_responses``) — the expensive
    tester operation that bisection exists to minimise.  Query counters
    let the tests assert the diagnosis engine's budget.
    """

    fail_log: FailLog
    misr: Misr
    seed: BitVector | None = None
    prefix_queries: int = field(default=0, init=False)
    window_captures: int = field(default=0, init=False)
    patterns_captured: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        state = self.seed if self.seed is not None else BitVector.zeros(self.misr.width)
        states = [state]
        for response in self.fail_log.responses:
            state = self.misr.step(state, response)
            states.append(state)
        self._prefix_states = states

    @property
    def n_patterns(self) -> int:
        """Session length in patterns."""
        return self.fail_log.n_patterns

    @property
    def final_signature(self) -> BitVector:
        """The signature after the full session (what flagged the die)."""
        return self._prefix_states[-1]

    def prefix_signature(self, n_patterns: int) -> BitVector:
        """Signature after re-running the first ``n_patterns`` patterns."""
        if not 0 <= n_patterns <= self.n_patterns:
            raise ValueError(
                f"prefix length {n_patterns} out of range 0..{self.n_patterns}"
            )
        self.prefix_queries += 1
        return self._prefix_states[n_patterns]

    def window_responses(self, start: int, stop: int) -> list[BitVector]:
        """Per-pattern responses for ``[start, stop)``, captured by a
        scan re-run of that window."""
        if not 0 <= start <= stop <= self.n_patterns:
            raise ValueError(
                f"window [{start}, {stop}) out of range 0..{self.n_patterns}"
            )
        self.window_captures += 1
        self.patterns_captured += stop - start
        return self.fail_log.responses[start:stop]


def parse_fault(spec: str) -> Fault:
    """Parse a CLI fault spec: ``net/SA0`` (stem) or
    ``net->gate.pin/SA1`` (fanout branch)."""
    text = spec.strip()
    try:
        site_text, sa = text.rsplit("/", 1)
        if not sa.upper().startswith("SA"):
            raise ValueError
        value = int(sa[2:])
        if "->" in site_text:
            net, reader = site_text.split("->", 1)
            gate, pin = reader.rsplit(".", 1)
            return Fault.branch(net, gate, int(pin), value)
        return Fault.stem(site_text, value)
    except (ValueError, TypeError) as exc:
        raise ValueError(
            f"bad fault spec {spec!r}: expected 'net/SA0' or 'net->gate.pin/SA1'"
        ) from exc


def choose_faults(faults: list[Fault], count: int, rng) -> tuple[Fault, ...]:
    """Deterministically draw ``count`` distinct faults from ``faults``
    using ``rng`` (an RngStream / ``random.Random``-compatible source)."""
    if count < 1 or count > len(faults):
        raise ValueError(
            f"cannot choose {count} faults from a list of {len(faults)}"
        )
    pool = list(faults)
    chosen: list[Fault] = []
    for _ in range(count):
        chosen.append(pool.pop(rng.randrange(len(pool))))
    return tuple(chosen)
