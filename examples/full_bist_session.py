#!/usr/bin/env python3
"""A complete BIST session, end to end, at the hardware level.

This example assembles every piece of a self-test architecture and runs
an actual test session:

1. the TPG is a *gate-level* ripple-carry adder accumulator
   (`repro.tpg.hardware`) — real mission logic, not a behavioural stub;
2. the reseeding controller's contents (the triplets) come from the
   set-covering pipeline;
3. responses are compacted in an LFSR-based MISR and compared against
   the fault-free golden signature;
4. a stuck-at fault is injected into the UUT and the session re-run,
   showing the signature mismatch that flags the defective die.

Run: ``python examples/full_bist_session.py [--circuit s953] [--scale 0.2]``
"""

import argparse

from repro import PipelineConfig, Session, load_circuit
from repro.diagnosis.inject import faulty_responses
from repro.sim.logic import CompiledCircuit
from repro.sim.misr import Misr
from repro.tpg.hardware import NetlistTpg, adder_accumulator_netlist
from repro.utils.bitvec import PackedPatterns


def run_session(compiled, patterns, misr, fault=None):
    """Apply the pattern sequence and return the MISR signature.

    The responses come from the word-parallel fault-injection simulator
    of :mod:`repro.diagnosis.inject` (``simulate_with_faults``, read at
    the primary outputs), 64 patterns per machine word.
    """
    faults = (fault,) if fault is not None else ()
    return misr.signature(faulty_responses(compiled, patterns, faults))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuit", default="s953")
    parser.add_argument("--scale", type=float, default=0.2)
    args = parser.parse_args()

    uut = load_circuit(args.circuit, scale=args.scale)
    print(f"UUT: {uut}")

    # 1. the TPG is synthesised hardware (and itself a circuit we could test)
    tpg_netlist = adder_accumulator_netlist(uut.n_inputs)
    tpg = NetlistTpg(tpg_netlist, uut.n_inputs)
    print(f"TPG: {tpg.name} ({tpg_netlist.n_gates} gates of mission logic)")

    # 2. seeds from the set-covering pipeline
    result = Session(uut, PipelineConfig(evolution_length=32)).run(tpg)
    print(f"controller ROM: {result.n_triplets} triplets "
          f"({result.trimmed.solution.storage_bits()} bits), "
          f"test length {result.test_length}")

    # 3. golden signature
    compiled = CompiledCircuit(uut)
    patterns = PackedPatterns.from_patterns(
        result.trimmed.solution.patterns(tpg), uut.n_inputs
    )
    misr = Misr(uut.n_outputs)
    golden = run_session(compiled, patterns, misr)
    print(f"golden signature: {golden.to_string()}")

    # 4. inject each target fault class representative until one shows
    #    the mismatch mechanics (the first is enough for the demo)
    fault = result.atpg.target_faults[0]
    faulty = run_session(compiled, patterns, misr, fault=fault)
    print(f"with {fault}: signature {faulty.to_string()} "
          f"-> {'FAIL detected' if faulty != golden else 'ALIASED (rare)'}")

    # full sweep: how many target faults does the signature catch?
    caught = 0
    for target in result.atpg.target_faults:
        if run_session(compiled, patterns, misr, fault=target) != golden:
            caught += 1
    total = len(result.atpg.target_faults)
    print(f"signature-level coverage: {caught}/{total} "
          f"({100 * caught / total:.1f}%) — losses are MISR aliasing, "
          f"expected ~2^-{misr.width} per fault")


if __name__ == "__main__":
    main()
