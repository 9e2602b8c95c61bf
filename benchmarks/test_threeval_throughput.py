"""3-valued logic simulation throughput: packed planes vs the scalar oracle.

The X-fault machinery of :mod:`repro.sim.threeval` carries every signal
as two ``uint64`` planes (value + care, 64 patterns per word) and
evaluates a whole fold bucket per numpy call.  This benchmark reproduces
the unknown-handling workload on ``s1238`` — an X-seeded code bank
(12.5% unknown lanes, the golden-regression fraction) — and times
``logic_sim_3v`` (plane algebra over the packed carrier, on a circuit
compiled once up front) against ``logic_sim_3v_scalar`` (one Python
``eval_gate_3v_scalar`` call per gate per pattern).

Floor: the packed path must stay **>= 3x** the scalar oracle (measured
~200x+ on the reference container; the floor is deliberately loose so
it never flakes on shared runners).  The floor is asserted by the
slow-marked test CI runs in its dedicated benchmark-floor step.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.circuits import load_circuit
from repro.sim.logic import CompiledCircuit
from repro.sim.threeval import logic_sim_3v, logic_sim_3v_scalar
from repro.utils.bitvec import X_CODE, PackedPlanes
from repro.utils.rng import RngStream

#: Circuit scale matching the other throughput benchmarks.
THROUGHPUT_SCALE = 0.2

#: Patterns per workload (two full words plus a tail word).
N_PATTERNS = 160

#: Fraction of input lanes forced to X — the golden-regression mix.
X_FRACTION = 0.125

#: Required packed-vs-scalar advantage (acceptance floor 3x; measured
#: ~200x+ on the reference container).
MIN_SPEEDUP = 3.0


def _workload():
    circuit = load_circuit("s1238", scale=THROUGHPUT_SCALE)
    rng = np.random.default_rng(
        RngStream(3, "threeval-throughput").getrandbits(64)
    )
    codes = rng.integers(
        0, 2, size=(circuit.n_inputs, N_PATTERNS), dtype=np.uint8
    )
    codes[rng.random(codes.shape) < X_FRACTION] = X_CODE
    return circuit, codes


def test_packed_threeval_throughput(benchmark):
    circuit, codes = _workload()
    planes = PackedPlanes.from_codes(codes)
    out = benchmark(logic_sim_3v, CompiledCircuit(circuit), planes)
    assert out.n_patterns == N_PATTERNS


def test_scalar_oracle_throughput(benchmark):
    """The per-pattern Python topo walk, kept measurable next to the
    plane algebra."""
    circuit, codes = _workload()
    out = benchmark(logic_sim_3v_scalar, circuit, codes)
    assert out.shape == (circuit.n_outputs, N_PATTERNS)


def _best_of_two(run, *args):
    times = []
    for _ in range(2):
        start = time.perf_counter()
        result = run(*args)
        times.append(time.perf_counter() - start)
    return result, min(times)


@pytest.mark.slow
def test_packed_speedup_floor():
    """Packed 3-valued simulation must stay >= 3x the scalar oracle on
    the X-seeded s1238 workload (best-of-two timings; the reference
    container measures ~200x+).

    Marked ``slow`` like the other wall-clock ratio floors; CI runs it
    in the dedicated benchmark-floor step.
    """
    circuit, codes = _workload()
    planes = PackedPlanes.from_codes(codes)
    scalar_out, scalar_time = _best_of_two(logic_sim_3v_scalar, circuit, codes)
    packed_out, packed_time = _best_of_two(logic_sim_3v, CompiledCircuit(circuit), planes)
    # Same workload, identical codes — the speedup is not bought with
    # wrong (or optimistically known) values.
    np.testing.assert_array_equal(packed_out.to_codes(), scalar_out)
    speedup = scalar_time / packed_time
    assert speedup >= MIN_SPEEDUP, (
        f"packed 3-valued simulation only {speedup:.2f}x the scalar oracle "
        f"(scalar {scalar_time:.4f}s, packed {packed_time:.4f}s)"
    )
