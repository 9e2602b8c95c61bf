"""TPG evolution throughput: word-parallel batched vs the scalar loop.

The reseeding flow evolves a *bank* of candidate seeds for every
Detection Matrix build (one triplet per ATPG pattern, all sharing the
tuned T).  This benchmark reproduces that workload on ``s1238`` — a
bank of random seeds with per-TPG sanitised sigmas, evolved for the
shared length — and times ``evolve_batch`` (vectorized numpy bit-ops
over the whole seed axis, patterns emitted directly as
``PackedPatterns``) against ``evolve_batch_scalar`` (one Python
``next_state`` call per clock per seed, packed at the end).

Floor: the batched path must stay **>= 3x** the scalar loop for every
registered generator (measured ~8-18x on the reference container; the
adder/subtracter walks are closed-form broadcasts, the LFSRs pay ~10
numpy ops per clock for the whole bank).  The floor is asserted by the
slow-marked test CI runs in its dedicated benchmark-floor step.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.circuits import load_circuit
from repro.tpg.registry import make_tpg, tpg_names
from repro.utils.bitvec import BitVector
from repro.utils.rng import RngStream

#: Circuit scale matching the other throughput benchmarks.
THROUGHPUT_SCALE = 0.2

#: Candidate-seed bank size (≈ an ATPG test set) and the shared
#: evolution length (the Initial Reseeding Builder's default T).
N_SEEDS = 256
LENGTH = 64

#: Required batched-vs-scalar advantage for every registered TPG
#: (acceptance floor 3x; measured ~8-18x on the reference container).
MIN_SPEEDUP = 3.0


def _workload(tpg_name: str):
    circuit = load_circuit("s1238", scale=THROUGHPUT_SCALE)
    tpg = make_tpg(tpg_name, circuit.n_inputs)
    rng = RngStream(3, "tpg-throughput", tpg_name)
    deltas = [BitVector.random(tpg.width, rng) for _ in range(N_SEEDS)]
    sigmas = [tpg.suggest_sigma(rng) for _ in range(N_SEEDS)]
    return tpg, deltas, sigmas


@pytest.mark.parametrize("name", sorted(tpg_names()))
def test_batched_evolution_throughput(benchmark, name):
    tpg, deltas, sigmas = _workload(name)
    packed = benchmark(tpg.evolve_batch, deltas, sigmas, LENGTH)
    assert packed.n_patterns == N_SEEDS * LENGTH


@pytest.mark.parametrize("name", sorted(tpg_names()))
def test_scalar_baseline_throughput(benchmark, name):
    """The per-pattern Python loop, kept measurable next to the batched
    path."""
    tpg, deltas, sigmas = _workload(name)
    packed = benchmark(tpg.evolve_batch_scalar, deltas, sigmas, LENGTH)
    assert packed.n_patterns == N_SEEDS * LENGTH


def _best_of_two(run, *args):
    times = []
    for _ in range(2):
        start = time.perf_counter()
        result = run(*args)
        times.append(time.perf_counter() - start)
    return result, min(times)


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(tpg_names()))
def test_batched_speedup_floor(name):
    """Batched evolution must stay >= 3x the scalar loop on the s1238
    reseeding workload for every registered TPG (best-of-two timings;
    the reference container measures ~8-18x).

    Marked ``slow`` like the other wall-clock ratio floors; CI runs it
    in the dedicated benchmark-floor step.
    """
    tpg, deltas, sigmas = _workload(name)
    scalar_packed, scalar_time = _best_of_two(
        tpg.evolve_batch_scalar, deltas, sigmas, LENGTH
    )
    batched_packed, batched_time = _best_of_two(
        tpg.evolve_batch, deltas, sigmas, LENGTH
    )
    # Same workload, identical bits — the speedup is not bought with
    # wrong sequences.
    np.testing.assert_array_equal(scalar_packed.words, batched_packed.words)
    speedup = scalar_time / batched_time
    assert speedup >= MIN_SPEEDUP, (
        f"batched evolution only {speedup:.2f}x the scalar loop on {name} "
        f"(scalar {scalar_time:.4f}s, batched {batched_time:.4f}s)"
    )
