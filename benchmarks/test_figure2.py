"""Benchmark regenerating Figure 2 — reseedings vs test length.

Sweeps the evolution length T for the paper's subject (s1238 on an adder
accumulator) and asserts the trade-off's shape: the triplet count is
non-increasing in T with a genuine drop across the sweep, while the
global test length grows.
"""

from __future__ import annotations

from repro.flow.session import Session
from repro.flow.sweep import sweep

SWEEP_LENGTHS = [2, 4, 8, 16, 32, 64, 128]


def test_figure2_tradeoff_sweep(benchmark, sessions, bench_config):
    shared = sessions["s1238"]
    # A fresh session on the shared ATPG result and simulator, so the
    # timed sweep builds every matrix itself.
    session = Session(
        shared.circuit,
        bench_config,
        simulator=shared.simulator,
        atpg_result=shared.atpg_result,
    )

    grid = benchmark.pedantic(
        lambda: sweep(
            [session.name],
            ["adder"],
            base_config=bench_config,
            evolution_lengths=SWEEP_LENGTHS,
            sessions={session.name: session},
        ),
        rounds=1,
        iterations=1,
    )
    points = [
        (o.config.evolution_length, o.result.n_triplets, o.result.test_length)
        for o in grid
    ]

    assert [t for t, _, _ in points] == SWEEP_LENGTHS
    counts = [n for _, n, _ in points]
    lengths = [length for _, _, length in points]
    # Figure 2's left axis: #Triplets falls monotonically with T ...
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    # ... with a real drop across the sweep (11 -> 2 in the paper) ...
    assert counts[0] > counts[-1]
    # ... while the test length trends up (paper: 5,427 -> 15,551).
    assert lengths[-1] > lengths[0]
    # Triplet counts and test lengths stay mutually consistent.
    for t, n_triplets, test_length in points:
        assert n_triplets <= test_length
        assert test_length <= n_triplets * t
