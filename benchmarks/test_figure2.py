"""Benchmark regenerating Figure 2 — reseedings vs test length.

Sweeps the evolution length T for the paper's subject (s1238 on an adder
accumulator) and asserts the trade-off's shape: the triplet count is
non-increasing in T with a genuine drop across the sweep, while the
global test length grows.
"""

from __future__ import annotations


from repro.flow.tradeoff import explore_tradeoff

SWEEP_LENGTHS = [2, 4, 8, 16, 32, 64, 128]


def test_figure2_tradeoff_sweep(benchmark, sessions, bench_config):
    session = sessions["s1238"]

    points = benchmark.pedantic(
        lambda: explore_tradeoff(
            session.circuit,
            "adder",
            SWEEP_LENGTHS,
            config=bench_config,
            atpg_result=session.atpg_result,
            simulator=session.simulator,
        ),
        rounds=1,
        iterations=1,
    )

    assert [p.evolution_length for p in points] == SWEEP_LENGTHS
    counts = [p.n_triplets for p in points]
    lengths = [p.test_length for p in points]
    # Figure 2's left axis: #Triplets falls monotonically with T ...
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    # ... with a real drop across the sweep (11 -> 2 in the paper) ...
    assert counts[0] > counts[-1]
    # ... while the test length trends up (paper: 5,427 -> 15,551).
    assert lengths[-1] > lengths[0]
    # Triplet counts and test lengths stay mutually consistent.
    for point in points:
        assert point.n_triplets <= point.test_length
        assert point.test_length <= point.n_triplets * point.evolution_length
