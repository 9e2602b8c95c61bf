"""Benchmark regenerating Table 2 — the set covering algorithm's anatomy.

Measures the three covering stages separately (Detection Matrix
construction, reduction, exact solve) and checks the paper's headline:
reduction is highly effective, pruning the matrix by orders of magnitude
and leaving a core the exact solver finishes instantly (often empty —
"the reseeding solution only contains necessary triplets").
"""

from __future__ import annotations

import pytest

from repro.reseeding.initial import InitialReseedingBuilder
from repro.setcover.ilp import ilp_cover
from repro.setcover.matrix import CoverMatrix
from repro.setcover.reduce import reduce_matrix
from repro.tpg.registry import PAPER_TPGS, make_tpg


@pytest.fixture(scope="module")
def initial_reseedings(sessions, bench_config):
    """Initial reseeding (candidate pool + Detection Matrix) per
    (circuit, TPG) pair — the input of the stages measured here."""
    pool = {}
    for circuit_name, session in sessions.items():
        for tpg_name in PAPER_TPGS:
            builder = InitialReseedingBuilder(
                session.circuit,
                make_tpg(tpg_name, session.circuit.n_inputs),
                seed=bench_config.seed,
                simulator=session.simulator,
            )
            pool[(circuit_name, tpg_name)] = builder.build_from_atpg(
                session.atpg_result, evolution_length=bench_config.evolution_length
            )
    return pool


@pytest.mark.parametrize("circuit_name", ["c499", "s420", "s1238"])
def test_table2_detection_matrix_build(
    benchmark, sessions, bench_config, circuit_name
):
    """Stage 1: the only fault-simulation-heavy step of the approach."""
    session = sessions[circuit_name]
    builder = InitialReseedingBuilder(
        session.circuit,
        make_tpg("adder", session.circuit.n_inputs),
        seed=bench_config.seed,
        simulator=session.simulator,
    )

    initial = benchmark.pedantic(
        lambda: builder.build_from_atpg(
            session.atpg_result, evolution_length=bench_config.evolution_length
        ),
        rounds=1,
        iterations=1,
    )

    # Table 2's "Initial Matrix" column: #Triplets x #Faults with
    # #Triplets = ATPG test length.
    assert initial.detection_matrix.shape == (
        session.atpg_result.test_length,
        len(session.atpg_result.target_faults),
    )
    assert not initial.detection_matrix.undetected_faults()


@pytest.mark.parametrize("tpg_name", PAPER_TPGS)
@pytest.mark.parametrize("circuit_name", ["c499", "s420", "s1238"])
def test_table2_reduction(
    benchmark, initial_reseedings, circuit_name, tpg_name
):
    """Stage 2: essentiality + dominance to a fixed point."""
    initial = initial_reseedings[(circuit_name, tpg_name)]
    matrix = CoverMatrix.from_bool_array(initial.detection_matrix.matrix)

    reduction = benchmark.pedantic(
        lambda: reduce_matrix(matrix), rounds=1, iterations=1
    )

    # The paper's observation: reduction prunes the matrix dramatically.
    initial_cells = matrix.n_rows * matrix.n_columns
    core_cells = reduction.core.n_rows * reduction.core.n_columns
    assert core_cells <= initial_cells / 10 or reduction.closed
    # and never throws optimality away: essentials + core still feasible
    if not reduction.closed:
        assert reduction.core.is_feasible()


@pytest.mark.parametrize("circuit_name", ["c499", "s420", "s1238"])
def test_table2_exact_core_solve(
    benchmark, initial_reseedings, circuit_name
):
    """Stage 3: the LINGO stand-in on the reduced core."""
    initial = initial_reseedings[(circuit_name, "adder")]
    matrix = CoverMatrix.from_bool_array(initial.detection_matrix.matrix)
    reduction = reduce_matrix(matrix)

    if reduction.closed:
        pytest.skip("reduction closed the instance; nothing for the solver")

    result = benchmark.pedantic(
        lambda: ilp_cover(reduction.core), rounds=1, iterations=1
    )

    assert result.optimal
    assert reduction.core.validate_solution(result.selected)
