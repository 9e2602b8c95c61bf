"""Ablation: is the Matrix Reducer worth it?

The paper's pipeline reduces before calling LINGO.  This ablation solves
the same Detection Matrix with and without the reduction stage and
checks (a) both paths reach the same optimum — reduction is lossless —
and (b) reduction shrinks the instance the exact solver sees by orders
of magnitude, which is what makes the exact approach viable on the
larger circuits.
"""

from __future__ import annotations

import pytest

from repro.reseeding.initial import InitialReseedingBuilder
from repro.setcover.ilp import ilp_cover
from repro.setcover.matrix import CoverMatrix
from repro.setcover.reduce import reduce_matrix
from repro.tpg.registry import make_tpg


@pytest.fixture(scope="module", params=["c499", "s420", "s1238"])
def cover_instance(request, sessions, bench_config):
    session = sessions[request.param]
    builder = InitialReseedingBuilder(
        session.circuit,
        make_tpg("adder", session.circuit.n_inputs),
        seed=bench_config.seed,
        simulator=session.simulator,
    )
    initial = builder.build_from_atpg(
        session.atpg_result, evolution_length=bench_config.evolution_length
    )
    return CoverMatrix.from_bool_array(initial.detection_matrix.matrix)


def test_ablation_with_reduction(benchmark, cover_instance):
    def reduced_path():
        reduction = reduce_matrix(cover_instance)
        core_pick = (
            [] if reduction.closed else ilp_cover(reduction.core).selected
        )
        return reduction.essential_rows + core_pick

    selected = benchmark.pedantic(reduced_path, rounds=1, iterations=1)
    assert cover_instance.validate_solution(selected)

    # lossless: the direct ILP optimum matches
    direct = ilp_cover(cover_instance)
    assert len(direct.selected) == len(selected)

    # and the instance handed to the solver is dramatically smaller
    reduction = reduce_matrix(cover_instance)
    before = cover_instance.n_rows * cover_instance.n_columns
    after = reduction.core.n_rows * reduction.core.n_columns
    assert reduction.closed or after < before / 5


def test_ablation_without_reduction(benchmark, cover_instance):
    result = benchmark.pedantic(
        lambda: ilp_cover(cover_instance), rounds=1, iterations=1
    )
    assert result.optimal
    assert cover_instance.validate_solution(result.selected)
