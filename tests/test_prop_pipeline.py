"""End-to-end property tests: the whole reseeding flow on random circuits.

These are the strongest integration checks in the suite: for arbitrary
(small) generated circuits and every TPG family, the pipeline must
produce a covering, trimmed, verifiable solution, and the covering
stages must stay mutually consistent.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.generate import GeneratorSpec, generate_circuit
from repro.faults.collapse import collapse_faults
from repro.flow.pipeline import PipelineConfig
from repro.flow.session import Session
from repro.reseeding.uniform import uniformize_solution
from repro.sim.fault import FaultSimulator
from repro.tpg.registry import make_tpg

_circuits = st.builds(
    generate_circuit,
    st.builds(
        GeneratorSpec,
        name=st.just("e2e"),
        n_inputs=st.integers(min_value=4, max_value=9),
        n_outputs=st.integers(min_value=2, max_value=4),
        n_gates=st.integers(min_value=10, max_value=45),
        seed=st.integers(min_value=0, max_value=2**31),
    ),
)

_tpg_names = st.sampled_from(["adder", "subtracter", "multiplier", "mp-lfsr"])


@settings(max_examples=12, deadline=None)
@given(circuit=_circuits, tpg_name=_tpg_names, length=st.sampled_from([4, 16]))
def test_pipeline_end_to_end_invariants(circuit, tpg_name, length):
    config = PipelineConfig(
        evolution_length=length, max_random_patterns=256
    )
    result = Session(circuit, config).run(tpg_name)

    # 1. the final solution covers F completely (independent fault sim)
    simulator = FaultSimulator(circuit)
    tpg = make_tpg(tpg_name, circuit.n_inputs)
    patterns = result.trimmed.solution.patterns(tpg)
    assert simulator.fault_coverage(patterns, result.atpg.target_faults) == 1.0

    # 2. covering accounting is consistent
    assert result.n_triplets == result.n_necessary + result.n_from_solver
    assert result.n_triplets <= result.initial.n_triplets
    assert result.initial.n_triplets == result.atpg.test_length

    # 3. trimming bounds
    assert result.trimmed.undetected == ()
    for triplet in result.trimmed.solution.triplets:
        assert 1 <= triplet.length <= length
    assert sum(result.trimmed.delta_coverage) == len(result.atpg.target_faults)

    # 4. the uniform-T refinement keeps coverage
    uniform = uniformize_solution(result.trimmed)
    uniform_patterns = uniform.solution.patterns(tpg)
    assert (
        simulator.fault_coverage(uniform_patterns, result.atpg.target_faults)
        == 1.0
    )

    # 5. the ATPG fault classification partitions the collapsed universe
    universe = collapse_faults(circuit)
    classified = (
        len(result.atpg.target_faults)
        + len(result.atpg.untestable)
        + len(result.atpg.aborted)
    )
    assert classified == len(universe)


@settings(max_examples=8, deadline=None)
@given(circuit=_circuits)
def test_pipeline_optimality_against_brute_force(circuit):
    """On tiny instances the covering solution must equal the brute-force
    minimum over the candidate pool."""
    import itertools

    config = PipelineConfig(evolution_length=8, max_random_patterns=256)
    result = Session(circuit, config).run("adder")
    matrix = result.detection_matrix.matrix  # (triplets, faults) bools
    n_rows = matrix.shape[0]
    if n_rows > 12:
        return  # brute force would blow up; invariants checked elsewhere
    best = None
    for size in range(n_rows + 1):
        for combo in itertools.combinations(range(n_rows), size):
            if matrix[list(combo), :].any(axis=0).all():
                best = size
                break
        if best is not None:
            break
    assert result.n_triplets == best
