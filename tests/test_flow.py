"""Integration tests for the Figure-1 pipeline and Figure-2 trade-off."""

from __future__ import annotations

import pytest

from repro.circuits import load_circuit
from repro.flow import PipelineConfig, Session, sweep
from repro.sim.fault import FaultSimulator
from repro.tpg import make_tpg


@pytest.fixture(scope="module")
def small_circuit():
    return load_circuit("s420", scale=0.35)


@pytest.fixture(scope="module")
def pipeline_result(small_circuit):
    config = PipelineConfig(evolution_length=16, max_random_patterns=512)
    return Session(small_circuit, config).run("adder")


class TestPipeline:
    def test_final_solution_covers_target_faults(
        self, small_circuit, pipeline_result
    ):
        simulator = FaultSimulator(small_circuit)
        tpg = make_tpg("adder", small_circuit.n_inputs)
        patterns = pipeline_result.trimmed.solution.patterns(tpg)
        coverage = simulator.fault_coverage(
            patterns, pipeline_result.atpg.target_faults
        )
        assert coverage == 1.0

    def test_solution_never_larger_than_initial(self, pipeline_result):
        assert pipeline_result.n_triplets <= pipeline_result.initial.n_triplets

    def test_solution_parts_consistent(self, pipeline_result):
        cover = pipeline_result.cover
        assert pipeline_result.n_triplets == cover.n_selected
        assert cover.stats.n_essential == pipeline_result.n_necessary
        assert cover.stats.n_solver_selected == pipeline_result.n_from_solver

    def test_selected_triplets_come_from_initial_pool(self, pipeline_result):
        pool = set(pipeline_result.initial.triplets)
        assert all(t in pool for t in pipeline_result.selected_triplets)

    def test_test_length_within_bounds(self, pipeline_result):
        n = pipeline_result.n_triplets
        T = pipeline_result.config.evolution_length
        assert n <= pipeline_result.test_length <= n * T

    def test_timings_recorded(self, pipeline_result):
        assert set(pipeline_result.timings) == {
            "atpg",
            "detection_matrix",
            "set_cover",
            "trim",
        }
        assert all(v >= 0 for v in pipeline_result.timings.values())

    def test_summary_format(self, pipeline_result):
        text = pipeline_result.summary()
        assert "#Triplets=" in text
        assert "TestLength=" in text

    def test_deterministic(self, small_circuit):
        config = PipelineConfig(evolution_length=16, max_random_patterns=512)
        a = Session(small_circuit, config).run("adder")
        b = Session(small_circuit, config).run("adder")
        assert a.selected_triplets == b.selected_triplets
        assert a.test_length == b.test_length

    def test_atpg_result_shareable(self, small_circuit, pipeline_result):
        """Reusing the circuit-level ATPG across TPGs (the Table-1 setup)
        must produce a valid covering solution for another TPG."""
        config = PipelineConfig(evolution_length=16)
        session = Session(
            small_circuit, config, atpg_result=pipeline_result.atpg
        )
        result = session.run("multiplier")
        assert result.timings["atpg"] < 0.01  # skipped
        simulator = FaultSimulator(small_circuit)
        tpg = make_tpg("multiplier", small_circuit.n_inputs)
        patterns = result.trimmed.solution.patterns(tpg)
        assert simulator.fault_coverage(patterns, result.atpg.target_faults) == 1.0

    def test_string_tpg_resolved(self, small_circuit, pipeline_result):
        session = Session(
            small_circuit,
            pipeline_result.config,
            atpg_result=pipeline_result.atpg,
        )
        assert session.run("subtracter").tpg_name == "subtracter"


class TestConfigValidation:
    """A bad knob fails when the config is built, naming the field and
    its bound, and the CLI turns it into a usage error."""

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("evolution_length", 0, "evolution_length must be >= 1"),
            ("max_random_patterns", -1, "max_random_patterns must be >= 0"),
            ("backtrack_limit", -1, "backtrack_limit must be >= 0"),
            ("grasp_iterations", 0, "grasp_iterations must be >= 1"),
            ("grasp_iterations", -1, "grasp_iterations must be >= 1"),
            ("matrix_workers", 0, "matrix_workers must be None or >= 1"),
            ("cover_method", "lingo", "unknown cover_method 'lingo'; known: auto"),
        ],
    )
    def test_out_of_range_field_rejected(self, field, value, message, capsys):
        from repro.cli import main as cli_main

        with pytest.raises(ValueError, match=message):
            PipelineConfig(**{field: value})
        if field in ("evolution_length", "max_random_patterns", "backtrack_limit",
                     "grasp_iterations"):
            flag = "--" + field.replace("_", "-")
            with pytest.raises(SystemExit) as exit_info:
                cli_main(["run", "--circuit", "c17", flag, str(value)])
            assert exit_info.value.code == 2
            assert message in capsys.readouterr().err

    def test_bounds_are_inclusive(self):
        config = PipelineConfig(
            evolution_length=1, max_random_patterns=0, backtrack_limit=0,
            grasp_iterations=1, matrix_workers=1, cover_method="greedy",
        )
        assert config.max_random_patterns == 0


class TestTradeoff:
    """The Figure-2 trade-off: one circuit, one TPG, a sweep of T on a
    session that shares an ATPG result already computed."""

    LENGTHS = [2, 8, 32, 128]

    @pytest.fixture(scope="class")
    def points(self, small_circuit, pipeline_result):
        session = Session(small_circuit, atpg_result=pipeline_result.atpg)
        grid = sweep(
            [small_circuit.name],
            ["adder"],
            evolution_lengths=self.LENGTHS,
            sessions={small_circuit.name: session},
        )
        return grid.outcomes

    def test_one_point_per_length(self, points):
        assert [p.config.evolution_length for p in points] == self.LENGTHS

    def test_triplets_non_increasing_in_length(self, points):
        """Figure 2's left-to-right shape."""
        counts = [p.result.n_triplets for p in points]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_longer_evolutions_allow_fewer_triplets(self, points):
        first, last = points[0].result, points[-1].result
        assert first.n_triplets > last.n_triplets or (
            first.n_triplets == last.n_triplets == 1
        )

    def test_cell_reports_the_point(self, points):
        cell = points[0].cell()
        assert (cell["evolution_length"], cell["n_triplets"], cell["test_length"]) == (
            points[0].config.evolution_length,
            points[0].result.n_triplets,
            points[0].result.test_length,
        )

    def test_empty_sweep_rejected(self, small_circuit):
        with pytest.raises(ValueError, match="evolution_lengths must be non-empty"):
            sweep([small_circuit.name], ["adder"], evolution_lengths=[])

    def test_bad_length_rejected(self, small_circuit):
        with pytest.raises(ValueError, match="evolution_length must be >= 1"):
            sweep([small_circuit.name], ["adder"], evolution_lengths=[0])
