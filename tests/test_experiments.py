"""Tests for the experiment drivers (structure + invariants, tiny scale)."""

from __future__ import annotations

import gc
import weakref
from dataclasses import replace

import pytest

from repro.cli import build_parser
from repro.experiments.common import (
    DEFAULT_CIRCUITS,
    DRIVER_CONFIG,
    FULL_CIRCUITS,
    gatsby_baseline,
    sessions_from_args,
)
from repro.experiments.figure2 import render_figure2
from repro.experiments.table1 import Table1Cell, compute_table1, render_table1
from repro.experiments.table2 import compute_table2, render_table2
from repro.flow.pipeline import PipelineConfig
from repro.flow.session import Session
from repro.flow.sweep import sweep

TINY_CIRCUITS = ("c17", "s27")
TINY = PipelineConfig(seed=7, evolution_length=8, max_random_patterns=128)


@pytest.fixture(scope="module")
def tiny_sessions():
    # Embedded circuits ignore scale anyway.
    sessions = {
        name: Session.from_name(name, scale=1.0, config=TINY)
        for name in TINY_CIRCUITS
    }
    for session in sessions.values():
        session.atpg_result  # eager, so flows below reuse it
    return sessions


class TestCommon:
    def test_workspace_prepare(self, tiny_sessions):
        session = tiny_sessions["c17"]
        assert session.circuit.n_gates == 6
        assert session.atpg_result.test_length > 0

    def test_run_pipeline_reuses_atpg(self, tiny_sessions):
        session = tiny_sessions["c17"]
        result = session.run("adder")
        assert result.atpg is session.atpg_result
        assert result.timings["atpg"] < 0.01

    def test_gatsby_skipped_above_gate_limit(self, tiny_sessions):
        from repro.experiments import common

        session = tiny_sessions["c17"]
        original = common.GATSBY_GATE_LIMIT
        common.GATSBY_GATE_LIMIT = 1
        try:
            assert gatsby_baseline(session, "adder") is None
        finally:
            common.GATSBY_GATE_LIMIT = original

    # The table commands' flags, parsed by the one `repro` parser.
    # Sessions are consumed one at a time, as the tables do: the check
    # reads what it needs and drops each before the next is built.

    def test_arg_parser_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.scale == 0.25
        assert not args.no_gatsby
        seen = [
            (s.name, s.scale, s.config.evolution_length, s.config.max_random_patterns)
            for s in sessions_from_args(args)
        ]
        assert tuple(name for name, *_ in seen) == DEFAULT_CIRCUITS
        assert {tuple(rest) for _, *rest in seen} == {(0.25, 32, 1024)}

    def test_arg_parser_full_and_flags(self):
        args = build_parser().parse_args(
            ["table1", "--full", "--no-gatsby", "--scale", "0.1"]
        )
        assert args.full
        assert args.no_gatsby
        assert args.scale == 0.1
        assert tuple(s.name for s in sessions_from_args(args)) == FULL_CIRCUITS

    def test_arg_parser_explicit_circuits(self):
        sessions = list(
            sessions_from_args(
                build_parser().parse_args(
                    ["table2", "--circuits", "c17", "s27", "--seed", "7",
                     "--workers", "2"]
                )
            )
        )
        assert tuple(s.name for s in sessions) == ("c17", "s27")
        config = sessions[0].config
        assert (config.seed, config.matrix_workers) == (7, 2)

    def test_table2_has_no_gatsby_flag(self, capsys):
        """Table 2 never runs the GA, so it takes no flag to skip it."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["table2", "--no-gatsby"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --no-gatsby" in capsys.readouterr().err


class _Watched:
    """An iterator over ``sessions`` that records, each time the next
    session is asked for, whether every session it handed out before
    has been collected.  It keeps only weak references."""

    def __init__(self, sessions):
        self._sessions = iter(sessions)
        self._refs: list[weakref.ref] = []
        self.released_before_next: list[bool] = []

    def __iter__(self):
        return self

    def __next__(self) -> Session:
        gc.collect()
        self.released_before_next.append(all(ref() is None for ref in self._refs))
        session = next(self._sessions)
        self._refs.append(weakref.ref(session))
        return session


class TestBoundedMemory:
    """The tables build, run and release one session at a time, so
    peak memory is the largest circuit's, not the sum over circuits."""

    ARGV = ["--circuits", "c17", "s27", "--seed", "7", "--evolution-length", "8"]

    @pytest.mark.parametrize(
        ("command", "compute"),
        [
            ("table1", lambda sessions: compute_table1(sessions)),
            ("table1", lambda sessions: compute_table1(sessions, run_gatsby=False)),
            ("table2", compute_table2),
        ],
        ids=["table1-gatsby", "table1", "table2"],
    )
    def test_previous_session_collected_when_next_row_starts(self, command, compute):
        args = build_parser().parse_args([command, *self.ARGV])
        watched = _Watched(sessions_from_args(args))
        rows = compute(watched)
        assert [row.circuit for row in rows] == ["c17", "s27"]
        # Asked for c17, for s27, then for the end of the iterable.
        assert watched.released_before_next == [True, True, True]


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self, tiny_sessions):
        return compute_table1(tiny_sessions.values(), run_gatsby=False)

    def test_one_row_per_circuit(self, rows):
        assert [row.circuit for row in rows] == list(TINY_CIRCUITS)

    def test_all_tpgs_present(self, rows):
        from repro.tpg.registry import PAPER_TPGS

        for row in rows:
            assert set(row.cells) == set(PAPER_TPGS)

    def test_cells_within_bounds(self, rows, tiny_sessions):
        for row in rows:
            atpg_length = tiny_sessions[row.circuit].atpg_result.test_length
            for cell in row.cells.values():
                assert 1 <= cell.n_triplets <= atpg_length
                assert cell.n_triplets <= cell.test_length

    def test_gatsby_none_when_disabled(self, rows):
        for row in rows:
            for cell in row.cells.values():
                assert cell.gatsby_triplets is None
                assert cell.improvement is None
                assert not cell.gatsby_complete

    def test_render_contains_all_circuits(self, rows):
        text = render_table1(rows).render()
        for name in TINY_CIRCUITS:
            assert name in text

    def test_cell_improvement(self):
        cell = Table1Cell(3, 50, 5, 80, 1.0)
        assert cell.improvement == 2
        assert cell.gatsby_complete
        incomplete = Table1Cell(3, 50, 2, 30, 0.98)
        assert not incomplete.gatsby_complete


class TestTable2:
    @pytest.fixture(scope="class")
    def rows(self, tiny_sessions):
        return compute_table2(tiny_sessions.values())

    def test_initial_shape_matches_atpg(self, rows, tiny_sessions):
        for row in rows:
            atpg = tiny_sessions[row.circuit].atpg_result
            assert row.initial_shape == (
                atpg.test_length,
                len(atpg.target_faults),
            )

    def test_reduction_accounting(self, rows):
        for row in rows:
            for cell in row.cells.values():
                if cell.closed_by_reduction:
                    assert cell.n_solver == 0
                reduced_rows, reduced_cols = cell.reduced_shape
                assert reduced_rows <= row.initial_shape[0]
                assert reduced_cols <= row.initial_shape[1]

    def test_necessary_plus_solver_consistent_with_table1(
        self, rows, tiny_sessions
    ):
        table1 = compute_table1(tiny_sessions.values(), run_gatsby=False)
        for row2, row1 in zip(rows, table1):
            for tpg_name, cell2 in row2.cells.items():
                cell1 = row1.cells[tpg_name]
                assert cell2.n_necessary + cell2.n_solver == cell1.n_triplets

    def test_render(self, rows):
        text = render_table2(rows).render()
        assert "initial matrix" in text
        assert "necessary" in text


class TestFigure2:
    """Figure 2 is a one-circuit, one-TPG sweep of T on the drivers'
    flow defaults, as `repro figure2` runs it."""

    @pytest.fixture(scope="class")
    def points(self):
        return sweep(
            ["c17"],
            ["adder"],
            base_config=replace(DRIVER_CONFIG, seed=7),
            evolution_lengths=[1, 4, 16],
            scale=1.0,
        )

    def test_sweep_order(self, points):
        assert [p.config.evolution_length for p in points] == [1, 4, 16]

    def test_monotone_triplets(self, points):
        counts = [p.result.n_triplets for p in points]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_t1_degenerates_to_atpg_selection(self, points):
        """With T=1 each triplet is exactly one ATPG pattern (the paper's
        tau='0' remark), so test length equals triplet count."""
        first = points.outcomes[0]
        assert first.config.evolution_length == 1
        assert first.result.test_length == first.result.n_triplets

    def test_render(self, points):
        text = render_figure2(points)
        assert "Figure 2" in text
        assert "#Triplets" in text
