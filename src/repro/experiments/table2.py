"""Table 2 — "Set Covering algorithm".

Per circuit: the initial Detection Matrix size (#Triplets x #Faults,
#Triplets = the ATPG test length); per TPG: the necessary (essential)
triplet count, the matrix size after essentiality + dominance reduction,
and the number of triplets the exact solver (LINGO stand-in) adds.  The
paper's observations to reproduce:

* reduction is highly effective — the reduced matrix is tiny or empty;
* on several circuits the matrix empties: the solution is necessary
  triplets only;
* on others the solver contributes the remainder (possibly with no
  necessary triplets at all).

Run: ``python -m repro.experiments.table2 [--scale 0.25] [--full]``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.experiments.common import make_arg_parser, sessions_from_args
from repro.flow.session import Session
from repro.tpg.registry import PAPER_TPGS
from repro.utils.tables import AsciiTable


@dataclass
class Table2Cell:
    """Reduction statistics for one circuit x TPG."""

    n_necessary: int
    reduced_shape: tuple[int, int]
    n_solver: int

    @property
    def closed_by_reduction(self) -> bool:
        """True when reduction alone solved the instance."""
        return self.reduced_shape == (0, 0)


@dataclass
class Table2Row:
    """Initial matrix size plus per-TPG reduction cells."""

    circuit: str
    initial_shape: tuple[int, int]
    cells: dict[str, Table2Cell]


def compute_table2(sessions: Mapping[str, Session]) -> list[Table2Row]:
    """Regenerate Table 2's data, one row per session (keyed by circuit
    name, in order), each flow run with the session's own config."""
    rows: list[Table2Row] = []
    for name, session in sessions.items():
        cells: dict[str, Table2Cell] = {}
        initial_shape = (0, 0)
        for tpg_name in PAPER_TPGS:
            result = session.run(tpg_name)
            initial_shape = result.detection_matrix.shape
            cells[tpg_name] = Table2Cell(
                n_necessary=result.n_necessary,
                reduced_shape=result.reduced_shape,
                n_solver=result.n_from_solver,
            )
        rows.append(Table2Row(name, initial_shape, cells))
    return rows


def render_table2(rows: list[Table2Row]) -> AsciiTable:
    """Format the rows the way the paper's Table 2 lays them out."""
    headers = ["circuit", "initial matrix"]
    for tpg_name in PAPER_TPGS:
        headers += [
            f"{tpg_name} necessary",
            f"{tpg_name} reduced",
            f"{tpg_name} LINGO",
        ]
    table = AsciiTable(headers, title="Table 2: Set covering algorithm")
    for row in rows:
        cells: list[object] = [
            row.circuit,
            f"{row.initial_shape[0]}x{row.initial_shape[1]}",
        ]
        for tpg_name in PAPER_TPGS:
            cell = row.cells[tpg_name]
            reduced = (
                "empty"
                if cell.closed_by_reduction
                else f"{cell.reduced_shape[0]}x{cell.reduced_shape[1]}"
            )
            cells += [cell.n_necessary, reduced, cell.n_solver]
        table.add_row(cells)
    return table


def main(argv: list[str] | None = None) -> None:
    """CLI entry point."""
    parser = make_arg_parser(__doc__.splitlines()[0])
    args = parser.parse_args(argv)
    rows = compute_table2(sessions_from_args(args))
    table = render_table2(rows)
    print(table.render_csv() if args.csv else table.render())
    closed = sum(
        1 for row in rows for cell in row.cells.values() if cell.closed_by_reduction
    )
    total = sum(len(row.cells) for row in rows)
    print(
        f"\nreduction closed {closed}/{total} instances outright "
        "(solution = necessary triplets only)"
    )


if __name__ == "__main__":
    main()
