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

Run: ``python -m repro table2 [--scale 0.25] [--full]``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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


def compute_table2(sessions: Iterable[Session]) -> list[Table2Row]:
    """Regenerate Table 2's data, one row per session in order, each
    flow run with the session's own config.  No session is kept past
    its row (see :func:`~repro.experiments.table1.compute_table1`)."""
    rows: list[Table2Row] = []
    for session in sessions:
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
        rows.append(Table2Row(session.name, initial_shape, cells))
        del session  # released before the next circuit is built
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
