"""Table 1 — "Reseeding solution".

For every circuit and every accumulator TPG (adder, multiplier,
subtracter): the set-covering solution's triplet count and global test
length, side by side with the GATSBY GA baseline.  The paper's headline:
the set-covering approach needs fewer triplets than GATSBY on nearly
every circuit/TPG (improvements of 2 to 25 triplets) and handles
circuits GATSBY cannot (s13207, s15850 — rendered as "-" cells).

Run: ``python -m repro table1 [--scale 0.25] [--full]``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.experiments.common import gatsby_baseline
from repro.flow.session import Session
from repro.tpg.registry import PAPER_TPGS
from repro.utils.tables import AsciiTable


@dataclass
class Table1Cell:
    """One circuit x TPG comparison.

    The set-covering side always reaches 100% coverage of the target
    fault list ``F`` (by construction); the GA baseline may stall below
    it — ``gatsby_coverage`` records what it actually achieved, since a
    smaller triplet count at lower coverage is not a win.
    """

    n_triplets: int
    test_length: int
    gatsby_triplets: int | None
    gatsby_test_length: int | None
    gatsby_coverage: float | None = None

    @property
    def gatsby_complete(self) -> bool:
        """True when the baseline matched the 100% coverage target."""
        return self.gatsby_coverage is not None and self.gatsby_coverage >= 1.0

    @property
    def improvement(self) -> int | None:
        """GATSBY triplets minus ours (positive = we win), None when the
        baseline could not run."""
        if self.gatsby_triplets is None:
            return None
        return self.gatsby_triplets - self.n_triplets


@dataclass
class Table1Row:
    """All TPG cells for one circuit."""

    circuit: str
    cells: dict[str, Table1Cell]


def compute_table1(
    sessions: Iterable[Session], run_gatsby: bool = True
) -> list[Table1Row]:
    """Regenerate Table 1's data, one row per session in order, each
    flow run with the session's own config.  No session is kept past
    its row, so a lazy iterable (:func:`~repro.experiments.common.
    sessions_from_args`) holds one circuit's artefacts at a time."""
    rows: list[Table1Row] = []
    for session in sessions:
        cells: dict[str, Table1Cell] = {}
        for tpg_name in PAPER_TPGS:
            result = session.run(tpg_name)
            gatsby = gatsby_baseline(session, tpg_name) if run_gatsby else None
            cells[tpg_name] = Table1Cell(
                n_triplets=result.n_triplets,
                test_length=result.test_length,
                gatsby_triplets=gatsby.n_triplets if gatsby else None,
                gatsby_test_length=gatsby.test_length if gatsby else None,
                gatsby_coverage=gatsby.fault_coverage if gatsby else None,
            )
        rows.append(Table1Row(session.name, cells))
        del session  # released before the next circuit is built
    return rows


def render_table1(rows: list[Table1Row]) -> AsciiTable:
    """Format the rows the way the paper's Table 1 lays them out."""
    headers = ["circuit"]
    for tpg_name in PAPER_TPGS:
        headers += [
            f"{tpg_name} #T",
            f"{tpg_name} len",
            f"{tpg_name} GATSBY #T",
            f"{tpg_name} GATSBY len",
            f"{tpg_name} GATSBY FC%",
        ]
    table = AsciiTable(headers, title="Table 1: Reseeding solution (set covering vs GATSBY)")
    for row in rows:
        cells: list[object] = [row.circuit]
        for tpg_name in PAPER_TPGS:
            cell = row.cells[tpg_name]
            cells += [
                cell.n_triplets,
                cell.test_length,
                cell.gatsby_triplets if cell.gatsby_triplets is not None else "-",
                cell.gatsby_test_length
                if cell.gatsby_test_length is not None
                else "-",
                f"{100 * cell.gatsby_coverage:.1f}"
                if cell.gatsby_coverage is not None
                else "-",
            ]
        table.add_row(cells)
    return table
