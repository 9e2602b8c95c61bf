"""Figure 2 — "Trade-off Reseedings vs. Test Length".

Sweeps the evolution length T for one circuit/TPG (the paper uses s1238
on the adder accumulator) and reports the resulting (#Triplets, Test
Length) pairs.  Paper shape: starting from a test length of 5,427 with
11 triplets, pushing the test length to 15,551 brings the count down to
2 — a monotone trade between ROM area and test time.

The curve is a one-circuit, one-TPG :func:`repro.flow.sweep.sweep` over
T on top of :data:`~repro.experiments.common.DRIVER_CONFIG`; this module
renders its outcomes.

Run: ``python -m repro figure2 [--circuit s1238] [--tpg adder]``
"""

from __future__ import annotations

from typing import Iterable

from repro.flow.sweep import SweepOutcome
from repro.utils.tables import AsciiTable, render_series

#: Default T ladder (powers of two keep word-parallel simulation tidy).
DEFAULT_LENGTHS: tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128, 256)


def render_figure2(outcomes: Iterable[SweepOutcome]) -> str:
    """An ASCII rendition of a T sweep: the data table plus the
    trade-off curve, one point per outcome in sweep order."""
    points = [
        (o.config.evolution_length, o.result.n_triplets, o.result.test_length)
        for o in outcomes
    ]
    table = AsciiTable(
        ["evolution length T", "#Triplets", "Test Length"],
        title="Figure 2: Trade-off Reseedings vs. Test Length",
    )
    for point in points:
        table.add_row(list(point))
    curve = render_series(
        [float(length) for _, _, length in points],
        [float(n) for _, n, _ in points],
        x_label="Test Length",
        y_label="#Triplets",
    )
    return table.render() + "\n\n" + curve
