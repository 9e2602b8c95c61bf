"""Human-readable reports for pipeline results.

The paper characterises a reseeding solution by each triplet's
incremental coverage AFC%_i (Section 2); :func:`solution_report` renders
exactly that per-triplet breakdown, plus the covering statistics Table 2
tracks, for any :class:`~repro.flow.pipeline.PipelineResult` — whether
it came from a live :class:`~repro.flow.session.Session` run or a
cache/JSON round trip via ``PipelineResult.from_dict``.
"""

from __future__ import annotations

from repro.flow.pipeline import PipelineResult
from repro.utils.tables import AsciiTable


def solution_report(result: PipelineResult) -> str:
    """A multi-section report: solution table, AFC% breakdown, covering
    statistics."""
    lines: list[str] = [result.summary(), ""]

    total_faults = len(result.atpg.target_faults)
    table = AsciiTable(
        ["#", "delta", "sigma", "T_i", "dFC (faults)", "dFC%", "cum FC%"],
        title="Reseeding solution (per-triplet breakdown)",
    )
    cumulative = 0
    for index, (triplet, delta_faults) in enumerate(
        zip(result.trimmed.solution.triplets, result.trimmed.delta_coverage)
    ):
        cumulative += delta_faults
        table.add_row(
            [
                index,
                triplet.delta.to_string(),
                triplet.sigma.to_string(),
                triplet.length,
                delta_faults,
                f"{100 * delta_faults / total_faults:.1f}" if total_faults else "-",
                f"{100 * cumulative / total_faults:.1f}" if total_faults else "-",
            ]
        )
    lines.append(table.render())

    stats = result.cover.stats
    lines.append("")
    lines.append("Covering statistics:")
    lines.append(
        f"  initial Detection Matrix : "
        f"{stats.initial_shape[0]} x {stats.initial_shape[1]}"
    )
    lines.append(f"  necessary triplets       : {stats.n_essential}")
    reduced = (
        "empty (closed by reduction)"
        if stats.closed_by_reduction
        else f"{stats.reduced_shape[0]} x {stats.reduced_shape[1]}"
    )
    lines.append(f"  matrix after reduction   : {reduced}")
    lines.append(
        f"  solver ({stats.solver:>6})         : {stats.n_solver_selected} triplets"
        f"{' (optimal)' if stats.optimal else ''}"
    )
    lines.append(f"  reduction iterations     : {stats.reduction_iterations}")
    lines.append("")
    lines.append("ATPG substrate:")
    lines.append(
        f"  |ATPGTS| = {result.atpg.test_length}, |F| = {total_faults}, "
        f"untestable = {len(result.atpg.untestable)}, "
        f"aborted = {len(result.atpg.aborted)}"
    )
    lines.append("Stage timings (s): " + ", ".join(
        f"{stage}={seconds:.2f}" for stage, seconds in result.timings.items()
    ))
    return "\n".join(lines)
