"""Figure 2 — "Trade-off Reseedings vs. Test Length".

Sweeps the evolution length T for one circuit/TPG (the paper uses s1238
on the adder accumulator) and reports the resulting (#Triplets, Test
Length) pairs.  Paper shape: starting from a test length of 5,427 with
11 triplets, pushing the test length to 15,551 brings the count down to
2 — a monotone trade between ROM area and test time.

Run: ``python -m repro.experiments.figure2 [--circuit s1238] [--tpg adder]``
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro.circuits import load_circuit
from repro.cli import checked_config
from repro.experiments.common import DRIVER_CONFIG
from repro.flow.tradeoff import TradeoffPoint, explore_tradeoff
from repro.utils.tables import AsciiTable, render_series

#: Default T ladder (powers of two keep word-parallel simulation tidy).
DEFAULT_LENGTHS: tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128, 256)


def compute_figure2(
    circuit_name: str = "s1238",
    tpg_name: str = "adder",
    lengths: tuple[int, ...] = DEFAULT_LENGTHS,
    scale: float = 0.25,
    seed: int = 2001,
    cache: str | None = None,
) -> list[TradeoffPoint]:
    """Regenerate Figure 2's sweep for one circuit/TPG.

    ``cache`` names an artifact-cache directory; warm re-runs then skip
    ATPG (and any already-swept T points) entirely.
    """
    circuit = load_circuit(circuit_name, scale=scale)
    from repro.flow.session import ArtifactCache

    return explore_tradeoff(
        circuit,
        tpg_name,
        list(lengths),
        config=replace(DRIVER_CONFIG, seed=seed),
        cache=ArtifactCache(cache) if cache else None,
    )


def render_figure2(points: list[TradeoffPoint]) -> str:
    """An ASCII rendition: the data table plus the trade-off curve."""
    table = AsciiTable(
        ["evolution length T", "#Triplets", "Test Length"],
        title="Figure 2: Trade-off Reseedings vs. Test Length",
    )
    for point in points:
        table.add_row([point.evolution_length, point.n_triplets, point.test_length])
    curve = render_series(
        [float(p.test_length) for p in points],
        [float(p.n_triplets) for p in points],
        x_label="Test Length",
        y_label="#Triplets",
    )
    return table.render() + "\n\n" + curve


def main(argv: list[str] | None = None) -> None:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--circuit", default="s1238", help="circuit name")
    parser.add_argument("--tpg", default="adder", help="TPG name")
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=2001)
    parser.add_argument(
        "--lengths",
        nargs="+",
        type=int,
        default=list(DEFAULT_LENGTHS),
        help="evolution lengths to sweep",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="artifact-cache directory (warm runs skip ATPG)",
    )
    args = parser.parse_args(argv)
    for length in args.lengths:
        checked_config(
            parser.error, DRIVER_CONFIG, seed=args.seed, evolution_length=length
        )
    points = compute_figure2(
        circuit_name=args.circuit,
        tpg_name=args.tpg,
        lengths=tuple(args.lengths),
        scale=args.scale,
        seed=args.seed,
        cache=args.cache,
    )
    print(render_figure2(points))


if __name__ == "__main__":
    main()
