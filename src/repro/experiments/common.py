"""Shared infrastructure for the experiment drivers.

The drivers run on :class:`~repro.flow.session.Session` objects, one per
circuit, which own the per-circuit artefacts (loaded circuit, compiled
fault simulator, ATPG result).  This module keeps the experiment-level
vocabulary: circuit subsets, the drivers' flow defaults, the GATSBY
baseline with the paper's gate-count cutoff, and the shared CLI.
"""

from __future__ import annotations

import argparse
from repro.cli import checked_config, positive_int
from repro.flow.pipeline import PipelineConfig
from repro.flow.session import Session
from repro.gatsby import GaConfig, GatsbyReseeder, GatsbyResult
from repro.tpg.registry import make_tpg

#: Default circuit subset: small-to-mid members of the paper's list so
#: the drivers finish in minutes at the default scale.  ``--circuits``
#: or ``--full`` widens the set.
DEFAULT_CIRCUITS: tuple[str, ...] = (
    "c499",
    "c880",
    "s420",
    "s641",
    "s820",
    "s953",
    "s1238",
)

#: The full paper list (Tables 1 and 2).
FULL_CIRCUITS: tuple[str, ...] = (
    "c499",
    "c880",
    "c1355",
    "c1908",
    "c7552",
    "s420",
    "s641",
    "s820",
    "s838",
    "s953",
    "s1238",
    "s1423",
    "s5378",
    "s9234",
    "s13207",
    "s15850",
)

#: Circuits the paper reports GATSBY could not handle; we mirror the
#: cutoff by gate count so the "-" cells of Table 1 regenerate too.
GATSBY_GATE_LIMIT = 1200


#: The drivers' flow defaults: T = 32 and a 1024-pattern random ATPG
#: phase (``--seed``, ``--evolution-length`` and ``--workers`` override).
DRIVER_CONFIG = PipelineConfig(evolution_length=32, max_random_patterns=1024)


def gatsby_baseline(session: Session, tpg_name: str) -> GatsbyResult | None:
    """The GA baseline for one TPG, or ``None`` for circuits beyond its
    reach (Table 1's missing GATSBY entries).  Seed and evolution length
    come from ``session.config``."""
    circuit = session.circuit
    if circuit.n_gates > GATSBY_GATE_LIMIT:
        return None
    reseeder = GatsbyReseeder(
        circuit,
        make_tpg(tpg_name, circuit.n_inputs),
        seed=session.config.seed,
        evolution_length=session.config.evolution_length,
        ga_config=GaConfig(population_size=12, generations=8),
        stall_limit=8,
        simulator=session.simulator,
    )
    # No ATPG seeding: GATSBY is a standalone simulation-driven tool
    # ([7][8]); it never sees deterministic patterns.  This is what
    # makes the set-covering approach win on random-resistant faults.
    return reseeder.run(session.atpg_result.target_faults)


def make_arg_parser(description: str) -> argparse.ArgumentParser:
    """The CLI shared by the drivers.  A flag value the flow config
    rejects is a usage error (exit 2)."""
    parser = argparse.ArgumentParser(description=description)
    parser.set_defaults(usage_error=parser.error)
    parser.add_argument(
        "--circuits",
        nargs="+",
        default=None,
        help="circuit names (default: a fast subset of the paper's list)",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the paper's full circuit list (slow at scale 1.0)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=0.25,
        help="synthetic circuit size factor, 1.0 = real ISCAS sizes (default 0.25)",
    )
    parser.add_argument(
        "--seed", type=int, default=DRIVER_CONFIG.seed, help="master seed"
    )
    parser.add_argument(
        "--evolution-length",
        type=int,
        default=DRIVER_CONFIG.evolution_length,
        help="triplet evolution length T (default 32)",
    )
    parser.add_argument(
        "--no-gatsby",
        action="store_true",
        help="skip the (slow) GATSBY GA baseline",
    )
    parser.add_argument(
        "--workers",
        type=positive_int,
        default=None,
        help="processes for row-parallel Detection Matrix construction "
        "(default: serial)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="artifact-cache directory (warm runs skip ATPG and matrices)",
    )
    parser.add_argument(
        "--csv", action="store_true", help="emit CSV instead of an ASCII table"
    )
    return parser


def sessions_from_args(args: argparse.Namespace) -> dict[str, Session]:
    """One session per requested circuit, configured from the driver
    flags on top of :data:`DRIVER_CONFIG`."""
    if args.circuits:
        circuits = tuple(args.circuits)
    elif args.full:
        circuits = FULL_CIRCUITS
    else:
        circuits = DEFAULT_CIRCUITS
    config = checked_config(
        args.usage_error,
        DRIVER_CONFIG,
        seed=args.seed,
        evolution_length=args.evolution_length,
        matrix_workers=args.workers,
    )
    return {
        name: Session.from_name(
            name, scale=args.scale, config=config, cache=args.cache
        )
        for name in circuits
    }
