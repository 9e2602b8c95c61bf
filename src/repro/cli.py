"""The ``python -m repro`` command-line interface.

Subcommands:

* ``catalog`` — list the benchmark circuits and their statistics
  (``--json`` for machine-readable output);
* ``run``     — execute the full reseeding flow for one circuit/TPG and
  print the per-triplet report (``--json`` for the schema-versioned
  result document);
* ``sweep``   — run the circuits x TPGs x configs grid through the
  :func:`repro.flow.sweep.sweep` orchestrator, with optional artifact
  cache and process pool;
* ``atpg``    — run the ATPG substrate alone;
* ``diagnose`` — inject known stuck-at faults, capture the fail log,
  and run the diagnosis subsystem (effect-cause, dictionary, or
  signature-only MISR bisection) against it;
* ``check``   — run the repo's own AST-based static-analysis rules
  (kernel purity, dtype discipline, asyncio hygiene, telemetry
  consistency, schema-kind coverage, public-API drift, docs links);
* ``table1`` / ``table2`` / ``figure2`` — the paper's experiments:
  Tables 1 and 2 over a circuit list, and the Figure-2 trade-off curve
  (a one-circuit ``sweep`` of the evolution length T).

Flags several subcommands share (``--scale``, ``--seed``, ``--cache``,
``--workers``, ...) are declared once, in one table.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from typing import Any

from repro.circuits import CATALOG, load_circuit
from repro.utils.tables import AsciiTable


def _cmd_catalog(args: argparse.Namespace) -> int:
    """``repro catalog`` — the benchmark circuits and their statistics.

    Examples::

        python -m repro catalog          # ASCII table
        python -m repro catalog --json   # machine-readable entries
    """
    if args.json:
        entries = [
            {
                "name": entry.name,
                "inputs": entry.n_inputs,
                "outputs": entry.n_outputs,
                "dffs": entry.n_dffs,
                "gates": entry.n_gates,
                "sequential": entry.is_sequential,
                "embedded": entry.embedded,
            }
            for entry in CATALOG.values()
        ]
        print(json.dumps(entries, indent=2))
        return 0
    table = AsciiTable(
        ["name", "PI", "PO", "FF", "gates", "kind", "source"],
        title="Benchmark catalog (ISCAS'85 / ISCAS'89 size classes)",
    )
    for entry in CATALOG.values():
        table.add_row(
            [
                entry.name,
                entry.n_inputs,
                entry.n_outputs,
                entry.n_dffs or "-",
                entry.n_gates,
                "sequential" if entry.is_sequential else "combinational",
                "embedded" if entry.embedded else "synthetic",
            ]
        )
    print(table.render())
    return 0


def _trace_telemetry(args: argparse.Namespace, root_name: str, **attrs):
    """When ``--trace`` is set, build tracing telemetry and open a root
    span wrapping the whole command (so the flow's child spans account
    for its wall time); returns ``(telemetry, root_span)``."""
    if not getattr(args, "trace", None):
        return None, None
    from repro.obs import Telemetry

    telemetry = Telemetry.on(trace=True)
    root = telemetry.tracer.span(root_name, **attrs)
    root.__enter__()
    return telemetry, root


def _traced_section(telemetry, name: str, **attrs):
    """A child span when tracing, a no-op context otherwise — used to
    account for command work that happens outside the flow stages
    (circuit load, fail-log synthesis) so the tree covers the command's
    whole wall time."""
    if telemetry is None:
        import contextlib

        return contextlib.nullcontext()
    return telemetry.tracer.span(name, **attrs)


def _finish_trace(telemetry, root, path: str) -> None:
    """Close the root span and write the trace document to ``path``."""
    from pathlib import Path

    from repro.obs.export import trace_document

    root.__exit__(None, None, None)
    document = trace_document(telemetry.tracer)
    Path(path).write_text(json.dumps(document, indent=2) + "\n")
    print(
        f"trace {document['trace_id']} written to {path} "
        f"(render with: python -m repro trace {path})",
        file=sys.stderr,
    )


def checked(usage_error, build, *args, **kwargs):
    """``build(*args, **kwargs)`` — a flow config or a grid of them.  A
    value the config rejects is a usage error: ``usage_error`` (an
    argparse ``parser.error``) prints the message, which names the field
    and its bound, and exits 2."""
    try:
        return build(*args, **kwargs)
    except ValueError as error:
        usage_error(str(error))


def _pipeline_config(args: argparse.Namespace, **per_command):
    """The flow config the :func:`_add_flow_knobs` flags describe — the
    one place ``run`` and ``sweep`` build it, so no flag can drop out of
    either command.  ``per_command`` sets the knobs whose flags differ
    between the two (``run``'s ``--evolution-length`` and matrix-row
    ``--workers``)."""
    from repro.flow.pipeline import PipelineConfig

    return checked(
        args.usage_error,
        PipelineConfig,
        seed=args.seed,
        cover_method=args.method,
        max_random_patterns=args.max_random_patterns,
        backtrack_limit=args.backtrack_limit,
        grasp_iterations=args.grasp_iterations,
        **per_command,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    """``repro run`` — the full reseeding flow for one circuit/TPG.

    Examples::

        python -m repro run --circuit s1238 --tpg adder --evolution-length 32
        python -m repro run --circuit c880 --tpg mp-lfsr --cache .repro-cache --json
        python -m repro run --circuit s953 --uniform   # + shared-T refinement
    """
    from repro.flow.report import solution_report
    from repro.flow.session import Session
    from repro.reseeding.uniform import storage_comparison, uniformize_solution

    config = _pipeline_config(
        args,
        evolution_length=args.evolution_length,
        matrix_workers=args.workers,
    )
    telemetry, root = _trace_telemetry(
        args, "repro.run", circuit=args.circuit, tpg=args.tpg
    )
    with _traced_section(telemetry, "session.setup", circuit=args.circuit):
        session = Session.from_name(
            args.circuit,
            scale=args.scale,
            config=config,
            cache=args.cache,
            telemetry=telemetry,
        )
    with _traced_section(telemetry, "session.run", tpg=args.tpg):
        result = session.run(args.tpg)
    if args.uniform:
        uniform = uniformize_solution(result.trimmed)
        comparison = storage_comparison(result.trimmed, uniform)
    if telemetry is not None:
        _finish_trace(telemetry, root, args.trace)
    if args.json:
        payload = result.to_dict()
        if args.uniform:
            # Extra top-level key; from_dict ignores it, so the document
            # still round-trips as a pipeline_result.
            payload["uniform"] = {
                "shared_length": uniform.shared_length,
                **comparison,
            }
        print(json.dumps(payload, indent=2))
        return 0
    print(solution_report(result))
    if args.uniform:
        print(
            "\nuniform-T refinement: shared T = "
            f"{uniform.shared_length}, ROM "
            f"{comparison['variable_t_bits']} -> {comparison['uniform_t_bits']} bits, "
            f"test length {comparison['variable_t_test_length']} -> "
            f"{comparison['uniform_t_test_length']}"
        )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep`` — a circuits x TPGs x evolution-lengths grid.

    Examples::

        python -m repro sweep --circuits c880 s1238 --tpgs adder multiplier \\
            --evolution-lengths 16 32 64 --cache .repro-cache --workers 2
        python -m repro sweep --circuits s420 --tpgs adder --csv
    """
    from repro.flow.session import ArtifactCache
    from repro.flow.sweep import grid_configs, sweep

    base_config = _pipeline_config(args)
    checked(args.usage_error, grid_configs, base_config, args.evolution_lengths)
    cache = ArtifactCache(args.cache) if args.cache else None
    grid = sweep(
        args.circuits,
        args.tpgs,
        base_config=base_config,
        evolution_lengths=args.evolution_lengths,
        scale=args.scale,
        cache=cache,
        workers=args.workers,
    )
    if args.json:
        document = {
            "circuits": args.circuits,
            "tpgs": args.tpgs,
            "evolution_lengths": args.evolution_lengths,
            "scale": args.scale,
            "seed": args.seed,
            "cells": [outcome.cell() for outcome in grid],
            "cache": cache.stats() if cache else None,
        }
        print(json.dumps(document, indent=2))
        return 0
    table = AsciiTable(
        ["circuit", "TPG", "T", "#Triplets", "TestLength", "cached", "seconds"],
        title="Sweep: circuits x TPGs x configs",
    )
    for outcome in grid:
        table.add_row(
            [
                outcome.circuit,
                outcome.tpg,
                outcome.config.evolution_length,
                outcome.result.n_triplets,
                outcome.result.test_length,
                "yes" if outcome.from_cache else "-",
                f"{outcome.seconds:.2f}",
            ]
        )
    print(table.render_csv() if args.csv else table.render())
    print(f"\n{grid.n_cached}/{len(grid)} cells served from the artifact cache")
    if cache is not None:
        stats = cache.stats()
        print(f"cache: {stats['hits']} hits, {stats['misses']} misses")
    return 0


def _cmd_atpg(args: argparse.Namespace) -> int:
    """``repro atpg`` — the deterministic test-generation substrate alone.

    Examples::

        python -m repro atpg --circuit c880
        python -m repro atpg --circuit s420 --patterns   # print the test set
        python -m repro atpg --circuit s1238 --scale 1.0 --seed 7
    """
    from repro.atpg.engine import AtpgEngine

    circuit = load_circuit(args.circuit, scale=args.scale)
    engine = AtpgEngine(circuit, seed=args.seed)
    result = engine.run()
    print(result.summary())
    if args.patterns:
        for pattern in result.test_set:
            print(pattern.to_string())
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    """``repro diagnose`` — inject faults, capture the fail log, diagnose.

    Examples::

        python -m repro diagnose --circuit c880 --top-k 5
        python -m repro diagnose --circuit c880 --signature-only    # MISR bisection
        python -m repro diagnose --circuit c880 --method dictionary --cache .repro-cache
        python -m repro diagnose --circuit c880 --fault 'g27->g28.1/SA0' --json
    """
    from repro.diagnosis import (
        choose_faults,
        fault_representatives,
        make_fail_log,
        parse_fault,
    )
    from repro.faults.collapse import collapse_faults
    from repro.flow.serialize import encode
    from repro.flow.session import Session
    from repro.utils.bitvec import BitVector
    from repro.utils.rng import RngStream

    telemetry, root = _trace_telemetry(
        args, "repro.diagnose", circuit=args.circuit
    )
    with _traced_section(telemetry, "session.setup", circuit=args.circuit):
        session = Session.from_name(
            args.circuit, scale=args.scale, cache=args.cache, telemetry=telemetry
        )
    with _traced_section(telemetry, "diagnose.prepare"):
        circuit = session.circuit
        faults = collapse_faults(circuit)
        rng = RngStream(args.seed, "diagnose", circuit.name)
        patterns = [
            BitVector.random(circuit.n_inputs, rng) for _ in range(args.patterns)
        ]
        if args.fault:
            injected = tuple(parse_fault(spec) for spec in args.fault)
        else:
            # Draw from the faults this pattern set actually detects, so
            # the synthetic scenario always produces a non-empty fail log.
            detected = session.simulator.detected(patterns, faults)
            detectable = [f for f, flag in zip(faults, detected) if flag]
            if not detectable:
                print(
                    "no detectable faults under this pattern set", file=sys.stderr
                )
                return 1
            injected = choose_faults(detectable, args.faults, rng.child("pick"))
        fail_log = make_fail_log(
            circuit, patterns, injected, session.simulator.compiled
        )
    method = "signature" if args.signature_only else args.method
    with _traced_section(telemetry, "session.diagnose", method=method):
        result = session.diagnose(
            fail_log,
            method=method,
            faults=faults,
            top_k=args.top_k,
            min_window=args.min_window,
        )
    if telemetry is not None:
        _finish_trace(telemetry, root, args.trace)
    representatives = fault_representatives(circuit)
    ranks = {
        str(fault): result.rank_of(representatives.get(fault, fault))
        for fault in injected
    }
    if args.json:
        payload = encode(result)
        payload["injected"] = [str(fault) for fault in injected]
        payload["injected_ranks"] = ranks
        print(json.dumps(payload, indent=2))
        return 0
    print(result.summary())
    table = AsciiTable(
        ["rank", "fault", "score", "match", "mispredict", "miss", "responses"],
        title=f"{circuit.name}: top {len(result.candidates)} candidates ({result.mode})",
    )
    for rank, candidate in enumerate(result.candidates, start=1):
        table.add_row(
            [
                rank,
                str(candidate.fault),
                candidate.score,
                candidate.n_match,
                candidate.n_mispredicted,
                candidate.n_missed,
                "-" if candidate.n_response_match is None
                else candidate.n_response_match,
            ]
        )
    print(table.render())
    for fault in injected:
        rank = ranks[str(fault)]
        print(
            f"injected {fault}: "
            + (f"ranked #{rank}" if rank else f"not in top {args.top_k}")
        )
    if result.window is not None:
        total = max(result.n_patterns, 1)
        print(
            f"bisection: window [{result.window[0]}, {result.window[1]}), "
            f"{result.oracle_queries} oracle queries, "
            f"{result.patterns_resimulated}/{result.n_patterns} patterns "
            f"re-simulated ({100 * result.patterns_resimulated / total:.1f}%)"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve`` — BIST diagnosis as a batching HTTP service:
    requests queued while a group computes fuse into the next group
    (up to ``--max-batch``); nothing is held.

    Examples::

        python -m repro serve --port 8731 --store .repro-store
        python -m repro serve --host 0.0.0.0 --max-batch 64
        curl localhost:8731/metrics   # Prometheus text, always served

    Stop with SIGTERM (or Ctrl-C): the worker drains — finishes every
    accepted request, flushes responses — and exits 0.
    """
    from repro.serve import ServeConfig, run

    return run(
        ServeConfig(
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_queue=args.max_queue,
            timeout_ms=args.timeout_ms,
            store=args.store,
        )
    )


def _cmd_check(args: argparse.Namespace) -> int:
    """``repro check`` — the repo's own static-analysis rule engine.

    Examples::

        python -m repro check                       # all rules, human output
        python -m repro check --json                # machine-readable report
        python -m repro check --rule kernel-purity  # one rule (repeatable)
    """
    from pathlib import Path

    from repro.analysis import run_check
    from repro.utils.registry import UnknownComponentError

    try:
        report = run_check(Path(args.root).resolve(), rules=args.rule)
    except UnknownComponentError as exc:
        print(f"repro check: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace`` — render a ``--trace`` document as a profile table.

    Examples::

        python -m repro run --circuit s420 --tpg adder --trace trace.json
        python -m repro trace trace.json
    """
    from pathlib import Path

    from repro.obs.export import profile_table, validate_trace_document

    document = validate_trace_document(json.loads(Path(args.file).read_text()))
    print(profile_table(document))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    """``repro table1`` — the paper's Table 1: set covering vs GATSBY.

    Examples::

        python -m repro table1                      # default subset, GATSBY on
        python -m repro table1 --circuits s420 c17 --no-gatsby --csv
        python -m repro table1 --full --scale 1.0 --cache .repro-cache
    """
    from repro.experiments.common import sessions_from_args
    from repro.experiments.table1 import compute_table1, render_table1

    rows = compute_table1(sessions_from_args(args), run_gatsby=not args.no_gatsby)
    table = render_table1(rows)
    print(table.render_csv() if args.csv else table.render())
    cells = [
        cell
        for row in rows
        for cell in row.cells.values()
        if cell.gatsby_triplets is not None
    ]
    # A win: fewer/equal triplets at full coverage, or the GA never
    # reached the coverage target at all.
    wins = sum(1 for c in cells if not c.gatsby_complete or c.improvement >= 0)
    if cells:
        print(
            f"\nset covering solves (100% FC, <= triplets) or outlasts "
            f"GATSBY on {wins}/{len(cells)} circuit x TPG cells"
        )
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    """``repro table2`` — the paper's Table 2: Detection Matrix reduction.

    Examples::

        python -m repro table2 --circuits c499 s420 --csv
        python -m repro table2 --full --workers 2
    """
    from repro.experiments.common import sessions_from_args
    from repro.experiments.table2 import compute_table2, render_table2

    rows = compute_table2(sessions_from_args(args))
    table = render_table2(rows)
    print(table.render_csv() if args.csv else table.render())
    cells = [cell for row in rows for cell in row.cells.values()]
    closed = sum(1 for cell in cells if cell.closed_by_reduction)
    print(
        f"\nreduction closed {closed}/{len(cells)} instances outright "
        "(solution = necessary triplets only)"
    )
    return 0


def _cmd_figure2(args: argparse.Namespace) -> int:
    """``repro figure2`` — the paper's Figure 2: a sweep of T for one
    circuit/TPG on the drivers' flow defaults.

    Examples::

        python -m repro figure2                     # s1238, adder, T = 2..256
        python -m repro figure2 --circuit s420 --lengths 4 8 16 --cache .repro-cache
    """
    from repro.experiments.common import DRIVER_CONFIG
    from repro.experiments.figure2 import render_figure2
    from repro.flow.sweep import grid_configs, sweep

    base_config = checked(args.usage_error, replace, DRIVER_CONFIG, seed=args.seed)
    checked(args.usage_error, grid_configs, base_config, args.lengths)
    grid = sweep(
        [args.circuit],
        [args.tpg],
        base_config=base_config,
        evolution_lengths=args.lengths,
        scale=args.scale,
        cache=args.cache,
    )
    print(render_figure2(grid))
    return 0


def positive_int(text: str) -> int:
    """argparse ``type`` for process counts: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


#: The flags several subcommands share, each declared once here
#: (``add_argument`` keywords by flag); :func:`_add_shared` adds them.
_SHARED_FLAGS: dict[str, dict[str, Any]] = {
    "--circuit": {"required": True, "help": "circuit name (`repro catalog` lists them)"},
    "--circuits": {
        "nargs": "+",
        "default": None,
        "help": "circuit names (table1/table2 default: a fast subset of the "
        "paper's list)",
    },
    "--tpg": {"default": "adder", "help": "TPG name (default %(default)s)"},
    "--scale": {
        "type": float,
        "default": 0.25,
        "help": "synthetic circuit size factor, 1.0 = real ISCAS sizes "
        "(default %(default)s)",
    },
    "--seed": {"type": int, "default": 2001, "help": "master seed (default %(default)s)"},
    "--evolution-length": {
        "type": int,
        "default": 32,
        "help": "triplet evolution length T (default %(default)s)",
    },
    "--workers": {
        "type": positive_int,
        "default": None,
        "help": "process-pool width: Detection Matrix rows (run, table1, "
        "table2) or circuits (sweep); default serial",
    },
    "--cache": {
        "default": None,
        "metavar": "DIR",
        "help": "artifact-cache directory: warm runs reuse ATPG, matrices, "
        "results and fault dictionaries",
    },
    "--json": {"action": "store_true", "help": "emit machine-readable JSON"},
    "--csv": {"action": "store_true", "help": "emit CSV instead of an ASCII table"},
    "--trace": {
        "default": None,
        "metavar": "FILE",
        "help": "write a span-tree trace document (render with `repro trace`)",
    },
}


def _add_shared(parser: argparse.ArgumentParser, *flags: str, **overrides) -> None:
    """Add the :data:`_SHARED_FLAGS` named in ``flags`` to ``parser``.
    ``overrides`` changes one flag's keywords, keyed by its dest
    (``scale={"default": 1.0}``)."""
    for flag in flags:
        dest = flag[2:].replace("-", "_")
        parser.add_argument(flag, **{**_SHARED_FLAGS[flag], **overrides.get(dest, {})})


def _add_flow_knobs(parser: argparse.ArgumentParser) -> None:
    """Knobs shared by ``run`` and ``sweep`` (the PipelineConfig surface)."""
    _add_shared(parser, "--scale", "--seed")
    parser.add_argument(
        "--method",
        default="auto",
        choices=["auto", "ilp", "bnb", "grasp", "greedy"],
        help="covering solver",
    )
    parser.add_argument(
        "--max-random-patterns",
        type=int,
        default=4096,
        help="ATPG random-phase pattern budget (default 4096)",
    )
    parser.add_argument(
        "--backtrack-limit",
        type=int,
        default=250,
        help="PODEM backtrack limit per fault (default 250)",
    )
    parser.add_argument(
        "--grasp-iterations",
        type=int,
        default=30,
        help="GRASP restarts when the metaheuristic solver runs (default 30)",
    )
    _add_shared(parser, "--workers", "--cache", "--json")


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    from repro.experiments.figure2 import DEFAULT_LENGTHS

    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    catalog = sub.add_parser("catalog", help="list benchmark circuits")
    _add_shared(catalog, "--json")
    catalog.set_defaults(func=_cmd_catalog)

    run = sub.add_parser("run", help="run the reseeding flow")
    _add_shared(run, "--circuit", "--tpg", "--evolution-length")
    _add_flow_knobs(run)
    run.add_argument(
        "--uniform",
        action="store_true",
        help="also report the uniform-T (shared length) refinement",
    )
    _add_shared(run, "--trace")
    run.set_defaults(func=_cmd_run)

    sweep_cmd = sub.add_parser(
        "sweep", help="run a circuits x TPGs x evolution-lengths grid"
    )
    _add_shared(sweep_cmd, "--circuits", circuits={"required": True})
    sweep_cmd.add_argument(
        "--tpgs",
        nargs="+",
        default=["adder"],
        help="TPG names (default: adder)",
    )
    sweep_cmd.add_argument(
        "--evolution-lengths",
        nargs="+",
        type=int,
        default=[32],
        metavar="T",
        help="one flow config per evolution length (default: 32)",
    )
    _add_flow_knobs(sweep_cmd)
    _add_shared(sweep_cmd, "--csv")
    sweep_cmd.set_defaults(func=_cmd_sweep)

    diagnose = sub.add_parser(
        "diagnose", help="diagnose an injected-fault BIST fail log"
    )
    _add_shared(diagnose, "--circuit", "--scale", "--seed", scale={"default": 1.0})
    diagnose.add_argument(
        "--patterns",
        type=int,
        default=256,
        help="random test patterns applied in the session (default 256)",
    )
    diagnose.add_argument(
        "--faults",
        type=int,
        default=1,
        help="number of random detectable faults to inject (default 1)",
    )
    diagnose.add_argument(
        "--fault",
        action="append",
        metavar="SPEC",
        help="inject an explicit fault ('net/SA0' or 'net->gate.pin/SA1'); "
        "repeatable, overrides --faults",
    )
    diagnose.add_argument(
        "--method",
        default="effect_cause",
        choices=["effect_cause", "dictionary", "signature", "multiplet"],
        help="diagnosis engine (default effect_cause)",
    )
    diagnose.add_argument(
        "--signature-only",
        action="store_true",
        help="BIST signature mode: bisect with MISR prefix probes, "
        "diagnose only the localised window (same as --method signature)",
    )
    diagnose.add_argument(
        "--min-window",
        type=int,
        default=None,
        help="bisection stops when the window reaches this many patterns",
    )
    diagnose.add_argument(
        "--top-k", type=int, default=10, help="candidates reported (default 10)"
    )
    _add_shared(diagnose, "--cache", "--json", "--trace")
    diagnose.set_defaults(func=_cmd_diagnose)

    atpg = sub.add_parser("atpg", help="run the ATPG substrate alone")
    _add_shared(atpg, "--circuit", "--scale", "--seed")
    atpg.add_argument(
        "--patterns", action="store_true", help="print the test patterns"
    )
    atpg.set_defaults(func=_cmd_atpg)

    serve = sub.add_parser(
        "serve", help="serve diagnosis/ATPG/sweep over HTTP with batching"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8731, help="TCP port (0 for ephemeral)"
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="most requests fused into one compute pass; requests queued "
        "while a group computes fuse into the next (default 32)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=256,
        help="bounded request queue; beyond it, shed with 429 (default 256)",
    )
    serve.add_argument(
        "--timeout-ms",
        type=int,
        default=30_000,
        help="default per-request deadline (default 30000)",
    )
    serve.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="artifact cache directory, shared with other workers and "
        "with `repro run --cache`",
    )
    serve.add_argument(
        "--metrics",
        action="store_true",
        help="no-op, kept for old scripts: GET /metrics is always served",
    )
    serve.set_defaults(func=_cmd_serve)

    check = sub.add_parser(
        "check", help="run the repo's static-analysis rules"
    )
    check.add_argument(
        "--root", default=".", help="repository root to analyse (default: cwd)"
    )
    check.add_argument(
        "--rule",
        action="append",
        metavar="RULE-ID",
        help="run only this rule (repeatable; default: all registered rules)",
    )
    _add_shared(check, "--json")
    check.set_defaults(func=_cmd_check)

    trace = sub.add_parser(
        "trace", help="render a --trace span document as a profile table"
    )
    trace.add_argument("file", help="trace JSON written by run/diagnose --trace")
    trace.set_defaults(func=_cmd_trace)

    for name, func, what in (
        ("table1", _cmd_table1, "Table 1: reseeding solutions vs GATSBY"),
        ("table2", _cmd_table2, "Table 2: set covering reduction statistics"),
    ):
        table = sub.add_parser(name, help=f"regenerate the paper's {what}")
        _add_shared(table, "--circuits")
        table.add_argument(
            "--full",
            action="store_true",
            help="use the paper's full circuit list (slow at scale 1.0)",
        )
        _add_shared(
            table, "--scale", "--seed", "--evolution-length", "--workers", "--cache", "--csv"
        )
        table.set_defaults(func=func)
    sub.choices["table1"].add_argument(
        "--no-gatsby",
        action="store_true",
        help="skip the (slow) GATSBY GA baseline",
    )

    figure2 = sub.add_parser(
        "figure2", help="regenerate the paper's Figure 2: #triplets vs test length"
    )
    _add_shared(
        figure2, "--circuit", "--tpg", "--scale", "--seed",
        circuit={"required": False, "default": "s1238"},
    )
    figure2.add_argument(
        "--lengths",
        nargs="+",
        type=int,
        default=list(DEFAULT_LENGTHS),
        help="evolution lengths to sweep",
    )
    _add_shared(figure2, "--cache")
    figure2.set_defaults(func=_cmd_figure2)

    # A flag value the flow config rejects is a usage error (exit 2)
    # that names the subcommand.
    for command in sub.choices.values():
        command.set_defaults(usage_error=command.error)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
