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
* ``table1`` / ``table2`` / ``figure2`` — the experiment drivers
  (equivalent to ``python -m repro.experiments.<name>``).
"""

from __future__ import annotations

import argparse
import json
import sys

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


def _pipeline_config(args: argparse.Namespace, **per_command):
    """The flow config the :func:`_add_flow_knobs` flags describe — the
    one place ``run`` and ``sweep`` build it, so no flag can drop out of
    either command.  ``per_command`` sets the knobs whose flags differ
    between the two (``run``'s ``--evolution-length`` and matrix-row
    ``--workers``)."""
    from repro.flow.pipeline import PipelineConfig

    return PipelineConfig(
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
    from repro.flow.sweep import sweep

    cache = ArtifactCache(args.cache) if args.cache else None
    grid = sweep(
        args.circuits,
        args.tpgs,
        base_config=_pipeline_config(args),
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
        python -m repro check --update-baseline     # accept current findings
    """
    from pathlib import Path

    from repro.analysis import BASELINE_NAME, run_check, save_baseline
    from repro.utils.registry import UnknownComponentError

    root = Path(args.root).resolve()
    baseline = Path(args.baseline) if args.baseline else root / BASELINE_NAME
    try:
        if args.update_baseline:
            # Baseline nothing: run with an empty baseline, save what remains.
            report = run_check(root, rules=args.rule, baseline_path=None)
            count = save_baseline(baseline, report.findings)
            print(f"baseline {baseline}: {count} entries")
            return 0
        report = run_check(
            root,
            rules=args.rule,
            baseline_path=baseline if baseline.exists() else None,
        )
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


def positive_int(text: str) -> int:
    """argparse ``type`` for process counts: an int of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _delegate(module_main):
    def runner(args: argparse.Namespace) -> int:
        module_main(args.rest)
        return 0

    return runner


def _add_flow_knobs(parser: argparse.ArgumentParser) -> None:
    """Knobs shared by ``run`` and ``sweep`` (the PipelineConfig surface)."""
    parser.add_argument("--scale", type=float, default=0.25)
    parser.add_argument("--seed", type=int, default=2001)
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
    parser.add_argument(
        "--workers",
        type=positive_int,
        default=None,
        help="process-pool width (Detection Matrix rows for `run`, "
        "circuits for `sweep`; default serial)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="artifact-cache directory: warm runs skip ATPG and matrices",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of the report/table",
    )


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    catalog = sub.add_parser("catalog", help="list benchmark circuits")
    catalog.add_argument(
        "--json", action="store_true", help="emit the catalog as JSON"
    )
    catalog.set_defaults(func=_cmd_catalog)

    run = sub.add_parser("run", help="run the reseeding flow")
    run.add_argument("--circuit", required=True)
    run.add_argument("--tpg", default="adder")
    run.add_argument("--evolution-length", type=int, default=32)
    _add_flow_knobs(run)
    run.add_argument(
        "--uniform",
        action="store_true",
        help="also report the uniform-T (shared length) refinement",
    )
    run.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a span-tree trace document (render with `repro trace`)",
    )
    run.set_defaults(func=_cmd_run)

    sweep_cmd = sub.add_parser(
        "sweep", help="run a circuits x TPGs x configs grid"
    )
    sweep_cmd.add_argument("--circuits", nargs="+", required=True)
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
    sweep_cmd.add_argument(
        "--csv", action="store_true", help="emit CSV instead of an ASCII table"
    )
    sweep_cmd.set_defaults(func=_cmd_sweep)

    diagnose = sub.add_parser(
        "diagnose", help="diagnose an injected-fault BIST fail log"
    )
    diagnose.add_argument("--circuit", required=True)
    diagnose.add_argument("--scale", type=float, default=1.0)
    diagnose.add_argument("--seed", type=int, default=2001)
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
    diagnose.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="artifact-cache directory: warm runs load the fault dictionary",
    )
    diagnose.add_argument(
        "--json",
        action="store_true",
        help="emit the schema-versioned diagnosis result as JSON",
    )
    diagnose.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a span-tree trace document (render with `repro trace`)",
    )
    diagnose.set_defaults(func=_cmd_diagnose)

    atpg = sub.add_parser("atpg", help="run the ATPG substrate alone")
    atpg.add_argument("--circuit", required=True)
    atpg.add_argument("--scale", type=float, default=0.25)
    atpg.add_argument("--seed", type=int, default=2001)
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
    check.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="baseline file of accepted findings "
        "(default: <root>/.repro-baseline.json when present)",
    )
    check.add_argument(
        "--update-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    check.add_argument(
        "--json",
        action="store_true",
        help="emit the schema-versioned check report as JSON",
    )
    check.set_defaults(func=_cmd_check)

    trace = sub.add_parser(
        "trace", help="render a --trace span document as a profile table"
    )
    trace.add_argument("file", help="trace JSON written by run/diagnose --trace")
    trace.set_defaults(func=_cmd_trace)

    for name in ("table1", "table2", "figure2"):
        experiment = sub.add_parser(
            name, help=f"regenerate the paper's {name}", add_help=False
        )
        experiment.add_argument("rest", nargs=argparse.REMAINDER)
        if name == "table1":
            from repro.experiments.table1 import main as table1_main

            experiment.set_defaults(func=_delegate(table1_main))
        elif name == "table2":
            from repro.experiments.table2 import main as table2_main

            experiment.set_defaults(func=_delegate(table2_main))
        else:
            from repro.experiments.figure2 import main as figure2_main

            experiment.set_defaults(func=_delegate(figure2_main))
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # Delegate experiment subcommands wholesale: argparse's REMAINDER no
    # longer swallows unrecognised options after the subcommand name
    # (python/cpython#61252), so route around the top-level parser.  The
    # build_parser() stubs for these names exist for `repro -h` only.
    if argv and argv[0] in ("table1", "table2", "figure2"):
        from repro.experiments.figure2 import main as figure2_main
        from repro.experiments.table1 import main as table1_main
        from repro.experiments.table2 import main as table2_main

        delegate = {
            "table1": table1_main,
            "table2": table2_main,
            "figure2": figure2_main,
        }[argv[0]]
        delegate(argv[1:])
        return 0
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
