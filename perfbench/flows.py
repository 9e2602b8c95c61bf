"""The reseeding-flow workloads: ``flow_cold`` and ``tradeoff``.

Both drive the public ``repro`` API on s1238 at scale 1.0 with the adder
TPG, serially (``matrix_workers`` unset), from this one process.

* ``flow_cold``: set-up is a fresh process importing ``repro`` and
  loading the circuit.  The timed phase is what ``repro run --cache DIR``
  does on an empty directory (ATPG, Detection Matrix, cover, trim, then
  the cache writes), then repeated ``repro run --cache DIR`` from fresh
  sessions, which are served from that cache (reads).
* ``tradeoff``: the Figure-2 sweep over T in ``TRADEOFF_LENGTHS``.
  Set-up is loading the circuit and running ATPG.  The timed phase runs
  each length cold against an ``ArtifactCache`` in a fresh directory (a
  write), each followed by fresh sessions re-sweeping the lengths cached
  so far (reads).

Both repeat their timed phase in rounds and report medians over them.
"""

from __future__ import annotations

import dataclasses
import gc
import subprocess
import sys
import time
from typing import Any

from common import (
    SETUP_REPS,
    TRACES,
    BenchError,
    Outcome,
    child_env,
    mean,
    median,
    peak_rss_mb,
    tail,
    work_dir,
)
from tracing import SpanRecorder

#: The circuit and TPG the flow workloads run (the one the roadmap
#: profiled), and the evolution lengths of the Figure-2 sweep.
CIRCUIT = "s1238"
TPG = "adder"
TRADEOFF_LENGTHS = (64, 128, 256, 512)

#: Results of the default seed, measured at the commit that added this
#: benchmark: (n_triplets, test_length) per evolution length.
PINNED_SEED = 2001
PINNED = {64: (37, 1304), 128: (31, 2314), 256: (26, 3449), 512: (21, 6415)}
PINNED_ABORTED = 132
#: Both flow workloads repeat their timed work once per this many seconds
#: of ``--seconds`` (2 rounds at 10 s), each round into a fresh cache, and
#: report medians over the rounds (of two rounds, their mean): the host's
#: speed swings by up to a third over stretches of seconds to minutes, and
#: a single sweep catches one stretch.  More rounds would not fit the time
#: a run may take.
SECONDS_PER_ROUND = 5
#: Cache-served runs after each ``flow_cold`` cold run, and re-sweeps
#: after each ``tradeoff`` write.
FLOW_COLD_READS = 15
TRADEOFF_RESWEEPS = 3

#: Set-up of ``flow_cold`` as a fresh interpreter sees it; prints seconds.
_CHILD_SETUP = (
    "import time\n"
    "start = time.perf_counter()\n"
    "from repro import Session\n"
    "Session.from_name({circuit!r}, scale=1.0)\n"
    "print(time.perf_counter() - start)\n"
)


# -- tracing ---------------------------------------------------------------


def instrument(recorder: SpanRecorder) -> None:
    """Wrap each flow layer's public entry points with spans."""
    import repro.atpg.engine as atpg_engine
    import repro.flow.session as session_mod
    import repro.flow.stages as stages
    from repro.flow.pipeline import PipelineResult
    from repro.reseeding.initial import InitialReseedingBuilder
    from repro.setcover.matrix import CoverMatrix
    from repro.sim.batch import BatchFaultSimulator
    from repro.tpg.base import TestPatternGenerator

    def count_atpg(rec, args, kwargs, result):
        rec.add("atpg.podem_patterns", result.podem_patterns)
        rec.add("atpg.random_kept", result.random_patterns_kept)
        rec.add("atpg.test_length", result.test_length)
        rec.add("atpg.aborted", len(result.aborted))

    def count_evolve(rec, args, kwargs, result):
        rec.add("tpg.patterns", result.n_patterns)

    def count_matrix(rec, args, kwargs, result):
        matrix = result.detection_matrix.matrix
        rec.add("reseeding.rows", matrix.shape[0])
        rec.add("reseeding.faults", matrix.shape[1])
        rec.add("reseeding.cells", matrix.size)
        rec.add("reseeding.ones", int(matrix.sum()))

    def count_cover(rec, args, kwargs, result):
        rows, cols = result.stats.reduced_shape
        rec.add("setcover.reduced_rows", rows)
        rec.add("setcover.reduced_cols", cols)
        rec.add("setcover.n_essential", result.stats.n_essential)

    recorder.wrap(session_mod, "load_circuit", "circuits.load")
    recorder.wrap(session_mod.Session, "__init__", "flow.session")
    recorder.wrap(session_mod.Session, "run_info", "flow.run")
    recorder.wrap(session_mod.ArtifactCache, "get", "flow.cache_get")
    recorder.wrap(session_mod.ArtifactCache, "put", "flow.cache_put")
    recorder.wrap(PipelineResult, "to_dict", "flow.encode")
    recorder.wrap(PipelineResult, "from_dict", "flow.decode")
    recorder.wrap(atpg_engine.AtpgEngine, "run", "atpg.run", count_atpg)
    recorder.wrap(atpg_engine, "random_phase", "atpg.random")
    recorder.wrap(atpg_engine, "reverse_order_compaction", "atpg.compact")
    recorder.wrap(BatchFaultSimulator, "detected", "sim.detected")
    recorder.wrap(BatchFaultSimulator, "detection_matrix_rows", "sim.rows")
    recorder.wrap(BatchFaultSimulator, "first_detection_index",
                  "sim.first_detection")
    recorder.wrap(TestPatternGenerator, "evolve_batch", "tpg.evolve",
                  count_evolve)
    recorder.wrap(InitialReseedingBuilder, "build_from_atpg",
                  "reseeding.matrix", count_matrix)
    recorder.wrap(stages, "trim_solution", "reseeding.trim")
    recorder.wrap(CoverMatrix, "from_bool_array", "setcover.matrix")
    recorder.wrap(stages, "solve_cover", "setcover.solve", count_cover)


def layer_metrics(rec: SpanRecorder, registry, timed, cache_stats,
                  answers: list, untraced_wall: float, traced_wall: float,
                  out: Outcome) -> None:
    """Per-layer metrics of a traced flow run.  ``timed`` is the root
    span of the traced timed phase; ``cache_stats`` its artifact-cache
    hits, misses and bytes on disk; ``answers`` the (n_triplets,
    test_length) of its cold runs."""
    def scalar(name: str) -> float:
        try:
            return registry.scalar_value(name)
        except KeyError:
            return 0.0

    counts = rec.counts
    layers = rec.layer_self_times()
    atpg_runs = max(1, counts.get("atpg.run.calls", 0))
    atpg_run = rec.total("atpg.run") / atpg_runs
    atpg_random = rec.total("atpg.random") / atpg_runs
    atpg_compact = rec.total("atpg.compact") / atpg_runs
    out.put("circuits.load_s", rec.total("circuits.load"))
    out.put("circuits.self_s", layers.get("circuits", 0.0))
    out.put("flow.run_s", rec.total("flow.run"))
    out.put("flow.self_s", layers.get("flow", 0.0))
    out.put("flow.cache_get_s", rec.total("flow.cache_get"))
    out.put("flow.cache_put_s", rec.total("flow.cache_put"))
    out.put("flow.codec_s",
            rec.total("flow.encode") + rec.total("flow.decode"))
    out.put("flow.cache_hits", cache_stats.get("hits", 0))
    out.put("flow.cache_misses", cache_stats.get("misses", 0))
    out.put("flow.cache_bytes", cache_stats.get("bytes", 0))
    out.put("atpg.run_s", atpg_run)
    out.put("atpg.random_s", atpg_random)
    out.put("atpg.compact_s", atpg_compact)
    out.put("atpg.topoff_s", atpg_run - atpg_random - atpg_compact)
    out.put("atpg.self_s", layers.get("atpg", 0.0) / atpg_runs)
    for name, series in (("atpg.lanes_seated", "repro_atpg_lanes_seated_total"),
                         ("atpg.rounds", "repro_atpg_rounds_total"),
                         ("atpg.backtracks", "repro_atpg_backtracks_total"),
                         ("atpg.decisions", "repro_atpg_decisions_total"),
                         ("atpg.tail_finishes", "repro_atpg_tail_finishes_total")):
        out.put(name, scalar(series) / atpg_runs)
    podem = counts.get("atpg.podem_patterns", 0)
    kept = counts.get("atpg.random_kept", 0) + podem
    out.put("atpg.podem_patterns", podem / atpg_runs)
    out.put("atpg.kept_ratio",
            counts.get("atpg.test_length", 0) / kept if kept else 0.0)
    out.put("atpg.aborted_faults", counts.get("atpg.aborted", 0) / atpg_runs)
    builds = scalar("repro_sim_plan_builds_total")
    hits = scalar("repro_sim_plan_cache_hits_total")
    out.put("sim.detected_calls", counts.get("sim.detected.calls", 0))
    out.put("sim.detected_s", rec.total("sim.detected"))
    out.put("sim.plan_builds", builds)
    out.put("sim.plan_cache_hits", hits)
    out.put("sim.plan_subsets", scalar("repro_sim_plan_subsets_total"))
    out.put("sim.plan_hit_ratio",
            hits / (hits + builds) if hits + builds else 0.0)
    out.put("sim.words_simulated", scalar("repro_sim_words_simulated_total"))
    out.put("sim.rows_calls", counts.get("sim.rows.calls", 0))
    out.put("sim.rows_s", rec.total("sim.rows"))
    out.put("sim.first_detection_calls",
            counts.get("sim.first_detection.calls", 0))
    out.put("sim.first_detection_s", rec.total("sim.first_detection"))
    out.put("sim.self_s", layers.get("sim", 0.0))
    out.put("tpg.evolve_calls", counts.get("tpg.evolve.calls", 0))
    out.put("tpg.evolve_s", rec.total("tpg.evolve"))
    out.put("tpg.patterns_evolved", counts.get("tpg.patterns", 0))
    out.put("tpg.self_s", layers.get("tpg", 0.0))
    cells = counts.get("reseeding.cells", 0)
    out.put("reseeding.matrix_s", rec.total("reseeding.matrix"))
    out.put("reseeding.matrix_rows", counts.get("reseeding.rows", 0))
    out.put("reseeding.matrix_faults", counts.get("reseeding.faults", 0))
    out.put("reseeding.matrix_density",
            counts.get("reseeding.ones", 0) / cells if cells else 0.0)
    out.put("reseeding.trim_s", rec.total("reseeding.trim"))
    out.put("reseeding.n_triplets", sum(a[0] for a in answers))
    out.put("reseeding.test_length", sum(a[1] for a in answers))
    out.put("reseeding.self_s", layers.get("reseeding", 0.0))
    out.put("setcover.solve_s",
            rec.total("setcover.solve") + rec.total("setcover.matrix"))
    out.put("setcover.reduced_rows", counts.get("setcover.reduced_rows", 0))
    out.put("setcover.reduced_cols", counts.get("setcover.reduced_cols", 0))
    out.put("setcover.n_essential", counts.get("setcover.n_essential", 0))
    out.put("setcover.self_s", layers.get("setcover", 0.0))
    # Time in the timed phase not explained by a named span below the
    # flow entry point (the phase root's and Session.run_info's own time).
    own = rec.self_times(timed)
    unexplained = own.get("bench.timed", 0.0) + own.get("flow.run", 0.0)
    out.put("trace.span_coverage", 1.0 - unexplained / timed.seconds)
    out.put("trace.untraced_wall_s", untraced_wall)
    out.put("trace.traced_wall_s", traced_wall)
    out.put("trace.overhead_frac", traced_wall / untraced_wall - 1.0)
    out.put("trace.spans", len(rec.spans))


# -- correctness -----------------------------------------------------------


def check_result(result, circuit, out: Outcome, label: str) -> None:
    """Invariants every seed must meet: ATPG covers F completely, and the
    final reseeding, re-evolved and re-simulated through the public
    simulator, detects every target fault."""
    from repro.sim.fault import FaultSimulator
    from repro.tpg.registry import make_tpg

    atpg = result.atpg
    out.check(atpg.measured_coverage == 1.0,
              f"{label}: ATPG coverage {atpg.measured_coverage} != 1.0")
    tpg = make_tpg(result.tpg_name, circuit.n_inputs)
    patterns = [
        p for t in result.trimmed.solution.triplets for p in t.test_set(tpg)
    ]
    ok = len(patterns) == result.test_length and all(
        FaultSimulator(circuit).detected(patterns, atpg.target_faults)
    )
    out.check(ok, f"{label}: final reseeding misses target faults")


def check_pinned(seed: int, answers: dict[int, tuple[int, int]], aborted: int,
                 out: Outcome) -> None:
    """The default seed reproduces the values measured at this commit."""
    if seed != PINNED_SEED:
        return
    for length, answer in answers.items():
        out.check(answer == PINNED[length],
                  f"T={length}: (n_triplets, test_length) {answer} "
                  f"!= pinned {PINNED[length]}")
    out.check(aborted == PINNED_ABORTED,
              f"aborted faults {aborted} != pinned {PINNED_ABORTED}")


# -- workloads -------------------------------------------------------------


def _child_setup_seconds() -> float:
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_SETUP.format(circuit=CIRCUIT)],
        env=child_env(), capture_output=True, text=True, timeout=120,
        check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up child failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def _telemetry(trace: bool):
    from repro.obs import NULL_TELEMETRY, Telemetry

    return Telemetry.on() if trace else NULL_TELEMETRY


def flow_cold(seed: int, seconds: int, trace: bool, out: Outcome) -> None:
    from repro import Session
    from repro.flow.pipeline import PipelineConfig
    from repro.flow.session import ArtifactCache

    config = PipelineConfig(seed=seed)
    rounds = max(1, seconds // SECONDS_PER_ROUND)
    if not trace:
        out.put("setup_s",
                median([_child_setup_seconds() for _ in range(SETUP_REPS)]))

    def repro_run(cache_dir, telemetry):
        """What ``repro run --cache DIR`` does after its imports: a fresh
        session on the cache directory, then the flow.  Returns (run,
        session, seconds)."""
        start = time.perf_counter()
        session = Session.from_name(CIRCUIT, scale=1.0, config=config,
                                    cache=ArtifactCache(cache_dir),
                                    telemetry=telemetry)
        info = session.run_info(TPG)
        return info, session, time.perf_counter() - start

    def timed(name: str, telemetry, rounds: int) -> ColdRuns:
        """``rounds`` times: one cold run that fills a fresh cache (the
        write), then ``FLOW_COLD_READS`` runs served from it."""
        runs = ColdRuns()
        for index in range(rounds):
            cache_dir = work_dir(f"{name}-{index}")
            # Collect the last round's garbage before this round's clock.
            runs.session = None
            gc.collect()
            cold, runs.session, wall = repro_run(cache_dir, telemetry)
            answer = (cold.result.n_triplets, cold.result.test_length)
            if runs.cold is None:
                runs.cold, runs.answer = cold, answer
            else:
                out.check(answer == runs.answer,
                          f"flow_cold: round {index} answer {answer} "
                          f"differs from round 0 {runs.answer}")
            reads = []
            for _ in range(FLOW_COLD_READS):
                read, warm, read_seconds = repro_run(cache_dir, telemetry)
                reads.append(read_seconds)
                runs.hits += warm.cache.hits
                runs.misses += warm.cache.misses
                out.check(read.from_cache and (read.result.n_triplets,
                                               read.result.test_length) == answer,
                          "flow_cold: cached re-run differs from the cold run")
            runs.walls.append(wall)
            runs.writes.append(cold.seconds)
            runs.phases.append(wall + sum(reads))
            runs.reads.extend(reads)
            runs.hits += runs.session.cache.hits
            runs.misses += runs.session.cache.misses
            runs.bytes = sum(p.stat().st_size for p in cache_dir.rglob("*"))
        return runs

    runs = timed("flow_cold", _telemetry(False), rounds)
    if trace:
        rec = SpanRecorder()
        telemetry = _telemetry(True)
        instrument(rec)
        try:
            with rec.span("bench.timed", workload="flow_cold",
                          seed=seed) as root:
                # The traced session stays referenced until the scrape
                # below, so its simulator's counters are still collected.
                traced = timed("flow_cold-traced", telemetry, 1)
        finally:
            rec.restore()
        # Bracket the traced run with untraced ones, so a process warming
        # up does not pass for tracing overhead.
        phase_after = timed("flow_cold-after", _telemetry(False), 1).phases[0]
        stats = {"hits": traced.hits, "misses": traced.misses,
                 "bytes": traced.bytes}
        layer_metrics(rec, telemetry.metrics, root, stats, [traced.answer],
                      (median(runs.phases) + phase_after) / 2, root.seconds, out)
        rec.write(TRACES / f"flow_cold-{seed}.json")
    result = runs.cold.result
    check_result(result, runs.session.circuit, out, "flow_cold")
    check_pinned(seed, {64: runs.answer}, len(result.atpg.aborted), out)
    out.put("read_p50_ms", 1000 * median(runs.reads))
    out.put("read_p95_ms", 1000 * tail(runs.reads))
    if not trace:
        out.put("peak_rss_mb", peak_rss_mb())
        out.put("wall_s", median(runs.walls))
        out.put("throughput_rps",
                median([(1 + FLOW_COLD_READS) / p for p in runs.phases]))
        out.put("write_mean_ms", 1000 * median(runs.writes))


@dataclasses.dataclass
class ColdRuns:
    """What the rounds of ``flow_cold`` measured, one entry per round:
    the cold run's seconds with and without its session's set-up, and the
    round's seconds with its reads.  ``cold`` is the first round's run."""

    cold: Any = None
    answer: tuple = ()
    session: Any = None
    walls: list = dataclasses.field(default_factory=list)
    writes: list = dataclasses.field(default_factory=list)
    phases: list = dataclasses.field(default_factory=list)
    reads: list = dataclasses.field(default_factory=list)
    hits: int = 0
    misses: int = 0
    bytes: int = 0


def tradeoff(seed: int, seconds: int, trace: bool, out: Outcome,
             import_s: float) -> None:
    from repro import Session
    from repro.flow.pipeline import PipelineConfig
    from repro.flow.session import ArtifactCache

    base = PipelineConfig(seed=seed)
    configs = [dataclasses.replace(base, evolution_length=t)
               for t in TRADEOFF_LENGTHS]
    rounds = max(1, seconds // SECONDS_PER_ROUND)
    telemetry = _telemetry(trace)

    def setup_once():
        start = time.perf_counter()
        session = Session.from_name(CIRCUIT, scale=1.0, config=base,
                                    telemetry=telemetry)
        session.atpg_result
        return time.perf_counter() - start, session

    setup = None

    def timed(name: str, telemetry, rounds: int,
              verify: Outcome | None = None, set_up: bool = False) -> Sweep:
        """The sweep, ``rounds`` times, each into a fresh cache.  A step
        is one length run cold (a write), then ``TRADEOFF_RESWEEPS``
        fresh sessions re-sweeping every length the cache holds so far
        (reads), so the reads spread over the whole phase.  With
        ``set_up``, each round first sets up afresh (timed on its own),
        so set-ups and sweeps alternate over a longer stretch of the host.
        With ``verify``, each re-sweep is checked against the cold runs,
        and each round's answers against the first round's, between
        timed blocks, so neither the checks nor the retained results land
        in the measurements."""
        nonlocal setup
        sweep = Sweep()
        for index in range(rounds):
            cache_dir = work_dir(f"{name}-{index}")

            def session(**kwargs):
                return Session(setup.circuit, config=base,
                               cache=ArtifactCache(cache_dir), scale=1.0,
                               telemetry=telemetry, **kwargs)

            # Collect the last round's garbage before this round's clocks.
            # One set-up is alive at a time, so peak RSS is one set-up's.
            sweep.cold = None
            if set_up:
                setup = None
            gc.collect()
            if set_up:
                seconds_taken, setup = setup_once()
                sweep.setups.append(seconds_taken)
            sweep.cold = cold = session(atpg_result=setup.atpg_result)
            writes, docs = [], []
            for step, config in enumerate(configs):
                start = time.perf_counter()
                writes.append(cold.run_info(TPG, config))
                step_seconds = time.perf_counter() - start
                if verify:
                    docs.append(writes[-1].result.to_dict())
                for _ in range(TRADEOFF_RESWEEPS):
                    start = time.perf_counter()
                    warm = session()
                    reads = [warm.run_info(TPG, c) for c in configs[:step + 1]]
                    step_seconds += time.perf_counter() - start
                    sweep.hits += warm.cache.hits
                    sweep.misses += warm.cache.misses
                    sweep.reads.extend(r.seconds for r in reads)
                    for doc, read in zip(docs, reads):
                        verify.check(read.from_cache and read.result.to_dict() == doc,
                                     "tradeoff: re-sweep not served identically "
                                     "from the cache")
                    if verify:
                        # Collect the check's garbage here, not inside the
                        # next timed block.
                        del reads
                        gc.collect()
                sweep.add_step(step, step_seconds, writes[-1].seconds)
            sweep.hits += cold.cache.hits
            sweep.misses += cold.cache.misses
            sweep.bytes = sum(p.stat().st_size for p in cache_dir.rglob("*"))
            answers = [(w.result.n_triplets, w.result.test_length)
                       for w in writes]
            if not sweep.writes:
                sweep.writes, sweep.answers = writes, answers
            elif verify:
                verify.check(answers == sweep.answers,
                             f"tradeoff: round {index} answers {answers} "
                             f"differ from round 0 {sweep.answers}")
        return sweep

    if trace:
        rec = SpanRecorder()
        instrument(rec)
        try:
            with rec.span("bench.setup"):
                _, setup = setup_once()
        finally:
            rec.restore()
    sweep = timed("tradeoff", _telemetry(False), rounds, out, set_up=not trace)
    if not trace:
        out.put("setup_s", import_s + median(sweep.setups))
    if trace:
        instrument(rec)
        try:
            with rec.span("bench.timed", workload="tradeoff",
                          seed=seed) as root:
                # The cold session stays referenced until the scrape below,
                # so its simulator's counters are still collected.
                traced = timed("tradeoff-traced", telemetry, 1)
        finally:
            rec.restore()
        # Bracket the traced run with untraced ones, so a process warming
        # up does not pass for tracing overhead.
        wall_after = timed("tradeoff-after", _telemetry(False), 1).wall
        stats = {"hits": traced.hits, "misses": traced.misses,
                 "bytes": traced.bytes}
        layer_metrics(rec, telemetry.metrics, root, stats, traced.answers,
                      (sweep.wall + wall_after) / 2, traced.wall, out)
        rec.write(TRACES / f"tradeoff-{seed}.json")
    for length, write in zip(TRADEOFF_LENGTHS, sweep.writes):
        check_result(write.result, setup.circuit, out, f"tradeoff T={length}")
    check_pinned(seed, dict(zip(TRADEOFF_LENGTHS, sweep.answers)),
                 len(setup.atpg_result.aborted), out)
    out.put("read_p50_ms", 1000 * median(sweep.reads))
    out.put("read_p95_ms", 1000 * tail(sweep.reads))
    if not trace:
        out.put("peak_rss_mb", peak_rss_mb())
        out.put("wall_s", sweep.wall)
        out.put("throughput_rps",
                (len(configs) + len(sweep.reads) / rounds) / sweep.wall)
        out.put("write_mean_ms",
                1000 * mean([median(w) for w in sweep.write_seconds]))


@dataclasses.dataclass
class Sweep:
    """What the rounds of a ``tradeoff`` sweep measured.  ``steps[i]``
    and ``write_seconds[i]`` hold, per round, the seconds of the i-th
    length's step (its write and re-sweeps) and of its write alone;
    ``setups`` the seconds of each round's set-up, when it had one."""

    cold: Any = None
    setups: list = dataclasses.field(default_factory=list)
    writes: list = dataclasses.field(default_factory=list)
    answers: list = dataclasses.field(default_factory=list)
    steps: list = dataclasses.field(default_factory=list)
    write_seconds: list = dataclasses.field(default_factory=list)
    reads: list = dataclasses.field(default_factory=list)
    hits: int = 0
    misses: int = 0
    bytes: int = 0

    def add_step(self, step: int, seconds: float, write: float) -> None:
        if step == len(self.steps):
            self.steps.append([])
            self.write_seconds.append([])
        self.steps[step].append(seconds)
        self.write_seconds[step].append(write)

    @property
    def wall(self) -> float:
        """One sweep's wall time: each step's median over the rounds."""
        return sum(median(step) for step in self.steps)
