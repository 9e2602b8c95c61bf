"""Sessions: circuit-level artefact ownership + on-disk artifact cache.

A :class:`Session` owns everything that is per-circuit rather than
per-run — the loaded :class:`~repro.circuit.netlist.Circuit`, the
compiled :class:`~repro.sim.fault.FaultSimulator`, and the (expensive)
:class:`~repro.atpg.engine.AtpgResult` — so any number of TPG flows,
trade-off sweeps and baselines share them, exactly as the paper's flow
shares TestGen output across generators.  It is the flow's one entry
point: the CLI, the experiment drivers, the sweeps and the serve layer
all run the Figure-1 flow through it.

An optional :class:`ArtifactCache` (the *store*) keeps artefacts as
schema-versioned JSON under a content key (circuit, netlist hash and
the knobs the artefact reads), so repeated runs, resumed sweeps and
``repro serve`` workers on one directory skip ATPG and Detection
Matrix construction.  Hits and misses are counted per artefact kind
(``cache.hits_for("atpg_result")`` ...); schema, key or field
mismatches degrade to recomputation, never wrong answers.

Every artefact follows one rule, memo -> store -> build
(:meth:`Session._artifact`): the session's memo, keyed by the store
key; else the store (announced by a ``cache-hit`` event); else a build,
which is then memoized and stored.  ATPG results are memoized for the
session's life; packed evolutions, fault dictionaries and fault-free
responses in LRUs of :data:`MAX_SEQUENCE_MEMOS` (fault-free responses
are never stored); pipeline results, which hold whole matrices, are
stored but never memoized.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import time
import weakref
from collections import OrderedDict
from dataclasses import asdict, dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import Any, Callable

from repro.atpg.engine import AtpgEngine, AtpgResult
from repro.circuit.netlist import Circuit
from repro.circuits import load_circuit
from repro.faults.model import fault_list_digest
from repro.flow.pipeline import PipelineConfig, PipelineResult
from repro.flow.serialize import SchemaMismatchError, check_schema, decode, encode
from repro.flow import stages
from repro.flow.stages import ProgressHook, StageEvent
from repro.obs import NULL_TELEMETRY, Telemetry, stage_hook
from repro.obs.metrics import Sample
from repro.setcover.solve import prepare_solver
from repro.sim.fault import FaultSimulator
from repro.tpg.base import TestPatternGenerator
from repro.tpg.registry import make_tpg
from repro.utils.bitvec import PackedPatterns, as_packed, bank_digest


#: The diagnosis engines :meth:`Session.diagnose` dispatches to.
DIAGNOSE_METHODS = ("dictionary", "effect_cause", "signature", "multiplet")

#: Process-global temp-file sequence: cache *instances* in one process
#: share a pid, so per-instance counters would collide on the same name.
_TMP_SEQ = itertools.count()

#: Most pattern sequences whose evolution bank, first-detection table,
#: fault dictionary and fault-free responses a session keeps in memory,
#: least recently used dropped first.  Each is rebuilt on demand, so an
#: eviction changes no answer.
MAX_SEQUENCE_MEMOS = 8


class _SequenceMemo(OrderedDict):
    """An LRU memo capped at :data:`MAX_SEQUENCE_MEMOS` entries."""

    def get(self, key, default=None):
        if key not in self:
            return default
        self.move_to_end(key)
        return self[key]

    def __setitem__(self, key, value) -> None:
        super().__setitem__(key, value)
        self.move_to_end(key)
        if len(self) > MAX_SEQUENCE_MEMOS:
            self.popitem(last=False)


#: kind -> (stage of its ``cache-hit`` event, memo type; None: store-only).
_ARTIFACTS: dict[str, tuple[str | None, type | None]] = {
    "atpg_result": ("atpg", dict),
    "packed_evolution": ("evolution", _SequenceMemo),
    "fault_dictionary": ("dictionary", _SequenceMemo),
    "golden_responses": (None, _SequenceMemo),
    "pipeline_result": ("pipeline", None),
}


class ArtifactCache:
    """A content-keyed, schema-versioned, on-disk artefact store.

    One layout serves every consumer: ``repro run --cache``, sweeps (and
    their pool workers) and ``repro serve --store`` all read and write
    the same tree, so any of them reuses what another already built.
    Entries are JSON files named by the SHA-256 of their canonicalised
    key fields and sharded by the key's first two hex digits
    (``objects/ab/<key>.json``), so a large store never crowds one
    directory.

    ``get`` returns ``None`` (and counts a miss) for absent, unreadable,
    or schema-mismatched entries, so a stale cache directory is always
    safe to keep around.  Undecodable entries — a reader racing a
    writer's atomic replace, a killed process, disk corruption, or a
    field that fails the typed decoder passed to ``get`` — additionally
    count as *corrupt* (``stats()["corrupt"]``) so operators can tell
    schema skew from rot.

    Writes are atomic (unique temp file + ``os.replace``), so any number
    of processes share the tree without locks; a failed write removes
    its temp file, and any stale ``*.tmp`` debris left by killed
    processes is swept when the cache is opened.  The store is an
    optimisation, so a write that fails with an :class:`OSError` (disk
    full, read-only, a path that is a file) never fails the caller: it
    counts as a *write error* of its kind (``stats()["write_errors"]``)
    and the artefact is simply not stored.
    """

    #: ``*.tmp`` files older than this (seconds) are removed at open —
    #: young ones may belong to a live writer in another process.
    STALE_TMP_AGE_S = 3600.0

    _HELP = {
        "hits": "Artifact cache hits by kind.",
        "misses": "Artifact cache misses by kind.",
        "corrupt": "Undecodable artifact cache entries by kind.",
        "write_errors": "Artifact cache writes that failed, by kind.",
    }

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: The one copy of every count:
        #: kind -> {hits, misses, corrupt, write_errors}.
        self._by_kind: dict[str, dict[str, int]] = {}
        self._registries: weakref.WeakSet = weakref.WeakSet()
        self.swept_tmp = self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> int:
        """Remove orphaned ``*.tmp`` files (crashed/killed writers)."""
        swept = 0
        now = time.time()
        for tmp in self.root.glob("**/*.tmp"):
            try:
                if now - tmp.stat().st_mtime >= self.STALE_TMP_AGE_S:
                    tmp.unlink()
                    swept += 1
            except OSError:
                continue  # another sweeper won the race
        return swept

    @staticmethod
    def key(kind: str, **fields: Any) -> str:
        """A deterministic cache key from the artefact kind + fields."""
        canonical = json.dumps(
            {"kind": kind, **fields}, sort_keys=True, default=str
        )
        return hashlib.sha256(canonical.encode()).hexdigest()

    def _path(self, key: str) -> Path:
        """Sharded entry path: ``objects/ab/<key>.json``."""
        return self.root / "objects" / key[:2] / f"{key}.json"

    def attach_metrics(self, metrics) -> None:
        """Export this cache's counters through ``metrics`` (a
        :class:`repro.obs.MetricsRegistry`) as
        ``repro_cache_{hits,misses,corrupt,write_errors}_total{kind=...}`` and
        ``repro_cache_swept_tmp_total``.

        Registers a scrape-time collector, once per registry and held
        weakly (it dies with the cache), so a scrape always agrees with
        :meth:`stats` no matter when the registry arrived.
        """
        if metrics is None or not getattr(metrics, "enabled", False):
            return
        if metrics in self._registries:
            return
        self._registries.add(metrics)
        metrics.register_collector(self._metric_samples)

    def _metric_samples(self) -> list[Sample]:
        samples = [
            Sample(
                f"repro_cache_{outcome}_total",
                "counter",
                (("kind", kind),),
                count,
                self._HELP[outcome],
            )
            for kind, bucket in list(self._by_kind.items())
            for outcome, count in bucket.items()
            if count
        ]
        if self.swept_tmp:
            samples.append(
                Sample(
                    "repro_cache_swept_tmp_total",
                    "counter",
                    (),
                    self.swept_tmp,
                    "Stale *.tmp files swept at cache open.",
                )
            )
        return samples

    def record(self, kind: str, hit: bool, corrupt: bool = False) -> None:
        """Count one hit or miss.  Callers outside ``get`` fold in hits
        and misses seen elsewhere: a session's memo hits and the sweep
        pool workers' own cache objects on the shared directory."""
        bucket = self._bucket(kind)
        bucket["hits" if hit else "misses"] += 1
        bucket["corrupt"] += corrupt

    def _bucket(self, kind: str) -> dict[str, int]:
        return self._by_kind.setdefault(
            kind, {"hits": 0, "misses": 0, "corrupt": 0, "write_errors": 0}
        )

    def _miss(self, kind: str, corrupt: bool = False) -> None:
        self.record(kind, hit=False, corrupt=corrupt)

    def get(
        self,
        key: str,
        kind: str,
        decoder: Callable[[dict[str, Any]], Any] | None = None,
    ) -> Any:
        """The entry stored under ``key`` — the raw payload, or
        ``decoder(payload)`` when a decoder is given — or ``None`` on
        any miss.

        An entry that exists but cannot be decoded — truncated by a
        killed writer, garbled on disk, a non-dict document, or a field
        the typed ``decoder`` rejects with
        :class:`~repro.flow.serialize.SchemaMismatchError` — is a
        *corrupt* miss: counted separately, never an exception, so one
        bad entry cannot take down a reader (the caller recomputes and
        overwrites it).
        """
        try:
            payload = json.loads(self._path(key).read_text())
        except FileNotFoundError:
            return self._miss(kind)
        except (OSError, ValueError):
            return self._miss(kind, corrupt=True)
        if not isinstance(payload, dict):
            return self._miss(kind, corrupt=True)
        try:
            check_schema(payload, kind)
        except SchemaMismatchError:
            return self._miss(kind)  # version skew, not rot
        if decoder is not None:
            try:
                payload = decoder(payload)
            except SchemaMismatchError:
                return self._miss(kind, corrupt=True)
        self.record(kind, hit=True)
        return payload

    def _tmp_path(self, path: Path) -> Path:
        """A writer-unique temp name next to ``path`` (same filesystem,
        so the final ``replace`` stays atomic; unique per process and
        per write, so concurrent writers never clobber each other)."""
        return path.with_name(
            f"{path.name}.{os.getpid()}-{next(_TMP_SEQ)}.tmp"
        )

    def put(self, key: str, payload: dict[str, Any]) -> None:
        """Persist ``payload`` (already schema-stamped) under ``key``.

        Readers never observe a partial entry: the payload lands in a
        unique temp file first and is renamed into place atomically.
        If anything fails between write and rename, the temp file is
        removed instead of orphaned.  An :class:`OSError` from the
        directory, the write or the rename counts one write error for
        the payload's ``kind`` and returns; any other exception
        propagates.
        """
        path = self._path(key)
        tmp = self._tmp_path(path)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(json.dumps(payload))
            tmp.replace(path)
        except BaseException as exc:
            try:
                tmp.unlink()
            except OSError:
                pass
            if not isinstance(exc, OSError):
                raise
            self._bucket(payload.get("kind", "unknown"))["write_errors"] += 1

    def _total(self, outcome: str) -> int:
        return sum(bucket[outcome] for bucket in list(self._by_kind.values()))

    @property
    def hits(self) -> int:
        """Cache hits across every kind."""
        return self._total("hits")

    @property
    def misses(self) -> int:
        """Cache misses across every kind (corrupt entries included)."""
        return self._total("misses")

    def hits_for(self, kind: str) -> int:
        """Cache hits recorded for one artefact kind."""
        return self._by_kind.get(kind, {}).get("hits", 0)

    def misses_for(self, kind: str) -> int:
        """Cache misses recorded for one artefact kind."""
        return self._by_kind.get(kind, {}).get("misses", 0)

    def corrupt_for(self, kind: str) -> int:
        """Corrupt (undecodable) entries encountered for one kind."""
        return self._by_kind.get(kind, {}).get("corrupt", 0)

    def stats(self) -> dict[str, Any]:
        """Counters summary: totals plus a per-kind breakdown."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self._total("corrupt"),
            "write_errors": self._total("write_errors"),
            "swept_tmp": self.swept_tmp,
            "by_kind": {k: dict(v) for k, v in list(self._by_kind.items())},
        }


@dataclass(frozen=True)
class RunInfo:
    """One ``Session.run_info`` outcome: the result plus provenance."""

    result: PipelineResult
    from_cache: bool
    seconds: float


class Session:
    """Per-circuit artefact owner and flow runner.

    Construct directly from a loaded circuit, or with
    :meth:`from_name` to also record the catalog ``scale`` in cache
    keys.  ``run`` executes the Figure-1 flow for one TPG, reusing the
    session's circuit-level ATPG (and, when a cache is attached,
    skipping any work a previous process already did).

    Example — three TPG flows sharing one ATPG run and one on-disk
    cache, then a diagnosis against the same artefacts::

        from repro import Session

        session = Session.from_name("c880", scale=0.25, cache=".repro-cache")
        for tpg in ("adder", "multiplier", "subtracter"):
            result = session.run(tpg)          # ATPG computed once
            print(result.summary())            # Table-1 vocabulary
        info = session.run_info("adder")       # provenance included
        assert info.from_cache                 # warm: served from disk
        report = session.diagnose(fail_log, method="signature")
    """

    def __init__(
        self,
        circuit: Circuit,
        config: PipelineConfig | None = None,
        simulator: FaultSimulator | None = None,
        cache: ArtifactCache | str | Path | None = None,
        scale: float | None = None,
        progress: ProgressHook | None = None,
        atpg_result: AtpgResult | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.circuit = circuit
        self.name = circuit.name
        self.config = config or PipelineConfig()
        self.simulator = simulator or FaultSimulator(circuit)
        if isinstance(cache, (str, Path)):
            cache = ArtifactCache(cache)
        self.cache = cache
        self.scale = scale
        self.progress = progress
        #: Opt-in :class:`repro.obs.Telemetry` (default: shared no-op
        #: pair).  With metrics enabled, the session's simulator and
        #: cache export their counters through the registry; with
        #: tracing enabled, every stage event becomes a span.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._telemetry_hook = (
            stage_hook(self.telemetry) if self.telemetry.enabled else None
        )
        self.simulator.attach_metrics(self.telemetry.metrics)
        if self.cache is not None:
            self.cache.attach_metrics(self.telemetry.metrics)
        #: Every memoized artefact: kind -> {store key: artefact}.
        self._memos = {
            kind: memo() for kind, (_, memo) in _ARTIFACTS.items() if memo
        }
        #: Each candidate pool's longest first-detection table so far,
        #: so a run at another evolution length extends or truncates
        #: it (see :func:`~repro.reseeding.detection_matrix.
        #: build_detection_matrix`).
        self._tables = _SequenceMemo()
        if atpg_result is not None:
            self._memos["atpg_result"][self._atpg_key(self.config)] = atpg_result

    @classmethod
    def from_name(
        cls,
        name: str,
        scale: float = 1.0,
        config: PipelineConfig | None = None,
        cache: ArtifactCache | str | Path | None = None,
        progress: ProgressHook | None = None,
        telemetry: "Telemetry | None" = None,
    ) -> "Session":
        """Load (or synthesise) a catalog circuit and wrap it."""
        return cls(
            load_circuit(name, scale=scale),
            config=config,
            cache=cache,
            scale=scale,
            progress=progress,
            telemetry=telemetry,
        )

    # -- progress ----------------------------------------------------------

    def _emit(self, event: StageEvent) -> None:
        """Deliver one stage event: telemetry first (spans + stage
        metrics), then the user's progress hook.  ``self.progress`` is
        read live, so post-construction reassignment keeps working."""
        if self._telemetry_hook is not None:
            self._telemetry_hook(event)
        if self.progress is not None:
            self.progress(event)

    def _step(self, name: str, step: Callable, *args) -> tuple[Any, float]:
        """Run one flow step between its ``start`` and ``done`` events.

        ``step(*args)`` returns its artefact and the ``done`` event's
        attrs; this returns the artefact and the step's wall seconds.
        """
        self._emit(StageEvent(name, "start"))
        start = time.perf_counter()
        value, attrs = step(*args)
        seconds = time.perf_counter() - start
        self._emit(StageEvent(name, "done", seconds, attrs=attrs))
        return value, seconds

    # -- cache keys --------------------------------------------------------

    @cached_property
    def circuit_fingerprint(self) -> str:
        """A content hash of the netlist, part of every cache key — so
        two different circuits that happen to share a catalog name (e.g.
        the same synthetic circuit at two ``scale`` factors) can never
        serve each other's cached artefacts."""
        netlist = {
            "inputs": list(self.circuit.inputs),
            "outputs": list(self.circuit.outputs),
            "gates": sorted(
                [g.name, g.gtype.name, list(g.fanins)]
                for g in self.circuit.gates.values()
            ),
        }
        return hashlib.sha256(json.dumps(netlist).encode()).hexdigest()[:16]

    def _atpg_key(self, config: PipelineConfig) -> str:
        """ATPG cache key: only the knobs ATPG actually reads, so matrix
        and covering knobs never invalidate the expensive artefact."""
        return ArtifactCache.key(
            "atpg_result",
            circuit=self.name,
            netlist=self.circuit_fingerprint,
            seed=config.seed,
            max_random_patterns=config.max_random_patterns,
            backtrack_limit=config.backtrack_limit,
        )

    def _result_key(self, tpg_name: str, config: PipelineConfig) -> str:
        config_fields = asdict(config)
        # Performance-only knob: identical results with any worker count,
        # so it must not invalidate cached artefacts.
        config_fields.pop("matrix_workers", None)
        return ArtifactCache.key(
            "pipeline_result",
            circuit=self.name,
            netlist=self.circuit_fingerprint,
            seed=config.seed,
            tpg=tpg_name,
            config=config_fields,
        )

    # -- artefacts ---------------------------------------------------------

    def _artifact(
        self,
        kind: str,
        key: str,
        build: Callable[[], Any],
        decoder: Callable[[dict[str, Any]], Any] | None = None,
        encoder: Callable[[Any], dict[str, Any]] = encode,
    ) -> tuple[Any, str]:
        """The ``kind`` artefact stored under ``key``: the memo, else
        the store, else ``build()``; and where it came from (``"memo"``,
        ``"store"`` or ``"built"``).

        A store hit emits the kind's ``cache-hit`` event.  A kind with
        no ``decoder`` is never stored.  A store hit or a build is
        memoized, and a build is stored (``encoder(artefact)``).
        """
        memo = self._memos.get(kind)
        value = memo.get(key) if memo is not None else None
        if value is not None:
            return value, "memo"
        stored = self.cache is not None and decoder is not None
        value = self.cache.get(key, kind, decoder) if stored else None
        if value is not None:
            source = "store"
            self._emit(StageEvent(_ARTIFACTS[kind][0], "cache-hit"))
        else:
            source = "built"
            value = build()
            if stored:
                self.cache.put(key, encoder(value))
        if memo is not None:
            memo[key] = value
        return value, source

    @property
    def atpg_result(self) -> AtpgResult:
        """The ATPG artefact for the session's config."""
        return self.atpg_info()[0]

    def atpg_for(self, config: PipelineConfig | None = None) -> AtpgResult:
        """The ATPG artefact for an explicit config."""
        return self.atpg_info(config)[0]

    def atpg_info(self, config: PipelineConfig | None = None) -> tuple[AtpgResult, str]:
        """The ATPG artefact for ``config`` and where it came from
        (``"memo"``, ``"store"`` or ``"built"``) — what the serve
        layer's ``POST /atpg`` endpoint reports."""
        return self._atpg(config or self.config, {})

    def _atpg(self, config: PipelineConfig, timings: dict) -> tuple[AtpgResult, str]:
        """The ATPG artefact and its source.  A build runs as the
        ``atpg`` stage, so the engine's phase spans nest under its
        ``flow.atpg`` span, and records its seconds in ``timings``."""

        def build() -> AtpgResult:
            engine = AtpgEngine(
                self.circuit,
                seed=config.seed,
                max_random_patterns=config.max_random_patterns,
                backtrack_limit=config.backtrack_limit,
                simulator=self.simulator,
                telemetry=self.telemetry,
            )
            result, timings["atpg"] = self._step("atpg", lambda: (engine.run(), None))
            return result

        return self._artifact(
            "atpg_result", self._atpg_key(config), build, partial(decode, AtpgResult)
        )

    # -- flows -------------------------------------------------------------

    def run_info(
        self,
        tpg: TestPatternGenerator | str,
        config: PipelineConfig | None = None,
    ) -> RunInfo:
        """Run the Figure-1 flow for one TPG; report cache provenance.

        A stored result is returned as is.  Otherwise the flow is ATPG
        (memo -> store -> build), then the Detection Matrix, the cover
        and the trim of :mod:`repro.flow.stages`, each reported as a
        ``start``/``done`` :class:`StageEvent` pair and timed under its
        stage name in ``PipelineResult.timings``.  ATPG already
        memoized in this session is reported as ``skipped``.
        """
        config = config or self.config
        tpg_instance = (
            make_tpg(tpg, self.circuit.n_inputs) if isinstance(tpg, str) else tpg
        )
        start = time.perf_counter()
        result, source = self._artifact(
            "pipeline_result",
            self._result_key(tpg_instance.name, config),
            partial(self._run_flow, tpg_instance, config),
            PipelineResult.from_dict,
            PipelineResult.to_dict,
        )
        return RunInfo(result, source == "store", time.perf_counter() - start)

    def _run_flow(
        self, tpg: TestPatternGenerator, config: PipelineConfig
    ) -> PipelineResult:
        # Before ATPG, so scipy's long-lived objects sit below the
        # flow's large transient arrays.
        prepare_solver(config.cover_method)
        timings = {"atpg": 0.0}
        atpg, source = self._atpg(config, timings)
        if source == "memo":
            skipped = {"skip_reason": "output-artifact-present"}
            self._emit(StageEvent("atpg", "start"))
            self._emit(StageEvent("atpg", "skipped", attrs=skipped))
        initial, timings["detection_matrix"] = self._step(
            "detection_matrix", stages.build_matrix, self.circuit, tpg, atpg,
            config, self.simulator, self.packed_evolution, self._tables,
        )
        cover, timings["set_cover"] = self._step("set_cover", stages.cover, initial, config)
        trimmed, timings["trim"] = self._step("trim", stages.trim, initial, cover)
        return PipelineResult(
            circuit_name=self.circuit.name,
            tpg_name=tpg.name,
            config=config,
            atpg=atpg,
            initial=initial,
            cover=cover,
            selected_triplets=[initial.triplets[row] for row in cover.selected],
            trimmed=trimmed,
            timings=timings,
        )

    def run(
        self,
        tpg: TestPatternGenerator | str,
        config: PipelineConfig | None = None,
    ) -> PipelineResult:
        """The Figure-1 flow for one TPG, with shared artefacts."""
        return self.run_info(tpg, config).result

    # -- packed patterns ---------------------------------------------------

    @staticmethod
    def _packed_digest(packed) -> str:
        """Content hash of a packed pattern sequence — hashes the raw
        word buffer (C-level), not per-pattern strings."""
        import numpy as np

        digest = hashlib.sha256()
        digest.update(f"{packed.width}:{packed.n_patterns}:".encode())
        digest.update(np.ascontiguousarray(packed.words).tobytes())
        return digest.hexdigest()

    def _evolution_key(self, tpg, deltas, sigmas, length: int) -> str:
        """Packed-evolution cache key: the TPG's identity token plus the
        exact (delta, sigma) bank and shared length."""
        return ArtifactCache.key(
            "packed_evolution",
            tpg=tpg.cache_token(),
            length=length,
            deltas=bank_digest(deltas),
            sigmas=bank_digest(sigmas),
        )

    def packed_evolution(self, tpg, deltas, sigmas, length: int):
        """``tpg.evolve_batch(deltas, sigmas, length)`` as a session
        artefact: the :data:`~repro.reseeding.triplet.EvolveBatch`
        provider every flow run's :func:`~repro.flow.stages.build_matrix`
        uses, so Detection Matrix builds share evolutions across runs
        and (with a store) across processes.  The key covers the TPG's
        :meth:`~repro.tpg.base.TestPatternGenerator.cache_token`, the
        exact seed/sigma bank and the length, so distinct generators
        never serve each other's sequences."""
        return self._artifact(
            "packed_evolution",
            self._evolution_key(tpg, deltas, sigmas, length),
            partial(tpg.evolve_batch, deltas, sigmas, length),
            partial(decode, PackedPatterns),
        )[0]

    def packed_patterns(self, patterns) -> "PackedPatterns":
        """Coerce ``patterns`` to the word-parallel packed form the
        simulators consume (already-packed input passes through).

        Callers that reuse one sequence across calls hold on to the
        result — that is the "pack once per session" contract
        (:meth:`~repro.diagnosis.inject.FailLog.packed` does exactly
        this for every diagnosis engine consuming a fail log).
        """
        return as_packed(patterns, self.circuit.n_inputs)

    # -- diagnosis ---------------------------------------------------------

    def _dictionary_key(self, packed, faults=None) -> str:
        """Dictionary cache key: the exact (packed) pattern sequence
        and fault list (None: the collapsed list) on this exact netlist."""
        return ArtifactCache.key(
            "fault_dictionary",
            circuit=self.name,
            netlist=self.circuit_fingerprint,
            patterns=self._packed_digest(packed),
            faults=self._faults_digest(faults),
        )

    @cached_property
    def _collapsed(self) -> list:
        """The circuit's collapsed fault list, built on first use: the
        default candidate universe of every diagnosis."""
        from repro.faults.collapse import collapse_faults

        return collapse_faults(self.circuit)

    @cached_property
    def _collapsed_digest(self) -> str:
        return fault_list_digest(self._collapsed)

    def _faults_digest(self, faults=None) -> str:
        """SHA-256 of a fault list's text (None: the collapsed list)."""
        if faults is None:
            return self._collapsed_digest
        return fault_list_digest(faults)

    def _fault_list(self, faults=None) -> list:
        """A copy of ``faults`` (None: the collapsed list)."""
        return list(self._collapsed if faults is None else faults)

    def fault_dictionary(self, patterns, faults=None):
        """The pass/fail :class:`~repro.diagnosis.dictionary.
        FaultDictionary` for a pattern sequence (memo -> store -> build).

        With a cache attached, warm diagnosis runs load the bit-packed
        dictionary instead of re-simulating patterns x faults.  A memo
        hit counts as a store hit, so operators see warm traffic.
        """
        from repro.diagnosis.dictionary import FaultDictionary

        packed = self.packed_patterns(patterns)
        if faults is not None:
            faults = list(faults)

        def build() -> FaultDictionary:
            start = time.perf_counter()
            dictionary = FaultDictionary.build(
                self.circuit, packed, self._fault_list(faults), simulator=self.simulator
            )
            self._emit(StageEvent("dictionary", "done", time.perf_counter() - start))
            return dictionary

        dictionary, source = self._artifact(
            "fault_dictionary", self._dictionary_key(packed, faults), build,
            partial(decode, FaultDictionary),
        )
        if source == "memo":
            if self.cache is not None:
                self.cache.record("fault_dictionary", hit=True)
            self._emit(StageEvent("dictionary", "cache-hit"))
        return dictionary

    def golden_responses(self, patterns) -> list:
        """Fault-free primary-output responses for a pattern sequence,
        memoized per packed digest — every diagnosis of the same applied
        sequence (the serve layer's common case) shares one simulation."""
        packed = self.packed_patterns(patterns)
        return self._artifact(
            "golden_responses",
            self._packed_digest(packed),
            partial(self.simulator.compiled.simulate_patterns, packed),
        )[0]

    def diagnose(
        self,
        fail_log,
        *,
        method: str = "effect_cause",
        faults=None,
        top_k: int = 10,
        min_window: int | None = None,
        oracle=None,
    ):
        """Diagnose a fail log with the session's shared simulator.

        ``method`` is ``"effect_cause"`` (full-log tracing + ranking),
        ``"dictionary"`` (lookup in the cached
        :meth:`fault_dictionary`), ``"signature"`` (MISR bisection,
        optionally against a caller-supplied tester ``oracle``), or
        ``"multiplet"`` (greedy multiple-fault cover; ``top_k`` bounds
        the multiplet size).  The candidate universe is ``faults``,
        else the circuit's collapsed fault list.  All but the dictionary
        lookup run as one ``diagnosis`` stage: a ``start``/``done``
        :class:`StageEvent` pair, timed under ``timings["stage"]``.
        """
        if method not in DIAGNOSE_METHODS:
            raise ValueError(
                f"unknown diagnosis method {method!r}; expected one of "
                + ", ".join(repr(name) for name in DIAGNOSE_METHODS)
            )
        if method == "dictionary":
            return self.diagnose_batch([fail_log], faults=faults, top_k=top_k)[0]
        result, seconds = self._step(
            "diagnosis",
            self._diagnose_log,
            fail_log, method, self._fault_list(faults), top_k, min_window, oracle,
        )
        result.timings.setdefault("stage", seconds)
        return result

    def _diagnose_log(
        self, fail_log, method, faults, top_k, min_window, oracle
    ) -> tuple[Any, dict]:
        """One effect-cause, signature or multiplet diagnosis, and the
        attrs of its ``diagnosis`` event."""
        from repro.diagnosis.effect_cause import (
            diagnose_effect_cause,
            diagnose_multiplet,
        )

        patterns = fail_log.packed(self.circuit.n_inputs)
        if method == "signature":
            from repro.diagnosis.inject import SimulatedTester
            from repro.diagnosis.signature import (
                DEFAULT_MIN_WINDOW,
                SignatureBisector,
            )
            from repro.sim.misr import Misr

            misr = Misr(self.circuit.n_outputs)
            bisector = SignatureBisector(
                self.circuit,
                patterns,
                misr,
                min_window=min_window or DEFAULT_MIN_WINDOW,
                simulator=self.simulator,
            )
            result = bisector.diagnose(
                oracle or SimulatedTester(fail_log, misr),
                faults=faults,
                top_k=top_k,
            )
        elif method == "multiplet":
            result = diagnose_multiplet(
                self.circuit,
                patterns,
                fail_log.responses,
                faults=faults,
                simulator=self.simulator,
                max_faults=top_k,
            )
        else:
            result = diagnose_effect_cause(
                self.circuit,
                patterns,
                fail_log.responses,
                faults=faults,
                simulator=self.simulator,
                top_k=top_k,
            )
        return result, dict(
            method=method,
            n_candidates=len(result.candidates),
            n_considered=result.n_candidates_considered,
        )

    def diagnose_batch(
        self,
        fail_logs,
        *,
        method: str = "dictionary",
        faults=None,
        top_k: "int | list[int]" = 10,
    ) -> list:
        """Diagnose many fail logs in one pass — the serve layer's
        request-batching primitive.

        Logs applying the same pattern sequence (the tester-farm common
        case: one BIST program, many failing dies) share one packed
        form, one fault-free simulation and one
        :class:`~repro.diagnosis.dictionary.FaultDictionary`, and their
        fail flags are scored in a single vectorised lookup pass
        (:meth:`~repro.diagnosis.dictionary.FaultDictionary.
        diagnose_many`) instead of N serial ones.  Results are
        per-log **identical** to one-log batches, which is how
        :meth:`diagnose` runs the dictionary method.  Non-dictionary
        methods degrade to per-log :meth:`diagnose` calls.

        ``top_k`` may be one int for the whole batch or one per log.
        """
        import numpy as np

        from repro.diagnosis.effect_cause import observed_fail_flags

        fail_logs = list(fail_logs)
        top_ks = (
            list(top_k)
            if isinstance(top_k, (list, tuple))
            else [top_k] * len(fail_logs)
        )
        if len(top_ks) != len(fail_logs):
            raise ValueError(
                f"{len(top_ks)} top_k values for {len(fail_logs)} fail logs"
            )
        if method != "dictionary":
            return [
                self.diagnose(log, method=method, faults=faults, top_k=k)
                for log, k in zip(fail_logs, top_ks)
            ]
        # Group logs by their packed-pattern digest; each group pays for
        # packing, golden simulation and the dictionary exactly once.
        groups: dict[str, list[int]] = {}
        for index, log in enumerate(fail_logs):
            packed = log.packed(self.circuit.n_inputs)
            groups.setdefault(self._packed_digest(packed), []).append(index)
        results: list = [None] * len(fail_logs)
        for members in groups.values():
            packed = fail_logs[members[0]].packed(self.circuit.n_inputs)
            dictionary = self.fault_dictionary(packed, faults)
            golden = self.golden_responses(packed)
            flags = np.stack(
                [
                    observed_fail_flags(golden, fail_logs[i].responses)
                    for i in members
                ],
                axis=1,
            )
            ranked = dictionary.diagnose_many(
                flags, top_k=[top_ks[i] for i in members]
            )
            for i, result in zip(members, ranked):
                results[i] = result
        return results
