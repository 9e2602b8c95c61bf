"""Schema-versioned (de)serialisation of flow artefacts.

The artifact cache (:mod:`repro.flow.session`), the process-pool sweep
path (:mod:`repro.flow.sweep`) and the CLI's ``--json`` output all need
pipeline artefacts as plain JSON-compatible dicts.  Everything here is
lossless for the fields the flow consumes downstream: a cached
:class:`~repro.flow.pipeline.PipelineResult` reconstructed with
:func:`pipeline_result_from_dict` reports bit-identical ``#Triplets`` /
``TestLength`` / matrix statistics.

``SCHEMA_VERSION`` is embedded in every top-level payload; readers
reject (cache: treat as miss) payloads from other versions, so stale
cache directories degrade to recomputation instead of wrong answers.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from typing import Any

import numpy as np

#: Bump whenever the serialised layout of any artefact changes.
#: v2: ``atpg_result`` gained ``measured_coverage`` (re-simulated
#: coverage of the final test set — reported, not assumed).
#: v3: ``pipeline_config`` gained ``values`` (2- vs 3-valued logic);
#: the knob changes simulation semantics, so cached artefacts from
#: value-system-unaware writers must not be served.
SCHEMA_VERSION = 3


class SchemaMismatchError(ValueError):
    """Payload was written by an incompatible serialiser version."""


def check_schema(payload: dict[str, Any], kind: str) -> None:
    """Reject payloads from other schema versions or of the wrong kind."""
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaMismatchError(
            f"{kind}: schema version {version!r} != {SCHEMA_VERSION}"
        )
    found = payload.get("kind")
    if found != kind:
        raise SchemaMismatchError(f"expected kind {kind!r}, found {found!r}")


# --------------------------------------------------------------------------
# Leaf values
# --------------------------------------------------------------------------


def bitvector_to_str(vector) -> str:
    """A :class:`~repro.utils.bitvec.BitVector` as a binary string (the
    width is implied by the string length, leading zeros included)."""
    return vector.to_string()


def bitvector_from_str(text: str):
    """Inverse of :func:`bitvector_to_str`."""
    from repro.utils.bitvec import BitVector

    return BitVector.from_string(text)


def fault_to_dict(fault) -> dict[str, Any]:
    """A :class:`~repro.faults.model.Fault` as a plain dict."""
    return {
        "net": fault.site.net,
        "gate": fault.site.gate,
        "pin": fault.site.pin,
        "value": fault.value,
    }


def fault_from_dict(data: dict[str, Any]):
    """Inverse of :func:`fault_to_dict`."""
    from repro.faults.model import Fault, FaultSite

    return Fault(FaultSite(data["net"], data["gate"], data["pin"]), data["value"])


def triplet_to_dict(triplet) -> dict[str, Any]:
    """A :class:`~repro.reseeding.triplet.Triplet` as a plain dict."""
    return {
        "delta": bitvector_to_str(triplet.delta),
        "sigma": bitvector_to_str(triplet.sigma),
        "length": triplet.length,
    }


def triplet_from_dict(data: dict[str, Any]):
    """Inverse of :func:`triplet_to_dict`."""
    from repro.reseeding.triplet import Triplet

    return Triplet(
        bitvector_from_str(data["delta"]),
        bitvector_from_str(data["sigma"]),
        data["length"],
    )


def bool_matrix_to_dict(matrix: np.ndarray) -> dict[str, Any]:
    """A boolean matrix as shape + hex-packed bits (row-major)."""
    return {
        "shape": list(matrix.shape),
        "bits": np.packbits(matrix.astype(np.uint8), axis=None).tobytes().hex(),
    }


def packed_patterns_to_dict(packed) -> dict[str, Any]:
    """A :class:`~repro.utils.bitvec.PackedPatterns` as a schema-stamped
    payload (hex-encoded little-endian word buffer) — the entry format
    of the ``packed_evolution`` artifact-cache kind
    (:meth:`repro.flow.session.Session.packed_evolution`)."""
    words = np.ascontiguousarray(packed.words, dtype=np.uint64)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "packed_evolution",
        "width": packed.width,
        "n_patterns": packed.n_patterns,
        "n_words": int(words.shape[1]),
        "words": words.astype(np.dtype("<u8"), copy=False).tobytes().hex(),
    }


def packed_patterns_from_dict(data: dict[str, Any]):
    """Inverse of :func:`packed_patterns_to_dict`."""
    from repro.utils.bitvec import PackedPatterns

    check_schema(data, "packed_evolution")
    words = (
        np.frombuffer(bytes.fromhex(data["words"]), dtype=np.dtype("<u8"))
        .astype(np.uint64, copy=False)
        .reshape(data["width"], data["n_words"])
    )
    return PackedPatterns(words, data["n_patterns"])


def bool_matrix_from_dict(data: dict[str, Any]) -> np.ndarray:
    """Inverse of :func:`bool_matrix_to_dict`."""
    rows, cols = data["shape"]
    raw = np.frombuffer(bytes.fromhex(data["bits"]), dtype=np.uint8)
    bits = np.unpackbits(raw, count=rows * cols)
    return bits.reshape(rows, cols).astype(bool)


# --------------------------------------------------------------------------
# ATPG results
# --------------------------------------------------------------------------


def atpg_result_to_dict(result) -> dict[str, Any]:
    """An :class:`~repro.atpg.engine.AtpgResult` as a plain dict."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "atpg_result",
        "circuit_name": result.circuit_name,
        "test_set": [bitvector_to_str(p) for p in result.test_set],
        "target_faults": [fault_to_dict(f) for f in result.target_faults],
        "untestable": [fault_to_dict(f) for f in result.untestable],
        "aborted": [fault_to_dict(f) for f in result.aborted],
        "n_collapsed_faults": result.n_collapsed_faults,
        "random_patterns_kept": result.random_patterns_kept,
        "podem_patterns": result.podem_patterns,
        "measured_coverage": result.measured_coverage,
    }


def atpg_result_from_dict(data: dict[str, Any]):
    """Inverse of :func:`atpg_result_to_dict` (order-preserving, so a
    cached result drives the downstream stages identically)."""
    from repro.atpg.engine import AtpgResult

    check_schema(data, "atpg_result")
    return AtpgResult(
        circuit_name=data["circuit_name"],
        test_set=[bitvector_from_str(p) for p in data["test_set"]],
        target_faults=[fault_from_dict(f) for f in data["target_faults"]],
        untestable=[fault_from_dict(f) for f in data["untestable"]],
        aborted=[fault_from_dict(f) for f in data["aborted"]],
        n_collapsed_faults=data["n_collapsed_faults"],
        random_patterns_kept=data["random_patterns_kept"],
        podem_patterns=data["podem_patterns"],
        measured_coverage=data["measured_coverage"],
    )


# --------------------------------------------------------------------------
# Pipeline results
# --------------------------------------------------------------------------


def pipeline_config_to_dict(config) -> dict[str, Any]:
    """A :class:`~repro.flow.pipeline.PipelineConfig` as a plain dict."""
    return asdict(config)


def pipeline_config_from_dict(data: dict[str, Any]):
    """Inverse of :func:`pipeline_config_to_dict`."""
    from repro.flow.pipeline import PipelineConfig

    return PipelineConfig(**data)


def pipeline_result_to_dict(result) -> dict[str, Any]:
    """A full :class:`~repro.flow.pipeline.PipelineResult` as a plain,
    JSON-serialisable dict (the cache entry format)."""
    from repro.setcover.solve import SolveStats

    stats: SolveStats = result.cover.stats
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "pipeline_result",
        "circuit_name": result.circuit_name,
        "tpg_name": result.tpg_name,
        "config": pipeline_config_to_dict(result.config),
        "atpg": atpg_result_to_dict(result.atpg),
        "initial": {
            "triplets": [triplet_to_dict(t) for t in result.initial.triplets],
            "matrix": bool_matrix_to_dict(result.initial.detection_matrix.matrix),
            "evolution_length": result.initial.evolution_length,
        },
        "cover": {
            "selected": list(result.cover.selected),
            "essential": list(result.cover.essential),
            "solver_selected": list(result.cover.solver_selected),
            "stats": {
                "initial_shape": list(stats.initial_shape),
                "n_essential": stats.n_essential,
                "reduced_shape": list(stats.reduced_shape),
                "n_solver_selected": stats.n_solver_selected,
                "solver": stats.solver,
                "optimal": stats.optimal,
                "reduction_iterations": stats.reduction_iterations,
            },
        },
        "trimmed": {
            "triplets": [
                triplet_to_dict(t) for t in result.trimmed.solution.triplets
            ],
            "delta_coverage": list(result.trimmed.delta_coverage),
            "undetected": [fault_to_dict(f) for f in result.trimmed.undetected],
        },
        "timings": dict(result.timings),
    }


def pipeline_result_from_dict(data: dict[str, Any]):
    """Inverse of :func:`pipeline_result_to_dict`.

    The reconstructed object shares structure the same way a live run
    does: the Detection Matrix's fault columns are the ATPG target
    faults, and ``selected_triplets`` are the initial pool's rows at the
    cover's selected indices.
    """
    from repro.flow.pipeline import PipelineResult
    from repro.reseeding.detection_matrix import DetectionMatrix
    from repro.reseeding.initial import InitialReseeding
    from repro.reseeding.triplet import ReseedingSolution
    from repro.reseeding.trim import TrimmedSolution
    from repro.setcover.solve import CoverSolution, SolveStats

    check_schema(data, "pipeline_result")
    atpg = atpg_result_from_dict(data["atpg"])
    triplets = [triplet_from_dict(t) for t in data["initial"]["triplets"]]
    matrix = DetectionMatrix(
        triplets,
        list(atpg.target_faults),
        bool_matrix_from_dict(data["initial"]["matrix"]),
    )
    initial = InitialReseeding(
        triplets, matrix, data["initial"]["evolution_length"]
    )
    raw_stats = data["cover"]["stats"]
    cover = CoverSolution(
        selected=list(data["cover"]["selected"]),
        essential=list(data["cover"]["essential"]),
        solver_selected=list(data["cover"]["solver_selected"]),
        stats=SolveStats(
            initial_shape=tuple(raw_stats["initial_shape"]),
            n_essential=raw_stats["n_essential"],
            reduced_shape=tuple(raw_stats["reduced_shape"]),
            n_solver_selected=raw_stats["n_solver_selected"],
            solver=raw_stats["solver"],
            optimal=raw_stats["optimal"],
            reduction_iterations=raw_stats["reduction_iterations"],
        ),
    )
    trimmed = TrimmedSolution(
        ReseedingSolution.from_list(
            [triplet_from_dict(t) for t in data["trimmed"]["triplets"]]
        ),
        tuple(data["trimmed"]["delta_coverage"]),
        tuple(fault_from_dict(f) for f in data["trimmed"]["undetected"]),
    )
    return PipelineResult(
        circuit_name=data["circuit_name"],
        tpg_name=data["tpg_name"],
        config=pipeline_config_from_dict(data["config"]),
        atpg=atpg,
        initial=initial,
        cover=cover,
        selected_triplets=[triplets[row] for row in cover.selected],
        trimmed=trimmed,
        timings=dict(data["timings"]),
    )


# --------------------------------------------------------------------------
# Diagnosis artefacts
# --------------------------------------------------------------------------


def fault_dictionary_to_dict(dictionary) -> dict[str, Any]:
    """A :class:`~repro.diagnosis.dictionary.FaultDictionary` as a plain
    dict (matrix bit-packed, the artifact-cache entry format)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "fault_dictionary",
        "circuit_name": dictionary.circuit_name,
        "faults": [fault_to_dict(f) for f in dictionary.faults],
        "matrix": bool_matrix_to_dict(dictionary.matrix),
    }


def fault_dictionary_from_dict(data: dict[str, Any]):
    """Inverse of :func:`fault_dictionary_to_dict`."""
    from repro.diagnosis.dictionary import FaultDictionary

    check_schema(data, "fault_dictionary")
    return FaultDictionary(
        circuit_name=data["circuit_name"],
        faults=[fault_from_dict(f) for f in data["faults"]],
        matrix=bool_matrix_from_dict(data["matrix"]),
    )


def candidate_to_dict(candidate) -> dict[str, Any]:
    """A :class:`~repro.diagnosis.result.Candidate` as a plain dict."""
    return {
        "fault": fault_to_dict(candidate.fault),
        "n_match": candidate.n_match,
        "n_mispredicted": candidate.n_mispredicted,
        "n_missed": candidate.n_missed,
        "n_response_match": candidate.n_response_match,
        "score": candidate.score,
    }


def candidate_from_dict(data: dict[str, Any]):
    """Inverse of :func:`candidate_to_dict` (the derived ``score`` key
    is ignored on read)."""
    from repro.diagnosis.result import Candidate

    return Candidate(
        fault=fault_from_dict(data["fault"]),
        n_match=data["n_match"],
        n_mispredicted=data["n_mispredicted"],
        n_missed=data["n_missed"],
        n_response_match=data["n_response_match"],
    )


def diagnosis_result_to_dict(result) -> dict[str, Any]:
    """A :class:`~repro.diagnosis.result.DiagnosisResult` as a plain,
    JSON-serialisable dict (CLI ``--json`` / cache format)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "diagnosis_result",
        "circuit_name": result.circuit_name,
        "mode": result.mode,
        "n_patterns": result.n_patterns,
        "n_failing": result.n_failing,
        "candidates": [candidate_to_dict(c) for c in result.candidates],
        "n_candidates_considered": result.n_candidates_considered,
        "window": list(result.window) if result.window is not None else None,
        "oracle_queries": result.oracle_queries,
        "patterns_resimulated": result.patterns_resimulated,
        "timings": dict(result.timings),
    }


def diagnosis_result_from_dict(data: dict[str, Any]):
    """Inverse of :func:`diagnosis_result_to_dict`."""
    from repro.diagnosis.result import DiagnosisResult

    check_schema(data, "diagnosis_result")
    window = data["window"]
    return DiagnosisResult(
        circuit_name=data["circuit_name"],
        mode=data["mode"],
        n_patterns=data["n_patterns"],
        n_failing=data["n_failing"],
        candidates=[candidate_from_dict(c) for c in data["candidates"]],
        n_candidates_considered=data["n_candidates_considered"],
        window=tuple(window) if window is not None else None,
        oracle_queries=data["oracle_queries"],
        patterns_resimulated=data["patterns_resimulated"],
        timings=dict(data["timings"]),
    )


# --------------------------------------------------------------------------
# Serve-layer request/response bodies (repro.serve)
# --------------------------------------------------------------------------
#
# Every body crossing the `repro serve` HTTP boundary is a
# schema-stamped payload of one of the kinds below, so the wire format
# is versioned and validated exactly like the artifact cache: a client
# or worker from another schema generation is rejected up front
# (SchemaMismatchError -> 400) instead of mis-decoded.


def pattern_set_to_dict(pattern_set) -> dict[str, Any]:
    """A :class:`~repro.serve.api.PatternSet` (one applied BIST pattern
    sequence, shareable across diagnose requests via its content ref)
    as a schema-stamped payload — also the ``pattern_set`` artifact-
    store kind workers on other machines load instead of re-parsing."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "pattern_set",
        "circuit_name": pattern_set.circuit_name,
        "width": pattern_set.width,
        "patterns": [bitvector_to_str(p) for p in pattern_set.patterns],
    }


def pattern_set_from_dict(data: dict[str, Any]):
    """Inverse of :func:`pattern_set_to_dict`."""
    from repro.serve.api import PatternSet

    check_schema(data, "pattern_set")
    return PatternSet(
        circuit_name=data["circuit_name"],
        width=data["width"],
        patterns=tuple(bitvector_from_str(p) for p in data["patterns"]),
    )


def _request_scale(data: dict[str, Any]) -> float:
    """A request's catalog ``scale``: a finite number > 0 (default 1.0).

    Served sessions are keyed by it and ``/stats`` formats it as a
    number, so anything else is rejected here, as a bad request.
    """
    scale = data.get("scale", 1.0)
    if (
        isinstance(scale, bool)
        or not isinstance(scale, (int, float))
        or not math.isfinite(scale)
        or scale <= 0
    ):
        raise ValueError(f"scale must be a finite number > 0, got {scale!r}")
    return float(scale)


def diagnose_request_to_dict(request) -> dict[str, Any]:
    """A :class:`~repro.serve.api.DiagnoseRequest` as the ``POST
    /diagnose`` body."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "diagnose_request",
        "circuit": request.circuit,
        "scale": request.scale,
        "responses": list(request.responses),
        "patterns": list(request.patterns) if request.patterns is not None else None,
        "patterns_ref": request.patterns_ref,
        "method": request.method,
        "top_k": request.top_k,
        "timeout_ms": request.timeout_ms,
    }


def diagnose_request_from_dict(data: dict[str, Any]):
    """Inverse of :func:`diagnose_request_to_dict`."""
    from repro.serve.api import DiagnoseRequest

    check_schema(data, "diagnose_request")
    patterns = data.get("patterns")
    return DiagnoseRequest(
        circuit=data["circuit"],
        responses=tuple(data["responses"]),
        patterns=tuple(patterns) if patterns is not None else None,
        patterns_ref=data.get("patterns_ref"),
        scale=_request_scale(data),
        method=data.get("method", "dictionary"),
        top_k=data.get("top_k", 10),
        timeout_ms=data.get("timeout_ms"),
    )


def diagnose_response_to_dict(response) -> dict[str, Any]:
    """A :class:`~repro.serve.api.DiagnoseResponse` as the ``POST
    /diagnose`` reply.  ``result`` is a full ``diagnosis_result``
    payload with ``timings`` normalised to ``{}`` so the body is a
    deterministic function of the fail log — byte-identical to a local
    :meth:`~repro.flow.session.Session.diagnose` of the same log."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "diagnose_response",
        "result": response.result,
        "patterns_ref": response.patterns_ref,
        "batched": response.batched,
        "batch_size": response.batch_size,
        "seconds": response.seconds,
    }


def diagnose_response_from_dict(data: dict[str, Any]):
    """Inverse of :func:`diagnose_response_to_dict` (the embedded
    ``diagnosis_result`` payload is schema-checked too)."""
    from repro.serve.api import DiagnoseResponse

    check_schema(data, "diagnose_response")
    check_schema(data["result"], "diagnosis_result")
    return DiagnoseResponse(
        result=data["result"],
        patterns_ref=data["patterns_ref"],
        batched=data["batched"],
        batch_size=data["batch_size"],
        seconds=data["seconds"],
    )


def atpg_request_to_dict(request) -> dict[str, Any]:
    """A :class:`~repro.serve.api.AtpgRequest` as the ``POST /atpg``
    body."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "atpg_request",
        "circuit": request.circuit,
        "scale": request.scale,
        "seed": request.seed,
        "max_random_patterns": request.max_random_patterns,
        "backtrack_limit": request.backtrack_limit,
        "engine": request.engine,
        "timeout_ms": request.timeout_ms,
    }


def atpg_request_from_dict(data: dict[str, Any]):
    """Inverse of :func:`atpg_request_to_dict`."""
    from repro.serve.api import AtpgRequest

    check_schema(data, "atpg_request")
    return AtpgRequest(
        circuit=data["circuit"],
        scale=_request_scale(data),
        seed=data.get("seed", 2001),
        max_random_patterns=data.get("max_random_patterns", 4096),
        backtrack_limit=data.get("backtrack_limit", 250),
        engine=data.get("engine", "batch"),
        timeout_ms=data.get("timeout_ms"),
    )


def atpg_response_to_dict(response) -> dict[str, Any]:
    """A :class:`~repro.serve.api.AtpgResponse` as the ``POST /atpg``
    reply (``result`` is a full ``atpg_result`` payload)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "atpg_response",
        "result": response.result,
        "from_memo": response.from_memo,
        "seconds": response.seconds,
    }


def atpg_response_from_dict(data: dict[str, Any]):
    """Inverse of :func:`atpg_response_to_dict`."""
    from repro.serve.api import AtpgResponse

    check_schema(data, "atpg_response")
    check_schema(data["result"], "atpg_result")
    return AtpgResponse(
        result=data["result"],
        from_memo=data["from_memo"],
        seconds=data["seconds"],
    )


def sweep_request_to_dict(request) -> dict[str, Any]:
    """A :class:`~repro.serve.api.SweepRequest` as the ``POST /sweep``
    body."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "sweep_request",
        "circuits": list(request.circuits),
        "tpgs": list(request.tpgs),
        "evolution_lengths": list(request.evolution_lengths),
        "scale": request.scale,
        "seed": request.seed,
        "timeout_ms": request.timeout_ms,
    }


def sweep_request_from_dict(data: dict[str, Any]):
    """Inverse of :func:`sweep_request_to_dict`."""
    from repro.serve.api import SweepRequest

    check_schema(data, "sweep_request")
    return SweepRequest(
        circuits=tuple(data["circuits"]),
        tpgs=tuple(data.get("tpgs", ("adder",))),
        evolution_lengths=tuple(data.get("evolution_lengths", (32,))),
        scale=_request_scale(data),
        seed=data.get("seed", 2001),
        timeout_ms=data.get("timeout_ms"),
    )


def sweep_response_to_dict(response) -> dict[str, Any]:
    """A :class:`~repro.serve.api.SweepResponse` as the ``POST /sweep``
    reply (cells in deterministic grid order, like ``repro sweep
    --json``)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "sweep_response",
        "cells": [dict(cell) for cell in response.cells],
        "n_cached": response.n_cached,
        "seconds": response.seconds,
    }


def sweep_response_from_dict(data: dict[str, Any]):
    """Inverse of :func:`sweep_response_to_dict`."""
    from repro.serve.api import SweepResponse

    check_schema(data, "sweep_response")
    return SweepResponse(
        cells=tuple(dict(cell) for cell in data["cells"]),
        n_cached=data["n_cached"],
        seconds=data["seconds"],
    )


def serve_stats_to_dict(stats: dict[str, Any]) -> dict[str, Any]:
    """The ``GET /stats`` body: a free-form counters document under a
    schema-stamped envelope."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "serve_stats",
        "stats": stats,
    }


def serve_stats_from_dict(data: dict[str, Any]) -> dict[str, Any]:
    """Inverse of :func:`serve_stats_to_dict` (returns the inner
    counters document)."""
    check_schema(data, "serve_stats")
    return dict(data["stats"])


def serve_error_to_dict(error) -> dict[str, Any]:
    """A :class:`~repro.serve.api.ServeError` as any non-2xx reply
    body."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "serve_error",
        "error": error.error,
        "status": error.status,
        "retry_after": error.retry_after,
    }


def serve_error_from_dict(data: dict[str, Any]):
    """Inverse of :func:`serve_error_to_dict`."""
    from repro.serve.api import ServeError

    check_schema(data, "serve_error")
    return ServeError(
        error=data["error"],
        status=data["status"],
        retry_after=data.get("retry_after"),
    )


def to_json(payload: dict[str, Any], indent: int | None = None) -> str:
    """Render a serialised payload as JSON text."""
    return json.dumps(payload, indent=indent, sort_keys=False)
