"""Typed request/response bodies of the ``repro serve`` HTTP API.

Every body crossing the wire is one of these dataclasses, serialised
through the schema-versioned :mod:`repro.flow.serialize` codec
(``encode``/``decode``; kinds ``diagnose_request``/
``diagnose_response``, ``atpg_request``/``atpg_response``,
``sweep_request``/``sweep_response``, ``pattern_set``,
``serve_stats``, ``serve_error``) — the same envelope-and-check
discipline the artifact cache uses, so version skew between clients
and servers is rejected up front, never mis-decoded.  Decoding is
typed: a mistyped field is a 400 naming the field, and a missing one
takes the default declared here.  The ``validate_*`` functions then
check values (known circuit, TPG and diagnosis method names, positive
scale and timeout) on the event loop, before any compute is queued;
the flow knobs (seed, pattern budget, backtrack limit, evolution
lengths) are checked there too, by the
:class:`~repro.flow.pipeline.PipelineConfig` the server builds from
them.

:class:`PatternSet` is the shared-workload primitive: a tester farm
applies **one** BIST pattern sequence to many dies, so a client uploads
the sequence once (inline ``patterns`` on the first request), receives
its content-addressed ``patterns_ref`` back, and every subsequent fail
log ships only the observed responses.  Refs are stable across workers
and machines — they key the ``--store``
:class:`~repro.flow.session.ArtifactCache` entry other workers load
instead of re-parsing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.circuits import CATALOG
from repro.flow.session import DIAGNOSE_METHODS
from repro.tpg.registry import TPG_REGISTRY
from repro.utils.bitvec import BitVector

# /diagnose accepts every Session.diagnose method.  ``dictionary`` is the
# production default and the only method the micro-batcher fuses across
# requests; the others run per-request on the same worker.


@dataclass(frozen=True)
class PatternSet:
    """One applied BIST pattern sequence, shareable across requests."""

    circuit_name: str
    width: int
    patterns: tuple[BitVector, ...]


@dataclass(frozen=True)
class DiagnoseRequest:
    """``POST /diagnose``: one captured fail log to be diagnosed.

    Exactly one of ``patterns`` (inline bit-strings, registered
    server-side and echoed back as ``patterns_ref``) or ``patterns_ref``
    (a ref from a previous response) identifies the applied sequence;
    ``responses`` is the per-pattern observed primary-output vector.
    """

    circuit: str
    responses: tuple[str, ...]
    patterns: tuple[str, ...] | None = None
    patterns_ref: str | None = None
    scale: float = 1.0
    method: str = "dictionary"
    top_k: int = 10
    timeout_ms: int | None = None


@dataclass(frozen=True)
class DiagnoseResponse:
    """``POST /diagnose`` reply.

    ``result`` is a full ``diagnosis_result`` payload with ``timings``
    normalised to ``{}``, which makes the body a deterministic function
    of the fail log: byte-identical to serialising a local
    :meth:`~repro.flow.session.Session.diagnose` of the same log.
    ``batched``/``batch_size`` record how the micro-batcher served it.
    """

    result: dict[str, Any] = field(metadata={"kind": "diagnosis_result"})
    patterns_ref: str
    batched: bool
    batch_size: int
    seconds: float


@dataclass(frozen=True)
class AtpgRequest:
    """``POST /atpg``: run (or reuse) the ATPG substrate for a circuit.

    There is one top-off engine, so there is no ``engine`` field; a
    client that still sends one has it ignored, as the codec ignores
    every unknown key.
    """

    circuit: str
    scale: float = 1.0
    seed: int = 2001
    max_random_patterns: int = 4096
    backtrack_limit: int = 250
    timeout_ms: int | None = None


@dataclass(frozen=True)
class AtpgResponse:
    """``POST /atpg`` reply: a full ``atpg_result`` payload plus
    provenance (``from_memo``: served from the session's in-process
    memo rather than computed or loaded for this request)."""

    result: dict[str, Any] = field(metadata={"kind": "atpg_result"})
    from_memo: bool
    seconds: float


@dataclass(frozen=True)
class SweepRequest:
    """``POST /sweep``: a circuits x TPGs x evolution-lengths grid."""

    circuits: tuple[str, ...]
    tpgs: tuple[str, ...] = ("adder",)
    evolution_lengths: tuple[int, ...] = (32,)
    scale: float = 1.0
    seed: int = 2001
    timeout_ms: int | None = None


@dataclass(frozen=True)
class SweepResponse:
    """``POST /sweep`` reply: grid cells in deterministic order (the
    ``repro sweep --json`` cell vocabulary)."""

    cells: tuple[dict[str, Any], ...]
    n_cached: int
    seconds: float


@dataclass(frozen=True)
class ServeStats:
    """``GET /stats`` reply: the worker's free-form counters document
    under a schema-stamped envelope."""

    stats: dict[str, Any]


@dataclass(frozen=True)
class ServeError:
    """Any non-2xx reply body: what went wrong, the HTTP status, and —
    for 429 load shedding — how long to back off (seconds)."""

    error: str
    status: int
    retry_after: float | None = None


@dataclass
class RequestValidationError(ValueError):
    """A request body parsed as JSON but violates the API contract."""

    message: str = field(default="invalid request")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.message


def _check_request(circuits: tuple[str, ...], scale: float, timeout_ms: int | None) -> None:
    """The checks every endpoint shares.  Served sessions are keyed by
    ``scale`` and ``/stats`` formats it as a number, so it must be a
    finite number > 0."""
    for name in circuits:
        if name not in CATALOG:
            raise RequestValidationError(
                f"circuit: unknown circuit {name!r}; `repro catalog` lists the known ones"
            )
    if not math.isfinite(scale) or scale <= 0:
        raise RequestValidationError(f"'scale' must be a finite number > 0, got {scale!r}")
    if timeout_ms is not None and timeout_ms <= 0:
        raise RequestValidationError(f"'timeout_ms' must be > 0, got {timeout_ms}")


def _check_bits(name: str, strings: tuple[str, ...]) -> None:
    # One C-level scan of the joined strings: stripping every 0 and 1 off
    # both ends leaves something exactly when some other character is in.
    if not all(strings) or "".join(strings).strip("01"):
        raise RequestValidationError(f"'{name}' must be non-empty 0/1 strings")


def _check_choice(name: str, value: str, choices) -> None:
    if value not in choices:
        raise RequestValidationError(
            f"{name}: unknown value {value!r}; expected one of {', '.join(choices)}"
        )


def validate_diagnose_request(request: DiagnoseRequest) -> None:
    """Reject contract violations before any compute is queued."""
    _check_request((request.circuit,), request.scale, request.timeout_ms)
    _check_choice("method", request.method, DIAGNOSE_METHODS)
    if request.patterns is None and request.patterns_ref is None:
        raise RequestValidationError(
            "one of 'patterns' or 'patterns_ref' is required"
        )
    if not request.responses:
        raise RequestValidationError("'responses' must be non-empty")
    _check_bits("responses", request.responses)
    if request.patterns is not None:
        _check_bits("patterns", request.patterns)
        if len(request.patterns) != len(request.responses):
            raise RequestValidationError(
                f"{len(request.patterns)} patterns but "
                f"{len(request.responses)} responses"
            )
    if request.top_k < 1:
        raise RequestValidationError("'top_k' must be >= 1")


def validate_atpg_request(request: AtpgRequest) -> None:
    """Reject contract violations before any compute is queued.  The
    flow knobs are range-checked where the server builds their
    :class:`~repro.flow.pipeline.PipelineConfig`, also before queueing."""
    _check_request((request.circuit,), request.scale, request.timeout_ms)


def validate_sweep_request(request: SweepRequest) -> None:
    """Reject contract violations before any compute is queued."""
    if not request.circuits:
        raise RequestValidationError("'circuits' must be non-empty")
    _check_request(request.circuits, request.scale, request.timeout_ms)
    if not request.tpgs:
        raise RequestValidationError("'tpgs' must be non-empty")
    for tpg in request.tpgs:
        _check_choice("tpgs", tpg, TPG_REGISTRY.names())
