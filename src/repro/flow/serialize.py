"""Schema-versioned JSON codec for flow artefacts.

The artifact cache, the ``repro serve`` bodies and the CLI's ``--json``
output move dataclasses through one codec.  :func:`encode` stamps
``SCHEMA_VERSION`` and the kind (:data:`KINDS`) and walks the dataclass
fields; :func:`decode` checks both and rebuilds the object from its
resolved type hints (nested dataclasses, ``list``, ``tuple``,
``X | None``, ``dict`` and a table of leaf types).  Decoding is typed: a
mistyped value raises :class:`SchemaMismatchError` naming the field
(``bool`` is not an ``int``; an ``int`` is a ``float``), a missing field
takes its dataclass default and unknown keys are ignored.  Other schema
versions are rejected, so stale caches degrade to recomputation.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import reprlib
import types
import typing
from typing import Any, Callable

import numpy as np

from repro.faults.model import Fault, FaultSite
from repro.utils.bitvec import BitVector, PackedPatterns

#: Bump whenever the serialised layout of any artefact changes.  v2:
#: ``measured_coverage``; v3: ``values``; v4: this codec (a flat
#: ``PipelineRecord``; candidates drop the derived ``score``).
SCHEMA_VERSION = 4

#: The one kind table: kind -> the class it stamps.  :func:`encode`
#: stamps exactly these kinds, :func:`decode` checks them, and the
#: ``schema-kinds`` rule of ``repro check`` reads this literal.
KINDS = {
    "atpg_result": "repro.atpg.engine.AtpgResult",
    "pipeline_result": "repro.flow.pipeline.PipelineRecord",
    "packed_evolution": "repro.utils.bitvec.PackedPatterns",
    "fault_dictionary": "repro.diagnosis.dictionary.FaultDictionary",
    "diagnosis_result": "repro.diagnosis.result.DiagnosisResult",
    "pattern_set": "repro.serve.api.PatternSet",
    "diagnose_request": "repro.serve.api.DiagnoseRequest",
    "diagnose_response": "repro.serve.api.DiagnoseResponse",
    "atpg_request": "repro.serve.api.AtpgRequest",
    "atpg_response": "repro.serve.api.AtpgResponse",
    "sweep_request": "repro.serve.api.SweepRequest",
    "sweep_response": "repro.serve.api.SweepResponse",
    "serve_stats": "repro.serve.api.ServeStats",
    "serve_error": "repro.serve.api.ServeError",
}
_KIND_OF = {path: kind for kind, path in KINDS.items()}


class SchemaMismatchError(ValueError):
    """Payload was written by an incompatible serialiser version, is of
    the wrong kind, or does not match its dataclass's field types."""


class _FieldMismatch(SchemaMismatchError):
    """A mistyped value; ``path`` collects field names as the error unwinds."""

    def __init__(self, reason: str, *path: str) -> None:
        super().__init__(reason)
        self.reason = reason
        self.path = list(path)

    def __str__(self) -> str:
        return f"{'.'.join(self.path)}: {self.reason}"


def check_schema(payload: dict[str, Any], kind: str) -> None:
    """Reject payloads from other schema versions or of the wrong kind."""
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaMismatchError(f"{kind}: schema version {version!r} != {SCHEMA_VERSION}")
    found = payload.get("kind")
    if found != kind:
        raise SchemaMismatchError(f"expected kind {kind!r}, found {found!r}")


def _kind(cls: type) -> str:
    kind = _KIND_OF.get(f"{cls.__module__}.{cls.__qualname__}")
    if kind is None:
        raise TypeError(f"{cls.__qualname__} is not a schema kind")
    return kind


def encode(obj: Any) -> dict[str, Any]:
    """A top-level artefact as a schema-stamped, JSON-compatible dict."""
    kind = _kind(type(obj))
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **_encoder(type(obj))(obj)}


def decode(cls: type, payload: Any) -> Any:
    """Inverse of :func:`encode`: check schema and kind, then build
    ``cls`` field by field from its type hints."""
    kind = _kind(cls)
    if not isinstance(payload, dict):
        raise SchemaMismatchError(f"{kind}: expected an object, got {_show(payload)}")
    check_schema(payload, kind)
    try:
        return _decoder(cls)(payload)
    except _FieldMismatch as error:
        error.path.insert(0, kind)
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise SchemaMismatchError(f"{kind}: invalid payload: {error}") from None


def diagnosis_result_to_dict(result) -> dict[str, Any]:
    """:func:`encode` of a ``DiagnosisResult`` (a name the serve benchmark imports)."""
    return encode(result)


def to_json(payload: dict[str, Any], indent: int | None = None) -> str:
    """Render a serialised payload as JSON text."""
    return json.dumps(payload, indent=indent, sort_keys=False)


# -- leaf types: class -> (JSON type, encode, decode) -----------------------
def _matrix_out(matrix: np.ndarray) -> dict[str, Any]:
    bits = np.packbits(matrix.astype(np.uint8), axis=None)
    return {"shape": list(matrix.shape), "bits": bits.tobytes().hex()}


def _matrix_in(data: dict[str, Any]) -> np.ndarray:
    shape = tuple(data["shape"])
    raw = np.frombuffer(bytes.fromhex(data["bits"]), dtype=np.uint8)
    return np.unpackbits(raw, count=math.prod(shape)).reshape(shape).astype(bool)


def _words_out(packed: PackedPatterns) -> dict[str, Any]:
    words = np.ascontiguousarray(packed.words, dtype="<u8")
    return {"width": packed.width, "n_patterns": packed.n_patterns,
            "n_words": int(words.shape[1]), "words": words.tobytes().hex()}


def _words_in(data: dict[str, Any]) -> PackedPatterns:
    words = np.frombuffer(bytes.fromhex(data["words"]), dtype="<u8").astype(np.uint64)
    return PackedPatterns(words.reshape(data["width"], data["n_words"]), data["n_patterns"])


_LEAVES: dict[type, tuple[type, Callable, Callable]] = {
    BitVector: (str, BitVector.to_string, BitVector.from_string),
    np.ndarray: (dict, _matrix_out, _matrix_in),
    Fault: (
        dict,
        lambda f: {"net": f.site.net, "gate": f.site.gate, "pin": f.site.pin, "value": f.value},
        lambda d: Fault(FaultSite(d["net"], d["gate"], d["pin"]), d["value"]),
    ),
    PackedPatterns: (dict, _words_out, _words_in),
}


# -- encoders and decoders, built once per type hint ------------------------
def _same(value: Any) -> Any:
    return value


def _show(value: Any) -> str:
    return f"{type(value).__name__} {reprlib.repr(value)}"


def _init_fields(cls: type) -> list[tuple[dataclasses.Field, Any]]:
    hints = typing.get_type_hints(cls)
    return [(f, hints[f.name]) for f in dataclasses.fields(cls) if f.init]


def _optional_arg(hint: Any) -> Any:
    """``X`` for ``X | None``, else None."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        rest = [a for a in args if a is not type(None)]
        if len(rest) == 1 < len(args):
            return rest[0]
    return None


@functools.cache
def _encoder(hint: Any) -> Callable[[Any], Any]:
    if hint in _LEAVES:
        return _LEAVES[hint][1]
    if dataclasses.is_dataclass(hint):
        fields = [(f.name, _encoder(t)) for f, t in _init_fields(hint)]
        return lambda obj: {name: enc(getattr(obj, name)) for name, enc in fields}
    inner = _optional_arg(hint)
    if inner is not None:
        enc = _encoder(inner)
        return enc if enc is _same else lambda v: None if v is None else enc(v)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (list, tuple):
        encs = [_encoder(a) for a in args if a is not Ellipsis]
        if all(enc is _same for enc in encs):
            return list
        if len(encs) == 1:
            return lambda v: [encs[0](x) for x in v]
        return lambda v: [enc(x) for enc, x in zip(encs, v)]
    if origin is dict:
        enc = _encoder(args[1])
        return dict if enc is _same else lambda v: {k: enc(x) for k, x in v.items()}
    return _same


def _check(accepts: Callable[[Any], bool], expected: str, convert=_same):
    def decode_value(value: Any) -> Any:
        if not accepts(value):
            raise _FieldMismatch(f"expected {expected}, got {_show(value)}")
        return convert(value)

    return decode_value


_PRIMITIVES = {
    bool: _check(lambda v: isinstance(v, bool), "bool"),
    int: _check(lambda v: isinstance(v, int) and not isinstance(v, bool), "int"),
    float: _check(
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool), "number", float
    ),
    str: _check(lambda v: isinstance(v, str), "str"),
}


@functools.cache
def _decoder(hint: Any) -> Callable[[Any], Any]:
    if hint is Any:
        return _same
    if hint in _PRIMITIVES:
        return _PRIMITIVES[hint]
    if hint in _LEAVES:
        json_type, _, build = _LEAVES[hint]
        check = _check(lambda v: isinstance(v, json_type), f"a {hint.__name__}")
        return lambda v: build(check(v))
    if dataclasses.is_dataclass(hint):
        return _dataclass_decoder(hint)
    inner = _optional_arg(hint)
    if inner is not None:
        dec = _decoder(inner)
        return lambda v: None if v is None else dec(v)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list or (origin is tuple and args[-1:] == (Ellipsis,)):
        item = _decoder(args[0])
        check = _check(lambda v: isinstance(v, (list, tuple)), "a list")
        return lambda v: origin([item(x) for x in check(v)])
    if origin is tuple:
        items = [_decoder(a) for a in args]
        check = _check(
            lambda v: isinstance(v, (list, tuple)) and len(v) == len(items),
            f"a list of {len(items)}",
        )
        return lambda v: tuple(dec(x) for dec, x in zip(items, check(v)))
    if origin is dict:
        value = _decoder(args[1])
        check = _check(lambda v: isinstance(v, dict), "an object")
        return lambda v: {k: value(x) for k, x in check(v).items()}
    raise TypeError(f"codec: unsupported field type {hint!r}")


def _dataclass_decoder(cls: type) -> Callable[[Any], Any]:
    """Field by field.  A field declared with ``metadata={"kind": k}``
    stays a plain dict but must be a ``k`` payload."""
    is_dict = _check(lambda v: isinstance(v, dict), "an object")
    specs = [
        (
            f.name,
            (lambda v, k=f.metadata["kind"]: check_schema(is_dict(v), k) or v)
            if "kind" in f.metadata
            else _decoder(hint),
            f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
        )
        for f, hint in _init_fields(cls)
    ]

    def decode_fields(value: Any) -> Any:
        kwargs, value = {}, is_dict(value)
        for name, decode_field, required in specs:
            if name in value:
                try:
                    kwargs[name] = decode_field(value[name])
                except _FieldMismatch as error:
                    error.path.insert(0, name)
                    raise
                except (KeyError, TypeError, ValueError) as error:
                    # A leaf's own parse error, or an embedded payload's.
                    raise _FieldMismatch(f"invalid value: {error}", name) from None
            elif required:
                raise _FieldMismatch("missing", name)
        try:
            return cls(**kwargs)
        except (TypeError, ValueError) as error:
            raise _FieldMismatch(f"invalid {cls.__name__}: {error}") from None

    return decode_fields
