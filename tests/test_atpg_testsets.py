"""Pinned ATPG test sets: the exact patterns, untestable and aborted
faults of a default :class:`~repro.atpg.engine.AtpgEngine` run.

Each pin is a digest of the whole answer, so any change to the search,
to the order in which :meth:`~repro.atpg.batch_podem.BatchPodem.stream`
yields resolved lanes (the engine X-fills cubes from one RNG stream in
yield order), to fault dropping or to compaction shows as a different
test set.  A change that means to move a test set re-pins it here and
says why.

Four small circuits run in tier-1; every catalog circuit at scale 0.25,
and s1238 at full size, run in the ``slow`` suite.  The full-size s1238
run also pins its PODEM search effort: a change that keeps the answer
but moves the search (another lane order, another backtrace pick) shows
there.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.atpg.engine import AtpgEngine
from repro.circuits import catalog_names, load_circuit
from repro.obs import Telemetry

#: ``"name@scale"`` -> first 16 hex digits of :func:`_digest`.
PINS = {
    "c17@0.25": "ef40276e490918a1",
    "c432@0.25": "3976106dbb62985e",
    "c499@0.25": "680d91bfe6c9350a",
    "c880@0.25": "9c913b8a1a6673c0",
    "c1355@0.25": "e3ae4e8c058c59e4",
    "c1908@0.25": "666c92cb80eccecf",
    "c2670@0.25": "91e06431a8b13123",
    "c3540@0.25": "f9eed0ad73bf3828",
    "c5315@0.25": "e3ef5b0545147ae3",
    "c6288@0.25": "a54f914efc04e112",
    "c7552@0.25": "646e23e58b2eef5e",
    "s27@0.25": "4efd01a528d8b1c7",
    "s298@0.25": "ddf5deda5ed32759",
    "s344@0.25": "0c494e561445c616",
    "s382@0.25": "e1ff8b1a641f6b5a",
    "s420@0.25": "25a8d9e4e8907030",
    "s641@0.25": "d4671416cb9a9c89",
    "s713@0.25": "09693ec3824fae10",
    "s820@0.25": "2a09d28f3bb811a9",
    "s838@0.25": "927a525dff004405",
    "s953@0.25": "d38fe869f1237089",
    "s1196@0.25": "5a87c2e75f7627dd",
    "s1238@0.25": "5a9bdeb49cd99360",
    "s1423@0.25": "579d5b7d357438d8",
    "s5378@0.25": "d402045544435a07",
    "s9234@0.25": "19da808406cae698",
    "s13207@0.25": "476af9899d9354c3",
    "s15850@0.25": "05a3e973a2adb4d2",
    "s1238@1.0": "ceca16f3bd3de4f0",
}

TIER1 = ["c499@0.25", "c880@0.25", "s420@0.25", "s1238@0.25"]

#: ``"name@scale"`` -> the batch PODEM's search-effort counters of the
#: same run (the ``repro_atpg_*_total`` metrics).
EFFORT = {
    "s1238@1.0": {"lanes_seated": 364, "rounds": 566, "backtracks": 42819, "decisions": 45819},
}


def _digest(result) -> str:
    """sha256 over the test set's patterns (in order), then the
    untestable and the aborted faults (in the engine's order)."""
    digest = hashlib.sha256()
    for pattern in result.test_set:
        digest.update(pattern.to_string().encode() + b"\n")
    digest.update(b"untestable\n")
    for fault in result.untestable:
        digest.update(str(fault).encode() + b"\n")
    digest.update(b"aborted\n")
    for fault in result.aborted:
        digest.update(str(fault).encode() + b"\n")
    return digest.hexdigest()[:16]


def _run(key: str, telemetry: Telemetry | None = None) -> str:
    name, scale = key.split("@")
    circuit = load_circuit(name, scale=float(scale))
    return _digest(AtpgEngine(circuit, telemetry=telemetry).run())


def _effort(telemetry: Telemetry) -> dict[str, int]:
    """The ``repro_atpg_<key>_total`` counters of a run, by key."""
    samples, _ = telemetry.metrics.collect()
    return {
        sample.name.removeprefix("repro_atpg_").removesuffix("_total"): sample.value
        for sample in samples
        if sample.name.startswith("repro_atpg_")
    }


def test_pins_cover_the_catalog():
    assert {key.split("@")[0] for key in PINS} == set(catalog_names())


@pytest.mark.parametrize("key", TIER1)
def test_test_set_pinned(key):
    assert _run(key) == PINS[key]


@pytest.mark.slow
@pytest.mark.parametrize("key", sorted(set(PINS) - set(TIER1)))
def test_test_set_pinned_slow(key):
    telemetry = Telemetry.on()
    assert _run(key, telemetry) == PINS[key]
    if key in EFFORT:
        assert _effort(telemetry) == EFFORT[key]
