"""The TPG interface and triplet evolution semantics.

A TPG of width ``n`` has a state register (seeded with ``delta``) and an
input register (held at ``sigma`` for the whole evolution).  Started
from a triplet ``(delta, sigma, T)``, it emits one pattern per clock for
``T`` clocks; the emitted pattern at clock 0 is ``delta`` itself, so a
length-1 evolution reproduces the seed exactly — this is the paper's
"fixing tau = '0', the test set TS provided by the reseeding corresponds
to the ATPG test set" property, and it guarantees the initial reseeding
covers the fault list completely.

Two evolution entry points exist:

* :meth:`TestPatternGenerator.evolve` — one triplet, one Python-level
  ``next_state`` call per clock, returning ``BitVector`` patterns.  The
  semantic reference.
* :meth:`TestPatternGenerator.evolve_batch` — a whole **bank** of seeds
  at once, returning :class:`~repro.utils.bitvec.PackedPatterns`
  directly (the word-parallel form every simulator consumes), so
  generated sequences never round-trip through Python int lists.
  Subclasses vectorize by overriding :meth:`_evolve_batch_values`; the
  base class supplies a correct-by-construction scalar fallback that
  any custom TPG inherits for free, and
  :meth:`evolve_batch_scalar` keeps that fallback callable explicitly
  (the oracle of the differential suite and the baseline of
  ``benchmarks/test_tpg_throughput.py``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.utils.bitvec import BitVector, PackedPatterns


class TestPatternGenerator(ABC):
    """A width-``n`` sequential pattern generator.

    Subclasses implement :meth:`next_state` (one clock of evolution)
    and optionally :meth:`_evolve_batch_values` (a vectorized bank
    step for widths that fit a ``uint64``)::

        class MacUnit(TestPatternGenerator):
            def next_state(self, state, sigma):
                return state * sigma + sigma

        tpg = MacUnit(8)
        packed = tpg.evolve_batch(deltas, sigmas, length=32)

    ``packed`` feeds straight into the fault simulators — no unpacking.
    """

    def __init__(self, width: int) -> None:
        if width <= 0:
            raise ValueError(f"TPG width must be positive, got {width}")
        self.width = width

    @property
    def name(self) -> str:
        """Short identifier used in reports (defaults to the class name)."""
        return type(self).__name__

    def cache_token(self) -> str:
        """An identity string for evolution caching.

        Two TPG instances with equal tokens must generate identical
        sequences for every triplet — the token is part of every
        persisted packed-evolution cache key
        (:meth:`repro.flow.session.Session.packed_evolution`).  The
        default covers stateless generators; subclasses with
        configuration beyond (class, width) — tap sets, polynomial
        banks, netlists — must fold it in.
        """
        return f"{type(self).__qualname__}:{self.name}:{self.width}"

    @abstractmethod
    def next_state(self, state: BitVector, sigma: BitVector) -> BitVector:
        """One clock of evolution: the next state-register value."""

    def evolve(
        self, delta: BitVector, sigma: BitVector, length: int
    ) -> list[BitVector]:
        """The test set of triplet ``(delta, sigma, length)``: the
        ``length`` patterns appearing at the TPG outputs, starting with
        ``delta`` itself.

        >>> from repro.tpg.accumulator import AdderAccumulator
        >>> from repro.utils.bitvec import BitVector
        >>> tpg = AdderAccumulator(8)
        >>> [p.value for p in tpg.evolve(BitVector(10, 8), BitVector(3, 8), 4)]
        [10, 13, 16, 19]
        """
        self._check_vector("delta", delta)
        self._check_vector("sigma", sigma)
        if length < 0:
            raise ValueError(f"evolution length must be >= 0, got {length}")
        patterns: list[BitVector] = []
        state = delta
        for _ in range(length):
            patterns.append(state)
            state = self.next_state(state, sigma)
        return patterns

    # -- seed-axis batched evolution ---------------------------------------

    def evolve_batch(
        self,
        deltas: Sequence[BitVector],
        sigmas: Sequence[BitVector],
        length: int,
    ) -> PackedPatterns:
        """Evolve a whole bank of triplets sharing one ``length``.

        Returns the concatenation of every triplet's test set in seed
        order, already packed: pattern ``i * length + t`` of the result
        is ``evolve(deltas[i], sigmas[i], length)[t]`` — bit-identical
        to the scalar loop (property-tested over widths 1..130 for
        every registered TPG).  Per-seed rows come back out as
        bit-granular :meth:`~repro.utils.bitvec.PackedPatterns.slice`
        views.

        When the width fits a machine word and the subclass provides
        :meth:`_evolve_batch_values`, the whole bank advances with numpy
        word ops — one array operation per clock (or a closed form) for
        *all* seeds, which is where the >= 3x floor of
        ``benchmarks/test_tpg_throughput.py`` comes from.  Otherwise
        the scalar fallback runs, so correctness never depends on a
        vectorized override existing.

        >>> from repro.tpg.accumulator import AdderAccumulator
        >>> from repro.utils.bitvec import BitVector
        >>> tpg = AdderAccumulator(8)
        >>> bank = tpg.evolve_batch(
        ...     [BitVector(10, 8), BitVector(200, 8)],
        ...     [BitVector(3, 8), BitVector(7, 8)],
        ...     length=3,
        ... )
        >>> [p.value for p in bank.unpack()]
        [10, 13, 16, 200, 207, 214]
        """
        deltas = list(deltas)
        sigmas = list(sigmas)
        if len(deltas) != len(sigmas):
            raise ValueError(
                f"deltas ({len(deltas)}) and sigmas ({len(sigmas)}) differ in length"
            )
        for index, (delta, sigma) in enumerate(zip(deltas, sigmas)):
            self._check_vector(f"deltas[{index}]", delta)
            self._check_vector(f"sigmas[{index}]", sigma)
        if length < 0:
            raise ValueError(f"evolution length must be >= 0, got {length}")
        if not deltas or length == 0:
            return PackedPatterns(np.zeros((self.width, 0), dtype=np.uint64), 0)
        if self.width <= 64:
            values = self._evolve_batch_values(
                np.array([d.value for d in deltas], dtype=np.uint64),
                np.array([s.value for s in sigmas], dtype=np.uint64),
                length,
            )
            if values is not None:
                return PackedPatterns.from_values(
                    np.ascontiguousarray(values).reshape(-1), self.width
                )
        return self.evolve_batch_scalar(deltas, sigmas, length)

    def evolve_batch_scalar(
        self,
        deltas: Sequence[BitVector],
        sigmas: Sequence[BitVector],
        length: int,
    ) -> PackedPatterns:
        """The correct-by-construction reference for :meth:`evolve_batch`:
        one scalar :meth:`evolve` per seed, packed once at the end.
        Kept public as the differential-test oracle and the throughput
        baseline; validation matches :meth:`evolve_batch`."""
        patterns: list[BitVector] = []
        for delta, sigma in zip(list(deltas), list(sigmas)):
            patterns.extend(self.evolve(delta, sigma, length))
        return PackedPatterns.from_patterns(patterns, self.width)

    def _evolve_batch_values(
        self, deltas: np.ndarray, sigmas: np.ndarray, length: int
    ) -> np.ndarray | None:
        """Vectorized bank evolution hook.

        Called only when ``width <= 64`` with validated, width-masked
        ``uint64`` arrays of equal shape ``(n_seeds,)`` and
        ``length >= 1``.  Implementations return a ``(n_seeds, length)``
        ``uint64`` array whose entries are masked to ``width`` bits —
        row ``i`` is the state walk of seed ``i`` — or ``None`` to
        decline (the base class then runs the scalar fallback)."""
        return None

    def suggest_sigma(self, rng) -> BitVector:
        """A random input-register value suitable for this TPG.

        Subclasses override when some sigmas degenerate (e.g. an even
        multiplicand collapses a multiplicative accumulator to 0).
        """
        return BitVector.random(self.width, rng)

    def _check_vector(self, label: str, vector: BitVector) -> None:
        if vector.width != self.width:
            raise ValueError(
                f"{label} width {vector.width} != TPG width {self.width}"
            )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(width={self.width})"
