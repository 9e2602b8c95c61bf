"""Fixed-width bit vectors and pattern packing helpers.

The simulators in :mod:`repro.sim` operate on *packed* patterns: the
values of one circuit node across 64 test patterns are stored in a single
``numpy.uint64`` word, so a vectorised gate evaluation processes 64
patterns at once.  This module provides

* :class:`BitVector` — an immutable fixed-width bit vector used for test
  patterns, TPG seeds and register values,
* :func:`pack_patterns` / :func:`unpack_words` — vectorized conversion
  between per-pattern bit vectors and the word-parallel layout (the
  differential suite pins them to scalar references in
  ``tests/oracles/scalar.py``), and
* :class:`PackedPatterns` — a pattern sequence carried in packed form,
  so pattern sets are packed once per session instead of once per
  simulator call,
* :func:`pack_values` / :meth:`PackedPatterns.from_values` — the
  value-array fast path the batched TPG evolution uses (pattern values
  as a ``uint64`` numpy array straight to the packed layout, no
  :class:`BitVector` round trip), and
* :func:`concat_packed` — in-layout concatenation of packed sequences
  (vectorized funnel shifts, no unpack/repack), and
* :class:`PackedPlanes` — the **three-valued** carrier: two bit-planes
  per signal (``value`` + ``care``) encoding 0/1/X at the same word
  parallelism, losslessly round-tripping with :class:`PackedPatterns`
  for X-free data (:meth:`PackedPlanes.from_packed` /
  :meth:`PackedPlanes.to_packed`).

The layout invariants are documented in ``docs/internals-bitpacking.md``.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.utils.kernels import kernel

WORD_BITS = 64
_WORD_MASK = (1 << WORD_BITS) - 1


class BitVector:
    """An immutable bit vector of fixed ``width``.

    Bit 0 is the least-significant bit.  Instances behave like small
    unsigned integers that remember their width: arithmetic used by the
    accumulator TPGs (``+``, ``-``, ``*``) wraps modulo ``2**width``.

    >>> v = BitVector(0b1010, 4)
    >>> v[1], v[0]
    (1, 0)
    >>> (v + BitVector(0b0110, 4)).value
    0
    """

    __slots__ = ("_value", "_width")

    def __init__(self, value: int, width: int) -> None:
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        if value < 0:
            raise ValueError(f"value must be non-negative, got {value}")
        self._width = width
        self._value = value & ((1 << width) - 1)

    @property
    def value(self) -> int:
        """The integer value of the vector."""
        return self._value

    @property
    def width(self) -> int:
        """The number of bits in the vector."""
        return self._width

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitVector":
        """Build a vector from a bit sequence, ``bits[0]`` being bit 0."""
        if not bits:
            raise ValueError("bits must be non-empty")
        value = 0
        for position, bit in enumerate(bits):
            if bit not in (0, 1):
                raise ValueError(f"bit {position} is {bit!r}, expected 0 or 1")
            value |= bit << position
        return cls(value, len(bits))

    @classmethod
    def from_string(cls, text: str) -> "BitVector":
        """Parse a binary string, most-significant bit first.

        >>> BitVector.from_string("1010").value
        10
        """
        stripped = text.strip().replace("_", "")
        # Stripping every 0 and 1 leaves something exactly when some
        # other character is present: one C-level scan.
        if not stripped or stripped.strip("01"):
            raise ValueError(f"not a binary string: {text!r}")
        return cls(int(stripped, 2), len(stripped))

    @classmethod
    def zeros(cls, width: int) -> "BitVector":
        """The all-zero vector of the given width."""
        return cls(0, width)

    @classmethod
    def ones(cls, width: int) -> "BitVector":
        """The all-one vector of the given width."""
        return cls((1 << width) - 1, width)

    @classmethod
    def random(cls, width: int, rng) -> "BitVector":
        """A uniformly random vector drawn from ``rng`` (an RngStream or
        :class:`random.Random`-compatible object)."""
        return cls(rng.getrandbits(width), width)

    def bit(self, index: int) -> int:
        """The bit at ``index`` (0 = LSB)."""
        if not 0 <= index < self._width:
            raise IndexError(f"bit index {index} out of range for width {self._width}")
        return (self._value >> index) & 1

    def __getitem__(self, index: int) -> int:
        return self.bit(index)

    def bits(self) -> list[int]:
        """All bits as a list, index 0 first (LSB first)."""
        return [(self._value >> i) & 1 for i in range(self._width)]

    def set_bit(self, index: int, bit: int) -> "BitVector":
        """A copy with bit ``index`` set to ``bit``."""
        if bit not in (0, 1):
            raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        if not 0 <= index < self._width:
            raise IndexError(f"bit index {index} out of range for width {self._width}")
        if bit:
            return BitVector(self._value | (1 << index), self._width)
        return BitVector(self._value & ~(1 << index), self._width)

    def popcount(self) -> int:
        """Number of set bits."""
        return self._value.bit_count()

    def concat(self, other: "BitVector") -> "BitVector":
        """Concatenate: ``self`` occupies the low bits of the result."""
        return BitVector(
            self._value | (other._value << self._width), self._width + other._width
        )

    def slice(self, low: int, width: int) -> "BitVector":
        """Extract ``width`` bits starting at bit ``low``."""
        if low < 0 or width <= 0 or low + width > self._width:
            raise ValueError(
                f"slice [{low}:{low + width}) out of range for width {self._width}"
            )
        return BitVector((self._value >> low) & ((1 << width) - 1), width)

    def resized(self, width: int) -> "BitVector":
        """Zero-extend or truncate to ``width`` bits."""
        return BitVector(self._value, width)

    def _check_width(self, other: "BitVector") -> None:
        if self._width != other._width:
            raise ValueError(f"width mismatch: {self._width} vs {other._width}")

    def __add__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        return BitVector(self._value + other._value, self._width)

    def __sub__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        return BitVector((self._value - other._value) % (1 << self._width), self._width)

    def __mul__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        return BitVector(self._value * other._value, self._width)

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        return BitVector(self._value & other._value, self._width)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        return BitVector(self._value | other._value, self._width)

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_width(other)
        return BitVector(self._value ^ other._value, self._width)

    def __invert__(self) -> "BitVector":
        return BitVector(~self._value & ((1 << self._width) - 1), self._width)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self._value == other._value and self._width == other._width

    def __hash__(self) -> int:
        return hash((self._value, self._width))

    def __len__(self) -> int:
        return self._width

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits())

    def __int__(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return f"BitVector(0b{self.to_string()}, width={self._width})"

    def to_string(self) -> str:
        """Binary string, most-significant bit first."""
        return format(self._value, f"0{self._width}b")


def n_words_for(n_patterns: int) -> int:
    """Number of 64-bit words needed for ``n_patterns`` patterns."""
    return (n_patterns + WORD_BITS - 1) // WORD_BITS


@kernel
def tail_mask(n_patterns: int) -> np.ndarray:
    """Per-word mask of valid pattern bits for ``n_patterns`` patterns."""
    n_words = n_words_for(n_patterns)
    mask = np.full(n_words, np.uint64(_WORD_MASK), dtype=np.uint64)
    tail = n_patterns % WORD_BITS
    if tail and n_words:
        mask[-1] = np.uint64((1 << tail) - 1)
    return mask


@kernel
def pack_values(values: np.ndarray, width: int) -> np.ndarray:
    """Pack a ``uint64`` value-per-pattern array into word-parallel rows.

    The fast path behind :meth:`PackedPatterns.from_values`: batched TPG
    evolution produces pattern *values* as a numpy array, and this
    converts them straight to the ``(width, n_words)`` layout of
    :func:`pack_patterns` without materialising ``BitVector`` objects.
    Bit-identical to ``pack_patterns(ints_to_bitvectors(values, width),
    width)`` for every ``width <= 64`` (the ``uint64`` carrier limit;
    wider banks must go through :func:`pack_patterns`).

    Values wider than ``width`` are rejected — the same contract as the
    per-pattern width check of :func:`pack_patterns`.
    """
    if not 1 <= width <= WORD_BITS:
        raise ValueError(f"pack_values supports widths 1..64, got {width}")
    values = np.ascontiguousarray(values, dtype=np.uint64).reshape(-1)
    n_patterns = int(values.size)
    if n_patterns == 0:
        return np.zeros((width, 0), dtype=np.uint64)
    if width < WORD_BITS and bool(
        (values >> np.uint64(width)).any()
    ):
        bad = int(np.flatnonzero(values >> np.uint64(width))[0])
        raise ValueError(
            f"pattern {bad} value {int(values[bad])} does not fit width {width}"
        )
    n_words = (n_patterns + WORD_BITS - 1) // WORD_BITS
    # (n_patterns, 64) bit matrix, LSB first — mirrors pack_patterns'
    # little-endian byte serialisation.
    bits = np.unpackbits(
        values.astype(np.dtype("<u8"), copy=False).view(np.uint8).reshape(n_patterns, 8),
        axis=1,
        bitorder="little",
    )[:, :width]
    padded = np.zeros((n_words * WORD_BITS, width), dtype=np.uint8)
    padded[:n_patterns] = bits
    packed = np.packbits(padded, axis=0, bitorder="little")
    return (
        np.ascontiguousarray(packed.T)
        .view(np.dtype("<u8"))
        .astype(np.uint64, copy=False)
    )


def pack_patterns(patterns: Sequence[BitVector], width: int) -> np.ndarray:
    """Pack per-pattern bit vectors into word-parallel node words.

    Returns an array of shape ``(width, n_words)`` with dtype ``uint64``:
    ``result[b, w]`` holds bit ``b`` of patterns ``64*w .. 64*w+63`` (one
    pattern per word bit, pattern ``64*w`` in bit 0 of the word).

    Patterns narrower or wider than ``width`` are rejected.

    Vectorized: pattern values are serialised to a little-endian byte
    matrix in one pass, then transposed bit-by-bit with
    ``np.unpackbits`` / ``np.packbits`` — no per-(pattern, bit) Python
    loop.
    """
    if not patterns:
        return np.zeros((width, 0), dtype=np.uint64)
    n_patterns = len(patterns)
    n_words = (n_patterns + WORD_BITS - 1) // WORD_BITS
    n_bytes = (width + 7) // 8
    for index, pattern in enumerate(patterns):
        if pattern.width != width:
            raise ValueError(
                f"pattern {index} has width {pattern.width}, expected {width}"
            )
    raw = b"".join(p._value.to_bytes(n_bytes, "little") for p in patterns)
    byte_matrix = np.frombuffer(raw, dtype=np.uint8).reshape(n_patterns, n_bytes)
    # (n_patterns, width): bits[i, b] = bit b of pattern i.
    bits = np.unpackbits(byte_matrix, axis=1, bitorder="little")[:, :width]
    padded = np.zeros((n_words * WORD_BITS, width), dtype=np.uint8)
    padded[:n_patterns] = bits
    # Pack along the pattern axis: byte j of column b covers patterns
    # 8j..8j+7; 8 consecutive bytes assemble one little-endian word.
    packed = np.packbits(padded, axis=0, bitorder="little")
    return (
        np.ascontiguousarray(packed.T)
        .view(np.dtype("<u8"))
        .astype(np.uint64, copy=False)
    )


def unpack_words(words: np.ndarray, n_patterns: int) -> list[BitVector]:
    """Inverse of :func:`pack_patterns`.

    ``words`` has shape ``(width, n_words)``; the result is ``n_patterns``
    bit vectors of width ``words.shape[0]``.  Vectorized like
    :func:`pack_patterns`.
    """
    width = words.shape[0]
    if n_patterns == 0:
        return []
    if n_patterns > words.shape[1] * WORD_BITS:
        raise ValueError(
            f"{n_patterns} patterns do not fit in {words.shape[1]} words"
        )
    byte_view = (
        np.ascontiguousarray(words)
        .astype(np.dtype("<u8"), copy=False)
        .view(np.uint8)
        .reshape(width, -1)
    )
    # (width, n_patterns) -> (n_patterns, width): bit b of pattern i.
    bits = np.unpackbits(byte_view, axis=1, bitorder="little")[:, :n_patterns]
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    row_bytes = packed.tobytes()
    n_bytes = packed.shape[1]
    return [
        BitVector(
            int.from_bytes(row_bytes[i * n_bytes : (i + 1) * n_bytes], "little"),
            width,
        )
        for i in range(n_patterns)
    ]


class PackedPatterns:
    """A pattern sequence in its word-parallel packed form.

    The simulators consume patterns as ``(width, n_words)`` ``uint64``
    words; packing a ``Sequence[BitVector]`` is pure conversion
    overhead, so callers that reuse one pattern sequence across many
    queries (sessions, dictionaries, signature bisection) pack **once**
    and hand the same :class:`PackedPatterns` to every call.

    Instances are treated as immutable: the word array is shared between
    views, never copied defensively, and must not be written to.
    """

    __slots__ = ("words", "n_patterns", "width")

    #: Bit-planes per word in ``words``: one plane of 0/1 values.
    m = 1

    def __init__(self, words: np.ndarray, n_patterns: int) -> None:
        words = np.asarray(words, dtype=np.uint64)
        if words.ndim != 2:
            raise ValueError(f"words must be 2-D, got shape {words.shape}")
        if not 0 <= n_patterns <= words.shape[1] * WORD_BITS:
            raise ValueError(
                f"{n_patterns} patterns do not fit in {words.shape[1]} words"
            )
        self.words = words
        self.n_patterns = n_patterns
        self.width = int(words.shape[0])

    @classmethod
    def from_patterns(
        cls, patterns: Sequence[BitVector], width: int
    ) -> "PackedPatterns":
        """Pack ``patterns`` once (validating widths against ``width``)."""
        return cls(pack_patterns(list(patterns), width), len(patterns))

    @classmethod
    def from_values(cls, values: np.ndarray, width: int) -> "PackedPatterns":
        """Pack a ``uint64`` value array (one value per pattern) without
        round-tripping through :class:`BitVector` objects — the carrier
        the batched TPG evolution (:meth:`repro.tpg.base.
        TestPatternGenerator.evolve_batch`) hands to the simulators.
        Bit-identical to :meth:`from_patterns` on the same integers;
        ``width`` must be <= 64 (the ``uint64`` value limit)."""
        values = np.ascontiguousarray(values, dtype=np.uint64).reshape(-1)
        return cls(pack_values(values, width), int(values.size))

    @property
    def n_words(self) -> int:
        """Number of 64-pattern words per input row."""
        return int(self.words.shape[1])

    def tail_mask(self) -> np.ndarray:
        """Per-word mask of valid pattern bits (one entry per buffer
        word — trailing all-zero mask words when the buffer holds more
        words than ``n_patterns`` needs)."""
        needed = n_words_for(self.n_patterns)
        if needed == self.n_words:
            return tail_mask(self.n_patterns)
        mask = np.zeros(self.n_words, dtype=np.uint64)
        mask[:needed] = tail_mask(self.n_patterns)
        return mask

    @kernel
    def slice(self, start: int, stop: int) -> "PackedPatterns":
        """The packed form of ``patterns[start:stop]``.

        Word-aligned slices are views; unaligned slices funnel the bits
        down with vectorized word shifts (no unpack/repack round trip).
        """
        if not 0 <= start <= stop <= self.n_patterns:
            raise ValueError(
                f"slice [{start}:{stop}) out of range for {self.n_patterns} patterns"
            )
        n_sliced = stop - start
        if n_sliced == 0:
            return PackedPatterns(
                np.zeros((self.width, 0), dtype=np.uint64), 0
            )
        word_start, bit_start = divmod(start, WORD_BITS)
        n_out = (n_sliced + WORD_BITS - 1) // WORD_BITS
        if bit_start == 0:
            return PackedPatterns(
                self.words[:, word_start : word_start + n_out], n_sliced
            )
        lo = self.words[:, word_start : word_start + n_out]
        out = lo >> np.uint64(bit_start)
        hi = self.words[:, word_start + 1 : word_start + n_out + 1]
        if hi.shape[1]:
            out[:, : hi.shape[1]] |= hi << np.uint64(WORD_BITS - bit_start)
        return PackedPatterns(out, n_sliced)

    def unpack(self) -> list[BitVector]:
        """The patterns back as :class:`BitVector` objects."""
        return unpack_words(self.words, self.n_patterns)

    def __len__(self) -> int:
        return self.n_patterns

    def __bool__(self) -> bool:
        return self.n_patterns > 0

    def __repr__(self) -> str:
        return (
            f"PackedPatterns(n_patterns={self.n_patterns}, width={self.width})"
        )


# repro: allow[kernel-purity] O(pieces) funnel-shift walk, never O(patterns); each piece ORs in word-parallel
@kernel
def concat_packed(pieces: Sequence[PackedPatterns]) -> PackedPatterns:
    """Concatenate packed pattern sequences without unpacking.

    The result holds the patterns of every piece in order — exactly
    ``PackedPatterns.from_patterns(p0 + p1 + ..., width)`` — assembled
    with vectorized word shifts.  Pieces whose pattern count is not a
    word multiple land at unaligned bit offsets; their words are OR-ed
    in as a shifted low/high pair, the same funnel-shift technique as
    :meth:`PackedPatterns.slice`.  Tail bits beyond each piece's
    ``n_patterns`` are masked off first, so slices of larger banks (the
    per-seed rows :func:`repro.reseeding.triplet.packed_test_sets`
    yields) concatenate safely.
    """
    pieces = list(pieces)
    if not pieces:
        raise ValueError("concat_packed needs at least one piece")
    width = pieces[0].width
    for piece in pieces:
        if piece.width != width:
            raise ValueError(
                f"width mismatch in concat_packed: {piece.width} vs {width}"
            )
    pieces = [piece for piece in pieces if piece.n_patterns]
    if not pieces:
        return PackedPatterns(np.zeros((width, 0), dtype=np.uint64), 0)
    total = sum(piece.n_patterns for piece in pieces)
    out = np.zeros((width, n_words_for(total)), dtype=np.uint64)
    offset = 0
    for piece in pieces:
        needed = n_words_for(piece.n_patterns)
        words = piece.words[:, :needed] & tail_mask(piece.n_patterns)
        word_start, bit_start = divmod(offset, WORD_BITS)
        if bit_start == 0:
            out[:, word_start : word_start + needed] |= words
        else:
            shift = np.uint64(bit_start)
            out[:, word_start : word_start + needed] |= words << shift
            spill = words >> np.uint64(WORD_BITS - bit_start)
            hi = out[:, word_start + 1 : word_start + 1 + needed]
            hi |= spill[:, : hi.shape[1]]
        offset += piece.n_patterns
    return PackedPatterns(out, total)


#: Three-valued X code in the unpacked (per-pattern) code views: a code
#: array holds 0, 1, or ``X_CODE`` per (input bit, pattern).
X_CODE = 2


@kernel
def _pack_bit_rows(bits: np.ndarray) -> np.ndarray:
    """Pack a ``(width, n_patterns)`` 0/1 byte matrix into the
    ``(width, n_words)`` ``uint64`` word layout (pattern ``64*w + k``
    at bit ``k`` of word ``w``)."""
    width, n_patterns = bits.shape
    n_words = n_words_for(n_patterns) or 1
    padded = np.zeros((width, n_words * WORD_BITS), dtype=np.uint8)
    padded[:, :n_patterns] = bits
    packed = np.packbits(padded, axis=1, bitorder="little")
    return (
        np.ascontiguousarray(packed)
        .view(np.dtype("<u8"))
        .astype(np.uint64, copy=False)
    )


@kernel
def _unpack_bit_rows(words: np.ndarray, n_patterns: int) -> np.ndarray:
    """Inverse of :func:`_pack_bit_rows`: word rows back to a
    ``(width, n_patterns)`` 0/1 byte matrix."""
    width = words.shape[0]
    byte_view = (
        np.ascontiguousarray(words)
        .astype(np.dtype("<u8"), copy=False)
        .view(np.uint8)
        .reshape(width, -1)
    )
    return np.unpackbits(byte_view, axis=1, bitorder="little")[:, :n_patterns]


class PackedPlanes:
    """A three-valued (0/1/X) pattern sequence as paired bit-planes.

    Each signal row carries **two** ``uint64`` planes in the
    :class:`PackedPatterns` word layout:

    * ``value`` — the value bit (meaningful only where care is set);
    * ``care``  — the care bit (1 = known 0/1, 0 = unknown X);

    with the invariant ``value & ~care == 0`` (X lanes carry value 0).
    ``words`` holds the two planes side by side on the word axis —
    ``(width, 2 * n_words)``, value words first — which is the ``m = 2``
    state layout of :func:`repro.circuit.gates.eval_gates` and
    :meth:`repro.sim.logic.CompiledCircuit.simulate`, and the batch
    PODEM's lane layout.  ``value`` and ``care`` are views into it.
    Like :class:`PackedPatterns`, instances are immutable by
    convention: the word array is shared between views and must not be
    written to, and bits beyond ``n_patterns`` in the final word are
    unspecified — consumers mask with :meth:`tail_mask`.
    """

    __slots__ = ("words", "n_patterns", "width")

    #: Bit-planes per word in ``words``: value, then care.
    m = 2

    def __init__(
        self, value: np.ndarray, care: np.ndarray, n_patterns: int
    ) -> None:
        value = np.asarray(value, dtype=np.uint64)
        care = np.asarray(care, dtype=np.uint64)
        if value.ndim != 2 or value.shape != care.shape:
            raise ValueError(
                f"plane shapes must match and be 2-D, got {value.shape} vs {care.shape}"
            )
        if not 0 <= n_patterns <= value.shape[1] * WORD_BITS:
            raise ValueError(
                f"{n_patterns} patterns do not fit in {value.shape[1]} words"
            )
        if bool(np.any(value & ~care)):
            raise ValueError(
                "plane invariant violated: value bits set on X lanes "
                "(value & ~care != 0)"
            )
        self.words = np.concatenate([value, care], axis=1)
        self.n_patterns = n_patterns
        self.width = int(value.shape[0])

    @property
    def value(self) -> np.ndarray:
        """The value plane, ``(width, n_words)``."""
        return self.words[:, : self.n_words]

    @property
    def care(self) -> np.ndarray:
        """The care plane, ``(width, n_words)``."""
        return self.words[:, self.n_words :]

    @classmethod
    def from_packed(cls, packed: PackedPatterns) -> "PackedPlanes":
        """Lift a 2-valued packed sequence: every valid pattern bit
        becomes a known 0/1 (care = 1), tail bits become X.  Lossless —
        :meth:`to_packed` returns the exact words back."""
        mask = packed.tail_mask()
        care = np.broadcast_to(mask, packed.words.shape).copy()
        return cls(packed.words & mask, care, packed.n_patterns)

    @classmethod
    def from_codes(cls, codes: np.ndarray) -> "PackedPlanes":
        """Pack a ``(width, n_patterns)`` three-valued code matrix
        (0/1/:data:`X_CODE`) into planes.  Inverse of :meth:`to_codes`."""
        codes = np.asarray(codes, dtype=np.uint8)
        if codes.ndim != 2:
            raise ValueError(f"codes must be 2-D, got shape {codes.shape}")
        if bool(np.any(codes > X_CODE)):
            raise ValueError(f"three-valued codes must be 0/1/{X_CODE}")
        v = _pack_bit_rows((codes == 1).astype(np.uint8))
        c = _pack_bit_rows((codes != X_CODE).astype(np.uint8))
        return cls(v, c, int(codes.shape[1]))

    def to_codes(self) -> np.ndarray:
        """The planes back as a ``(width, n_patterns)`` code matrix."""
        v = _unpack_bit_rows(self.value, self.n_patterns)
        c = _unpack_bit_rows(self.care, self.n_patterns)
        return np.where(c.astype(bool), v, np.uint8(X_CODE)).astype(np.uint8)

    def to_packed(self) -> PackedPatterns:
        """Drop back to the 2-valued carrier.

        Only valid for X-free data: every valid pattern bit must be a
        known 0/1.  Raises :class:`ValueError` when any X survives, so
        an unknown can never silently decay to a hard 0.
        """
        mask = self.tail_mask()
        if bool(np.any((self.care & mask) != mask)):
            raise ValueError(
                f"{self.x_count()} X lanes present; to_packed() requires "
                "fully known (2-valued) data"
            )
        return PackedPatterns(self.value & mask, self.n_patterns)

    @property
    def n_words(self) -> int:
        """Number of 64-pattern words per plane row."""
        return int(self.words.shape[1]) // 2

    def tail_mask(self) -> np.ndarray:
        """Per-word mask of valid pattern bits (see
        :meth:`PackedPatterns.tail_mask`)."""
        needed = n_words_for(self.n_patterns)
        if needed == self.n_words:
            return tail_mask(self.n_patterns)
        mask = np.zeros(self.n_words, dtype=np.uint64)
        mask[:needed] = tail_mask(self.n_patterns)
        return mask

    def x_count(self) -> int:
        """Number of X lanes across all rows and valid patterns."""
        unknown = ~self.care & self.tail_mask()
        return int(
            np.unpackbits(
                np.ascontiguousarray(unknown).view(np.uint8), bitorder="little"
            ).sum()
        )

    def __len__(self) -> int:
        return self.n_patterns

    def __bool__(self) -> bool:
        return self.n_patterns > 0

    def __repr__(self) -> str:
        return (
            f"PackedPlanes(n_patterns={self.n_patterns}, width={self.width}, "
            f"x_count={self.x_count()})"
        )


#: What simulator pattern arguments accept: an unpacked sequence or the
#: pre-packed form.
PatternsLike = Sequence[BitVector] | PackedPatterns


def as_packed(patterns: PatternsLike, width: int) -> PackedPatterns:
    """Coerce a pattern argument to :class:`PackedPatterns` (validating
    the width either way)."""
    if isinstance(patterns, PackedPatterns):
        if patterns.width != width:
            raise ValueError(
                f"packed patterns have width {patterns.width}, expected {width}"
            )
        return patterns
    return PackedPatterns.from_patterns(patterns, width)


#: What the fault simulator's pattern arguments accept: planes (run
#: 0/1/X), or any 2-valued pattern form (run 0/1, or lifted X-free via
#: ``PackedPlanes.from_packed`` by :func:`as_planes`).
PlanesLike = PackedPlanes | PackedPatterns | Sequence[BitVector]


def as_planes(patterns: PlanesLike, width: int) -> PackedPlanes:
    """Coerce a pattern argument to :class:`PackedPlanes` (validating
    the width either way).  2-valued input lifts X-free."""
    if isinstance(patterns, PackedPlanes):
        if patterns.width != width:
            raise ValueError(
                f"packed planes have width {patterns.width}, expected {width}"
            )
        return patterns
    return PackedPlanes.from_packed(as_packed(patterns, width))


def ints_to_bitvectors(values: Iterable[int], width: int) -> list[BitVector]:
    """Convenience: wrap integers as width-``width`` bit vectors."""
    return [BitVector(v, width) for v in values]


#: What response arguments accept: bit vectors, or the rows array of
#: :func:`response_rows`.
ResponsesLike = Sequence[BitVector] | np.ndarray


def response_rows(responses: ResponsesLike) -> np.ndarray:
    """Responses as a ``(n_patterns, n_bytes)`` ``uint8`` array: row
    ``p`` holds the big-endian bytes of response ``p``'s value with a
    marker bit set just above its width, so two rows are equal exactly
    when the responses are (unequal widths included).  ``n_bytes`` fits
    the widest response plus its marker.  An array passes through, so a
    sequence parsed once (:func:`parse_response_rows`) is never
    re-encoded."""
    if isinstance(responses, np.ndarray):
        return responses
    n_bytes = max((v._width for v in responses), default=0) // 8 + 1
    raw = b"".join(
        (v._value | 1 << v._width).to_bytes(n_bytes, "big") for v in responses
    )
    return np.frombuffer(raw, dtype=np.uint8).reshape(len(responses), n_bytes)


def parse_response_rows(texts: Sequence[str], width: int) -> np.ndarray:
    """:func:`response_rows` of 0/1 strings, most-significant bit first
    (as :meth:`BitVector.from_string` reads them), without a
    :class:`BitVector` per string.  Every string must be exactly
    ``width`` characters of ``0``/``1``; callers validate that first."""
    n_bytes = width // 8 + 1
    # Each row is its string behind zero padding and the marker, one
    # character per bit, most significant first; ``& 1`` maps '0'/'1'.
    lead = "0" * (8 * n_bytes - width - 1) + "1"
    raw = (lead + lead.join(texts) if texts else "").encode("ascii")
    bits = np.frombuffer(raw, dtype=np.uint8).reshape(len(texts), 8 * n_bytes) & 1
    return np.packbits(bits, axis=1)


def bank_digest(vectors: Iterable[BitVector]) -> str:
    """SHA-256 of a bit-vector bank: each vector's little-endian value
    bytes, in order."""
    digest = hashlib.sha256()
    for vector in vectors:
        digest.update(vector.value.to_bytes((vector.width + 7) // 8, "little"))
    return digest.hexdigest()
