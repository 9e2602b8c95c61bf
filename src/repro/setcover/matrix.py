"""The covering-matrix data structure: a packed bit matrix.

A :class:`CoverMatrix` stores the covering table as packed ``uint64``
words in the :class:`~repro.utils.bitvec.PackedPatterns` word layout,
twice: row-major (``bits``: row ``i``, column ``j`` at bit ``j % 64`` of
word ``j // 64``) and column-major (``bits_t``, the packed transpose).
The reduction rules of Section 3.2 ask both "which columns does this
row cover" and "which rows cover this column", and each question is a
word operation on one of the two copies.

Rows and columns keep their original integer ids (``row_ids`` /
``column_ids``, ascending), so solutions survive reduction.  Removing a
row or column never touches the bits: it clears the row's bit in the
``live_rows`` mask (or the column's in ``live_columns``) and updates
``row_counts`` / ``column_counts``, the number of live cells in each
row and column (meaningful for live rows and columns only).  The bits
are immutable and shared by :meth:`CoverMatrix.copy`, which copies only
the masks and counts.

The reducer (:mod:`repro.setcover.reduce`) works on the words.  The
core solvers read the surviving matrix through :attr:`CoverMatrix.rows`
/ :attr:`CoverMatrix.columns` (read-only id -> frozenset snapshots in
ascending id order, rebuilt after a mutation) or
:meth:`CoverMatrix.to_bool_array`.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.utils.bitvec import n_words_for
from repro.utils.kernels import kernel


@kernel
def pack_bool_rows(array: np.ndarray) -> np.ndarray:
    """Pack a 2-D boolean array row by row into ``(n_rows, n_words)``
    ``uint64`` words: column ``j`` at bit ``j % 64`` of word ``j // 64``,
    bits past the last column zero."""
    n_rows, n_columns = array.shape
    packed = np.zeros((n_rows, 8 * n_words_for(n_columns)), dtype=np.uint8)
    packed[:, : (n_columns + 7) // 8] = np.packbits(
        array, axis=1, bitorder="little"
    )
    return packed.view(np.dtype("<u8")).astype(np.uint64, copy=False)


@kernel
def unpack_bool_rows(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Inverse of :func:`pack_bool_rows`: ``(n, n_words)`` words back to
    an ``(n, n_bits)`` boolean array."""
    byte_view = (
        np.ascontiguousarray(words)
        .astype(np.dtype("<u8"), copy=False)
        .view(np.uint8)
        .reshape(words.shape[0], 8 * words.shape[1])
    )
    return np.unpackbits(
        byte_view, axis=1, count=n_bits, bitorder="little"
    ).astype(bool)


@kernel
def bit_positions(words: np.ndarray, n_bits: int) -> np.ndarray:
    """Ascending positions of the set bits of one packed word row."""
    byte_view = (
        np.ascontiguousarray(words).astype(np.dtype("<u8"), copy=False).view(np.uint8)
    )
    return np.flatnonzero(
        np.unpackbits(byte_view, count=n_bits, bitorder="little")
    )


@kernel
def first_set_bits(words: np.ndarray) -> np.ndarray:
    """Position of the lowest set bit of each (non-zero) word row."""
    word = np.argmax(words != 0, axis=1)
    lowest = words[np.arange(words.shape[0], dtype=np.int64), word]
    low_bit = lowest & (~lowest + np.uint64(1))
    return word * 64 + np.bitwise_count(low_bit - np.uint64(1)).astype(np.int64)


@kernel
def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Set bits per word row, as ``int64``."""
    return np.bitwise_count(words).sum(axis=-1, dtype=np.int64)


@kernel
def disjoint_rows(words: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """For each word row: True when it shares no set bit with ``mask``."""
    return ~np.any(words & mask, axis=-1)


def _clear_bit(mask: np.ndarray, position: int) -> None:
    mask[position >> 6] &= ~(np.uint64(1) << np.uint64(position & 63))


def _test_bit(mask: np.ndarray, position: int) -> bool:
    return bool((mask[position >> 6] >> np.uint64(position & 63)) & np.uint64(1))


def _snapshot(
    keys: np.ndarray, members: np.ndarray, dense: np.ndarray
) -> Mapping[int, frozenset[int]]:
    return MappingProxyType(
        {
            key: frozenset(members[np.flatnonzero(line)].tolist())
            for key, line in zip(keys.tolist(), dense)
        }
    )


class CoverMatrix:
    """A unate covering instance (see the module docstring for the
    layout).

    ``rows`` maps row id -> frozenset of the live column ids it covers;
    ``columns`` maps column id -> frozenset of the live row ids covering
    it.  Both are snapshots of the live matrix; mutate through
    :meth:`remove_row`, :meth:`remove_column` and :meth:`select_row`.
    """

    def __init__(
        self,
        array: np.ndarray,
        row_ids: Sequence[int],
        column_ids: Sequence[int],
    ) -> None:
        """``array`` is the boolean ``(n_rows, n_columns)`` table whose
        rows and columns carry the ascending ids ``row_ids`` and
        ``column_ids``."""
        self.row_ids = np.asarray(row_ids, dtype=np.int64)
        self.column_ids = np.asarray(column_ids, dtype=np.int64)
        if array.shape != (len(self.row_ids), len(self.column_ids)):
            raise ValueError(
                f"array shape {array.shape} does not match "
                f"{len(self.row_ids)} row ids x {len(self.column_ids)} column ids"
            )
        self.bits = pack_bool_rows(array)
        self.bits_t = pack_bool_rows(array.T)
        self.live_rows = pack_bool_rows(np.ones((1, len(self.row_ids)), dtype=bool))[0]
        self.live_columns = pack_bool_rows(
            np.ones((1, len(self.column_ids)), dtype=bool)
        )[0]
        self.row_counts = popcount_rows(self.bits)
        self.column_counts = popcount_rows(self.bits_t)
        self._rows_view: Mapping[int, frozenset[int]] | None = None
        self._columns_view: Mapping[int, frozenset[int]] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def from_bool_array(cls, array: np.ndarray) -> "CoverMatrix":
        """Build from a boolean array with shape (n_rows, n_columns);
        rows and columns are numbered from 0."""
        array = np.asarray(array, dtype=bool)
        if array.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {array.shape}")
        n_rows, n_columns = array.shape
        return cls(array, np.arange(n_rows), np.arange(n_columns))

    @classmethod
    def from_row_sets(
        cls, row_sets: Mapping[int, Iterable[int]], n_columns: int | None = None
    ) -> "CoverMatrix":
        """Build from explicit row -> columns sets.

        ``n_columns`` adds empty columns ``0..n_columns-1`` even when no
        row covers them (an infeasible instance, detected by solvers).
        """
        items = sorted((int(r), [int(c) for c in cols]) for r, cols in row_sets.items())
        column_ids = sorted(
            {c for _, cols in items for c in cols}.union(range(n_columns or 0))
        )
        position = {c: i for i, c in enumerate(column_ids)}
        array = np.zeros((len(items), len(column_ids)), dtype=bool)
        for index, (_, cols) in enumerate(items):
            array[index, [position[c] for c in cols]] = True
        return cls(array, [r for r, _ in items], column_ids)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def n_rows(self) -> int:
        """Number of (surviving) rows."""
        return int(popcount_rows(self.live_rows))

    @property
    def n_columns(self) -> int:
        """Number of (surviving) columns."""
        return int(popcount_rows(self.live_columns))

    @property
    def shape(self) -> tuple[int, int]:
        """(n_rows, n_columns)."""
        return (self.n_rows, self.n_columns)

    def live_row_positions(self) -> np.ndarray:
        """Positions (indices into ``row_ids``) of the surviving rows."""
        return bit_positions(self.live_rows, len(self.row_ids))

    def live_column_positions(self) -> np.ndarray:
        """Positions (indices into ``column_ids``) of the surviving columns."""
        return bit_positions(self.live_columns, len(self.column_ids))

    def row_is_live(self, position: int) -> bool:
        """Does the row at ``position`` survive?"""
        return _test_bit(self.live_rows, position)

    def column_is_live(self, position: int) -> bool:
        """Does the column at ``position`` survive?"""
        return _test_bit(self.live_columns, position)

    def alive_row_ids(self) -> list[int]:
        """Ids of the surviving rows, ascending."""
        return self.row_ids[self.live_row_positions()].tolist()

    def alive_column_ids(self) -> list[int]:
        """Ids of the surviving columns, ascending."""
        return self.column_ids[self.live_column_positions()].tolist()

    def to_bool_array(self) -> np.ndarray:
        """The surviving rows x surviving columns as a dense boolean
        array, both axes in ascending id order."""
        rows = self.bits[self.live_row_positions()]
        return unpack_bool_rows(rows, len(self.column_ids))[
            :, self.live_column_positions()
        ]

    @property
    def rows(self) -> Mapping[int, frozenset[int]]:
        """Read-only snapshot: surviving row id -> covered column ids."""
        if self._rows_view is None:
            self._rows_view = _snapshot(
                self.row_ids[self.live_row_positions()],
                self.column_ids[self.live_column_positions()],
                self.to_bool_array(),
            )
        return self._rows_view

    @property
    def columns(self) -> Mapping[int, frozenset[int]]:
        """Read-only snapshot: surviving column id -> covering row ids."""
        if self._columns_view is None:
            self._columns_view = _snapshot(
                self.column_ids[self.live_column_positions()],
                self.row_ids[self.live_row_positions()],
                self.to_bool_array().T,
            )
        return self._columns_view

    def is_empty(self) -> bool:
        """True when no columns remain to cover."""
        return not self.live_columns.any()

    def is_feasible(self) -> bool:
        """Every column has at least one covering row."""
        return bool(self.column_counts[self.live_column_positions()].all())

    def uncoverable_columns(self) -> list[int]:
        """Columns no row covers (infeasibility witnesses)."""
        columns = self.live_column_positions()
        return self.column_ids[columns[self.column_counts[columns] == 0]].tolist()

    def validate_solution(self, selected: Iterable[int]) -> bool:
        """True iff the selected rows cover every column."""
        covered = np.zeros_like(self.live_columns)
        for row_id in set(selected):
            try:
                covered |= self.bits[self.row_position(row_id)]
            except KeyError:
                return False
        return not (self.live_columns & ~covered).any()

    def copy(self) -> "CoverMatrix":
        """An independent copy: masks and counts are copied, the
        immutable bits and ids are shared."""
        clone = object.__new__(CoverMatrix)
        clone.__dict__.update(self.__dict__)
        clone.live_rows = self.live_rows.copy()
        clone.live_columns = self.live_columns.copy()
        clone.row_counts = self.row_counts.copy()
        clone.column_counts = self.column_counts.copy()
        return clone

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------

    def remove_row(self, row_id: int) -> None:
        """Delete a row."""
        self.drop_row_at(self.row_position(row_id))

    def remove_column(self, column_id: int) -> None:
        """Delete a column."""
        self.drop_column_at(self.column_position(column_id))

    def select_row(self, row_id: int) -> set[int]:
        """Commit a row to the solution: delete it and every column it
        covers; returns the columns removed."""
        covered = self.select_rows_at(np.array([self.row_position(row_id)]))
        return set(
            self.column_ids[bit_positions(covered, len(self.column_ids))].tolist()
        )

    def drop_row_at(self, position: int) -> None:
        """Delete the live row at ``position``."""
        self.column_counts -= unpack_bool_rows(
            (self.bits[position] & self.live_columns)[None], len(self.column_ids)
        )[0]
        _clear_bit(self.live_rows, position)
        self._rows_view = self._columns_view = None

    def drop_column_at(self, position: int) -> None:
        """Delete the live column at ``position``."""
        self.row_counts -= unpack_bool_rows(
            (self.bits_t[position] & self.live_rows)[None], len(self.row_ids)
        )[0]
        _clear_bit(self.live_columns, position)
        self._rows_view = self._columns_view = None

    def select_rows_at(self, positions: np.ndarray) -> np.ndarray:
        """Commit the live rows at ``positions``: delete them and every
        live column they cover; returns the deleted columns as a packed
        mask.  Only live rows' counts are kept up to date, so the dead
        rows' and columns' counts are left as they are."""
        covered = np.bitwise_or.reduce(self.bits[positions], axis=0) & self.live_columns
        self.row_counts -= popcount_rows(self.bits & covered)
        self.live_columns &= ~covered
        chosen = np.zeros((1, len(self.row_ids)), dtype=bool)
        chosen[0, positions] = True
        self.live_rows &= ~pack_bool_rows(chosen)[0]
        self._rows_view = self._columns_view = None
        return covered

    def row_position(self, row_id: int) -> int:
        """Position of the live row ``row_id``; KeyError if absent."""
        return _live_position(self.row_ids, self.live_rows, row_id)

    def column_position(self, column_id: int) -> int:
        """Position of the live column ``column_id``; KeyError if absent."""
        return _live_position(self.column_ids, self.live_columns, column_id)

    def __repr__(self) -> str:
        return f"CoverMatrix({self.n_rows} rows x {self.n_columns} columns)"


def _live_position(ids: np.ndarray, live: np.ndarray, key: int) -> int:
    """Position of the live id ``key``; KeyError when absent or removed."""
    position = int(np.searchsorted(ids, key))
    if position == len(ids) or ids[position] != key or not _test_bit(live, position):
        raise KeyError(key)
    return position
