"""Brute-force finite poset engine: the independent ground truth.

Elements are opaque keys; the only input is the order relation, as a dense
boolean matrix (`FinitePoset(elements, matrix)`) or as a leq predicate that
`FinitePoset.build` materializes into one.  Every matrix is checked against
the poset axioms.  Meets, joins, Mobius values and join irreducibles are
computed from the order alone, never from bracket-vector formulas, on one
representation: down-sets (up-sets) packed into uint64 words, row by row.
`meets_of`/`joins_of` answer a block of pairs, -1 where no meet or join
exists, so a caller can check each answer as it is made; `all_meets`/
`all_joins` fill N x N tables from them along `pair_blocks`, the one pair
walk of the package.  This module imports nothing from the package."""

from __future__ import annotations

from functools import cached_property

import numpy as np

# Pairs per block of `pair_blocks`: the block bounds the working arrays of a pass.
PAIR_BLOCK = 4096


class PosetError(ValueError):
    pass


class FinitePoset:
    def __init__(self, elements, leq_matrix):
        self.elements = list(elements)
        self.index = {e: k for k, e in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise PosetError("duplicate elements")
        self.leq = np.asarray(leq_matrix, dtype=bool)
        n = len(self.elements)
        if self.leq.shape != (n, n):
            raise PosetError(f"relation shape {self.leq.shape} != ({n}, {n})")
        self._validate()
        self._mobius_rows: dict[int, np.ndarray] = {}
        self._ranked: dict[bool, tuple] = {}  # per side, the packed rows of `_bounds`

    @classmethod
    def build(cls, elements, leq_predicate) -> "FinitePoset":
        elements = list(elements)
        n = len(elements)
        mat = np.zeros((n, n), dtype=bool)
        for i, a in enumerate(elements):
            for j, b in enumerate(elements):
                mat[i, j] = leq_predicate(a, b)
        return cls(elements, mat)

    def _validate(self) -> None:
        n = len(self.elements)
        for i in range(n):
            if not self.leq[i, i]:
                raise PosetError(f"not reflexive at {self.elements[i]!r}")
        lt = self.leq & ~np.eye(n, dtype=bool)
        both = np.argwhere(lt & lt.T)
        if len(both):
            i, j = both[0]
            raise PosetError(f"not antisymmetric: {self.elements[i]!r} and {self.elements[j]!r}")
        down = _pack(lt.T)  # strict down-sets
        deep = np.zeros_like(down)  # deep[x]: every k < y for some y < x
        for x, below in enumerate(lt.T):
            deep[x] = np.bitwise_or.reduce(down[below], axis=0)
        self._hasse = down & ~deep  # bit i of row j: j covers i
        bad = deep & ~down
        if bad.any():
            i, j = np.argwhere(_unpack(bad, n).T)[0]
            k = next(k for k in range(n) if self.leq[i, k] and self.leq[k, j])
            raise PosetError(
                f"not transitive: {self.elements[i]!r} <= {self.elements[k]!r} <= "
                f"{self.elements[j]!r} but not {self.elements[i]!r} <= {self.elements[j]!r}"
            )

    @cached_property
    def covers(self) -> np.ndarray:
        """[i, j] is True iff elements[j] covers elements[i]; computed on first read."""
        return _unpack(self._hasse, len(self)).T

    def __len__(self) -> int:
        return len(self.elements)

    def meets_of(self, i, j) -> np.ndarray:
        """Meets of elements i[m], j[m]: the one whose down-set is their intersection, or -1."""
        return self._bounds(False, i, j)

    def joins_of(self, i, j) -> np.ndarray:
        """The joins of elements i[m] and j[m], as `meets_of`, by up-sets."""
        return self._bounds(True, i, j)

    def all_meets(self) -> np.ndarray:
        """N x N table of `meets_of`, each unordered pair answered once."""
        return self._table(self.meets_of)

    def all_joins(self) -> np.ndarray:
        """N x N table of `joins_of`, as `all_meets`."""
        return self._table(self.joins_of)

    def _table(self, bounds_of) -> np.ndarray:
        n = len(self)
        out = np.empty((n, n), index_dtype(n))
        for i, j in pair_blocks(n):
            out[i, j] = out[j, i] = bounds_of(i, j)
        return out

    def _bounds(self, up: bool, i, j) -> np.ndarray:
        """The k whose row equals row i[m] & row j[m] of the up-sets (down-sets), else -1.

        The rows are ideals (filters), so only the largest-row k in an
        intersection can have it as its row, and by antisymmetry at most one
        does.  The columns are packed once, by decreasing row size (a stable
        argsort): the lowest set bit of an intersection, isolated as x & -x
        (a power of two that float64 holds exactly, for `np.frexp`), is that
        k, and it is the bound iff its row size equals the intersection's
        popcount (0 when empty).  The AND commutes: (i, j) and (j, i) agree.
        """
        if up not in self._ranked:
            sets = self.leq if up else self.leq.T
            size = sets.sum(axis=1)
            rank = np.argsort(-size, kind="stable")  # bit b stands for element rank[b]
            self._ranked[up] = size, rank, _pack(sets[:, rank])
        size, rank, words = self._ranked[up]
        inter = words[i] & words[j]
        w = (inter != 0).argmax(axis=1)  # the first nonzero word, or 0
        first = inter[np.arange(len(w)), w]
        k = rank[w * 64 + np.frexp(first & -first)[1] - 1]
        return np.where(size[k] == np.bitwise_count(inter).sum(axis=1), k, -1)

    def _mobius_row(self, i: int) -> np.ndarray:
        """mu(elements[i], -) by the standard recursion, in one sweep."""
        row = self._mobius_rows.get(i)
        if row is None:
            n = len(self)
            row = np.zeros(n, dtype=np.int64)
            order = np.argsort(self.leq.sum(axis=1))[::-1]  # linear extension
            for j in order:
                if not self.leq[i, j]:
                    continue
                if i == j:
                    row[j] = 1
                else:
                    below = self.leq[i, :] & self.leq[:, j]
                    below[j] = False
                    row[j] = -int(row[below].sum())
            self._mobius_rows[i] = row
        return row

    def mobius(self, a, b) -> int:
        i, j = self.index[a], self.index[b]
        if not self.leq[i, j]:
            raise PosetError(f"{a!r} is not below {b!r}")
        return int(self._mobius_row(i)[j])

    def join_irreducible_elements(self) -> set:
        """Elements with exactly one lower cover.

        Cross-checked against the order definition: an element with at
        least one strictly smaller element that is not the join of two
        strictly smaller ones.
        """
        by_covers = {self.elements[j] for j in np.flatnonzero(self.covers.sum(axis=0) == 1)}
        joins = self.all_joins()
        by_joins = set()
        for j, e in enumerate(self.elements):
            below = np.nonzero(self.leq[:, j])[0]
            below = below[below != j]
            if len(below) and not (joins[np.ix_(below, below)] == j).any():
                by_joins.add(e)
        if by_covers != by_joins:
            raise PosetError("join-irreducible characterizations disagree")
        return by_covers


def _pack(rows: np.ndarray) -> np.ndarray:
    """(N, W) little-endian uint64 words of an N x M bool array: column c
    is bit c % 64 of word c // 64.  Row-major, so a pair block gathers
    contiguous rows."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    packed = np.pad(packed, ((0, 0), (0, -packed.shape[1] % 8)))  # whole words
    return np.ascontiguousarray(packed).view("<u8")


def _unpack(words: np.ndarray, m: int) -> np.ndarray:
    """The N x m bool array that `_pack` packed into words."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=m, bitorder="little").view(bool)


def pair_blocks(size: int):
    """Yield (i, j) index arrays of the unordered pairs i <= j < size, in
    row-major order, PAIR_BLOCK pairs at a time; a block bounds the rows a
    caller gathers at once."""
    pairs = size * (size + 1) // 2
    starts = np.r_[0, np.arange(size, 1, -1).cumsum()]  # the place of pair (i, i), row-major
    for lo in range(0, pairs, PAIR_BLOCK):
        pos = np.arange(lo, min(lo + PAIR_BLOCK, pairs))
        i = starts.searchsorted(pos, "right") - 1  # the row that holds each pair
        yield i, pos - starts[i] + i


def index_dtype(size: int):
    """The integer type of an N x N index table: int16 while it holds every index."""
    return np.int16 if size < 2**15 else np.int32
