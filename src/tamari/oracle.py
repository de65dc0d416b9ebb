"""Brute-force finite poset engine: the independent ground truth.

Elements are opaque keys; the only input is the order relation, as a dense
boolean matrix (`FinitePoset(elements, matrix)`) or as a leq predicate that
`FinitePoset.build` materializes into one.  Every matrix is checked against
the poset axioms.  Meets, joins, Mobius values and join irreducibles are
computed from the order alone, never from bracket-vector formulas.
`all_meets`/`all_joins` return N x N index tables in element order, with
-1 where no meet or join exists, found by hashing down-sets (up-sets) as
packed bit rows, once per unordered pair; the tests check both triangles
against a direct scan.  This module must not import the rest of the package.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


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
        both = self.leq & self.leq.T
        for i, j in zip(*np.nonzero(both)):
            if i != j:
                raise PosetError(
                    f"not antisymmetric: {self.elements[i]!r} and {self.elements[j]!r}"
                )
        closure = _bool_product(self.leq, self.leq)
        bad = closure & ~self.leq
        idx = np.argwhere(bad)
        if len(idx):
            i, j = idx[0]
            k = next(k for k in range(n) if self.leq[i, k] and self.leq[k, j])
            raise PosetError(
                f"not transitive: {self.elements[i]!r} <= {self.elements[k]!r} <= "
                f"{self.elements[j]!r} but not {self.elements[i]!r} <= {self.elements[j]!r}"
            )

    @cached_property
    def covers(self) -> np.ndarray:
        """[i, j] is True iff elements[j] covers elements[i]; computed on first read."""
        lt = self.leq & ~np.eye(len(self), dtype=bool)
        return lt & ~_bool_product(lt, lt)

    def __len__(self) -> int:
        return len(self.elements)

    def all_meets(self) -> np.ndarray:
        """Index table of all meets: [i, j] is the index of the meet of
        elements i and j, or -1.  The meet is the element whose down-set
        equals the intersection of theirs."""
        return _bound_table(self.leq.T)

    def all_joins(self) -> np.ndarray:
        """Index table of all joins, as `all_meets`, by up-sets."""
        return _bound_table(self.leq)

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
        by_covers = {
            self.elements[j]
            for j in range(len(self))
            if int(self.covers[:, j].sum()) == 1
        }
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


def _bool_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Boolean matrix product, as a float32 BLAS product: exact, since every
    entry counts at most N < 2**24 terms."""
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


# Fixed odd multiplier of the row hash (the 64-bit golden ratio).
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


def _row_keys(words: np.ndarray) -> np.ndarray:
    """One uint64 key per column of 64-bit words, the polynomial hash
    sum_w words[w] * M^(w+1) mod 2^64.  Distinct columns may share a key."""
    powers = np.cumprod(np.full(len(words), _HASH_MULT), dtype=np.uint64)
    return powers @ words


def _bound_table(sets: np.ndarray) -> np.ndarray:
    """[i, j] = the k whose row sets[k] equals sets[i] & sets[j], else -1.

    Rows are packed into 64-bit words, stored one row per column so that
    the per-row reductions run along the long axis, and hashed to uint64
    keys, sorted once.  For each row i the keys of the intersections
    sets[i] & sets[j], j >= i, are searched at once, and a hit counts only
    when the packed rows are equal; on a key that several rows share each
    of them is tried.  The rows are distinct (the relation is antisymmetric),
    so at most one matches; as & commutes, [j, i] mirrors [i, j].
    """
    n = len(sets)
    packed = np.packbits(sets, axis=1)
    words = np.zeros((n, -(-packed.shape[1] // 8)), dtype=np.uint64)
    words.view(np.uint8)[:, : packed.shape[1]] = packed
    words = np.ascontiguousarray(words.T)
    keys = _row_keys(words)
    order = np.argsort(keys)
    ranked = keys[order]
    out = np.full((n, n), -1, dtype=np.int32)
    for i in range(n):
        inter = words[:, i, None] & words[:, i:]  # column t is the pair (i, i+t)
        want = _row_keys(inter)
        pos = np.searchsorted(ranked, want)
        todo = np.arange(n - i)
        while len(todo):  # a second round only after a key collision
            todo = todo[pos[todo] < n]
            todo = todo[ranked[pos[todo]] == want[todo]]
            k = order[pos[todo]]
            exact = (words.take(k, axis=1) == inter.take(todo, axis=1)).all(axis=0)
            hit = i + todo[exact]
            out[i, hit] = out[hit, i] = k[exact]
            todo = todo[~exact]
            pos[todo] += 1
    return out
