"""Brute-force finite poset engine: the independent ground truth.

Elements are opaque keys; the only input is the order relation, as a dense
boolean matrix (`FinitePoset(elements, matrix)`) or as a leq predicate that
`FinitePoset.build` materializes into one.  Every matrix is checked against
the poset axioms.  Meets, joins, Mobius values and join irreducibles are
computed by direct order-theoretic scans, never from bracket-vector
formulas.  `all_meets`/`all_joins` return N x N index tables in element
order, with -1 where no meet or join exists, found by hashing down-sets
(up-sets) as packed bit rows.  This module must not import the rest of the
package.
"""

from __future__ import annotations

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
        lt = self.leq & ~np.eye(n, dtype=bool)
        self.covers = lt & ~_bool_product(lt, lt)
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

    def __len__(self) -> int:
        return len(self.elements)

    def le(self, a, b) -> bool:
        return bool(self.leq[self.index[a], self.index[b]])

    def bottom(self):
        hits = [e for k, e in enumerate(self.elements) if self.leq[k].sum() == len(self)]
        return hits[0] if len(hits) == 1 else None

    def top(self):
        hits = [e for k, e in enumerate(self.elements) if self.leq[:, k].sum() == len(self)]
        return hits[0] if len(hits) == 1 else None

    def cover_pairs(self) -> list:
        return [
            (self.elements[i], self.elements[j]) for i, j in zip(*np.nonzero(self.covers))
        ]

    def _extreme(self, candidates: np.ndarray, upper: bool):
        """Unique maximal (or minimal) element of a candidate set, else None."""
        idx = np.nonzero(candidates)[0]
        if len(idx) == 0:
            return None
        rel = self.leq[np.ix_(idx, idx)]
        if upper:
            best = [k for k in range(len(idx)) if rel[:, k].all()]
        else:
            best = [k for k in range(len(idx)) if rel[k, :].all()]
        return self.elements[idx[best[0]]] if len(best) == 1 else None

    def meet(self, a, b):
        """Greatest lower bound by direct scan, or None."""
        i, j = self.index[a], self.index[b]
        return self._extreme(self.leq[:, i] & self.leq[:, j], upper=True)

    def join(self, a, b):
        i, j = self.index[a], self.index[b]
        return self._extreme(self.leq[i, :] & self.leq[j, :], upper=False)

    def is_lattice(self) -> bool:
        return bool((self.all_meets() >= 0).all() and (self.all_joins() >= 0).all())

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


def _bound_table(sets: np.ndarray) -> np.ndarray:
    """[i, j] = the k whose row sets[k] equals sets[i] & sets[j], else -1.

    Rows are packed to bytes and compared as opaque keys: sorted once, then
    one vectorised searchsorted per row i.  The rows are distinct, because
    the relation is antisymmetric.
    """
    n = len(sets)
    packed = np.ascontiguousarray(np.packbits(sets, axis=1))
    key = np.dtype((np.void, packed.shape[1]))
    keys = packed.view(key).ravel()
    order = np.argsort(keys)
    ranked = keys[order]
    out = np.empty((n, n), dtype=np.int32)
    for i in range(n):
        want = (packed[i] & packed).view(key).ravel()
        pos = np.minimum(np.searchsorted(ranked, want), n - 1)
        out[i] = np.where(ranked[pos] == want, order[pos], -1)
    return out
