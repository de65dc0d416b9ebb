"""Seeded inputs for the benchmark, built without the tamari package.

Bracket vectors are n-tuples over [0, n-1] + {inf} (inf is `math.inf`)
satisfying, with 1-based positions,

  (i)  r_i <= r_j - (j-i) whenever i < j and r_j - (j-i) >= 0,
  (ii) a finite r_i >= i forces r_{n+i-r_i} = inf.

`legal_values` lists the values coordinate j may take given the earlier
ones.  Filling coordinates left to right never gets stuck: 0 satisfies (i)
against every earlier coordinate and is legal unless (ii) forces the
coordinate, and inf satisfies (i) always, so a forced coordinate can take
it.  A value chosen at j only ever forces a later coordinate.
"""

from __future__ import annotations

import math
import random
from math import inf as INF


def legal_values(prefix: list, n: int, forced) -> list:
    """Values coordinate j = len(prefix) (0-based) may take after `prefix`.

    By (i), an earlier r_i rules out the finite x with
    j-i <= x < r_i + (j-i) (all x >= j-i when r_i is inf).  By (ii), a
    finite x >= j+1 forces coordinate n+j-x, which lies after j.
    """
    j = len(prefix)
    if j in forced:
        return [INF]
    diff = [0] * (n + 1)
    for i, r in enumerate(prefix):
        lo = j - i
        hi = n if r == INF else min(n, r + lo)
        if lo < hi:
            diff[lo] += 1
            diff[hi] -= 1
    out = []
    blocked = 0
    for x in range(n):
        blocked += diff[x]
        if not blocked:
            out.append(x)
    out.append(INF)
    return out


def _forces(j: int, x, n: int):
    """The coordinate (0-based) that value x at coordinate j forces to inf, or None."""
    if x != INF and x >= j + 1:
        return n + j - x
    return None


def sample_vector(n: int, rng: random.Random) -> tuple:
    """One bracket vector, each coordinate uniform over its legal values."""
    prefix: list = []
    forced: set = set()
    for _ in range(n):
        x = rng.choice(legal_values(prefix, n, forced))
        k = _forces(len(prefix), x, n)
        if k is not None:
            forced.add(k)
        prefix.append(x)
    return tuple(prefix)


def all_vectors(n: int) -> list:
    """Every bracket vector, by exhaustive forward fill (lexicographic, inf last)."""
    out: list = []

    def rec(prefix: list, forced: frozenset) -> None:
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for x in legal_values(prefix, n, forced):
            k = _forces(len(prefix), x, n)
            prefix.append(x)
            rec(prefix, forced | {k} if k is not None else forced)
            prefix.pop()

    rec([], frozenset())
    return out


def is_valid(v: tuple, n: int) -> bool:
    """Conditions (i) and (ii) on a whole vector."""
    for j in range(n):
        for i in range(j):
            bound = v[j] - (j - i)
            if bound >= 0 and v[i] > bound:
                return False
    for i in range(n):
        k = _forces(i, v[i], n)
        if k is not None and v[k] != INF:
            return False
    return True


def _legal_at(v: tuple, n: int, k: int, x) -> bool:
    """Whether the valid vector v stays valid with coordinate k (finite in v) set to x.

    Only the constraints that involve coordinate k can change.  No
    coordinate forces k by (ii), since v[k] is finite and v is valid.
    """
    for i in range(k):
        bound = x - (k - i)
        if bound >= 0 and v[i] > bound:
            return False
    for j in range(k + 1, n):
        bound = v[j] - (j - k)
        if bound >= 0 and x > bound:
            return False
    forced = _forces(k, x, n)
    return forced is None or v[forced] == INF


def next_cover(v: tuple, n: int, k: int):
    """The valid vector v with coordinate k raised to its next legal value, or None."""
    if v[k] == INF:
        return None
    for x in list(range(int(v[k]) + 1, n)) + [INF]:
        if _legal_at(v, n, k, x):
            return v[:k] + (x,) + v[k + 1 :]
    return None


def upper_covers(v: tuple, n: int) -> list:
    """Every upper cover of the valid vector v, by coordinate."""
    return [w for k in range(n) if (w := next_cover(v, n, k)) is not None]


def random_cover(v: tuple, n: int, rng: random.Random):
    """An upper cover of v at a random coordinate, or None at the top."""
    ks = list(range(n))
    rng.shuffle(ks)
    for k in ks:
        w = next_cover(v, n, k)
        if w is not None:
            return w
    return None


def leq(a: tuple, b: tuple) -> bool:
    return all(x <= y for x, y in zip(a, b))


def in_tns(v: tuple, n: int, s) -> bool:
    return all(v[i - 1] != n - 1 for i in s)


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)
