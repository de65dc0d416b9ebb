"""Bracket-vector coordinates for the type-B Tamari lattice.

A bracket vector is an n-tuple over [0, n-1] + {inf} satisfying

  (i)  for 1 <= i < j <= n:  r_i <= r_j - (j-i) whenever r_j - (j-i) >= 0,
  (ii) if inf > r_i >= i then r_{n+i-r_i} = inf.

Entry r_i records the counter-clockwise reach of the scan chord C_i, with
inf marking chords that cross to the barred side.  The componentwise order
on valid vectors is the Tamari order; meet and join are computed through
the kernel/closure maps `down` and `up`.

`up` and `down` have two forms.  `_up`/`_down` work on one list, and
`meet`/`join` on one pair of vectors: every single operation (the CLI,
`tamari.meet`, the per-element steps of the suites) takes this route, at
any n.  `_up_rows`/`_down_rows` run the same per-coordinate loops on an
(m, n) float array, one numpy step for all m rows, and `meet_rows`/
`join_rows` pair row k of a (or one vector a) with row k of rows:
`shelling.op_tables` and the lattice and congruence suites of `verify`
take a block of pairs per call.  The row form costs O(n^2) numpy calls
per call, so it pays only when it serves many rows at once.

Validity is decided in O(n log n): condition (i) by the monotonic-stack
pass `_holds_i`, condition (ii) by one linear scan.  Only a vector that
breaks (i) is scanned pair by pair, to name the first failing pair in the
error, so the witness `violation` reports is that of the pair scan.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from math import inf as INF

from .polygon import ccw_distance, chord, chord_partner, n_vertices
from .tri_b import TriangulationB, c_i, from_red_set

Vector = tuple


def entry_to_json(x):
    return "inf" if x == INF else int(x)


def entry_from_json(x):
    if x == "inf":
        return INF
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"bracket entry must be an integer or \"inf\", got {x!r}")
    return x


def vector_to_json(v: Vector) -> list:
    return [entry_to_json(x) for x in v]


def vector_from_json(data) -> Vector:
    return tuple(entry_from_json(x) for x in data)


def _in_range(v: Vector, n: int) -> Vector:
    """v, once it has n entries, each in [0, n-1] + {inf}."""
    if len(v) != n or not all(x == INF or (isinstance(x, int) and 0 <= x <= n - 1) for x in v):
        raise ValueError(f"entries out of range for n={n}: {v}")
    return v


def _holds_i(v: Vector) -> bool:
    """Condition (i) in one left-to-right pass, O(n log n).

    (i) says v_i - i <= v_j - j for every i in [j - v_j, j - 1] when v_j is
    finite, so each j needs only the maximum of v_i - i over that window.
    The stack holds the indices whose v_i - i exceeds that of every later
    index so far (indices rising, values falling); the window maximum is
    its first entry at or after j - v_j, found by `bisect`.
    """
    idx: list[int] = []
    val: list = []
    for j, x in enumerate(v):
        d = x - j
        if x != INF:
            k = bisect_left(idx, j - x)
            if k < len(idx) and val[k] > d:
                return False
        while val and val[-1] <= d:
            idx.pop()
            val.pop()
        idx.append(j)
        val.append(d)
    return True


def _witness_i(v: Vector, n: int):
    """The first condition (i) pair (i, j), 1-based, or None.

    `_holds_i` decides; the pair scan runs only on a vector that breaks (i),
    to name its first pair in (i, j) order.
    """
    if _holds_i(v):
        return None
    for i, j in itertools.combinations(range(n), 2):
        bound = v[j] - (j - i)
        if bound >= 0 and v[i] > bound:
            return (i + 1, j + 1)
    return None


def _witness_ii(v: Vector, n: int):
    """The first condition (ii) index i, 1-based, or None."""
    for i in range(n):
        if v[i] != INF and v[i] >= i + 1 and v[n + i - v[i]] != INF:
            return i + 1
    return None


def violation(v: Vector, n: int):
    """First violated validity condition, or None.

    Returns ("i", (i, j)) for a condition (i) witness pair or ("ii", i) for
    a condition (ii) witness index, with 1-based positions.
    """
    if (w := _witness_i(_in_range(v, n), n)) is not None:
        return ("i", w)
    w = _witness_ii(v, n)
    return None if w is None else ("ii", w)


def is_valid(v: Vector, n: int) -> bool:
    return violation(v, n) is None


def in_m1(v: Vector, n: int) -> bool:
    """Condition (i) alone."""
    return _witness_i(_in_range(v, n), n) is None


def in_m2(v: Vector, n: int) -> bool:
    """Condition (ii) alone."""
    return _witness_ii(_in_range(v, n), n) is None


def _check_valid(v: Vector, n: int) -> Vector:
    w = violation(v, n)
    if w is not None:
        raise ValueError(f"invalid bracket vector {v}: condition {w[0]} at {w[1]}")
    return v


def vectors_with(n: int, values):
    """Every valid n-vector whose coordinate k is taken from values[k], in list order.

    Coordinates are set left to right, each checked by `fits_at` against the
    earlier ones only.  Every constraint is checked once its later
    coordinate is set, so every vector listed is valid, and a prefix that
    breaks a constraint is dropped before it grows.  The values need not
    cover [0, n-1] + {inf}: T_n^S and the type-A lattice are listed by
    narrowing them.
    """
    v: list = [None] * n

    def fill(k: int):
        if k == n:
            yield tuple(v)
            return
        for x in values[k]:
            if fits_at(v, n, k, x):
                v[k] = x
                yield from fill(k + 1)
        v[k] = None

    return fill(0)


def enumerate_vectors(n: int) -> list[Vector]:
    """All valid bracket vectors, lexicographically (inf sorts last)."""
    return list(vectors_with(n, [[*range(n), INF]] * n))


def encode(t: TriangulationB) -> Vector:
    """Bracket vector of a triangulation (inf when the reach exceeds n-1)."""
    n = t.n
    out = []
    for i in range(1, n + 1):
        c = c_i(t, i)
        if c is None:
            out.append(0)
            continue
        far = c[1] if c[0] == i - 1 else c[0]
        d = ccw_distance((i - 2) % n_vertices(n), far, n)
        out.append(d if d <= n - 1 else INF)
    return tuple(out)


def scan_chords(v: Vector, n: int) -> list:
    """The chords C_i determined by a valid vector (None for edge segments)."""
    _check_valid(v, n)
    m = n_vertices(n)
    out = []
    for i in range(1, n + 1):
        r = v[i - 1]
        if r == 0:
            out.append(None)
        elif r != INF:
            out.append(chord(i - 1, (i - 1 - (r + 1)) % m))
        else:
            j = next(j for j in range(1, n + 1) if v[j - 1] - j >= n - i)
            out.append(chord(i - 1, n + j))
    return out


def decode(v: Vector, n: int) -> TriangulationB:
    """Triangulation with bracket vector v: rebuild C_i, then green-complete."""
    reds: set = set()
    for c in scan_chords(v, n):
        if c is not None:
            reds.add(c)
            reds.add(chord_partner(c, n))
    return from_red_set(n, reds)


def leq(a: Vector, b: Vector) -> bool:
    return all(x <= y for x, y in zip(a, b, strict=True))


def fits_at(v: Vector, n: int, k: int, x) -> bool:
    """Whether setting coordinate k (0-based) of v to x breaks no constraint at k.

    Checks only what involves coordinate k: the condition (i) pairs (i, k)
    and (k, j), condition (ii) at k, and the condition (ii) references that
    land on k, in O(n).  Entries of v equal to None are unset and constrain
    nothing.  For a valid v this equals `is_valid(v[:k] + (x,) + v[k+1:], n)`,
    because every other constraint is one v already satisfies.  It checks
    partial vectors: `vectors_with` and `psi_inverse`'s free coordinates
    use it; the covers take the next legal value from `_next_value`.
    """
    if x != INF:
        # (i) with k as the larger index; the bound falls as i moves left
        for i in range(k - 1, max(k - 1 - x, -1), -1):
            if v[i] is not None and v[i] > x - (k - i):
                return False
        # (ii) at k
        if x >= k + 1 and v[n + k - x] not in (None, INF):
            return False
        # (ii) at some i < k whose reference n+i-v_i is k
        for i in range(k):
            if v[i] == n + i - k:
                return False
    for j in range(k + 1, n):
        # (i) with k as the smaller index
        if v[j] is not None and x > v[j] - (j - k) >= 0:
            return False
    return True


def _next_value(v: Vector, n: int, k: int, bound):
    """Smallest legal value above a finite v_k at coordinate k of a valid v, or None.

    bound is U_k, the least v_j - (j - k) >= 0 over j > k (inf when there
    is none): condition (i) caps every value there, and inf is legal only
    when U_k is inf.  The finite scan starts at v_k + 1; each step either
    takes one more i into the condition-(i) window [k - x, k - 1], whose
    v_i + k - i the value must reach (so x jumps there), or moves past an
    x >= k + 1 whose reference v_{n+k-x} is finite (condition (ii) at k).
    Validity spares two checks: indices above k - v_k - 1 already meet
    (i) against v_k, and no earlier v_i = n + i - k refers to k through
    condition (ii), since that would force v_k = inf.
    """
    x, top = v[k] + 1, min(bound, n - 1)
    i = k - x
    while x <= top:
        if 0 <= i and k - x <= i:
            x = max(x, v[i] + k - i)
            i -= 1
        elif x > k and v[n + k - x] != INF:
            x += 1
        else:
            return x
    return INF if bound == INF else None


def _next_value_at(v: Vector, n: int, k: int):
    """`_next_value` for one coordinate of a valid v, or None at inf; O(n)."""
    if v[k] == INF:
        return None
    bound = min((v[j] - j + k for j in range(k + 1, n) if v[j] - j + k >= 0), default=INF)
    return _next_value(v, n, k, bound)


def upper_covers(v: Vector, n: int) -> list[Vector]:
    """Covers differ in one coordinate, raised to the next legal value.

    v is validated once.  One right-to-left pass keeps the finite v_j - j
    of j > k sorted, so `bisect` gives every U_k for `_next_value`.
    """
    _check_valid(v, n)
    bounds: list = [INF] * n
    later: list = []
    for k in range(n - 1, -1, -1):
        p = bisect_left(later, -k)
        if p < len(later):
            bounds[k] = later[p] + k
        if v[k] != INF:
            insort(later, v[k] - k)
    out = []
    for k, x in enumerate(v):
        if x != INF and (y := _next_value(v, n, k, bounds[k])) is not None:
            out.append(v[:k] + (y,) + v[k + 1 :])
    return out


def covers(a: Vector, b: Vector, n: int) -> bool:
    """True iff b covers a; both are validated in full, then `_covers` decides."""
    return _covers(_check_valid(a, n), _check_valid(b, n), n)


def _covers(a: Vector, b: Vector, n: int) -> bool:
    """`covers` without its checks: a and b must be valid.

    b covers a iff one coordinate differs, raised to its next legal value
    (`_next_value_at`).
    """
    diffs = [k for k in range(n) if a[k] != b[k]]
    if len(diffs) != 1:
        return False
    k = diffs[0]
    return a[k] < b[k] and _next_value_at(a, n, k) == b[k]


def up(f: Vector, n: int) -> Vector:
    """Closure: the minimum valid vector componentwise above f in M^(ii).

    Inductive reading of the raise recurrence: g_i is the max of f_i and
    g_{i-j} + j over 1 <= j <= min(f_i, i-1), with finite values at or
    above n clamped to inf.
    """
    if not in_m2(f, n):
        raise ValueError(f"up is only defined on vectors satisfying (ii): {f}")
    return _check_valid(_up(list(f), n), n)


def _up(g: list, n: int) -> Vector:
    """`up` without its checks, in place on g: a fresh M^(ii) list, entries in [0, n-1] + {inf}.
    Safe: g_i reads only g_{i-j} with j >= 1, already final.  g_0 never changes."""
    for i in range(1, n):
        x = g[i]
        if x < n:
            j = x if x < i else i
            while j:
                if g[i - j] + j > x:
                    x = g[i - j] + j
                j -= 1
            g[i] = x if x < n else INF
    return tuple(g)


def down(f: Vector, n: int) -> Vector:
    """Kernel: the maximum valid vector componentwise below f in M^(i).

    g_i = f_i unless f_i is finite, f_i >= i, and f_{n+i-f_i} != inf; then
    g_i drops to the largest value x < f_i with f_{n+i-x} = inf or x < i.
    """
    if not in_m1(f, n):
        raise ValueError(f"down is only defined on vectors satisfying (i): {f}")
    return _check_valid(_down(list(f), n), n)


def _down(g: list, n: int) -> Vector:
    """`down` without its checks, in place on g: a fresh M^(i) list, entries in [0, n-1] + {inf}.
    Safe: step i writes only g_i and reads only g_{n+i-x} with x > i, not yet written."""
    for i in range(n):
        x = g[i]
        if i < x < n:
            while x > i and g[n + i - x] < n:
                x -= 1
            g[i] = x
    return tuple(g)


def _up_rows(g, n: int):
    """`_up` on every row of g at once, in place: an (m, n) float array of M^(ii) rows.

    The loops of `_up`, with the max over j masked by j <= f_i, f_i the
    entry before step i; only entries that start finite are clamped to inf.
    """
    for i in range(1, n):
        col = g[:, i]  # a view: step i writes column i
        f = col.copy()
        for j in range(1, i + 1):
            reach = g[:, i - j] + j
            higher = (j <= f) & (reach > col)
            col[higher] = reach[higher]
        col[(f < n) & (col >= n)] = INF
    return g


def _down_rows(g, n: int):
    """`_down` on every row of g at once, in place: an (m, n) float array of M^(i) rows.

    The `while` of `_down` stops at the largest x <= f_i with x = i or
    g_{n+i-x} = inf: with t = n+i-x, the smallest t >= n+i-f_i among
    i+1..n-1 with g_t = inf, else x = i.  A masked sweep from t = n-1 down
    to i+1 leaves that t's value last.  Only entries with i < f_i < n move.
    """
    for i in range(n - 1):  # at i = n-1 no finite entry exceeds i
        col = g[:, i]
        reach = col.copy()
        reach[(reach <= i) | (reach >= n)] = -1  # matches no t below
        col[reach > i] = i
        for t in range(n - 1, i, -1):
            col[(g[:, t] == INF) & (reach >= n + i - t)] = n + i - t
    return g


def meet(a: Vector, b: Vector, n: int) -> Vector:
    """`_down` in place on a fresh componentwise-min list, which satisfies (i) for valid inputs.
    It checks nothing, so it is defined only on valid inputs; `tamari.meet` checks them."""
    return _down([x if x < y else y for x, y in zip(a, b, strict=True)], n)


def join(a: Vector, b: Vector, n: int) -> Vector:
    """`_up` in place on a fresh componentwise-max list, which satisfies (ii) for valid inputs.
    It checks nothing, so it is defined only on valid inputs; `tamari.join` checks them."""
    return _up([x if x > y else y for x, y in zip(a, b, strict=True)], n)


def meet_rows(a, rows, n: int):
    """`meet` of a, one vector or an array aligned with rows, with each row of
    rows, an (m, n) float array of valid vectors: `_down_rows` on their min."""
    import numpy as np

    return _down_rows(np.minimum(rows, a), n)


def join_rows(a, rows, n: int):
    """`join` of a with each row of rows, pairwise as `meet_rows`: `_up_rows`
    on their componentwise max."""
    import numpy as np

    return _up_rows(np.maximum(rows, a), n)


def bottom_vector(n: int) -> Vector:
    return (0,) * n


def top_vector(n: int) -> Vector:
    return (INF,) * n
