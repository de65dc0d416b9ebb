"""Vertex and chord model for the labelled polygons.

Type B lives on a (2n+2)-gon whose vertices are numbered clockwise 1..n+1
and then 1bar..(n+1)bar.  Internally a vertex is just its circular index
0..2n+1 (clockwise); the barred/unbarred labels are a presentation layer.
Index k < n+1 is the unbarred vertex k+1, index k >= n+1 is the barred
vertex k-n.  Labels serialize as strings: "3" unbarred, "-3" barred.

`Triangulation` is the chord-set core that type A (m = n+3) and type B
(m = 2n+2) share: the m - 3 count, the crossing check, `ends` and apexes.

Everything here is pure integer arithmetic on cyclic orders; there is no
floating-point geometry.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

Chord = tuple[int, int]


def n_vertices(n: int) -> int:
    return 2 * n + 2


def is_barred(idx: int, n: int) -> bool:
    return idx >= n + 1


def label_value(idx: int, n: int) -> int:
    """The numeric part of the label at a circular index."""
    return idx + 1 if idx < n + 1 else idx - n


def label_of(idx: int, n: int) -> str:
    v = label_value(idx, n)
    return str(-v) if is_barred(idx, n) else str(v)


def json_int(x, what: str) -> int:
    """x itself if it is an integer; a boolean or a float raises ValueError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{what} must be an integer, got {x!r}")
    return x


def json_n(x) -> int:
    """The size n of a JSON object: an integer of at least 1, else ValueError."""
    if json_int(x, "n") < 1:
        raise ValueError(f"n must be at least 1, got {x}")
    return x


def idx_of(label: str | int, n: int) -> int:
    """Parse a label ("3", "-3", or the signed integer) to a circular index."""
    v = int(label) if isinstance(label, str) else json_int(label, "a vertex label")
    if v == 0 or abs(v) > n + 1:
        raise ValueError(f"label {label!r} out of range for n={n}")
    return v - 1 if v > 0 else n - v


def partner_idx(idx: int, n: int) -> int:
    """Image of a vertex under the half-turn rotation."""
    return (idx + n + 1) % (2 * n + 2)


def chord(a: int, b: int) -> Chord:
    if a == b:
        raise ValueError("chord endpoints must be distinct")
    return (a, b) if a < b else (b, a)


def chord_partner(c: Chord, n: int) -> Chord:
    a, b = c
    return chord(partner_idx(a, n), partner_idx(b, n))


def is_side(c: Chord, m: int) -> bool:
    """True iff the chord joins two neighbours of the m-gon."""
    a, b = c
    return (b - a) % m in (1, m - 1)


def chord_kind(c: Chord, n: int) -> str:
    """One of "pure-unbarred", "pure-barred", "mixed"."""
    a, b = c
    ab, bb = is_barred(a, n), is_barred(b, n)
    if ab and bb:
        return "pure-barred"
    if not ab and not bb:
        return "pure-unbarred"
    return "mixed"


def crosses(c1: Chord, c2: Chord) -> bool:
    """True iff the open segments cross.

    With endpoints sorted, two chords of a convex polygon cross exactly when
    their endpoints interleave; chords sharing an endpoint never cross.
    This pair test is the witness: callers decide with `noncrossing` and
    scan pairs with `crosses` only to name a crossing pair.
    """
    a, b = c1
    c, d = c2
    if len({a, b, c, d}) < 4:
        return False
    return (a < c < b < d) or (c < a < d < b)


def noncrossing(chords) -> bool:
    """True iff no two of the chords (a, b), a < b, cross; one stack pass.

    Sorted by (a, -b), the chords still open at a are the stacked right
    ends above a, the innermost on top.  A chord crosses one of them
    exactly when the top lies strictly between its ends.  Equal to
    `not any(crosses(c1, c2))` over all pairs, in O(m log m).
    """
    ends: list[int] = []
    for a, b in sorted(chords, key=lambda c: (c[0], -c[1])):
        while ends and ends[-1] <= a:
            ends.pop()
        if ends and ends[-1] < b:
            return False
        ends.append(b)
    return True


def innermost_cut(cuts, m: int) -> list[int]:
    """For each point 0..m-1, the place in `cuts` of the innermost half-open
    cut [lo, hi) that holds it, or -1 when none does; one stack pass.

    For laminar cuts (any two nested or disjoint) two points lie on the
    same side of every cut exactly when they get the same answer.  The
    cuts holding a point form a chain, all containing its innermost cut C.
    If p and q share C, a cut holds p iff it contains C iff it holds q.
    If C holds p but not q, C splits them; if C holds both, q's innermost
    D lies inside C and not around p, so D splits them.

    Sorted by (lo, -hi), the cuts open at a point are the stacked ones,
    the innermost on top.  A cut starting inside the top one but ending
    after it crosses it, and every crossing pair meets this O(1) test once
    its second cut starts, so crossing cuts raise ValueError, never cells.
    """
    order = sorted(range(len(cuts)), key=lambda k: (cuts[k][0], -cuts[k][1]))
    stack = [(-1, m)]  # (place, hi); the whole circle never closes
    out: list[int] = []
    j = 0
    for x in range(m):
        while stack[-1][1] <= x:
            stack.pop()
        while j < len(order) and cuts[order[j]][0] == x:
            k = order[j]
            if cuts[k][1] > stack[-1][1]:
                raise ValueError(f"cuts {cuts[stack[-1][0]]} and {cuts[k]} cross")
            stack.append((k, cuts[k][1]))
            j += 1
        out.append(stack[-1][0])
    return out


def ccw_distance(frm: int, to: int, n: int) -> int:
    """Counter-clockwise steps (decreasing index, mod 2n+2) from frm to to."""
    return (frm - to) % (2 * n + 2)


def chord_to_labels(c: Chord, n: int) -> list[str]:
    return [label_of(c[0], n), label_of(c[1], n)]


def two_endpoints(pair):
    if len(pair) != 2:
        raise ValueError(f"chord must have two endpoints, got {pair!r}")
    return pair


def chord_from_labels(pair, n: int) -> Chord:
    a, b = two_endpoints(pair)
    return chord(idx_of(a, n), idx_of(b, n))


def name_crossing(chords, what: str) -> None:
    """Raise ValueError naming a crossing pair, found by the pair scan
    `crosses` once the stack pass `noncrossing` has decided that one exists."""
    if not noncrossing(chords):
        for c1, c2 in itertools.combinations(chords, 2):
            if crosses(c1, c2):
                raise ValueError(f"{what} {c1} and {c2} cross")


@dataclass(frozen=True)
class Triangulation:
    """A triangulation of a convex m-gon, as its m - 3 internal chords.  A
    subclass gives `sides` (m) and `_check_chord(c, m)` for out-of-range
    chords and polygon sides, checked after the count and before the crossings."""

    n: int
    chords: frozenset[Chord]

    def __post_init__(self):
        m = self.sides
        if len(self.chords) != m - 3:
            raise ValueError(f"expected {m - 3} chords, got {len(self.chords)}")
        for c in self.chords:
            self._check_chord(c, m)
        name_crossing(self.chords, "chords")

    @classmethod
    def from_chords(cls, n: int, chords):
        return cls(n, frozenset(chord(a, b) for a, b in chords))

    def sorted_chords(self) -> list[Chord]:
        return sorted(self.chords)

    def edges(self) -> frozenset[Chord]:
        """The chords and the polygon sides."""
        m = self.sides
        return self.chords | frozenset(chord(k, (k + 1) % m) for k in range(m))

    @cached_property
    def ends(self) -> list[list[int]]:
        """ends[v]: the far ends of the chords at vertex v, built once."""
        out: list[list[int]] = [[] for _ in range(self.sides)]
        for a, b in self.chords:
            out[a].append(b)
            out[b].append(a)
        return out

    def apexes(self, c: Chord) -> tuple[int, int]:
        """The two triangle apexes flanking the chord c, lower index first:
        the common neighbours of its ends (a triangle of edges is a face)."""
        if c not in self.chords:
            raise ValueError(f"{c} is not a chord of the triangulation")
        a, b = c
        m = self.sides
        near = {(a - 1) % m, (a + 1) % m, *self.ends[a]}
        x, y = sorted(w for w in ((b - 1) % m, (b + 1) % m, *self.ends[b]) if w in near)
        return x, y
