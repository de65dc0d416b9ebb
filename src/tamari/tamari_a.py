"""The classical type-A Tamari lattice on triangulations of an (n+3)-gon.

Vertices are numbered 0..n+2 clockwise with the long top edge 0--(n+2).
The bracket vector records r_i = i-1 - v_i for i = 1..n+1, where v_i is the
least vertex attached to i.  The triangulations, flips and the classical
noncrossing partition bijection are its own: they are the cross-validation
target.  The vectors and their order are not: a type-A vector is a type-B
(n+1)-vector with r_i <= i-1, on which condition (ii) never applies (it
needs r_i >= i).  These vectors are the principal ideal below (0, 1, ..., n)
in T_{n+1}^B, which gives the type-A lattice its meet, join and covers, so
validation, enumeration and the lattice operations are `bracket_b`'s at
size n+1 (`kinds.Kind.width`).  The chord-set core is
`polygon.Triangulation`, and `decode_a` cuts and completes regions with
type B's `split_regions` and `green_complete`.
"""

from __future__ import annotations

import math

from . import bracket_b as bb
from .polygon import Chord, Triangulation, chord, innermost_cut, is_side, json_int, json_n
from .polygon import two_endpoints
from .tri_b import green_complete, split_regions

Vector = tuple


class TriangulationA(Triangulation):
    """A triangulation of the (n+3)-gon."""

    @property
    def sides(self) -> int:
        return self.n + 3

    def _check_chords(self, m: int) -> None:
        for c in self.chords:
            a, b = c
            if not (0 <= a < b < m) or b - a in (1, m - 1):
                raise ValueError(f"bad chord {c}")

    def to_json(self) -> dict:
        return {"n": self.n, "chords": [list(c) for c in self.sorted_chords()]}

    @classmethod
    def from_json(cls, data: dict) -> "TriangulationA":
        pairs = [two_endpoints(c) for c in data["chords"]]
        chords = [[json_int(x, "a chord endpoint") for x in c] for c in pairs]
        return cls.from_chords(json_n(data["n"]), chords)


def catalan(k: int) -> int:
    """Independent Catalan oracle, straight from the binomial formula."""
    return math.comb(2 * k, k) // (k + 1)


def quad_of_a(t: TriangulationA, c: Chord) -> tuple[int, ...]:
    if is_side(c, t.sides):
        raise ValueError("polygon edges have no quadrilateral")
    return tuple(sorted({*c, *t.apexes(c)}))


def color_a(t: TriangulationA, c: Chord) -> str:
    """Green iff the chord touches the largest-labelled vertex of Q(C)."""
    q = quad_of_a(t, c)
    return "green" if max(q) in c else "red"


def validate_a(v: Vector, n: int):
    """Violated condition or None: ("ii", i) for an entry outside 0 <= r_i <= i-1,
    else the condition (i) witness of the type-B (n+1)-vector."""
    if len(v) != n + 1 or not all(isinstance(x, int) and not isinstance(x, bool) for x in v):
        raise ValueError(f"need an (n+1)-tuple of integers, got {v}")
    for i in range(n + 1):
        if not 0 <= v[i] <= i:
            return ("ii", i + 1)
    return bb.violation(v, n + 1)


def enumerate_a(n: int) -> list[Vector]:
    """All valid vectors, lexicographically: type-B (n+1)-vectors with r_i <= i-1."""
    return list(bb.vectors_with(n + 1, [range(k + 1) for k in range(n + 1)]))


def encode_a(t: TriangulationA) -> Vector:
    """r_i = i-1 - v_i, where v_i, the least vertex joined to i, is its
    least lower chord end read from `ends`, else its side neighbour i-1."""
    return tuple(
        i - 1 - min((x for x in t.ends[i] if x < i), default=i - 1) for i in range(1, t.n + 2)
    )


def decode_a(v: Vector, n: int) -> TriangulationA:
    err = validate_a(v, n)
    if err is not None:
        raise ValueError(f"invalid type-A bracket vector {v}: condition {err[0]} at {err[1]}")
    reds = {chord(i, i - 1 - v[i - 1]) for i in range(1, n + 2) if v[i - 1] > 0}
    chords = set(reds)
    # every vertex lies below n+3, so a region is one unbarred run, completed as a fan
    for region in split_regions(n + 3, reds):
        chords |= green_complete(n + 2, region)
    t = TriangulationA(n, frozenset(chords))
    assert encode_a(t) == v
    return t


def red_set_a(t: TriangulationA) -> frozenset[Chord]:
    v = encode_a(t)
    return frozenset(chord(i, i - 1 - v[i - 1]) for i in range(1, t.n + 2) if v[i - 1] > 0)


def flip_a(t: TriangulationA, c: Chord) -> TriangulationA:
    return TriangulationA(t.n, t.chords - {c} | {chord(*t.apexes(c))})


def green_flips_a(t: TriangulationA) -> set[TriangulationA]:
    """The triangulations obtained from t by flipping one green chord."""
    return {flip_a(t, c) for c in t.chords if color_a(t, c) == "green"}


def psi_a(t: TriangulationA) -> frozenset[frozenset[int]]:
    """Noncrossing partition of [n+1] cut out by the perturbed red chords.

    A red chord {i, j} separates the open range (i, j); vertices 0 and n+2
    are erased; blocks are the classes left unseparated, each named by the
    innermost cut [i+1, j) that holds it (`innermost_cut`).
    """
    cut_of = innermost_cut([(a + 1, b) for a, b in red_set_a(t)], t.n + 3)
    blocks: dict[int, set[int]] = {}
    for v in range(1, t.n + 2):
        blocks.setdefault(cut_of[v], set()).add(v)
    return frozenset(frozenset(b) for b in blocks.values())


def partition_a_to_json(p) -> list[list[int]]:
    return sorted([sorted(b) for b in p], key=lambda b: b[0])
