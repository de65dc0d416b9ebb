"""Centrally symmetric triangulations of the (2n+2)-gon.

A type-B triangulation is a maximal noncrossing chord set (2n-1 internal
chords) fixed under the half-turn.  Chords are coloured red or green from
the quadrilateral rule; the red chords are exactly the scan chords C_i and
their symmetric partners, and they determine the triangulation (the regions
they cut out have a unique all-green completion).

The chord count, the crossing check that names the pair, the
vertex-to-chord-ends map `ends` and the apex search are the shared core
`polygon.Triangulation`; this module adds the symmetry check, the colours
and the red set, which a triangulation keeps once found (`reds`).  `c_i`
reads `ends`, so `red_set` and `encode` are linear in the chords.
`from_red_set` cuts the polygon into regions in one stack walk
(`split_regions`) and completes each region by position
(`green_complete`), both shared with type A; nothing recurses, so `decode`
works at any n.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property

from .polygon import (
    Chord,
    Triangulation,
    chord,
    chord_from_labels,
    chord_kind,
    chord_partner,
    chord_to_labels,
    is_barred,
    is_side,
    json_n,
    label_value,
    n_vertices,
    name_crossing,
)

RED = "red"
GREEN = "green"


class TriangulationB(Triangulation):
    """A centrally symmetric triangulation of the (2n+2)-gon."""

    @property
    def sides(self) -> int:
        return n_vertices(self.n)

    def _check_chord(self, c: Chord, m: int) -> None:
        a, b = c
        if not (0 <= a < b < m):
            raise ValueError(f"chord {c} out of range")
        if is_side(c, m):
            raise ValueError(f"{c} is a polygon edge, not a chord")
        if chord_partner(c, self.n) not in self.chords:
            raise ValueError(f"chord set not symmetric at {c}")

    @cached_property
    def reds(self) -> frozenset[Chord]:
        """The red chords (`red_set`), found once: `from_red_set` checks
        them and `noncross.psi` cuts along them."""
        return red_set(self)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "chords": [chord_to_labels(c, self.n) for c in self.sorted_chords()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TriangulationB":
        n = json_n(data["n"])
        return cls.from_chords(n, [chord_from_labels(p, n) for p in data["chords"]])


def quad_of(t: TriangulationB, c: Chord) -> tuple[int, ...]:
    """The quadrilateral Q(C): the four vertices of the two triangles on C."""
    if is_side(c, t.sides):
        raise ValueError("polygon edges bound a single triangle, no quadrilateral")
    return tuple(sorted({*c, *t.apexes(c)}))


def color(t: TriangulationB, c: Chord) -> str:
    """Colour of a chord: red when its quadrilateral has a dominating vertex.

    Pure chord: red iff Q(C) holds another vertex of the same type with a
    higher label.  Mixed chord {i, jbar}: red iff Q(C) holds an unbarred
    vertex labelled above i or a barred vertex labelled above j.
    """
    n = t.n
    others = [v for v in quad_of(t, c) if v not in c]
    kind = chord_kind(c, n)
    if kind == "mixed":
        unb = next(v for v in c if not is_barred(v, n))
        bar = next(v for v in c if is_barred(v, n))
        for v in others:
            if is_barred(v, n):
                if label_value(v, n) > label_value(bar, n):
                    return RED
            elif label_value(v, n) > label_value(unb, n):
                return RED
        return GREEN
    barred = kind == "pure-barred"
    top = max(label_value(v, n) for v in c)
    for v in others:
        if is_barred(v, n) == barred and label_value(v, n) > top:
            return RED
    return GREEN


def c_i(t: TriangulationB, i: int) -> Chord | None:
    """The scan chord C_i: first chord at vertex i found clockwise from 1bar.

    Returns None when C_i is the edge segment to the counter-clockwise
    neighbour of i.  Reads `t.ends`: of the chords at i, the one whose far
    end comes first clockwise from 1bar, if that end comes before i's
    counter-clockwise neighbour, in time linear in the chords at i.
    """
    if not 1 <= i <= t.n:
        raise ValueError(f"i must be in [1, {t.n}]")
    m = t.sides
    start = t.n + 1
    # clockwise steps from 1bar; the walk stops before the neighbour i-2
    steps = [(w - start) % m for w in t.ends[i - 1]]
    first = min(steps, default=m)
    if first >= (i - 2 - start) % m:
        return None
    return chord(i - 1, (start + first) % m)


def red_set(t: TriangulationB) -> frozenset[Chord]:
    """The chord-valued C_i together with their symmetric partners."""
    reds: set[Chord] = set()
    for i in range(1, t.n + 1):
        c = c_i(t, i)
        if c is not None:
            reds.add(c)
            reds.add(chord_partner(c, t.n))
    return frozenset(reds)


def green_complete(n: int, region) -> set[Chord]:
    """The unique all-green triangulation of a region of the (2n+2)-gon.

    Connect every unbarred vertex to the largest unbarred one, every barred
    vertex to the largest barred one, and join the two maxima when both
    types are present.  Connections between region-adjacent vertices are
    already boundary sides and contribute no chord.  Labels grow with the
    index within each type, so the sorted region splits at n+1 into its
    unbarred and barred runs, each hub is the last of its run, and
    adjacency is read off positions: a run's own second-to-last vertex,
    its first when the run is the whole region, and the two hubs when a
    run has one vertex.
    """
    verts = sorted(region)
    size = len(verts)
    if size < 4:  # a triangle has no chord
        return set()
    cut = bisect_left(verts, n + 1)
    out: set[Chord] = set()
    for lo, hi in ((0, cut), (cut, size)):
        out.update((verts[p], verts[hi - 1]) for p in range(lo + (hi - lo == size), hi - 2))
    if 1 < cut < size - 1:
        out.add((verts[cut - 1], verts[-1]))
    return out


def split_regions(m: int, chords) -> list[tuple[int, ...]]:
    """Cyclic regions an m-gon is cut into by a noncrossing chord family.

    One walk over the vertices with a stack of open regions, the chords
    sorted by (a, -b).  At vertex x every open region whose chord ends at x
    takes x and closes (these are on top, innermost first); the region
    then on top takes x; and one region opens at x for each chord that
    starts there, outer chord first, with x as its first vertex.
    """
    ordered = sorted(set(chords), key=lambda c: (c[0], -c[1]))
    stack: list[tuple[int, list[int]]] = [(m, [])]  # the outer region, closed after the walk
    out: list[tuple[int, ...]] = []
    j = 0
    for x in range(m):
        while stack[-1][0] == x:
            out.append((*stack.pop()[1], x))
        stack[-1][1].append(x)
        while j < len(ordered) and ordered[j][0] == x:
            stack.append((ordered[j][1], [x]))
            j += 1
    out.append(tuple(stack[0][1]))
    return out


def from_red_set(n: int, reds) -> TriangulationB:
    """Rebuild the unique triangulation whose red chords are exactly `reds`."""
    reds = frozenset(chord(a, b) for a, b in reds)
    for c in reds:
        if chord_partner(c, n) not in reds:
            raise ValueError(f"red set not symmetric at {c}")
    name_crossing(reds, "red chords")
    chords = set(reds)
    for region in split_regions(n_vertices(n), reds):
        chords |= green_complete(n, region)
    t = TriangulationB(n, frozenset(chords))
    if t.reds != reds:
        raise ValueError("chord set is not realizable as a red set")
    return t


def flipped_chords(t: TriangulationB, c: Chord) -> frozenset[Chord]:
    """The chords of t with the pair {C, Cbar} replaced by the other
    diagonals, unchecked.  A diameter is its own partner and is replaced once."""
    new = chord(*t.apexes(c))
    gone = {c, chord_partner(c, t.n)}
    return t.chords - gone | {new, chord_partner(new, t.n)}


def flip(t: TriangulationB, c: Chord) -> TriangulationB:
    """The triangulation `flipped_chords(t, c)`, validated."""
    return TriangulationB(t.n, flipped_chords(t, c))


def green_flips(t: TriangulationB) -> set[TriangulationB]:
    """The triangulations obtained from t by flipping one green chord pair."""
    return {flip(t, c) for c in t.chords if color(t, c) == GREEN}


def bottom(n: int) -> TriangulationB:
    return from_red_set(n, frozenset())


def enumerate_triangulations(n: int) -> list[TriangulationB]:
    """All type-B triangulations, by flip-graph search from the bottom, keyed
    by chord set: each is built and validated once, when first reached."""
    start = bottom(n)
    seen = {start.chords: start}
    queue = [start]
    while queue:
        t = queue.pop()
        for c in t.chords:
            chords = flipped_chords(t, c)
            if chords not in seen:
                seen[chords] = TriangulationB(n, chords)
                queue.append(seen[chords])
    return sorted(seen.values(), key=lambda t: t.sorted_chords())
