"""Type-B noncrossing partitions (NC^B, Reiner 1997) and the bijection psi.

Elements of a partition are signed integers: +j for the unbarred vertex j,
-j for the barred vertex jbar, j = 1..n.  On the 2n-point circle the
cyclic order is 1, .., n, -1, .., -n.

psi erases the green chords, perturbs the red ones and reads off the cells:
a mixed red chord has both endpoints nudged counter-clockwise, so it
separates the half-open index range [unbarred end, barred end); a pure red
chord has its endpoints nudged together, separating the open range between
them.  The vertices n+1 and (n+1)bar are erased afterwards.  Which side of
a cut a surviving vertex lands on never depends on the nudge sizes, and the
cuts never cross, so one sweep names each cell by the innermost cut that
holds it (`polygon.innermost_cut`).  `psi_inverse` runs the other way:
the holes between the blocks give the red chords (`_red_chords`), and
`from_red_set` rebuilds t from them, keeping the full check `psi(t) == p`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .polygon import innermost_cut, json_n, n_vertices
from .tri_b import TriangulationB, from_red_set


@dataclass(frozen=True)
class NoncrossingPartitionB:
    n: int
    blocks: frozenset[frozenset[int]]

    def __post_init__(self):
        seen: set[int] = set()
        for b in self.blocks:
            for x in b:
                if x == 0 or abs(x) > self.n:
                    raise ValueError(f"element {x} out of range for n={self.n}")
                if x in seen:
                    raise ValueError(f"element {x} appears in two blocks")
                seen.add(x)
        if len(seen) != 2 * self.n:
            raise ValueError("blocks must partition {1..n, -1..-n}")

    def sorted_blocks(self) -> list[list[int]]:
        def elem_key(x: int) -> tuple[int, int]:
            return (0, x) if x > 0 else (1, -x)

        out = [sorted(b, key=elem_key) for b in self.blocks]
        out.sort(key=lambda b: elem_key(b[0]))
        return out

    def to_json(self) -> dict:
        return {"n": self.n, "blocks": [[str(x) for x in b] for b in self.sorted_blocks()]}

    @classmethod
    def from_json(cls, data) -> "NoncrossingPartitionB":
        """Parse {"n": n, "blocks": [[x, ...], ...]}; malformed input raises ValueError."""
        if not isinstance(data, dict) or "n" not in data or "blocks" not in data:
            raise ValueError('a partition is an object with keys "n" and "blocks"')
        if not isinstance(data["blocks"], list) or not all(
            isinstance(b, list) for b in data["blocks"]
        ):
            raise ValueError('"blocks" must be a list of lists')
        for x in [data["n"], *(x for b in data["blocks"] for x in b)]:
            if isinstance(x, bool) or not isinstance(x, (int, str)):
                raise ValueError(f"partition entries must be integers, got {x!r}")
        # an integer string such as "-2" reads as its integer
        blocks = frozenset(frozenset(int(x) for x in b) for b in data["blocks"])
        return cls(json_n(int(data["n"])), blocks)


def circle_pos(x: int, n: int) -> int:
    """Position on the 2n-point circle, 0-based: 1..n then -1..-n."""
    return x - 1 if x > 0 else n - x - 1


def bar_blocks(blocks) -> frozenset[frozenset[int]]:
    return frozenset(frozenset(-x for x in b) for b in blocks)


def is_symmetric(p: NoncrossingPartitionB) -> bool:
    return bar_blocks(p.blocks) == p.blocks


def _noncrossing_blocks(blocks, n: int) -> bool:
    """True iff no two blocks of a partition of the 2n circle points cross.

    One pass around the circle with a stack of the blocks opened and not
    yet closed: a block that shows up again while another block is on top
    crosses that one.  A block is popped at its last position.  Equal to
    the pair test over all pairs of blocks (in the tests), in O(n).
    """
    at = [0] * (2 * n)
    last = [0] * len(blocks)
    for k, b in enumerate(blocks):
        for x in b:
            at[circle_pos(x, n)] = k
        last[k] = max((circle_pos(x, n) for x in b), default=-1)  # an empty block never shows
    stack: list[int] = []
    opened: set[int] = set()
    for q, k in enumerate(at):
        if not stack or stack[-1] != k:
            if k in opened:
                return False
            opened.add(k)
            stack.append(k)
        if q == last[k]:
            stack.pop()
    return True


def is_noncrossing_b(p: NoncrossingPartitionB) -> bool:
    """Symmetric and the blocks' convex hulls are pairwise disjoint.

    The symmetry test runs first; the stack pass `_noncrossing_blocks`
    decides the rest.
    """
    return is_symmetric(p) and _noncrossing_blocks(list(p.blocks), p.n)


def _cuts(t: TriangulationB) -> list[tuple[int, int]]:
    """Perturbed red chords as half-open index intervals [lo, hi): a mixed
    chord, a < n+1 <= b, cuts [a, b); a pure one the open range (a, b)."""
    h = t.n + 1
    return sorted((a, b) if a < h <= b else (a + 1, b) for a, b in t.reds)


def psi(t: TriangulationB) -> NoncrossingPartitionB:
    """The type-B noncrossing partition induced by the red chords: a vertex's
    cell is named by the innermost cut that holds it (`innermost_cut`)."""
    n = t.n
    cut_of = innermost_cut(_cuts(t), n_vertices(n))
    cells: dict[int, set[int]] = {}
    # index idx < n is the vertex idx+1, n < idx < 2n+1 is (idx-n)bar, the
    # element n-idx; the vertices n+1 and (n+1)bar are erased
    for idx in range(n):
        cells.setdefault(cut_of[idx], set()).add(idx + 1)
    for idx in range(n + 1, 2 * n + 1):
        cells.setdefault(cut_of[idx], set()).add(n - idx)
    return NoncrossingPartitionB(n, frozenset(frozenset(b) for b in cells.values()))


def _crossing_if_added(target: list[int], blocks) -> bool:
    """True iff a point q above all placed points, added to `target`, makes
    it cross another block: b1 < a < b2 < q with b1, b2 in that block and a
    in target.  One `bisect` per block; the rule is proved at `enumerate_ncb`."""
    for other in blocks:
        k = bisect_left(target, other[-1])
        if other is not target and k > 0 and target[k - 1] > other[0]:
            return True
    return False


def enumerate_ncb(n: int) -> list[NoncrossingPartitionB]:
    """All symmetric noncrossing partitions, enumerated directly.

    Circle points 0..2n-1 are placed in order, so blocks list their points
    increasing and lie below the new point q: b1 < a < b2 < q holds for
    some a in target and b1, b2 in `other` iff the last target point below
    other[-1] lies above other[0] (`_crossing_if_added`).  The bar
    symmetry forces the block of every point p >= n, so the search only
    branches on noncrossing partial partitions of the first n points.
    """
    results: list[NoncrossingPartitionB] = []
    blocks: list[list[int]] = []

    def point_label(p: int) -> int:
        return p + 1 if p < n else n - p - 1

    def finish() -> None:
        part = frozenset(frozenset(point_label(p) for p in b) for b in blocks)
        p = NoncrossingPartitionB(n, part)
        if is_symmetric(p):
            results.append(p)

    def rec(q: int) -> None:
        if q == 2 * n:
            finish()
            return
        if q < n:
            for b in blocks:
                if not _crossing_if_added(b, blocks):
                    b.append(q)
                    rec(q + 1)
                    b.pop()
            blocks.append([q])
            rec(q + 1)
            blocks.pop()
            return
        # Second half: the block of q must end up as the bar image of the
        # block of p = q - n.  Members of that image already placed pin the
        # target; otherwise q starts fresh or joins a block still confined
        # to [p, n) (one whose bar image is not yet committed).
        p = q - n
        pblock = next(b for b in blocks if p in b)
        known = {(x + n) % (2 * n) for x in pblock if x < p or n <= x < q}
        if known:
            target = next(b for b in blocks if next(iter(known)) in b)
            if known <= set(target) and not _crossing_if_added(target, blocks):
                target.append(q)
                rec(q + 1)
                target.pop()
            return
        blocks.append([q])
        rec(q + 1)
        blocks.pop()
        for b in list(blocks):
            if all(p <= x < n for x in b) and not _crossing_if_added(b, blocks):
                b.append(q)
                rec(q + 1)
                b.pop()

    rec(0)
    results.sort(key=lambda p: p.sorted_blocks())
    return results


def in_bds(p: NoncrossingPartitionB, s) -> bool:
    """No block is exactly {i, -i} for i in s."""
    forbidden = {frozenset({i, -i}) for i in s}
    return not any(b in forbidden for b in p.blocks)


def _red_chords(p: NoncrossingPartitionB) -> list[tuple[int, int]]:
    """The red chords of the t with psi(t) = p, for p in NC^B, read off the
    holes between the blocks (the Kreweras complement).

    Index j is the vertex j+1 for j < n+1 and the barred vertex (j-n)bar
    above; gap g lies just before index g.  A perturbed red chord is a cut
    [lo, hi) between two gaps, every cut holds a vertex of its own, and the
    cuts of a hole form a tree on its gaps.  The erased vertices join
    blocks first: n+1 joins n's, and (n+1)bar joins 1's when nbar's block
    holds an unbarred vertex (it is then the zero block), else nbar's.
    Each block then links the gap after each member x to the gap before
    the next member, and the cycles of those links are the holes (a gap
    between consecutive members is a hole with no chord).  A hole with
    gaps below and at or above h = n+1 is cut by mixed chords:
    from its least gap to each upper one, and from each other lower gap to
    its least upper one.  Any other hole is a fan of pure chords from its
    least gap, the cut [lo, hi) being the chord (lo-1, hi).
    """
    n = p.n
    h, m = n + 1, 2 * n + 2
    blocks = [[x - 1 if x > 0 else n - x for x in b] for b in p.blocks]
    at = {x: b for b in blocks for x in b}
    at[0 if min(at[2 * n]) < n else 2 * n].append(2 * n + 1)
    at[n - 1].append(n)
    step = [0] * m  # the next gap of g's hole; -1 once walked
    for b in blocks:
        b.sort()
        for x, y in zip(b, b[1:] + b[:1]):
            step[(x + 1) % m] = y
    reds = []
    for first in range(m):
        hole, g = [], first
        while step[g] >= 0:
            hole.append(g)
            step[g], g = -1, step[g]
        hole.sort()
        k = bisect_left(hole, h)
        if 0 < k < len(hole):
            reds += [(hole[0], g) for g in hole[k:]] + [(g, hole[k]) for g in hole[1:k]]
        else:
            reds += [(hole[0] - 1, g) for g in hole[1:]]
    return reds


def psi_inverse(p: NoncrossingPartitionB) -> TriangulationB:
    """The triangulation with psi(t) = p: `from_red_set` of `_red_chords`.

    The construction is checked against every t with n <= 8 (the tests
    cover n <= 7), and the result is checked in full on every call: it
    must map back to p under psi, else ValueError instead of a wrong
    answer.  A crossing or asymmetric p raises ValueError first.
    """
    if not is_noncrossing_b(p):
        raise ValueError("input is not a symmetric noncrossing partition")
    t = from_red_set(p.n, _red_chords(p))
    if psi(t) != p:
        raise ValueError("partition is not in the image of psi")
    return t
