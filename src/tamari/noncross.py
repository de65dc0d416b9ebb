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
holds it (`polygon.innermost_cut`).  `psi_inverse_vector` finds block
members by position maps and `bisect` and returns the preimage's bracket
vector; `psi_inverse` decodes it and keeps the full check `psi(t) == p`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import inf as INF

from . import bracket_b as bb
from .polygon import chord_kind, innermost_cut, is_barred, json_n, label_value, n_vertices
from .tri_b import TriangulationB


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
    """Perturbed red chords as half-open index intervals [lo, hi)."""
    n = t.n
    out = []
    for a, b in t.reds:
        if chord_kind((a, b), n) == "mixed":
            out.append((a, b))  # a unbarred, b barred: [a, b)
        else:
            out.append((a + 1, b))  # endpoints move together: (a, b)
    return sorted(out)


def psi(t: TriangulationB) -> NoncrossingPartitionB:
    """The type-B noncrossing partition induced by the red chords: a vertex's
    cell is named by the innermost cut that holds it (`innermost_cut`)."""
    n = t.n
    cells: dict[int, set[int]] = {}
    for idx, k in enumerate(innermost_cut(_cuts(t), n_vertices(n))):
        if idx not in (n, 2 * n + 1):  # the erased vertices
            x = label_value(idx, n) * (-1 if is_barred(idx, n) else 1)
            cells.setdefault(k, set()).add(x)
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


def _fixed_values(p: NoncrossingPartitionB) -> list:
    """The coordinates `psi_inverse`'s case analysis fixes, None where free.

    Each block keeps its members' circle positions sorted, and `at` maps a
    position to its block, so the first member counter-clockwise from i's
    neighbour is one `bisect`: the member just below i's position, or,
    with none below, the block's last (i itself when alone).
    """
    n = p.n
    blocks = [sorted(circle_pos(x, n) for x in b) for b in p.blocks]
    at = [0] * (2 * n)
    for k, b in enumerate(blocks):
        for q in b:
            at[q] = k
    vals: list = [None] * n
    for i in range(1, n + 1):
        mine = blocks[at[i - 1]]
        q = mine[bisect_left(mine, i - 1) - 1]  # index -1 wraps to the last
        v = q + 1 if q < n else n - 1 - q
        prev = blocks[at[i - 2]]  # block(i-1); unread at i = 1
        if i >= 2 and bisect_left(prev, i) < bisect_left(prev, n):  # some w in (i, n]
            vals[i - 1] = 0
        elif i >= 2 and v == i - 1:
            vals[i - 1] = 0
        elif 0 < v < i - 1:
            vals[i - 1] = i - 1 - v
        elif v < 0:
            j = -v
            vals[i - 1] = n + i - j - 1 if j >= i else INF
        elif v == n and i < n:
            vals[i - 1] = INF
    return vals


def psi_inverse_vector(p: NoncrossingPartitionB) -> tuple:
    """The bracket vector of the triangulation t with psi(t) = p.

    Per-coordinate case analysis on the first vertex v sharing a block
    with i, searching counter-clockwise from i's neighbour:

      block(i-1) holds some unbarred w > i -> r_i = 0
          (a pure red chord {i-1, w} sits there; nothing can attach to i
          on the scan side without crossing it)
      v = i-1                   -> r_i = 0
      v unbarred, v < i-1       -> pure chord {i, v}, r_i = i-1-v
      v = -j                    -> chord {i, (j+1)bar}, r_i = n+i-j-1 (inf if j < i)
      v = n, i < n              -> chord {i, 1bar}, r_i = inf

    A first match at an unbarred v >= i (or no match at all, block(i) =
    {i}) leaves C_i underdetermined by block(i) alone: any nonzero r_i is
    possible (r_i = 0 is ruled out for i >= 2, since an edge segment needs
    i-1 in the block or the pure-chord witness above).  These free
    coordinates are fixed in increasing i, each to the largest value --
    inf, then n-1 down to 1 (down to 0 for i = 1) -- that conditions (i)
    and (ii) allow against the coordinates fixed so far (`bb.fits_at`).
    No choice is ever undone, so the whole inverse is polynomial in n.
    A crossing p or an invalid vector raises ValueError.
    """
    if not is_noncrossing_b(p):
        raise ValueError("input is not a symmetric noncrossing partition")
    return _psi_inverse_vector(p)


def _psi_inverse_vector(p: NoncrossingPartitionB) -> tuple:
    """`psi_inverse_vector` for a p already known to be in NC^B."""
    n = p.n
    vals = _fixed_values(p)
    for i in [i for i in range(1, n + 1) if vals[i - 1] is None]:
        lowest = 0 if i == 1 else 1
        for x in [INF, *range(n - 1, lowest - 1, -1)]:
            if bb.fits_at(vals, n, i - 1, x):
                vals[i - 1] = x
                break
        else:
            raise ValueError("partition is not in the image of psi")
    vec = tuple(vals)
    if not bb.is_valid(vec, n):
        raise ValueError("partition is not in the image of psi")
    return vec


def psi_inverse(p: NoncrossingPartitionB) -> TriangulationB:
    """The triangulation with psi(t) = p: `psi_inverse_vector`, decoded.

    Its largest-legal-value rule has no general proof here; it rests on
    exhaustive round trips for n <= 8 (the tests cover n <= 7) and random
    ones up to n = 200.  So the result is still checked in full: the
    vector must be valid, decode, and map back to p under psi, else
    ValueError instead of a wrong answer.
    """
    t = bb.decode(psi_inverse_vector(p), p.n)
    if psi(t) != p:
        raise ValueError("partition is not in the image of psi")
    return t
