import bisect
import itertools

import pytest
from conftest import bracket_vectors
from hypothesis import given, settings

from tamari import bracket_b as bb
from tamari import noncross as nc
from tamari import polygon as pg
from tamari import tamari_a as ta
from tamari.bracket_b import INF

FIG4 = frozenset(
    {
        frozenset({1, -2, -5, -6}),
        frozenset({3, 4}),
        frozenset({-1, 2, 5, 6}),
        frozenset({-3, -4}),
    }
)


def blocks(*bs):
    return frozenset(frozenset(b) for b in bs)


def test_partition_validation():
    with pytest.raises(ValueError):
        nc.NoncrossingPartitionB(2, blocks({1, 2}, {-1}))
    with pytest.raises(ValueError):
        nc.NoncrossingPartitionB(2, blocks({1, 2, -1, -2}, {1}))
    with pytest.raises(ValueError):
        nc.NoncrossingPartitionB(2, blocks({1, 2, 3, -1, -2, -3}))


def test_is_noncrossing_examples():
    assert nc.is_noncrossing_b(nc.NoncrossingPartitionB(6, FIG4))
    singles = blocks(*({x} for x in (1, 2, 3, -1, -2, -3)))
    assert nc.is_noncrossing_b(nc.NoncrossingPartitionB(3, singles))
    crossing = blocks({1, 3}, {2, -2}, {-1, -3})
    assert not nc.is_noncrossing_b(nc.NoncrossingPartitionB(3, crossing))
    asym = blocks({1, 2}, {-1}, {-2}, {3}, {-3})
    assert not nc.is_noncrossing_b(nc.NoncrossingPartitionB(3, asym))


def set_partitions(points):
    """Every set partition of a list of points, as lists of blocks."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for part in set_partitions(rest):
        yield [[first], *part]
        for k in range(len(part)):
            yield [*part[:k], [first, *part[k]], *part[k + 1 :]]


def blocks_cross(b1, b2, n):
    """The pair test: b2 does not sit inside a single gap of b1 (cyclically)."""
    pos1 = sorted(nc.circle_pos(x, n) for x in b1)
    gaps = {bisect.bisect_left(pos1, nc.circle_pos(x, n)) % len(pos1) for x in b2}
    return len(pos1) >= 2 and len(gaps) > 1


def test_stack_pass_matches_the_pair_scan_on_every_partition():
    """All 4,360 set partitions of the 2n circle points, n <= 4, symmetric or not."""
    count = 0
    for n in range(1, 5):
        labels = [*range(1, n + 1), *range(-1, -n - 1, -1)]
        for part in set_partitions(labels):
            bs = [frozenset(b) for b in part]
            pair_scan = not any(
                blocks_cross(b1, b2, n) for b1, b2 in itertools.combinations(bs, 2)
            )
            assert nc._noncrossing_blocks(bs, n) == pair_scan, part
            p = nc.NoncrossingPartitionB(n, frozenset(bs))
            assert nc.is_noncrossing_b(p) == (nc.is_symmetric(p) and pair_scan), part
            count += 1
    assert count == 4360


def test_psi_figure_2_to_4():
    t = bb.decode((0, INF, 0, 0, 2, 0), 6)
    assert nc.psi(t).blocks == FIG4


def test_psi_extremes():
    # no red chords: one block; the top maps to all singletons
    bot = bb.decode((0, 0, 0), 3)
    assert nc.psi(bot).blocks == blocks({1, 2, 3, -1, -2, -3})
    top = bb.decode((INF, INF, INF), 3)
    assert nc.psi(top).blocks == blocks(*({x} for x in (1, 2, 3, -1, -2, -3)))


def signed(idx, n):
    return pg.label_value(idx, n) * (-1 if pg.is_barred(idx, n) else 1)


def test_cuts_are_laminar_and_the_sweep_equals_the_key_tuple():
    """On every vector for n <= 7, types b and a: no two cuts cross, and the
    cells of `psi` and `psi_a` equal the classes of the tuple of cut
    memberships they replaced.  A crossing family raises."""
    with pytest.raises(ValueError, match=r"cuts \(0, 3\) and \(1, 4\) cross"):
        pg.innermost_cut([(0, 3), (1, 4)], 5)
    for n in range(1, 8):
        for v in bb.enumerate_vectors(n):
            t = bb.decode(v, n)
            cuts = nc._cuts(t)
            assert not any(a < c < b < d for (a, b), (c, d) in itertools.permutations(cuts, 2))
            cells = {}
            for idx in range(pg.n_vertices(n)):
                if idx not in (n, 2 * n + 1):
                    key = tuple(lo <= idx < hi for lo, hi in cuts)
                    cells.setdefault(key, set()).add(signed(idx, n))
            assert nc.psi(t).blocks == frozenset(frozenset(c) for c in cells.values()), v
        for v in ta.enumerate_a(n):
            t = ta.decode_a(v, n)
            cuts = ta.red_set_a(t)
            assert not any(a < c < b < d for (a, b), (c, d) in itertools.permutations(cuts, 2))
            cells = {}
            for x in range(1, n + 2):
                cells.setdefault(tuple(a < x < b for a, b in cuts), set()).add(x)
            assert ta.psi_a(t) == frozenset(frozenset(c) for c in cells.values()), v


def test_fixed_values_by_position_equal_the_ccw_walk():
    """`_fixed_values` against the case analysis it took from a walk
    counter-clockwise from i's neighbour, the erased vertices skipped and
    i itself last, with blocks found by scanning: every psi image for n <= 7."""
    for n in range(1, 8):
        m = pg.n_vertices(n)
        for v in bb.enumerate_vectors(n):
            p = nc.psi(bb.decode(v, n))

            def block_of(x):
                return next(b for b in p.blocks if x in b)

            vals = []
            for i in range(1, n + 1):
                idxs = ((i - 2 - step) % m for step in range(m - 1))
                walk = [signed(idx, n) for idx in idxs if idx not in (n, 2 * n + 1)] + [i]
                w = next(x for x in walk if x in block_of(i))
                if i >= 2 and any(i < x <= n for x in block_of(i - 1)):
                    vals.append(0)
                elif i >= 2 and w == i - 1:
                    vals.append(0)
                elif 0 < w < i - 1:
                    vals.append(i - 1 - w)
                elif w < 0:
                    vals.append(n + i + w - 1 if -w >= i else INF)
                elif w == n and i < n:
                    vals.append(INF)
                else:
                    vals.append(None)
            assert nc._fixed_values(p) == vals, v


def test_bisect_crossing_rule_equals_the_triple_loop(monkeypatch):
    """On each of the 25,629 (target, other, q) that `enumerate_ncb` meets
    for n <= 6 (3,543 of them crossing), the one-`bisect` rule decides as
    the triple loop it replaced, and the enumeration with the loop gives
    the same list.  q is the next point: points are placed in order, so
    the blocks hold exactly 0..q-1."""
    rule = nc._crossing_if_added
    met = crossings = 0

    def both(target, blocks):
        nonlocal met, crossings
        q = sum(len(b) for b in blocks)
        assert sorted(x for b in blocks for x in b) == list(range(q))
        loop = False
        for other in blocks:
            if other is not target:
                met += 1
                crossing = any(
                    any(b1 < a for b1 in other) and any(a < b2 < q for b2 in other)
                    for a in target
                )
                assert rule(target, [target, other]) == crossing, (target, other, q)
                crossings += crossing
                loop |= crossing
        return loop

    fast = [nc.enumerate_ncb(n) for n in range(1, 7)]
    monkeypatch.setattr(nc, "_crossing_if_added", both)
    assert [nc.enumerate_ncb(n) for n in range(1, 7)] == fast
    assert (met, crossings) == (25629, 3543)


def test_psi_bar_involution(vectors_by_n):
    for n in (1, 2, 3, 4):
        for v in vectors_by_n[n]:
            p = nc.psi(bb.decode(v, n))
            assert nc.bar_blocks(p.blocks) == p.blocks


def test_psi_inverse_round_trips_n7():
    n = 7
    vecs = bb.enumerate_vectors(n)
    assert len(vecs) == 3432
    for v in vecs:
        assert bb.encode(nc.psi_inverse(nc.psi(bb.decode(v, n)))) == v


@settings(max_examples=20)
@given(bracket_vectors(max_n=200))
def test_psi_inverse_round_trips_large(vn):
    v, n = vn
    assert bb.is_valid(v, n)
    assert bb.encode(nc.psi_inverse(nc.psi(bb.decode(v, n)))) == v


@pytest.mark.parametrize("n", [16, 200])
def test_psi_inverse_top_large(n):
    top = nc.psi(bb.decode(bb.top_vector(n), n))
    assert bb.encode(nc.psi_inverse(top)) == bb.top_vector(n)


def test_psi_inverse_examples():
    one_block = nc.NoncrossingPartitionB(3, blocks({1, 2, 3, -1, -2, -3}))
    assert bb.encode(nc.psi_inverse(one_block)) == (0, 0, 0)
    fig4 = nc.NoncrossingPartitionB(6, FIG4)
    assert bb.encode(nc.psi_inverse(fig4)) == (0, INF, 0, 0, 2, 0)
    singles = nc.NoncrossingPartitionB(3, blocks(*({x} for x in (1, 2, 3, -1, -2, -3))))
    assert bb.encode(nc.psi_inverse(singles)) == (INF, INF, INF)


def test_psi_inverse_rejects_garbage():
    crossing = nc.NoncrossingPartitionB(3, blocks({1, 3}, {2, -2}, {-1, -3}))
    with pytest.raises(ValueError):
        nc.psi_inverse(crossing)


def test_in_bds_examples():
    singles = nc.NoncrossingPartitionB(3, blocks(*({x} for x in (1, 2, 3, -1, -2, -3))))
    assert nc.in_bds(singles, {1, 2, 3})
    p = nc.NoncrossingPartitionB(3, blocks({3, -3}, {1}, {2}, {-1}, {-2}))
    assert not nc.in_bds(p, {3})
    assert nc.in_bds(p, {1, 2})


def test_in_bds_count_matches_bracket_rule():
    # |NC^B_3 restricted| == |T_3^{[3]}| via the bracket characterization
    n, s = 3, {1, 2, 3}
    by_partitions = sum(1 for p in nc.enumerate_ncb(n) if nc.in_bds(p, s))
    by_vectors = sum(
        1
        for v in bb.enumerate_vectors(n)
        if all(v[i - 1] != n - 1 for i in s)
    )
    assert by_partitions == by_vectors


def test_central_block_iff_rmax(vectors_by_n):
    # psi(t) has the central block {i, -i} exactly when r_i = n-1
    for n in (2, 3, 4):
        for v in vectors_by_n[n]:
            p = nc.psi(bb.decode(v, n))
            for i in range(1, n + 1):
                assert (frozenset({i, -i}) in p.blocks) == (v[i - 1] == n - 1)


def test_json_round_trip():
    p = nc.NoncrossingPartitionB(6, FIG4)
    data = p.to_json()
    assert data["blocks"][0] == ["1", "-2", "-5", "-6"]
    assert nc.NoncrossingPartitionB.from_json(data) == p
