import itertools

import pytest
from conftest import bracket_vectors
from hypothesis import given, settings

from tamari import bracket_b as bb
from tamari import noncross as nc
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


def test_stack_pass_matches_the_pair_scan_on_every_partition():
    """All 4,360 set partitions of the 2n circle points, n <= 4, symmetric or not."""
    count = 0
    for n in range(1, 5):
        labels = [*range(1, n + 1), *range(-1, -n - 1, -1)]
        for part in set_partitions(labels):
            bs = [frozenset(b) for b in part]
            pair_scan = not any(
                nc._blocks_cross(b1, b2, n) for b1, b2 in itertools.combinations(bs, 2)
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
