import itertools

import pytest

from tamari import bracket_b as bb
from tamari import tamari_a as ta
from tamari import tri_b
from tamari.kinds import lattice_kind
from tamari.polygon import chord

FIG1 = (0, 0, 0, 2, 4)


def test_figure1_encode():
    t = ta.decode_a(FIG1, 4)
    assert ta.encode_a(t) == FIG1
    assert ta.red_set_a(t) == {(1, 4), (0, 5)}


def test_figure1_psi():
    p = ta.psi_a(ta.decode_a(FIG1, 4))
    assert p == frozenset({frozenset({1, 4}), frozenset({2, 3}), frozenset({5})})
    assert ta.partition_a_to_json(p) == [[1, 4], [2, 3], [5]]


def test_color_examples():
    t = ta.decode_a(FIG1, 4)
    for c in ta.red_set_a(t):
        assert ta.color_a(t, c) == "red"
    for c in t.chords - ta.red_set_a(t):
        assert ta.color_a(t, c) == "green"
    # fan from n+2: all green
    fan = ta.decode_a((0,) * 5, 4)
    assert all(ta.color_a(fan, c) == "green" for c in fan.chords)
    # any chord touching n+2 is green
    for c in fan.chords:
        assert 6 in c
    with pytest.raises(ValueError):
        ta.color_a(fan, (0, 1))


def test_fan_vectors():
    n = 4
    fan0 = ta.decode_a(tuple(i for i in range(n + 1)), n)
    assert all(0 in c for c in fan0.chords)
    assert ta.encode_a(fan0) == (0, 1, 2, 3, 4)
    fan_top = ta.decode_a((0,) * (n + 1), n)
    assert ta.encode_a(fan_top) == (0,) * (n + 1)


def test_validate_examples():
    assert ta.validate_a(FIG1, 4) is None
    assert ta.validate_a((0, 2, 0, 0, 0), 4) == ("ii", 2)
    assert ta.validate_a((0, 1, 1, 0, 0), 4) == ("i", (2, 3))


def test_decode_rejects_invalid():
    with pytest.raises(ValueError):
        ta.decode_a((0, 2, 0, 0, 0), 4)


def test_meet_example():
    kind = lattice_kind("a", 4)
    assert kind.meet(FIG1, (0, 1, 2, 3, 4)) == FIG1
    assert kind.join((0, 1, 0, 1, 0), (0,) * 5) == (0, 1, 0, 1, 0)


def test_up_at_n_plus_1_semantic():
    # the type-A join is `up` at size n+1: the least valid vector above x
    for n in range(1, 5):
        vecs = ta.enumerate_a(n)
        domain = itertools.product(*(range(i + 1) for i in range(n + 1)))
        for x in domain:
            above = [r for r in vecs if bb.leq(x, r)]
            assert bb.up(x, n + 1) == min(above)


def test_json_round_trip():
    t = ta.decode_a(FIG1, 4)
    assert ta.TriangulationA.from_json(t.to_json()) == t


def test_fits_at_is_the_type_a_check_at_size_n_plus_1():
    # a type-A vector is a type-B (n+1)-vector with r_i <= i-1: enumerate_a relies on it
    for n in range(1, 7):
        for v in ta.enumerate_a(n):
            for k in range(n + 1):
                for x in range(k + 1):
                    w = v[:k] + (x,) + v[k + 1 :]
                    assert bb.fits_at(v, n + 1, k, x) == (ta.validate_a(w, n) is None)


def test_green_complete_is_the_fan_on_one_run():
    """`decode_a` completes its regions with `tri_b.green_complete` at n+2,
    where every vertex of the (n+3)-gon is unbarred.  Against the fan it
    replaced, from the largest vertex to all but its two region neighbours
    (the first and the second-to-last), on all 848 subsets of at least
    three vertices of the m-gon, m <= 9."""
    checked = 0
    for m in range(3, 10):
        for size in range(3, m + 1):
            for region in itertools.combinations(range(m), size):
                fan = {(v, region[-1]) for v in region[1:-2]}
                assert tri_b.green_complete(m - 1, region) == fan, region
                checked += 1
    assert checked == 848


def test_encode_from_ends_equals_the_edge_scan():
    """encode_a reads the least lower neighbour of i from `ends`.  Against
    the scan it replaced, every x < i with a chord or side to i, on all
    2,054 type-A vectors for n <= 7."""
    checked = 0
    for n in range(1, 8):
        for v in ta.enumerate_a(n):
            t = ta.decode_a(v, n)
            edges = t.edges()
            scan = [min(x for x in range(i) if chord(x, i) in edges) for i in range(1, n + 2)]
            assert ta.encode_a(t) == tuple(i - s for i, s in enumerate(scan)) == v
            checked += 1
    assert checked == 2054
