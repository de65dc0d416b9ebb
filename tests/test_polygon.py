import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from tamari import polygon as pg

sizes = st.integers(min_value=1, max_value=8)


@st.composite
def vertex(draw, n=None):
    n = n if n is not None else draw(sizes)
    return n, draw(st.integers(min_value=0, max_value=2 * n + 1))


@st.composite
def chord_for(draw, n):
    m = 2 * n + 2
    a = draw(st.integers(min_value=0, max_value=m - 1))
    off = draw(st.integers(min_value=2, max_value=m - 2))
    return pg.chord(a, (a + off) % m)


def test_label_index_bijection():
    for n in range(1, 7):
        labels = [pg.label_of(k, n) for k in range(2 * n + 2)]
        assert len(set(labels)) == 2 * n + 2
        for k in range(2 * n + 2):
            assert pg.idx_of(labels[k], n) == k
    assert pg.label_of(0, 3) == "1"
    assert pg.label_of(4, 3) == "-1"
    assert pg.idx_of("-4", 3) == 7


def test_clockwise_numbering():
    # clockwise successor increments the index
    n = 3
    assert pg.idx_of("2", n) == pg.idx_of("1", n) + 1
    assert pg.idx_of("-1", n) == pg.idx_of("4", n) + 1


def test_symmetric_partner_examples():
    n = 3
    c = pg.chord(pg.idx_of("1", n), pg.idx_of("4", n))
    assert pg.chord_partner(c, n) == pg.chord(pg.idx_of("-1", n), pg.idx_of("-4", n))
    diam = pg.chord(pg.idx_of("1", n), pg.idx_of("-1", n))
    assert pg.chord_partner(diam, n) == diam
    n = 6
    c = pg.chord(pg.idx_of("3", n), pg.idx_of("4", n))
    assert pg.chord_partner(c, n) == pg.chord(pg.idx_of("-3", n), pg.idx_of("-4", n))


@given(st.data())
def test_symmetric_partner_involution(data):
    n = data.draw(sizes)
    c = data.draw(chord_for(n))
    assert pg.chord_partner(pg.chord_partner(c, n), n) == c


def test_crosses_examples():
    n = 3
    i = lambda lab: pg.idx_of(lab, n)
    assert pg.crosses(pg.chord(i("1"), i("3")), pg.chord(i("2"), i("4")))
    assert not pg.crosses(pg.chord(i("1"), i("3")), pg.chord(i("3"), i("-1")))
    assert pg.crosses(pg.chord(i("1"), i("-1")), pg.chord(i("2"), i("-2")))


@given(st.data())
def test_crosses_symmetric_and_partner_disjoint(data):
    n = data.draw(sizes)
    c1, c2 = data.draw(chord_for(n)), data.draw(chord_for(n))
    assert pg.crosses(c1, c2) == pg.crosses(c2, c1)
    if c1[1] - c1[0] != n + 1:  # not a diameter
        assert not pg.crosses(c1, pg.chord_partner(c1, n))


def test_ccw_distance_examples():
    n = 6
    assert pg.ccw_distance(pg.idx_of("4", n), pg.idx_of("2", n), n) == 2
    assert pg.ccw_distance(5, 5, n) == 0
    n = 3
    assert pg.ccw_distance(pg.idx_of("1", n), pg.idx_of("2", n), n) == 7


@given(st.data())
def test_ccw_distance_antipodal_sum(data):
    n = data.draw(sizes)
    a = data.draw(st.integers(min_value=0, max_value=2 * n + 1))
    b = data.draw(st.integers(min_value=0, max_value=2 * n + 1))
    if a != b:
        assert pg.ccw_distance(a, b, n) + pg.ccw_distance(b, a, n) == 2 * n + 2
    else:
        assert pg.ccw_distance(a, b, n) == 0


def test_chord_kind_and_edges():
    n = 3
    i = lambda lab: pg.idx_of(lab, n)
    assert pg.chord_kind(pg.chord(i("1"), i("3")), n) == "pure-unbarred"
    assert pg.chord_kind(pg.chord(i("-1"), i("-3")), n) == "pure-barred"
    assert pg.chord_kind(pg.chord(i("2"), i("-1")), n) == "mixed"
    m = pg.n_vertices(n)
    assert pg.is_side(pg.chord(i("1"), i("2")), m)
    assert pg.is_side(pg.chord(i("1"), i("-4")), m)
    assert not pg.is_side(pg.chord(i("1"), i("3")), m)
    a, b = pg.chord(i("2"), i("-2"))
    assert b - a == n + 1  # a diameter


def test_chord_json_encoding():
    n = 3
    c = pg.chord_from_labels(["2", "-1"], n)
    assert pg.chord_to_labels(c, n) == ["2", "-1"]
    assert pg.chord_from_labels([2, -1], n) == c


@settings(max_examples=400)
@given(st.data())
def test_noncrossing_stack_matches_the_pair_scan(data):
    # small polygons, so that many chords share an endpoint or repeat
    m = data.draw(st.integers(min_value=2, max_value=12))
    ends = st.lists(st.integers(min_value=0, max_value=m - 1), min_size=2, max_size=2, unique=True)
    chords = [pg.chord(a, b) for a, b in data.draw(st.lists(ends, max_size=8))]
    pair_scan = not any(pg.crosses(c1, c2) for c1, c2 in itertools.combinations(chords, 2))
    assert pg.noncrossing(chords) == pair_scan


def test_noncrossing_examples():
    assert pg.noncrossing([])
    assert pg.noncrossing([(0, 5), (0, 3), (1, 3), (3, 5), (3, 4)])  # shared ends nest
    assert not pg.noncrossing([(0, 3), (1, 5)])
    assert not pg.noncrossing([(0, 6), (1, 3), (4, 7)])  # found once (1, 3) is popped
