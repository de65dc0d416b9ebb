import itertools

import pytest

from tamari import bracket_b as bb
from tamari import noncross as nc
from tamari import polygon as pg
from tamari import tamari_a as ta
from tamari import tri_b
from tamari.bracket_b import INF


def labelled(n, pairs):
    return tri_b.TriangulationB.from_chords(
        n, [pg.chord_from_labels(p, n) for p in pairs]
    )


def top3():
    return labelled(3, [("1", "-1"), ("2", "-1"), ("3", "-1"), ("1", "-2"), ("1", "-3")])


def bottom3():
    return labelled(3, [("1", "4"), ("2", "4"), ("-1", "-4"), ("-2", "-4"), ("4", "-4")])


def chords_as_labels(t):
    return {frozenset(pg.chord_to_labels(c, t.n)) for c in t.chords}


def test_validation_rejects_bad_sets():
    with pytest.raises(ValueError):
        labelled(3, [("1", "3"), ("2", "4"), ("-1", "-3"), ("-2", "-4"), ("4", "-4")])
    with pytest.raises(ValueError):  # not symmetric
        labelled(3, [("1", "3"), ("1", "4"), ("2", "4"), ("-1", "-4"), ("-2", "-4")])
    with pytest.raises(ValueError):  # wrong count
        labelled(3, [("1", "3"), ("-1", "-3")])


def test_quad_of_examples():
    t = top3()
    q = tri_b.quad_of(t, pg.chord_from_labels(("2", "-1"), 3))
    assert q == tuple(sorted(pg.idx_of(x, 3) for x in ("1", "2", "3", "-1")))
    with pytest.raises(ValueError):
        tri_b.quad_of(t, pg.chord_from_labels(("1", "2"), 3))
    fig2 = bb.decode((0, INF, 0, 0, 2, 0), 6)
    q = tri_b.quad_of(fig2, pg.chord_from_labels(("5", "2"), 6))
    # adjacent triangles 2-3-5 and 2-5-7, read off the reconstructed chord set
    assert q == tuple(sorted(pg.idx_of(x, 6) for x in ("2", "3", "5", "7")))


def test_color_figure2():
    t = bb.decode((0, INF, 0, 0, 2, 0), 6)
    reds = {c for c in t.chords if tri_b.color(t, c) == tri_b.RED}
    assert reds == {
        pg.chord_from_labels(p, 6) for p in (("2", "5"), ("2", "-2"), ("-2", "-5"))
    }
    for c in t.chords - reds:
        assert tri_b.color(t, c) == tri_b.GREEN


def test_color_bottom_all_green():
    t = bottom3()
    assert all(tri_b.color(t, c) == tri_b.GREEN for c in t.chords)


def test_flip_changes_color():
    # flipping inverts the colour of the replaced diagonal
    for v in bb.enumerate_vectors(3):
        t = bb.decode(v, 3)
        for c in t.chords:
            u = tri_b.flip(t, c)
            x, y = t.apexes(c)
            assert tri_b.color(u, pg.chord(x, y)) != tri_b.color(t, c)


def test_c_i_examples():
    fig2 = bb.decode((0, INF, 0, 0, 2, 0), 6)
    assert tri_b.c_i(fig2, 2) == pg.chord_from_labels(("2", "-2"), 6)
    assert tri_b.c_i(fig2, 5) == pg.chord_from_labels(("5", "2"), 6)
    for i in (1, 3, 4, 6):
        assert tri_b.c_i(fig2, i) is None
    assert all(tri_b.c_i(bottom3(), i) is None for i in (1, 2, 3))
    t = top3()
    assert tri_b.c_i(t, 1) == pg.chord_from_labels(("1", "-1"), 3)
    assert tri_b.c_i(t, 2) == pg.chord_from_labels(("2", "-1"), 3)
    assert tri_b.c_i(t, 3) == pg.chord_from_labels(("3", "-1"), 3)


def test_c_i_red_set_and_encode_on_every_vector():
    """c_i against its definition, the clockwise walk from 1bar that stops
    before i's counter-clockwise neighbour; red_set against the chord colours;
    encode(decode(v)) == v.  Every vector for n <= 6."""
    for n in range(1, 7):
        m = pg.n_vertices(n)
        for v in bb.enumerate_vectors(n):
            t = bb.decode(v, n)
            assert bb.encode(t) == v
            assert tri_b.red_set(t) == {c for c in t.chords if tri_b.color(t, c) == tri_b.RED}
            for i in range(1, n + 1):
                walk = (pg.chord(i - 1, (n + 1 + s) % m) for s in range((i - 2 - (n + 1)) % m))
                assert tri_b.c_i(t, i) == next((c for c in walk if c in t.chords), None), (v, i)


def test_red_set_examples():
    assert tri_b.red_set(bottom3()) == frozenset()
    assert tri_b.red_set(top3()) == top3().chords
    fig2 = bb.decode((0, INF, 0, 0, 2, 0), 6)
    assert tri_b.red_set(fig2) == {
        pg.chord_from_labels(p, 6) for p in (("2", "5"), ("2", "-2"), ("-2", "-5"))
    }


def test_green_complete_whole_polygon():
    got = tri_b.green_complete(3, range(8))
    assert got == bottom3().chords


def test_green_complete_degenerate():
    assert tri_b.green_complete(3, [0, 1, 4]) == set()
    assert tri_b.green_complete(3, [0, 1]) == set()


def _region_triangulations(verts):
    """All triangulations of a convex region, as sets of internal chords."""
    verts = tuple(verts)
    if len(verts) < 4:
        return [frozenset()]
    out = set()
    last = len(verts) - 1
    for k in range(1, last):  # apex of the triangle on the side (first, last)
        c1 = {pg.chord(verts[0], verts[k])} if k > 1 else set()
        c2 = {pg.chord(verts[k], verts[last])} if k < last - 1 else set()
        for t1 in _region_triangulations(verts[: k + 1]):
            for t2 in _region_triangulations(verts[k:]):
                out.add(frozenset(t1 | t2 | c1 | c2))
    return sorted(out, key=sorted)


def _all_green_triangulations(n, verts):
    """Brute force: triangulations of the region whose chords are all green
    under the region-local quadrilateral colouring."""
    verts = tuple(sorted(verts))
    result = []
    for chords in _region_triangulations(verts):
        sides = {
            pg.chord(verts[i], verts[(i + 1) % len(verts)]) for i in range(len(verts))
        }
        edges = chords | sides
        ok = True
        for c in chords:
            apexes = [
                x
                for x in verts
                if x not in c and pg.chord(c[0], x) in edges and pg.chord(c[1], x) in edges
            ]
            others = [v for v in apexes]
            kind = pg.chord_kind(c, n)
            if kind == "mixed":
                unb = next(v for v in c if not pg.is_barred(v, n))
                bar = next(v for v in c if pg.is_barred(v, n))
                red = any(
                    pg.label_value(v, n) > pg.label_value(bar if pg.is_barred(v, n) else unb, n)
                    for v in others
                )
            else:
                barred = kind == "pure-barred"
                top = max(pg.label_value(v, n) for v in c)
                red = any(
                    pg.is_barred(v, n) == barred and pg.label_value(v, n) > top
                    for v in others
                )
            if red:
                ok = False
                break
        if ok:
            result.append(frozenset(chords))
    return result


def _green_by_label(n, region):
    """The rule `green_complete` replaced: each hub the member of largest
    label, adjacency looked up by region position."""
    verts = sorted(region)
    if len(verts) < 3:
        return set()
    pos = {v: k for k, v in enumerate(verts)}

    def adjacent(a, b):
        return abs(pos[a] - pos[b]) in (1, len(verts) - 1)

    runs = [[v for v in verts if pg.is_barred(v, n) == barred] for barred in (False, True)]
    hubs = [max(vs, key=lambda v: pg.label_value(v, n)) for vs in runs if vs]
    out = {pg.chord(v, hub) for vs, hub in zip([r for r in runs if r], hubs)
           for v in vs if v != hub and not adjacent(v, hub)}
    if len(hubs) == 2 and not adjacent(*hubs):
        out.add(pg.chord(*hubs))
    return out


def test_green_complete_by_position_equals_the_max_by_label_rule():
    """Every vertex subset of the (2n+2)-gon for n <= 4, 1,360 subsets."""
    count = 0
    for n in range(1, 5):
        m = pg.n_vertices(n)
        for size in range(m + 1):
            for region in itertools.combinations(range(m), size):
                assert tri_b.green_complete(n, region) == _green_by_label(n, region), region
                count += 1
    assert count == 1360


def _recursive_split(m, chords):
    """The split the stack pass replaced: cut the polygon along its first
    chord and recurse on both sides with the chords that fall there."""

    def rec(verts, cs):
        if not cs:
            return [verts]
        a, b = cs[0]
        ia, ib = sorted((verts.index(a), verts.index(b)))
        left, right = verts[ia : ib + 1], verts[ib:] + verts[: ia + 1]
        lcs = [c for c in cs[1:] if set(c) <= set(left) and set(c) != {a, b}]
        return rec(left, lcs) + rec(right, [c for c in cs[1:] if c not in lcs])

    return rec(tuple(range(m)), sorted(set(chords)))


def test_stack_split_equals_the_recursive_split():
    """As sets of regions, on the red set and on the full chord set of every
    vector for n <= 6, types b and a."""

    def regions(rs):
        return sorted(tuple(sorted(r)) for r in rs)

    for n in range(1, 7):
        cases = [(pg.n_vertices(n), bb.decode(v, n), tri_b.red_set) for v in bb.enumerate_vectors(n)]
        cases += [(n + 3, ta.decode_a(v, n), ta.red_set_a) for v in ta.enumerate_a(n)]
        for m, t, reds in cases:
            for chords in (reds(t), t.chords):
                assert regions(tri_b.split_regions(m, chords)) == regions(
                    _recursive_split(m, chords)
                ), (n, t)


def test_green_complete_unique_by_brute_force():
    # every vertex subset of the octagon with >= 4 vertices has a
    # unique all-green triangulation
    n = 3
    for size in range(4, 9):
        for verts in itertools.combinations(range(8), size):
            greens = _all_green_triangulations(n, verts)
            assert len(greens) == 1, (verts, greens)
            assert greens[0] == frozenset(tri_b.green_complete(n, verts)), verts


def test_from_red_set_round_trip(triangulations_by_n):
    for n, tris in triangulations_by_n.items():
        for t in tris.values():
            assert tri_b.from_red_set(n, tri_b.red_set(t)) == t


def test_from_red_set_errors():
    i = lambda lab: pg.idx_of(lab, 3)
    with pytest.raises(ValueError, match="symmetric"):
        tri_b.from_red_set(3, [pg.chord(i("1"), i("-2"))])
    with pytest.raises(ValueError, match="cross"):
        tri_b.from_red_set(
            3,
            [
                pg.chord(i("1"), i("-1")),
                pg.chord(i("2"), i("-2")),
            ],
        )
    with pytest.raises(ValueError, match="realizable"):
        tri_b.from_red_set(3, [pg.chord(i("1"), i("4")), pg.chord(i("-1"), i("-4"))])


def _crossing_set(kind, n, pairs):
    """Build a triangulation of type "a" or "b", or a "red" set, from chords."""
    if kind == "a":
        return ta.TriangulationA.from_chords(n, pairs)
    chords = [pg.chord_from_labels(p, n) for p in pairs]
    if kind == "b":
        return tri_b.TriangulationB.from_chords(n, chords)
    return tri_b.from_red_set(n, chords)


@pytest.mark.parametrize(
    "kind, n, pairs, message",
    [
        ("b", 3, [("1", "3"), ("2", "4"), ("-1", "-3"), ("-2", "-4"), ("4", "-4")],
         "chords (4, 6) and (5, 7) cross"),
        ("b", 4, [("1", "-1"), ("2", "-2"), ("3", "-3"), ("4", "-4"), ("5", "-5"), ("1", "3"),
                  ("-1", "-3")],
         "chords (3, 8) and (2, 7) cross"),
        ("a", 3, [(0, 2), (1, 3), (3, 5)], "chords (0, 2) and (1, 3) cross"),
        ("a", 4, [(0, 3), (1, 4), (2, 5), (4, 6)], "chords (4, 6) and (2, 5) cross"),
        ("red", 3, [("1", "-1"), ("2", "-2")], "red chords (0, 4) and (1, 5) cross"),
        ("red", 4, [("1", "3"), ("-1", "-3"), ("2", "-2"), ("4", "-2"), ("-4", "2")],
         "red chords (1, 8) and (0, 2) cross"),
    ],
)
def test_crossing_error_names_the_pair_scan_pair(kind, n, pairs, message):
    """The stack pass decides; the error names the first crossing pair of the
    pair scan over the chord set, in the pinned text."""
    chords = frozenset(
        pg.chord(*p) if kind == "a" else pg.chord_from_labels(p, n) for p in pairs
    )
    first = next(c for c in itertools.combinations(chords, 2) if pg.crosses(*c))
    assert message.endswith(f"chords {first[0]} and {first[1]} cross")
    with pytest.raises(ValueError) as e:
        _crossing_set(kind, n, pairs)
    assert str(e.value) == message


def test_flip_diameter_example():
    t = bottom3()
    diam = pg.chord_from_labels(("4", "-4"), 3)
    u = tri_b.flip(t, diam)
    new = next(iter(u.chords - t.chords))
    assert new[1] - new[0] == 3 + 1  # a diameter
    assert tri_b.color(u, new) == tri_b.RED
    assert tri_b.flip(u, new) == t


def test_flip_is_symmetric_involution(triangulations_by_n):
    for n, tris in triangulations_by_n.items():
        if n > 3:
            continue
        for t in tris.values():
            for c in t.chords:
                u = tri_b.flip(t, c)
                x, y = t.apexes(c)
                assert tri_b.flip(u, pg.chord(x, y)) == t


def test_flip_graph_builds_each_decoded_triangulation_once(monkeypatch):
    """The flip-graph search reaches exactly the chord sets of the decoded
    vectors, n <= 5, and builds one `TriangulationB` per node.  `flip` still
    validates `flipped_chords`: a diameter flips to a diameter, and a chord
    set that is not a triangulation raises."""
    triangulation = tri_b.TriangulationB
    for n in range(1, 6):
        built = []
        monkeypatch.setattr(
            tri_b, "TriangulationB", lambda m, chords: built.append(chords) or triangulation(m, chords)
        )
        tris = tri_b.enumerate_triangulations(n)
        monkeypatch.undo()
        assert len(built) == len(tris) and set(built) == {t.chords for t in tris}
        assert {t.chords for t in tris} == {bb.decode(v, n).chords for v in bb.enumerate_vectors(n)}
    diameters = 0
    for t in tris:
        for c in t.chords:
            if c[1] - c[0] == 5 + 1:  # a diameter
                ((a, b),) = tri_b.flip(t, c).chords - t.chords
                assert b - a == 5 + 1
                diameters += 1
    assert diameters == len(tris)
    monkeypatch.setattr(tri_b, "flipped_chords", lambda t, c: t.chords - {c})
    with pytest.raises(ValueError, match="expected 9 chords, got 8"):
        tri_b.flip(t, c)


def test_apexes_from_ends_equal_the_vertex_scan():
    """The apex search from `ends` against the scan it replaced, every vertex
    joined to both ends by a chord or a side, on every chord of every
    triangulation: type b for n <= 5 and type a for n <= 6, 6,334 chords."""
    cases = [bb.decode(v, n) for n in range(1, 6) for v in bb.enumerate_vectors(n)]
    cases += [ta.decode_a(v, n) for n in range(1, 7) for v in ta.enumerate_a(n)]
    checked = 0
    for t in cases:
        edges = t.edges()
        for a, b in t.chords:
            scan = [x for x in range(t.sides) if x not in (a, b)
                    and pg.chord(a, x) in edges and pg.chord(b, x) in edges]
            assert t.apexes((a, b)) == tuple(scan), (t, (a, b))
            checked += 1
    assert checked == 6334


def test_red_set_is_found_once_per_triangulation(monkeypatch):
    """psi(decode(v)) finds the red set once: `from_red_set` checks it and
    `noncross.psi` reuses it."""
    calls = []
    found = tri_b.red_set
    monkeypatch.setattr(tri_b, "red_set", lambda t: calls.append(t) or found(t))
    v = (0, INF, 0, 0, 2, 0)
    assert nc.psi(bb.decode(v, 6)).n == 6
    assert len(calls) == 1


def test_covers_by_flip(triangulations_by_n):
    tris = triangulations_by_n[3]
    bot = bottom3()
    flips = tri_b.green_flips(bot)
    ups = [t for t in tris.values() if t in flips]
    assert len(ups) == 3
    assert {bb.encode(t) for t in ups} == {(0, 1, 0), (0, 0, 1), (INF, 0, 0)}
    assert bot not in flips


def test_json_round_trip():
    t = bb.decode((0, INF, 0, 0, 2, 0), 6)
    assert tri_b.TriangulationB.from_json(t.to_json()) == t
    data = t.to_json()
    assert data["n"] == 6
    # canonical ordering: chords sorted by their index pairs
    pairs = [pg.chord_from_labels(p, 6) for p in data["chords"]]
    assert pairs == sorted(pairs)
