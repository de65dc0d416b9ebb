import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tamari
from conftest import all_subsets, bracket_vectors
from tamari import bracket_b as bb
from tamari import quotient_bds as q
from tamari import tamari_a as ta
from tamari import tri_b
from tamari.bracket_b import INF
from tamari.kinds import lattice_kind


def all_tuples(n):
    vals = list(range(n)) + [INF]
    return (tuple(t) for t in itertools.product(vals, repeat=n))


def test_validate_examples():
    assert bb.is_valid((0, INF, 0, 0, 2, 0), 6)
    assert bb.violation((1, 0, 0), 3) == ("ii", 1)
    assert bb.is_valid((0, 0, 0), 3)
    assert bb.violation((INF, 1, 2), 3) == ("i", (1, 2))
    with pytest.raises(ValueError):
        bb.violation((0, 0, 5), 3)


def test_m1_m2_split():
    assert bb.in_m1((1, 0, 0), 3) and not bb.in_m2((1, 0, 0), 3)
    assert bb.in_m2((INF, 1, 2), 3) and not bb.in_m1((INF, 1, 2), 3)


def test_condition_i_pass_matches_the_pair_scan():
    """The O(n log n) pass decides (i) as the pair scan does, and the witness
    is the scan's first pair, on every tuple of the box for n <= 6."""
    for n in range(1, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for v in all_tuples(n):
            first = next(
                ((i + 1, j + 1) for i, j in pairs if 0 <= v[j] - (j - i) < v[i]), None
            )
            assert bb._holds_i(v) == (first is None), v
            assert bb._witness_i(v, n) == first, v


def test_encode_examples():
    assert bb.encode(bb.decode((0, INF, 0, 0, 2, 0), 6)) == (0, INF, 0, 0, 2, 0)
    assert bb.encode(tri_b.bottom(3)) == (0, 0, 0)
    top = bb.decode((INF, INF, INF), 3)
    assert bb.encode(top) == (INF, INF, INF)
    # every scan chord of the top goes to a barred vertex
    assert all(tri_b.c_i(top, i) is not None for i in (1, 2, 3))


def test_decode_examples():
    assert bb.decode((0,) * 4, 4) == tri_b.bottom(4)
    # infinite-entry decode rule by hand: C_1 of the n=3 top is the diameter 1-1bar
    top = bb.decode((INF, INF, INF), 3)
    from tamari.polygon import chord_from_labels

    assert chord_from_labels(("1", "-1"), 3) in top.chords
    with pytest.raises(ValueError):
        bb.decode((1, 0, 0), 3)


def test_enumerators_equal_filtered_products():
    """The prefix-pruned enumerators list exactly the valid tuples, in product order."""
    for n in range(1, 6):
        valid = [v for v in all_tuples(n) if bb.is_valid(v, n)]
        assert bb.enumerate_vectors(n) == valid
        for s in all_subsets(n):
            assert q.elements_tns(n, s) == [v for v in valid if q.vector_in_tns(v, n, s)]
        boxes = itertools.product(range(n + 1), repeat=n + 1)
        assert ta.enumerate_a(n) == [v for v in boxes if ta.validate_a(v, n) is None]


def test_encode_decode_bijection(vectors_by_n, triangulations_by_n):
    for n, tris in triangulations_by_n.items():
        assert len(set(tris.values())) == len(vectors_by_n[n])
        for v, t in tris.items():
            assert bb.encode(t) == v


def test_leq_examples():
    assert bb.leq((0, 0, 0), (INF, INF, INF))
    assert not bb.leq((0, 1, 0), (0, 0, 1)) and not bb.leq((0, 0, 1), (0, 1, 0))
    assert bb.leq((0, 1, 0), (0, 1, 0))


def test_fits_at_matches_is_valid():
    for n in range(1, 7):
        for v in bb.enumerate_vectors(n):
            for k in range(n):
                for x in list(range(n)) + [INF]:
                    assert bb.fits_at(v, n, k, x) == bb.is_valid(v[:k] + (x,) + v[k + 1 :], n)


def test_upper_covers_are_next_valid_raises():
    for n in range(1, 7):
        for v in bb.enumerate_vectors(n):
            expected = []
            for k in range(n):
                above = [x for x in list(range(n)) + [INF] if x > v[k]]
                nxt = [x for x in above if bb.is_valid(v[:k] + (x,) + v[k + 1 :], n)]
                if nxt:
                    expected.append(v[:k] + (nxt[0],) + v[k + 1 :])
            assert bb.upper_covers(v, n) == expected


def test_next_value_pass_equals_the_candidate_loop():
    """The next legal value at every coordinate of every vector for n <= 7,
    from the one-pass `upper_covers` and the per-coordinate
    `_next_value_at`, against the candidate loop they replace: each value
    above v_k in turn, checked by `fits_at`."""
    count = 0
    for n in range(1, 8):
        for v in bb.enumerate_vectors(n):
            ups = iter(bb.upper_covers(v, n))
            for k in range(n):
                loop = None if v[k] == INF else next(
                    (x for x in [*range(v[k] + 1, n), INF] if bb.fits_at(v, n, k, x)), None
                )
                assert bb._next_value_at(v, n, k) == loop, (v, k)
                if loop is not None:
                    assert next(ups) == v[:k] + (loop,) + v[k + 1 :], (v, k)
                count += 1
            assert next(ups, None) is None, v
    assert count == 31182


def test_covers_examples():
    assert bb.covers((0, 0, 0), (INF, 0, 0), 3)
    assert not bb.covers((0, 0, 0), (0, INF, 0), 3)
    covs = {w for w in bb.enumerate_vectors(3) if bb.covers((0, 0, 0), w, 3)}
    assert covs == {(0, 1, 0), (0, 0, 1), (INF, 0, 0)}


def test_up_examples():
    assert bb.up((0, 1, 1), 3) == (0, 1, 2)
    for v in bb.enumerate_vectors(3):
        assert bb.up(v, 3) == v
    assert bb.up((0, 0, 0, 0), 4) == (0, 0, 0, 0)
    with pytest.raises(ValueError):
        bb.up((1, 0, 0), 3)


def test_down_examples():
    assert bb.down((1, 0, 0), 3) == (0, 0, 0)
    for v in bb.enumerate_vectors(3):
        assert bb.down(v, 3) == v
    assert bb.down((INF, INF, INF), 3) == (INF, INF, INF)
    with pytest.raises(ValueError):
        bb.down((INF, 1, 2), 3)


def test_up_down_semantics_exhaustive(vectors_by_n):
    # up(f) is the least valid vector above f; down(f) the greatest below,
    # on every tuple of the box up to n = 4 (all of M^(i) and M^(ii))
    for n in (1, 2, 3, 4):
        vecs = vectors_by_n[n]
        for f in all_tuples(n):
            if bb.in_m2(f, n):
                above = [r for r in vecs if bb.leq(f, r)]
                assert bb.up(f, n) == min(above)
                assert all(bb.leq(min(above), r) for r in above)
            if bb.in_m1(f, n):
                below = [r for r in vecs if bb.leq(r, f)]
                assert bb.down(f, n) == max(below)
                assert all(bb.leq(r, max(below)) for r in below)


def test_galois_equivalences(vectors_by_n):
    # the closure/kernel adjunctions
    for n in (1, 2, 3):
        vecs = vectors_by_n[n]
        for f in all_tuples(n):
            if bb.in_m2(f, n):
                uf = bb.up(f, n)
                assert all(bb.leq(f, r) == bb.leq(uf, r) for r in vecs)
            if bb.in_m1(f, n):
                df = bb.down(f, n)
                assert all(bb.leq(r, f) == bb.leq(r, df) for r in vecs)


def test_closure_kernel_operator_laws():
    n = 3
    m2 = [f for f in all_tuples(n) if bb.in_m2(f, n)]
    for f in m2:
        uf = bb.up(f, n)
        assert bb.leq(f, uf)
        assert bb.up(uf, n) == uf
    for f, g in itertools.product(m2, repeat=2):
        if bb.leq(f, g):
            assert bb.leq(bb.up(f, n), bb.up(g, n))
    m1 = [f for f in all_tuples(n) if bb.in_m1(f, n)]
    for f in m1:
        df = bb.down(f, n)
        assert bb.leq(df, f)
        assert bb.down(df, n) == df


def test_meet_join_examples():
    assert bb.join((0, 1, 0), (0, 0, 1), 3) == (0, 1, 2)
    assert bb.meet((0, 1, 0), (0, 0, 1), 3) == (0, 0, 0)
    top, bot = (INF, INF, INF), (0, 0, 0)
    for a in bb.enumerate_vectors(3):
        assert bb.meet(a, top, 3) == a
        assert bb.join(a, bot, 3) == a
        assert bb.meet(a, a, 3) == a == bb.join(a, a, 3)


def test_exported_meet_join_validate_their_inputs():
    # bb.meet/bb.join check nothing; the package-level names check both inputs
    assert tamari.meet((0, 1, 0), (0, 0, 1), 3) == (0, 0, 0)
    assert tamari.join((0, 1, 0), (0, 0, 1), 3) == (0, 1, 2)
    for bad in ((5, 5, 5), (0, 2, 0), (-1, 0, 0)):
        for op in (tamari.meet, tamari.join):
            with pytest.raises(ValueError):
                op(bad, (0, 0, 0), 3)
            with pytest.raises(ValueError):
                op((0, 0, 0), bad, 3)


def test_lattice_algebra_exhaustive_small(vectors_by_n):
    for n in (1, 2, 3, 4):
        vecs = vectors_by_n[n]
        meets = {(a, b): bb.meet(a, b, n) for a in vecs for b in vecs}
        joins = {(a, b): bb.join(a, b, n) for a in vecs for b in vecs}
        for a, b in itertools.product(vecs, repeat=2):
            assert meets[(a, b)] == meets[(b, a)]
            assert joins[(a, b)] == joins[(b, a)]
            assert joins[(a, meets[(a, b)])] == a
            assert meets[(a, joins[(a, b)])] == a
        for a, b, c in itertools.product(vecs, repeat=3):
            assert joins[(joins[(a, b)], c)] == joins[(a, joins[(b, c)])]
            assert meets[(meets[(a, b)], c)] == meets[(a, meets[(b, c)])]


def _conditions(f):
    """(satisfies (i), satisfies (ii)) for each n-vector along the last axis."""
    n = f.shape[-1]
    m1 = np.ones(f.shape[:-1], dtype=bool)
    m2 = np.ones(f.shape[:-1], dtype=bool)
    for i, j in itertools.combinations(range(n), 2):
        bound = f[..., j] - (j - i)
        m1 &= (bound < 0) | (f[..., i] <= bound)
    for i in range(n):
        for x in range(i + 1, n):
            m2 &= (f[..., i] != x) | np.isinf(f[..., n + i - x])
    return m1, m2


def test_meet_join_preconditions_hold_without_their_checks(vectors_by_n):
    # meet/join call the unchecked kernels of down/up: the min of two valid
    # vectors must satisfy (i) and the max (ii), for every pair at n <= 6
    for n in (1, 2, 3, 4):
        tuples = list(all_tuples(n))
        m1, m2 = _conditions(np.array(tuples, dtype=float))
        assert m1.tolist() == [bb.in_m1(f, n) for f in tuples]
        assert m2.tolist() == [bb.in_m2(f, n) for f in tuples]
    for n in range(1, 7):
        a = np.array(bb.enumerate_vectors(n), dtype=float)
        assert _conditions(np.minimum(a[:, None], a[None]))[0].all()
        assert _conditions(np.maximum(a[:, None], a[None]))[1].all()
    # and they agree with the checked down(min) / up(max)
    for n in range(1, 6):
        vecs = vectors_by_n[n]
        for a, b in itertools.combinations_with_replacement(vecs, 2):
            assert bb.meet(a, b, n) == bb.down(tuple(map(min, a, b)), n)
            assert bb.join(a, b, n) == bb.up(tuple(map(max, a, b)), n)


def test_cover_red_set_consequences(vectors_by_n, triangulations_by_n):
    # across a cover the red sets differ by C_k(T) and its
    # partner, and every red chord of S stays a chord of T
    from tamari.polygon import chord_partner

    for n in (1, 2, 3, 4):
        tris = triangulations_by_n[n]
        for a in vectors_by_n[n]:
            for b in bb.upper_covers(a, n):
                k = next(k for k in range(n) if a[k] != b[k])
                s_t, t_t = tris[a], tris[b]
                reds_s, reds_t = tri_b.red_set(s_t), tri_b.red_set(t_t)
                ck = tri_b.c_i(t_t, k + 1)
                assert ck is not None
                assert reds_t - reds_s == {ck, chord_partner(ck, n)}
                assert reds_s <= t_t.chords


@given(st.data())
def test_meet_join_bound_properties(vectors_by_n, data):
    n = data.draw(st.sampled_from([2, 3, 4]))
    vecs = vectors_by_n[n]
    a = data.draw(st.sampled_from(vecs))
    b = data.draw(st.sampled_from(vecs))
    m, j = bb.meet(a, b, n), bb.join(a, b, n)
    assert bb.leq(m, a) and bb.leq(m, b)
    assert bb.leq(a, j) and bb.leq(b, j)


@given(st.data())
def test_meet_join_large_n(data):
    # the kernels at n up to 60: meet and join are valid, the bounds,
    # commute, absorb, are idempotent, and equal the checked down(min) / up(max)
    a, n = data.draw(bracket_vectors(max_n=60))
    b, _ = data.draw(bracket_vectors(max_n=n, min_n=n))
    m, j = bb.meet(a, b, n), bb.join(a, b, n)
    assert bb.is_valid(m, n) and bb.is_valid(j, n)
    assert bb.leq(m, a) and bb.leq(m, b) and bb.leq(a, j) and bb.leq(b, j)
    assert bb.meet(b, a, n) == m and bb.join(b, a, n) == j
    assert bb.join(a, m, n) == a == bb.meet(a, j, n)
    assert bb.meet(a, a, n) == a == bb.join(a, a, n)
    assert m == bb.down(tuple(map(min, a, b)), n)
    assert j == bb.up(tuple(map(max, a, b)), n)


@pytest.mark.parametrize("kind, max_n", [("b", 5), ("bds", 4), ("a", 6)])
def test_row_forms_equal_the_scalar_formulas_on_every_pair(kind, max_n):
    # the suites check the row forms against the oracle over these ranges,
    # so the scalar meet and join (q._join_s for bds) stay oracle-checked
    for n in range(1, max_n + 1):
        for s in all_subsets(n) if kind == "bds" else [()]:
            lat = lattice_kind(kind, n, s)
            elems = list(lat.elements())
            rows = np.array(elems, dtype=float)
            for a in elems:
                for name in ("meet", "join"):
                    got = getattr(lat, f"{name}_rows")(a, rows)
                    want = [getattr(lat, name)(a, b) for b in elems]
                    assert (got == np.array(want, dtype=float)).all(), (kind, n, s, name, a)
            assert (rows == np.array(elems, dtype=float)).all()  # the operand rows are not written


@settings(max_examples=30)
@given(st.data())
def test_row_forms_equal_the_scalar_formulas_at_n_64(data):
    n = 64
    a = data.draw(bracket_vectors(n, n))[0]
    batch = [data.draw(bracket_vectors(n, n))[0] for _ in range(data.draw(st.integers(1, 5)))]
    s = data.draw(st.frozensets(st.integers(1, n)))
    rows = np.array(batch, dtype=float)
    for row_op, op in ((bb.meet_rows, bb.meet), (bb.join_rows, bb.join)):
        assert (row_op(a, rows, n) == np.array([op(a, b, n) for b in batch], dtype=float)).all()
    a, batch = q.project(a, s, n), [q.project(b, s, n) for b in batch]  # members of T_n^S
    want = np.array([q._join_s(a, b, s, n) for b in batch], dtype=float)
    assert (q._join_s_rows(a, np.array(batch, dtype=float), s, n) == want).all()


def test_json_round_trip():
    v = (0, INF, 0, 0, 2, 0)
    data = bb.vector_to_json(v)
    assert data == [0, "inf", 0, 0, 2, 0]
    assert bb.vector_from_json(data) == v
    with pytest.raises(ValueError):
        bb.vector_from_json([0, "oops"])
    with pytest.raises(ValueError):
        bb.vector_from_json([0.5, 1])
