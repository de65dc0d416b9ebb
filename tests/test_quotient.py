import pytest

from conftest import all_subsets
from tamari import bracket_b as bb
from tamari import quotient_bds as q
from tamari.bracket_b import INF
from tamari.kinds import lattice_kind


def test_in_tns_examples(triangulations_by_n):
    bot = triangulations_by_n[3][(0, 0, 0)]
    for s in all_subsets(3):
        assert q.in_tns(bot, s)
    t = triangulations_by_n[3][(0, 0, 2)]
    assert not q.in_tns(t, {3})
    assert q.in_tns(t, {1, 2})


def test_triangle_and_bracket_tests_agree(triangulations_by_n):
    # in_tns asserts the equivalence internally; drive it over everything
    for n in (1, 2, 3, 4):
        for t in triangulations_by_n[n].values():
            for s in all_subsets(n):
                q.in_tns(t, s)


def test_project_examples():
    assert q.project((0, 1, 2), {3}, 3) == (0, 1, INF)
    assert q.project((0, 1, INF), {3}, 3) == (0, 1, INF)
    assert q.project((0, 1, 2), set(), 3) == (0, 1, 2)
    fs = frozenset({3})
    assert q.project(q.project((0, 1, 2), fs, 3), fs, 3) == (0, 1, INF)


def test_class_structure(vectors_by_n):
    for n in (2, 3, 4):
        for s in all_subsets(n):
            seen = {}
            for v in vectors_by_n[n]:
                cls = q.class_of(v, s, n)
                assert v in cls and len(cls) in (1, 2)
                top = q.project(v, s, n)
                assert q.vector_in_tns(top, n, s)
                assert all(q.project(u, s, n) == top for u in cls)
                seen.setdefault(top, set()).update(cls)
            # classes partition the lattice
            assert sum(len(c) for c in seen.values()) == len(vectors_by_n[n])


def test_meet_join_examples():
    s = frozenset({3})
    assert q._join_s((0, 1, 0), (0, 0, 1), s, 3) == (0, 1, INF)
    top = (INF, INF, INF)
    for a in q.elements_tns(3, s):
        assert bb.meet(a, top, 3) == a
    # empty s: plain type-B operations
    assert q._join_s((0, 1, 0), (0, 0, 1), frozenset(), 3) == bb.join((0, 1, 0), (0, 0, 1), 3)


def test_member_check():
    with pytest.raises(ValueError):
        q.check_member((0, 1, 2), frozenset({3}), 3)


@pytest.mark.parametrize("op", [q.covers_s])
@pytest.mark.parametrize("first", [True, False])
def test_pair_operations_refuse_a_non_member(op, first):
    # (0, 0, 2) and (0, 1, 2) are type-B vectors outside T_3^{3}; (1, 1, 0) is not valid
    s, member = frozenset({3}), (0, 0, 0)
    for bad in ((0, 0, 2), (0, 1, 2), (1, 1, 0)):
        pair = (bad, member) if first else (member, bad)
        with pytest.raises(ValueError, match="not in T_n\\^S"):
            op(*pair, s, 3)


def test_upper_covers_are_the_hasse_covers():
    # the projected type-B covers are exactly the members that cover v
    for n in (1, 2, 3):
        for s in all_subsets(n):
            elems = q.elements_tns(n, s)
            for v in elems:
                assert q._upper_covers_s(v, s, n) == [w for w in elems if q.covers_s(v, w, s, n)]


def test_covers_examples():
    s = frozenset({3})
    assert q.covers_s((0, 1, 0), (0, 1, INF), s, 3)
    # the interpolant (0,1,2) sits between them in the full lattice
    assert bb.covers((0, 1, 0), (0, 1, 2), 3) and bb.covers((0, 1, 2), (0, 1, INF), 3)
    for a in bb.enumerate_vectors(2):
        for b in bb.enumerate_vectors(2):
            assert q.covers_s(a, b, frozenset(), 2) == bb.covers(a, b, 2)


def test_covers_dichotomy():
    # every S-cover is a B-cover or has a unique equivalent interpolant
    for n in (1, 2, 3):
        vecs = bb.enumerate_vectors(n)
        for s in all_subsets(n):
            elems = q.elements_tns(n, s)
            for a in elems:
                for b in elems:
                    if not (bb.leq(a, b) and a != b):
                        continue
                    hasse = not any(
                        c not in (a, b) and bb.leq(a, c) and bb.leq(c, b) for c in elems
                    )
                    assert q.covers_s(a, b, s, n) == hasse
                    if hasse and not bb.covers(a, b, n):
                        mids = [
                            c
                            for c in vecs
                            if c not in (a, b) and bb.leq(a, c) and bb.leq(c, b)
                        ]
                        assert len(mids) == 1
                        z = mids[0]
                        assert q.equivalent(z, b, s, n)
                        k = next(i for i in range(n) if z[i] != b[i])
                        assert z[k] == n - 1 and b[k] == INF


def test_join_congruence_holds(vectors_by_n):
    # the join half of the congruence claim is sound
    for n in (1, 2, 3):
        vecs = vectors_by_n[n]
        for s in all_subsets(n):
            for v in vecs:
                w = q.project(v, s, n)
                if w == v:
                    continue
                for z in vecs:
                    assert q.equivalent(bb.join(v, z, n), bb.join(w, z, n), s, n)


def test_meet_congruence_erratum():
    """The meet half of the congruence claim fails; pin the counterexample."""
    n, s = 2, frozenset({1})
    v, w, z = (1, INF), (INF, INF), (INF, 0)
    assert q.equivalent(v, w, s, n)
    assert bb.meet(v, z, n) == (0, 0)
    assert bb.meet(w, z, n) == (INF, 0)
    assert not q.equivalent((0, 0), (INF, 0), s, n)


def test_counts_match_bds_partitions():
    from tamari import noncross as nc

    for n in (1, 2, 3, 4):
        ncb = nc.enumerate_ncb(n)
        for s in all_subsets(n):
            assert len(q.elements_tns(n, s)) == sum(1 for p in ncb if nc.in_bds(p, s))


def test_bds_size_in_closed_form_equals_the_listing():
    # C(2n, n) - |S| Catalan(n-1): the closed form that `count --type bds` prints
    for n in range(1, 7):
        for s in all_subsets(n):
            assert lattice_kind("bds", n, s).size() == len(q.elements_tns(n, s)), (n, s)
