from itertools import combinations

import numpy as np
import pytest

from tamari import oracle
from tamari.oracle import FinitePoset, PosetError


def divisibility(elems):
    return FinitePoset.build(elems, lambda a, b: b % a == 0)


def scan_bound(po, a, b, join):
    """The join (or meet) of a and b by a direct scan of the order, or None:
    of their common upper (lower) bounds, the one below (above) all others."""
    i, j = po.index[a], po.index[b]
    leq = po.leq
    bounds = np.nonzero(leq[i] & leq[j] if join else leq[:, i] & leq[:, j])[0]
    best = [k for k in bounds if all(leq[k, x] if join else leq[x, k] for x in bounds)]
    return po.elements[best[0]] if len(best) == 1 else None


def test_build_and_extremes():
    po = divisibility([1, 2, 3, 6])
    assert po.leq[0].all() and po.leq[:, 3].all()  # 1 is the bottom, 6 the top
    assert po.leq[1, 3] and not po.leq[1, 2]
    covers = {(po.elements[i], po.elements[j]) for i, j in zip(*np.nonzero(po.covers))}
    assert covers == {(1, 2), (1, 3), (2, 6), (3, 6)}


def test_single_element():
    po = FinitePoset.build(["x"], lambda a, b: True)
    assert po.leq.tolist() == [[True]] and not po.covers.any()
    assert po.all_meets().tolist() == po.all_joins().tolist() == [[0]]


def test_axiom_violations():
    with pytest.raises(PosetError, match="reflexive"):
        FinitePoset.build([1, 2], lambda a, b: a < b)
    with pytest.raises(PosetError, match="antisymmetric"):
        FinitePoset.build([1, 2], lambda a, b: True)
    # non-transitive: 1<=2, 2<=3, but not 1<=3
    with pytest.raises(PosetError, match="transitive"):
        FinitePoset.build(
            [1, 2, 3], lambda a, b: a == b or (a, b) in {(1, 2), (2, 3)}
        )


def test_bowtie_is_not_a_lattice():
    # two minimal, two maximal elements, all cross relations
    rel = {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}
    po = FinitePoset.build(
        ["a", "b", "c", "d"], lambda x, y: x == y or (x, y) in rel
    )
    assert scan_bound(po, "a", "b", join=True) is None
    assert scan_bound(po, "c", "d", join=False) is None
    # the index tables hold -1 exactly where the scans find no bound
    meets, joins = po.all_meets(), po.all_joins()
    assert (meets == -1).any() and (joins == -1).any()
    for i, x in enumerate(po.elements):
        for j, y in enumerate(po.elements):
            for table, join in ((meets, False), (joins, True)):
                k, scan = table[i, j], scan_bound(po, x, y, join)
                assert (k == -1) == (scan is None)
                assert k == -1 or po.elements[k] == scan


def test_meet_join_scan_and_bulk_agree():
    po = divisibility([1, 2, 3, 4, 6, 12])
    meets, joins = po.all_meets(), po.all_joins()
    # one triangle is looked up, the other mirrored: both must hold
    assert (meets == meets.T).all() and (joins == joins.T).all()
    named = [*po.elements, None]  # index -1, no meet or join, reads as None
    for i, a in enumerate(po.elements):  # both triangles against the scan
        for j, b in enumerate(po.elements):
            assert scan_bound(po, a, b, join=False) == named[meets[i, j]]
            assert scan_bound(po, a, b, join=True) == named[joins[i, j]]
    assert named[meets[3, 4]] == 2 and named[joins[3, 4]] == 12  # meet and join of 4 and 6
    assert named[meets[3, 3]] == 4


def test_bound_tables_survive_key_collisions(monkeypatch):
    """With every row key equal, each hit is decided by the exact row
    comparison alone: no entry may go wrong or missing."""
    rel = {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}
    posets = [
        divisibility([1, 2, 3, 4, 6, 12]),
        FinitePoset.build(["a", "b", "c", "d"], lambda x, y: x == y or (x, y) in rel),
        # 128 elements: rows of two 64-bit words
        FinitePoset.build(
            [frozenset(c) for r in range(8) for c in combinations(range(7), r)],
            lambda x, y: x <= y,
        ),
    ]
    expected = [(po.all_meets(), po.all_joins()) for po in posets]
    monkeypatch.setattr(oracle, "_row_keys", lambda words: np.zeros(words.shape[1], np.uint64))
    for po, (meets, joins) in zip(posets, expected):
        assert (po.all_meets() == meets).all() and (po.all_joins() == joins).all()
    bowtie = posets[1]
    assert bowtie.all_meets()[2, 3] == -1 and bowtie.all_joins()[0, 1] == -1


def test_chain_mobius():
    po = FinitePoset.build(list(range(5)), lambda a, b: a <= b)
    assert po.mobius(0, 0) == 1
    assert po.mobius(0, 1) == -1
    assert po.mobius(0, 2) == 0
    assert po.mobius(0, 4) == 0
    with pytest.raises(PosetError):
        po.mobius(3, 1)


def test_boolean_lattice_mobius_and_irreducibles():
    elems = [frozenset(s) for s in ((), ("x",), ("y",), ("x", "y"))]
    po = FinitePoset.build(elems, lambda a, b: a <= b)
    assert po.mobius(elems[0], elems[3]) == 1
    assert po.join_irreducible_elements() == {elems[1], elems[2]}


def test_chain_irreducibles():
    po = FinitePoset.build(list(range(4)), lambda a, b: a <= b)
    assert po.join_irreducible_elements() == {1, 2, 3}
