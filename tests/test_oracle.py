import ast
import random
from itertools import combinations
from pathlib import Path

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
    with pytest.raises(PosetError) as err:
        FinitePoset.build(
            [1, 2, 3], lambda a, b: a == b or (a, b) in {(1, 2), (2, 3)}
        )
    assert str(err.value) == "not transitive: 1 <= 2 <= 3 but not 1 <= 3"


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


def random_posets(rng):
    """Seeded posets in shuffled element order: intersection-closed set
    families (lattices), the same families cut short (often not lattices)
    and closures of random DAGs (often no bottom), with rows of 1-4 words."""
    for size in (1, 7, 40, 64, 65, 129, 193, 230):
        ground = max(3, size.bit_length() + 2)
        family = {frozenset(range(ground))}
        while len(family) < size:
            x = frozenset(rng.sample(range(ground), rng.randrange(ground)))
            family |= {x & y for y in family} | {x}
        family = list(family)
        for cut in (family, family[:size]):
            rng.shuffle(cut)
            yield FinitePoset.build(cut, lambda a, b: a <= b)
        for density in (0.02, 0.1):
            rel = np.triu(np.array([[rng.random() < density for _ in range(size)]
                                    for _ in range(size)]), 1) | np.eye(size, dtype=bool)
            for k in range(size):  # transitive closure
                rel |= rel[:, k, None] & rel[k]
            perm = rng.sample(range(size), size)
            yield FinitePoset(range(size), rel[np.ix_(perm, perm)])
    # the boolean lattice B_7: 128 elements, rows of two words
    yield FinitePoset.build([frozenset(c) for r in range(8) for c in combinations(range(7), r)],
                            lambda x, y: x <= y)


def test_bound_tables_and_covers_on_random_posets():
    """Both tables against `scan_bound` (every pair up to 40 elements, a
    seeded sample beyond) and covers against the definition: i < j with no
    k strictly between."""
    rng = random.Random(7)
    kinds = set()
    for po in random_posets(rng):
        size = len(po)
        meets, joins = po.all_meets(), po.all_joins()
        kinds.add((size > 1 and (meets >= 0).all() and (joins >= 0).all(),
                   int(po.leq.all(axis=1).sum()), -(-size // 64)))
        named = [*po.elements, None]
        pairs = [(i, j) for i in range(size) for j in range(size)] if size <= 40 else \
            [(rng.randrange(size), rng.randrange(size)) for _ in range(150)]
        for i, j in pairs:
            a, b = po.elements[i], po.elements[j]
            assert named[meets[i, j]] == scan_bound(po, a, b, join=False)
            assert named[joins[i, j]] == scan_bound(po, a, b, join=True)
        lt = po.leq & ~np.eye(size, dtype=bool)
        between = (lt[:, :, None] & lt[None, :, :]).any(axis=1)
        assert np.array_equal(po.covers, lt & ~between)
    assert {lattice for lattice, _, _ in kinds} == {True, False}
    assert {bottoms for _, bottoms, _ in kinds} >= {0, 1}  # with and without a bottom
    assert {words for _, _, words in kinds} == {1, 2, 3, 4}


def test_oracle_imports_nothing_from_the_package():
    tree = ast.parse(Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("tamari"), node.module
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("tamari") for a in node.names)


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
