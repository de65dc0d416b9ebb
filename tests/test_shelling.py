import itertools

import numpy as np
import pytest

from conftest import all_subsets
from tamari import bracket_b as bb
from tamari import quotient_bds as q
from tamari import shelling as sh
from tamari.bracket_b import INF
from tamari.kinds import lattice_kind
from tamari.oracle import PAIR_BLOCK, FinitePoset


def test_irreducible_vectors_n3():
    want = [
        ((3, 1), (0, 0, 1)),
        ((3, 2), (0, 0, 2)),
        ((3, INF), (0, 0, INF)),
        ((2, 1), (0, 1, 0)),
        ((2, 2), (0, 2, INF)),
        ((2, INF), (0, INF, 0)),
        ((1, 1), (1, 0, INF)),
        ((1, 2), (2, INF, 0)),
        ((1, INF), (INF, 0, 0)),
    ]
    assert sh.join_irreducibles(3) == want
    got = sh.join_irreducibles(3, frozenset({3}))
    assert len(got) == 8 and ((3, 2), (0, 0, 2)) not in got


def test_irreducibles_list_is_a_copy():
    # the irreducibles are cached; a caller's edits must not reach the cache
    for s in (frozenset(), frozenset({3})):
        want = list(sh.join_irreducibles(3, s))
        got = sh.join_irreducibles(3, s)
        got[0] = None
        got.append(((1, 1), (0, 0, 0)))
        assert sh.join_irreducibles(3, s) == want


def test_chain_n3():
    assert sh.left_modular_chain(3) == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 0, 2),
        (0, 0, INF),
        (0, 1, INF),
        (0, 2, INF),
        (0, INF, INF),
        (1, INF, INF),
        (2, INF, INF),
        (INF, INF, INF),
    ]
    merged = sh.left_modular_chain(3, frozenset({3}))
    assert len(merged) == 9 and (0, 0, 2) not in merged


def test_chain_is_unrefinable():
    for n in (1, 2, 3, 4):
        for s in all_subsets(n):
            ch = sh.left_modular_chain(n, s)
            assert ch[-1] == bb.top_vector(n)
            for a, b in zip(ch, ch[1:]):
                assert q.covers_s(a, b, s, n)
            assert len(ch) - 1 == len(sh.join_irreducibles(n, s))


def test_extremes_left_modular():
    assert sh.is_left_modular(bb.bottom_vector(3), 3)
    assert sh.is_left_modular(bb.top_vector(3), 3)


def test_non_left_modular_witness():
    # regression: the test is not vacuous
    assert not sh.is_left_modular((INF, 0), 2)
    non_chain = set(sh.lattice_elements(3, frozenset())) - set(sh.left_modular_chain(3))
    assert any(not sh.is_left_modular(x, 3) for x in non_chain)


def test_el_label_examples():
    assert sh.el_label((0, 0, 0), (INF, 0, 0), 3) == (1, INF)
    assert sh.el_label((0, 0, 0), (0, 0, 1), 3) == (3, 1)
    with pytest.raises(ValueError):
        sh.el_label((0, 0, 0), (0, 1, 2), 3)


def test_label_coordinate_is_cover_coordinate():
    # the label index equals the changed coordinate: n <= 4, s empty; n <= 3, all s
    for n, subsets in ((4, [frozenset()]), (3, all_subsets(3))):
        for s in subsets:
            for a in sh.lattice_elements(n, s):
                for b in q._upper_covers_s(a, s, n):
                    k = next(i for i in range(n) if a[i] != b[i])
                    lab = sh.el_label(a, b, n, s)
                    assert lab[0] == k + 1


def test_el_label_rule_matches_definition():
    # el_label scans only the W_{k+1,t} at the changed coordinate k; the
    # definition scans all n^2 irreducibles: every cover, n <= 5, every s
    for n in range(1, 6):
        for s in all_subsets(n):
            irr = sh.join_irreducibles(n, s)
            for a in sh.lattice_elements(n, s):
                for b in q._upper_covers_s(a, s, n):
                    least = next(lab for lab, w in irr if bb.leq(w, b) and not bb.leq(w, a))
                    assert sh.el_label(a, b, n, s) == least


def test_gamma_chain_labelling_agrees():
    for n in (1, 2, 3):
        for s in all_subsets(n):
            for a in sh.lattice_elements(n, s):
                for b in q._upper_covers_s(a, s, n):
                    lab = sh.el_label(a, b, n, s)
                    m, step = sh.gamma_chain_label(a, b, n, s)
                    assert [l for l, _ in step] == [lab]
                    assert sh.left_modular_chain(n, s)[m - 1 : m + 1]


def test_decreasing_chain_trivial_cases():
    y = (0, 0, 0)
    assert sh.decreasing_chains(y, y, 3) == [[y]]
    assert sh.mobius(y, y, 3) == 1
    z = (0, 0, 1)
    assert sh.decreasing_chains(y, z, 3) == [[y, z]]
    assert sh.mobius(y, z, 3) == -1
    assert sh.interval_homotopy(y, z, 3) == ("sphere", -1)
    with pytest.raises(ValueError):
        sh.mobius(z, y, 3)


def test_kind_mobius_builds_the_chain_once(monkeypatch):
    calls = []
    build = sh.decreasing_chain_build
    monkeypatch.setattr(sh, "decreasing_chain_build", lambda *a: calls.append(a) or build(*a))
    kind = lattice_kind("bds", 3, (1,))
    got = kind.mobius((0, 0, 0), (INF, INF, INF))
    assert got == {"interval": [[0, 0, 0], ["inf"] * 3], "mobius": -1, "homotopy": "sphere(1)"}
    got = kind.mobius((0, 0, 0), (0, INF, INF))
    assert got == {"interval": [[0, 0, 0], [0, "inf", "inf"]], "mobius": 0, "homotopy": "contractible"}
    assert len(calls) == 2


def test_mobius_matches_oracle():
    for n, subsets in ((4, [frozenset()]), (3, all_subsets(3))):
        for s in subsets:
            elems = list(sh.lattice_elements(n, s))
            po = FinitePoset.build(elems, bb.leq)
            for y in elems:
                for z in elems:
                    if bb.leq(y, z):
                        mu = sh.mobius(y, z, n, s)
                        assert mu in (-1, 0, 1)
                        assert mu == po.mobius(y, z)


def test_lattice_elements_are_a_linear_extension():
    # verify_el counts rising chains in list order, so each element must come
    # after every element below it: no a_i <= a_j with i > j
    for n in range(1, 6):
        for s in all_subsets(n):
            a = np.array(sh.lattice_elements(n, s), dtype=float)
            assert not np.tril((a[:, None, :] <= a[None, :, :]).all(-1), -1).any(), (n, s)


def test_verify_el_negative_control(fresh_lattices):
    lat = sh.lattice_elements(3, frozenset())
    lat.ranks = [[-r for r in ranks] for ranks in lat.ranks]  # reversed label order
    rep = sh.verify_el(3)
    assert not rep["passed"] and rep["violations"]


def test_row_index_names_elements_and_only_elements():
    # every row of the box, out-of-range entries included: a bare base-3
    # key aliases (0, 7) at n = 2 to (inf, 1), the clipped one to (0, inf),
    # and (0, -1) clips to the key of (0, 0)
    for n in range(1, 5):
        elems = sh.lattice_elements(n, frozenset())
        rows = sh.RowIndex(elems)
        assert rows.lookup(rows.rows).tolist() == list(range(len(elems)))
        box = list(itertools.product([*range(n + 2), 2 * n + 3, -1, INF], repeat=n))
        got = rows.lookup(np.array(box, dtype=float)).tolist()
        assert got == [elems.index.get(v, -2) for v in box], n


def per_element_table(elems, row_op):
    """The per-element route: one row-form call per element a, against
    every element listed from a on, filling a's row and column."""
    idx = sh.RowIndex(elems)
    table = np.empty((len(elems), len(elems)), np.int64)
    for i, a in enumerate(elems):
        table[i, i:] = table[i:, i] = idx.lookup(row_op(a, idx.rows[i:]))
    return table


OP_TABLE_CASES = [
    *((kind, n, ()) for kind in ("a", "b") for n in range(1, 6)),
    *(("bds", n, s) for n in range(1, 5) for s in all_subsets(n) if s),
    ("b", 6, ()),  # 924 elements, 427,350 pairs: rows span blocks
]


@pytest.mark.parametrize(
    "kind, n, s", OP_TABLE_CASES, ids=[f"{k}{n}-{sorted(s)}" for k, n, s in OP_TABLE_CASES]
)
def test_blocked_op_table_is_the_per_element_route(kind, n, s):
    lat = lattice_kind(kind, n, s)
    elems = lat.elements()
    row_ops = {"meet": lat.meet_rows, "join": lat.join_rows}
    tables = sh.op_tables(elems, row_ops)  # one walk fills both
    for name, row_op in row_ops.items():
        assert (tables[name] == per_element_table(elems, row_op)).all()


def test_op_table_evaluates_each_unordered_pair_once_earlier_first():
    elems = sh.lattice_elements(6, frozenset())
    size, idx = len(elems), sh.RowIndex(elems)
    calls = []

    def row_op(a, rows):
        calls.append(idx.lookup(a) * size + idx.lookup(rows))
        return bb.meet_rows(a, rows, 6)

    sh.op_tables(elems, {"meet": row_op})
    assert max(map(len, calls)) == PAIR_BLOCK
    i, j = np.triu_indices(size)
    assert np.array_equal(np.concatenate(calls), i * size + j)  # row-major, once each


def test_label_rank_is_the_place_among_the_irreducibles():
    for n in range(1, 7):
        for s in all_subsets(n):
            for k, (lab, _) in enumerate(sh.join_irreducibles(n, s)):
                assert sh._label_rank(lab, n, s) == k, (n, s, lab)
