from conftest import all_subsets
from tamari import quotient_bds as q
from tamari import verify as vfy
from tamari.kinds import lattice_kind


def test_triple_count_check():
    for n in (1, 2, 3):
        rep = vfy.triple_count_check(n)
        assert rep["passed"]
        assert rep["vectors"] == rep["flip_graph"] == rep["noncrossing"] == rep["binomial"]


def test_suite_lattice_all_types():
    assert vfy.suite_lattice("b", 3)["passed"]
    assert vfy.suite_lattice("a", 3)["passed"]
    assert vfy.suite_lattice("bds", 3, (3,))["passed"]


def test_suite_covers():
    assert vfy.suite_covers("b", 3)["passed"]
    assert vfy.suite_covers("a", 3)["passed"]
    assert vfy.suite_covers("bds", 3, (1, 3))["passed"]


def test_suite_bijection():
    assert vfy.suite_bijection("b", 3)["passed"]
    assert vfy.suite_bijection("a", 4)["passed"]


def test_suite_bijection_restricts_to_tns():
    for n in (1, 2, 3):
        for s in all_subsets(n):
            rep = vfy.suite_bijection("bds", n, s)
            assert rep["passed"], (n, s, rep["failures"][:1])
            assert rep["checked"] == 2 * len(q.elements_tns(n, s))
    assert vfy.suite_bijection("bds", 3, (1, 3))["checked"] == 32


def test_suite_leftmod_and_el():
    assert vfy.suite_leftmod(3)["passed"]
    assert vfy.suite_leftmod(3, (3,))["passed"]
    rep = vfy.suite_el(3, (2,))
    assert rep["passed"] and rep["checked"] > 0


def test_suite_congruence_reports_erratum():
    rep = vfy.suite_congruence(2, (1,))
    assert not rep["passed"]
    assert all("meet congruence" in f for f in rep["failures"])
    assert rep["non_sublattice_witness"] is None  # no witness at (2, {1})
    rep3 = vfy.suite_congruence(3, (3,))
    assert rep3["non_sublattice_witness"] is not None


def test_count_elements():
    assert lattice_kind("b", 3).count() == 20
    assert lattice_kind("a", 3).count() == 14
    assert lattice_kind("bds", 3, (3,)).count() == 18
