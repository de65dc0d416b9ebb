from conftest import all_subsets
from tamari import quotient_bds as q
from tamari import verify as vfy
from tamari.kinds import TypeB, lattice_kind
from tamari.oracle import FinitePoset


def test_triple_count_check():
    for n in (1, 2, 3):
        rep = vfy.triple_count_check(n)
        assert rep["passed"]
        assert rep["vectors"] == rep["flip_graph"] == rep["noncrossing"] == rep["binomial"]


def test_suite_lattice_all_types():
    """`checked` counts the N^2 oracle entries, plus the lattice-algebra
    triples for b and bds: all N^3 of them up to 10,000, else 2000."""
    for n in (1, 2, 3, 4):
        subsets = all_subsets(n) if n < 3 else [frozenset({2}), frozenset({1, n})]
        for kind, s in [("a", ()), ("b", ()), *(("bds", s) for s in subsets)]:
            size = lattice_kind(kind, n, s).count()
            triples = 0 if kind == "a" else size**3 if size**3 <= 10_000 else 2000
            rep = vfy.suite_lattice(kind, n, s)
            assert rep["passed"], (kind, n, s, rep["failures"][:1])
            assert rep["checked"] == size**2 + triples, (kind, n, s)


def test_suite_lattice_reports_a_wrong_meet_against_both_entries(monkeypatch):
    """The formula runs once per unordered pair; its value is compared with
    the oracle's [a, b] and [b, a], also when it is not an element."""
    lat = lattice_kind("b", 2)
    elems = lat.elements()
    a, b = elems[1], elems[4]  # a listed before b
    right = lat.meet(a, b)
    true_meet = TypeB.meet
    for wrong in (elems[-1], (1, 0)):  # another element, then a vector outside T_2^B
        def meet(self, x, y, wrong=wrong):
            return wrong if (x, y) == (a, b) else true_meet(self, x, y)

        monkeypatch.setattr(TypeB, "meet", meet)
        rep = vfy.suite_lattice("b", 2)
        assert not rep["passed"]
        assert f"meet({a},{b}) = {wrong} != oracle {right}" in rep["failures"]
        assert f"meet({a},{b}) = {wrong} != oracle meet({b},{a}) = {right}" in rep["failures"]
        assert not any("join(" in f for f in rep["failures"])
    # and the oracle's [b, a] entry is read on its own
    monkeypatch.setattr(TypeB, "meet", true_meet)
    all_meets = FinitePoset.all_meets

    def skewed(self):
        table = all_meets(self)
        table[4, 1] = len(elems) - 1
        return table

    monkeypatch.setattr(FinitePoset, "all_meets", skewed)
    rep = vfy.suite_lattice("b", 2)
    assert rep["failures"] == [f"meet({a},{b}) = {right} != oracle meet({b},{a}) = {elems[-1]}"]


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
