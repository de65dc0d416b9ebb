import gc
import itertools
import json
import random
import tracemalloc
import weakref
from bisect import bisect_left

import numpy as np
import pytest

from conftest import all_subsets
from tamari import bracket_b as bb
from tamari import cli
from tamari import noncross as nc
from tamari import oracle
from tamari import quotient_bds as q
from tamari import shelling as sh
from tamari import verify as vfy
from tamari.bracket_b import INF
from tamari.kinds import TypeA, TypeB, TypeBDS, lattice_kind
from tamari.oracle import PAIR_BLOCK, FinitePoset


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


def pair_mask(x, rows, a, b):
    """Rows k of a row-form call that pair a with b: the row forms are
    pairwise, x is one vector or an array aligned with rows."""
    return (np.asarray(x) == a).all(-1) & (rows == b).all(-1)


def test_suite_lattice_reports_a_wrong_meet_against_both_entries(monkeypatch):
    """The row form fills each unordered pair once; its value is compared
    with the oracle's [a, b] and [b, a], also when it is not an element,
    and the scalar formula is compared with it."""
    lat = lattice_kind("b", 2)
    elems = lat.elements()
    a, b = elems[1], elems[4]  # a listed before b
    right = lat.meet(a, b)
    true_meet_rows = TypeB.meet_rows
    for wrong in (elems[-1], (1, 0), (0, 7)):  # another element, then vectors outside T_2^B
        def meet_rows(self, x, rows, wrong=wrong):
            out = true_meet_rows(self, x, rows)
            out[pair_mask(x, rows, a, b)] = wrong
            return out

        monkeypatch.setattr(TypeB, "meet_rows", meet_rows)
        rep = vfy.suite_lattice("b", 2)
        assert not rep["passed"]
        assert f"meet({a},{b}) = {wrong} != oracle {right}" in rep["failures"]
        assert f"meet({a},{b}) = {wrong} != oracle meet({b},{a}) = {right}" in rep["failures"]
        assert f"commutativity fails at {a},{b}" in rep["failures"]
        assert not any("join(" in f for f in rep["failures"])
    # a wrong oracle answer gets the same two lines: the oracle answers each
    # unordered pair once, for [a, b] and [b, a] alike, in any block
    monkeypatch.setattr(TypeB, "meet_rows", true_meet_rows)
    meets_of = FinitePoset.meets_of
    last = len(elems) - 1
    for block, x, y, bent in [(PAIR_BLOCK, 1, 4, last), (4, 1, 4, last), (4, last, last, 0)]:
        p, r = elems[x], elems[y]
        true = lat.meet(p, r)

        def skewed(self, i, j, x=x, y=y, bent=bent):
            out = meets_of(self, i, j)
            out[(i == x) & (j == y)] = bent
            return out

        monkeypatch.setattr(oracle, "PAIR_BLOCK", block)
        monkeypatch.setattr(FinitePoset, "meets_of", skewed)
        bent = elems[bent]
        assert vfy.suite_lattice("b", 2)["failures"] == [
            f"meet({p},{r}) = {true} != oracle {bent}",
            f"meet({p},{r}) = {true} != oracle meet({r},{p}) = {bent}",
        ]


def test_suite_lattice_reports_an_oracle_without_a_bound(monkeypatch):
    """-1 is no element, also where it would index the last row: the join
    of elems[1] and elems[4] is the last element."""
    lat = lattice_kind("b", 2)
    elems = lat.elements()
    joins_of = FinitePoset.joins_of
    for x, y in [(2, 3), (1, 4)]:
        a, b = elems[x], elems[y]

        def unbounded(self, i, j, x=x, y=y):
            out = joins_of(self, i, j)
            out[(i == x) & (j == y)] = -1
            return out

        monkeypatch.setattr(FinitePoset, "joins_of", unbounded)
        rep = vfy.suite_lattice("b", 2)
        v = lat.join(a, b)
        assert (y == 4) == (v == elems[-1])
        assert rep["failures"] == [f"join({a},{b}) = {v} != oracle None",
                                   f"join({a},{b}) = {v} != oracle join({b},{a}) = None",
                                   "oracle: not a lattice"]


def test_suite_lattice_builds_no_oracle_table(monkeypatch, fresh_lattices):
    """Neither an oracle table nor a formula table: the cached meets and
    joins of `lattice_elements` would need `op_tables`."""
    def refuse(*args):
        raise AssertionError("suite_lattice built an N x N table")

    monkeypatch.setattr(FinitePoset, "all_meets", refuse)
    monkeypatch.setattr(FinitePoset, "all_joins", refuse)
    monkeypatch.setattr(sh, "op_tables", refuse)
    sh.lattice_elements.cache_clear()
    for kind, n, s in [("a", 3, ()), ("b", 3, ()), ("bds", 3, (1, 3)), ("b", 5, ())]:
        assert vfy.suite_lattice(kind, n, s)["passed"], (kind, n)


def _traced_lattice_peak(n):
    """The report of a fresh `suite_lattice("b", n)` and its traced peak."""
    vfy.suite_lattice("b", 2)  # lazy imports load before tracing
    sh.lattice_elements.cache_clear()
    tracemalloc.start()
    try:
        rep = vfy.suite_lattice("b", n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rep, peak


def test_suite_lattice_memory_peak(fresh_lattices):
    """Row-form values are compared with the oracle's elements block by
    block and the algebra pass makes its entries on demand: at n = 6 (924
    elements) the traced peak stays under 4 MiB (2.6 MiB measured), where
    the two N x N int16 formula tables alone would add 3.4 MB."""
    rep, peak = _traced_lattice_peak(6)
    assert rep["passed"] and peak < 4 * 2**20, peak


def test_lattice_algebra_pass_holds_its_triples_once(fresh_lattices):
    """At n = 4 (70 elements, 2,000 sampled triples) the triples live only
    as numpy columns, each distinct pair is evaluated once, and the walk
    drops a block's rows before its next call: the traced peak stays within
    0.45 MiB (0.40 measured; 0.74 when the triples were also Python lists)."""
    rep, peak = _traced_lattice_peak(4)
    assert rep["passed"] and peak <= 0.45 * 2**20, peak


def test_lattice_algebra_samples_the_triples_of_three_draws(monkeypatch):
    """The sampled triples are those of 2,000 draws rng.choices(range(N), k=3)
    in turn, and the exhaustive ones come in `itertools.product` order."""
    seen = []
    real = vfy._algebra_entries
    monkeypatch.setattr(vfy, "_algebra_entries",
                        lambda lat, idx, *abc: seen.append(abc) or real(lat, idx, *abc))
    vfy.suite_lattice("b", 3)
    vfy.suite_lattice("b", 4)
    rng = random.Random(vfy._seed())
    for triples, abc in zip(
            (list(itertools.product(range(20), repeat=3)),
             [rng.choices(range(70), k=3) for _ in range(2000)]), seen, strict=True):
        assert np.array_equal(np.array(triples).T, abc)


ALGEBRA_CASES = [*(("b", n, ()) for n in (1, 2, 3)),
                 *(("bds", n, s) for n in (1, 2, 3) for s in all_subsets(n) if s),
                 ("b", 5, ()), ("bds", 5, (2, 4))]


@pytest.mark.parametrize(
    "kind, n, s", ALGEBRA_CASES, ids=[f"{k}{n}-{sorted(s)}" for k, n, s in ALGEBRA_CASES]
)
def test_algebra_entries_are_the_op_table_entries(kind, n, s):
    """Every entry the algebra pass reads is the one the table held, for
    every triple while N^3 <= 10,000 and for the sampled triples beyond."""
    lat = lattice_kind(kind, n, s)
    elems = lat.elements()
    size = len(elems)
    tables = sh.op_tables(elems, {"meet": lat.meet_rows, "join": lat.join_rows})
    join, meet = tables["join"], tables["meet"]
    if size**3 <= 10_000:
        triples = list(itertools.product(range(size), repeat=3))
    else:  # the suite's sample
        rng = random.Random(vfy._seed())
        triples = [rng.choices(range(size), k=3) for _ in range(2000)]
    a, b, c = np.array(triples).T
    jab, mab, ok, joins, meets = vfy._algebra_entries(lat, sh.RowIndex(elems), a, b, c)
    assert (jab == join[a, b]).all() and (mab == meet[a, b]).all()
    assert (ok == (np.minimum.reduce([join[a, b], join[b, c], meet[a, b], meet[b, c]]) >= 0)).all()
    a, b, c, jab, mab = a[ok], b[ok], c[ok], jab[ok], mab[ok]
    assert ok.any()
    for got, want in zip(joins, (join[jab, c], join[a, join[b, c]], join[a, mab])):
        assert (got[ok] == want).all()
    for got, want in zip(meets, (meet[mab, c], meet[a, meet[b, c]], meet[a, jab])):
        assert (got[ok] == want).all()


def test_suite_lattice_reads_the_row_forms_earlier_element_first(monkeypatch):
    """A join row form that is wrong only with its arguments in the
    (later, earlier) order is never asked that way: the report is the
    passing one."""
    true_join_rows = TypeB.join_rows
    for n in (2, 3):
        elems = lattice_kind("b", n).elements()
        idx = sh.RowIndex(elems)

        def bent(self, x, rows, idx=idx):
            out = true_join_rows(self, x, rows)
            out[idx.lookup(np.broadcast_to(x, rows.shape)) > idx.lookup(rows)] = 0  # the bottom
            return out

        top = np.array([elems[-1]], dtype=float)
        assert (bent(TypeB(n), top, idx.rows[:1]) == 0).all()  # (top, bottom) reads bottom
        monkeypatch.setattr(TypeB, "join_rows", bent)
        rep = vfy.suite_lattice("b", n)
        size = len(elems)  # 6 and 20: every triple
        assert (rep["passed"], rep["failures"], rep["checked"]) == (True, [], size**2 + size**3)


def test_suite_lattice_failure_lines_go_by_row_then_meet_before_join(monkeypatch):
    lat = lattice_kind("b", 2)
    elems = lat.elements()
    top = elems[-1]
    bent = {"meet": [(1, 4), (0, 2)], "join": [(1, 1), (0, 3)]}  # pairs i <= j given a wrong value
    for name, pairs in bent.items():
        true_rows = getattr(TypeB, f"{name}_rows")

        def bent_rows(self, x, rows, true_rows=true_rows, pairs=pairs):
            out = true_rows(self, x, rows)
            for i, j in pairs:
                out[pair_mask(x, rows, elems[i], elems[j])] = top
            return out

        monkeypatch.setattr(TypeB, f"{name}_rows", bent_rows)
    want = []
    order = sorted((i, name == "join", j, name) for name, pairs in bent.items() for i, j in pairs)
    for i, _, j, name in order:
        a, b = elems[i], elems[j]
        right = getattr(lat, name)(a, b)
        assert right != top
        want += [f"{name}({a},{b}) = {top} != oracle {right}",
                 f"{name}({a},{b}) = {top} != oracle {name}({b},{a}) = {right}"]
    rep = vfy.suite_lattice("b", 2)
    assert [f for f in rep["failures"] if f.startswith(("meet(", "join("))] == want


# (suite, type, S, checked, passed) at n = 3; `lattice` is pinned above.
PINNED = [
    ("covers", "a", (), 196, True), ("covers", "b", (), 400, True),
    ("covers", "bds", (1,), 92, True), ("covers", "bds", (1, 3), 71, True),
    ("bijection", "a", (), 14, True), ("bijection", "b", (), 40, True),
    ("bijection", "bds", (2,), 36, True), ("bijection", "bds", (1, 2, 3), 28, True),
    ("leftmod", "b", (), 19, True), ("leftmod", "bds", (1,), 17, True),
    ("leftmod", "bds", (3,), 17, True), ("leftmod", "bds", (2, 3), 15, True),
    ("el", "b", (), 244, True), ("el", "bds", (2,), 196, True), ("el", "bds", (1, 3), 158, True),
    ("congruence", "bds", (1,), 364, False), ("congruence", "bds", (3,), 364, True),
]


@pytest.mark.parametrize("suite, kind, s, checked, passed", PINNED)
def test_suite_checked_counts(suite, kind, s, checked, passed):
    rep = vfy.run_suite(suite, kind, 3, s)
    assert (rep["checked"], rep["passed"]) == (checked, passed), rep["failures"][:1]


@pytest.mark.parametrize("suite", ["leftmod", "el", "congruence"])
def test_run_suite_refuses_a_type_b_suite_for_type_a(suite):
    types = "type bds" if suite == "congruence" else "types b and bds"
    for call in (vfy.run_suite, lambda name, *args: getattr(vfy, f"suite_{name}")(*args)):
        with pytest.raises(ValueError, match=f"^suite {suite} applies to {types} only$"):
            call(suite, "a", 2)


def test_congruence_is_refused_for_type_b():
    # with S empty ~_S is the identity: the check would be vacuous
    for call in (vfy.run_suite, lambda name, *args: vfy.suite_congruence(*args)):
        with pytest.raises(ValueError, match="^suite congruence applies to type bds only$"):
            call("congruence", "b", 3)


def test_every_kind_suite_has_one_home():
    listed = [name for k in (TypeA, TypeB, TypeBDS) for name in k.suites]
    assert set(vfy.SUITES) == set(listed) and len(vfy.SUITES) == len(set(vfy.SUITES))
    assert all(callable(getattr(vfy, f"suite_{name}", None)) for name in vfy.SUITES)


def test_run_suite_looks_the_suite_up_when_it_runs(monkeypatch):
    # perfbench traces `verify.suite_<name>` by patching the module attribute
    calls = []
    monkeypatch.setattr(vfy, "suite_el", lambda *args: calls.append(args) or {"passed": True})
    assert vfy.run_suite("el", "bds", 2, (1,)) == {"passed": True}
    assert calls == [("bds", 2, (1,))]


@pytest.mark.parametrize(
    "suite, kind, s", [("lattice", "a", ()), ("el", "b", ()), ("congruence", "bds", [2, 1])]
)
def test_a_direct_suite_call_reports_as_run_suite(suite, kind, s):
    rep = getattr(vfy, f"suite_{suite}")(kind, 2, s)
    assert rep == vfy.run_suite(suite, kind, 2, s)
    assert (rep["type"], rep["n"], rep["s"]) == (kind, 2, sorted(s))


def test_suite_covers_reports_a_claimed_non_cover(monkeypatch):
    elems = sh.lattice_elements(3, frozenset({1}))
    a, b = elems[0], elems[-1]  # bottom and top, comparable but no cover
    covers_s = q._covers_s
    monkeypatch.setattr(q, "_covers_s", lambda x, y, s, n: (x, y) == (a, b) or covers_s(x, y, s, n))
    rep = vfy.suite_covers("bds", 3, (1,))
    assert rep["failures"] == [f"quotient cover mismatch at {a} -> {b}"]


def test_suite_congruence_reports_a_wrong_inherited_meet(monkeypatch, fresh_lattices):
    elems = list(sh.lattice_elements(3, frozenset({3})))
    a, b = elems[1], elems[4]  # a listed before b, so a's table row holds meet(a, b)
    meet_rows = bb.meet_rows

    def wrong(x, rows, n):
        out = meet_rows(x, rows, n)
        out[pair_mask(x, rows, a, b)] = elems[0]
        return out

    monkeypatch.setattr(bb, "meet_rows", wrong)
    sh.lattice_elements.cache_clear()
    rep = vfy.suite_congruence("bds", 3, (3,))
    assert rep["failures"] == [f"inherited meet wrong at {a},{b}", f"inherited meet wrong at {b},{a}"]


def test_suite_congruence_reports_an_oracle_without_a_meet(monkeypatch):
    """-1 is no element, also where it would index the last row: the meet
    of the top with itself is the top."""
    elems = list(sh.lattice_elements(3, frozenset({3})))
    meets_of = FinitePoset.meets_of
    last = len(elems) - 1
    for x, y in [(1, 4), (last, last)]:
        a, b = elems[x], elems[y]

        def unbounded(self, i, j, x=x, y=y):
            out = meets_of(self, i, j)
            out[(i == x) & (j == y)] = -1
            return out

        monkeypatch.setattr(FinitePoset, "meets_of", unbounded)
        lines = [f"inherited meet wrong at {a},{b}", f"inherited meet wrong at {b},{a}"]
        assert vfy.suite_congruence("bds", 3, (3,))["failures"] == lines[: 1 + (x != y)]


def test_suite_congruence_builds_no_oracle_table(monkeypatch, fresh_lattices):
    """The inherited meet is compared block by block: the wrong-meet report
    stands with `FinitePoset.all_meets` refused."""
    def refuse(self):
        raise AssertionError("suite_congruence built an N x N oracle table")

    monkeypatch.setattr(FinitePoset, "all_meets", refuse)
    rep = vfy.suite_congruence("bds", 3, (1,))
    assert (rep["checked"], rep["passed"]) == (364, False)
    test_suite_congruence_reports_a_wrong_inherited_meet(monkeypatch, fresh_lattices)


def test_suite_congruence_reads_no_cached_meet_table(monkeypatch, fresh_lattices):
    """The inherited meet is the row form, evaluated per block: the report
    is the same with `IndexedLattice.meets` refused."""
    want = vfy.suite_congruence("bds", 3, (1,))

    def refuse(self):
        raise AssertionError("suite_congruence read the cached meet table")

    monkeypatch.setattr(sh.IndexedLattice, "meets", property(refuse))
    sh.lattice_elements.cache_clear()
    assert vfy.suite_congruence("bds", 3, (1,)) == want and not want["passed"]


def test_cache_clear_drops_every_per_lattice_structure():
    s = frozenset({1})
    lat = sh.lattice_elements(3, s)
    assert vfy.suite_el("bds", 3, s)["passed"] and vfy.suite_leftmod("bds", 3, s)["passed"]
    built = [weakref.ref(a) for a in (lat.order, lat.meets, lat.joins, *lat.strict)]
    assert lat.covers and lat.ranks and lat.index
    sh.lattice_elements.cache_clear()
    fresh = sh.lattice_elements(3, s)
    assert fresh is not lat and fresh == lat and set(vars(fresh)) == {"n", "s"}
    del lat
    gc.collect()
    assert not any(ref() for ref in built)


def test_suite_bijection_restricts_to_tns():
    for n in (1, 2, 3):
        for s in all_subsets(n):
            rep = vfy.suite_bijection("bds", n, s)
            assert rep["passed"], (n, s, rep["failures"][:1])
            assert rep["checked"] == 2 * len(q.elements_tns(n, s))


def test_suite_bijection_reports_a_wrong_red_set(monkeypatch):
    """The inverse loop compares `_red_chords` with the forward image's
    red set: one chord dropped for one partition gives one round-trip
    line, same `checked`."""
    bad = nc.enumerate_ncb(3)[5]
    red_chords = nc._red_chords
    monkeypatch.setattr(nc, "_red_chords", lambda p: red_chords(p)[1:] if p == bad else red_chords(p))
    assert red_chords(bad)
    rep = vfy.suite_bijection("b", 3)
    assert rep["failures"] == [f"psi_inverse round trip fails at {bad.sorted_blocks()}"]
    assert rep["checked"] == 40


def test_suite_bijection_checks_each_partition_noncrossing_once(monkeypatch):
    calls = []
    check = nc.is_noncrossing_b
    monkeypatch.setattr(nc, "is_noncrossing_b", lambda p: calls.append(p) or check(p))
    rep = vfy.suite_bijection("b", 4)
    assert rep["passed"] and len(calls) == len(bb.enumerate_vectors(4)) == 70


def test_suite_bijection_reports_a_wrong_encode(monkeypatch):
    """encode(decode(v)) == v is checked in the forward loop, which the
    slimmer inverse loop relies on: a wrong encode is named there."""
    v = bb.enumerate_vectors(3)[7]
    encode = bb.encode
    monkeypatch.setattr(bb, "encode", lambda t: (0, 0, 0) if encode(t) == v else encode(t))
    rep = vfy.suite_bijection("b", 3)
    assert rep["failures"] == [f"encode(decode(v)) != v at {v}"]
    assert rep["checked"] == 40


def verify_cli(capsys, *argv):
    code = cli.main(["verify", *argv])
    out, err = capsys.readouterr()
    return code, json.loads(out), err


def test_suite_bijection_reports_a_partition_psi_inverse_refuses(monkeypatch, capsys):
    """A wrong NC^B enumerator (the crossing rule bisecting at other[0]
    for other[-1]) lists crossing partitions: the inverse loop records
    each refusal, and the CLI exits 2 with the report, not 1 with `error:`."""

    def mutant(target, blocks):
        for other in blocks:
            k = bisect_left(target, other[0])
            if other is not target and k > 0 and target[k - 1] > other[0]:
                return True
        return False

    monkeypatch.setattr(nc, "_crossing_if_added", mutant)
    code, rep, err = verify_cli(capsys, "bijection", "--type", "b", "--n", "2")
    assert code == 2 and err == "" and not rep["passed"]
    assert rep["failures"] == [
        "image of psi differs from enumerated NC^B",
        "psi_inverse refuses [[1, -1], [2, -2]]: input is not a symmetric noncrossing partition",
    ]


def test_suite_congruence_reports_a_projection_that_leaves_the_lattice(monkeypatch, capsys):
    """A broken row projection (n-2 in place of n-1 raised to inf) is a
    failure line of the report, not an AssertionError out of the CLI."""

    def broken(g, s, n):
        for k in s:
            col = g[:, k - 1]
            col[col == n - 2] = INF
        return g

    monkeypatch.setattr(q, "_project_rows", broken)
    code, rep, err = verify_cli(capsys, "congruence", "--type", "bds", "--n", "2", "--s", "1")
    assert code == 2 and err == "" and not rep["passed"]
    assert rep["failures"][:2] == ["projection of (0, 1) left the lattice: (inf, 1)"] * 2


def test_suite_leftmod_reports_a_join_that_leaves_the_lattice(monkeypatch, capsys, fresh_lattices):
    """A cached join table that holds -2 is a failure line of the report,
    not an AssertionError out of the CLI."""
    join_s_rows = q._join_s_rows

    def broken(a, rows, s, n):
        out = join_s_rows(a, rows, s, n)
        out[:, 0] = n
        return out

    monkeypatch.setattr(q, "_join_s_rows", broken)
    sh.lattice_elements.cache_clear()
    code, rep, err = verify_cli(capsys, "leftmod", "--type", "bds", "--n", "3", "--s", "1")
    assert code == 2 and err == "" and not rep["passed"]
    assert rep["failures"][0].endswith(": a meet or join formula left T_n^S")


def test_suite_congruence_reports_erratum():
    rep = vfy.suite_congruence("bds", 2, (1,))
    assert not rep["passed"]
    assert all("meet congruence" in f for f in rep["failures"])
    assert rep["non_sublattice_witness"] is None  # no witness at (2, {1})
    rep3 = vfy.suite_congruence("bds", 3, (3,))
    assert rep3["non_sublattice_witness"] is not None


def test_count_elements():
    assert lattice_kind("b", 3).count() == 20
    assert lattice_kind("a", 3).count() == 14
    assert lattice_kind("bds", 3, (3,)).count() == 18
