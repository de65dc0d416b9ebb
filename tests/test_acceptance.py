"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 10 is split:
10a checks the quotient lattice T_n^S; 10b checks the claim that ~_S is a
lattice congruence, which is false on the meet side (README "Known
erratum").  10b asserts what holds instead: ~_S is compatible with join,
and the meet failures are exactly the cases that condition (ii) predicts.
"""

import itertools

from conftest import all_subsets
from tamari import bracket_b as bb
from tamari import noncross as nc
from tamari import polygon as pg
from tamari import quotient_bds as q
from tamari import shelling as sh
from tamari import tamari_a as ta
from tamari import tri_b
from tamari import verify as vfy
from tamari.bracket_b import INF
from tamari.oracle import FinitePoset

FIG2_VECTOR = (0, INF, 0, 0, 2, 0)
FIG2_CHORDS = [
    ("2", "5"), ("2", "7"), ("2", "-2"), ("2", "-7"), ("3", "5"), ("5", "7"),
    ("7", "-2"), ("-2", "-5"), ("-2", "-7"), ("-3", "-5"), ("-5", "-7"),
]
FIG4_BLOCKS = frozenset(
    {
        frozenset({1, -2, -5, -6}),
        frozenset({3, 4}),
        frozenset({-1, 2, 5, 6}),
        frozenset({-3, -4}),
    }
)
FIG1_CHORDS = [(0, 5), (1, 4), (1, 5), (2, 4)]


def report(num, ok, text):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    return ok


def passed(suite, cases):
    """Whether the verify suite passes on every (type, n, S) case."""
    return all(vfy.run_suite(suite, kind, n, s)["passed"] for kind, n, s in cases)


def test_criterion_1_cardinalities():
    expected = {1: 2, 2: 6, 3: 20, 4: 70, 5: 252, 6: 924, 7: 3432}
    reps = [vfy.triple_count_check(n) for n in expected]
    ok = all(r["passed"] and r["binomial"] == expected[r["n"]] for r in reps)
    assert report(1, ok, "|T_n^B| = C(2n,n) three ways, n = 1..7")


def test_criterion_2_figures():
    t2 = tri_b.TriangulationB.from_chords(
        6, [pg.chord_from_labels(p, 6) for p in FIG2_CHORDS]
    )
    ok = bb.encode(t2) == FIG2_VECTOR
    ok &= nc.psi(t2).blocks == FIG4_BLOCKS
    t1 = ta.TriangulationA.from_chords(4, FIG1_CHORDS)
    ok &= ta.encode_a(t1) == (0, 0, 0, 2, 4)
    ok &= ta.psi_a(t1) == frozenset(
        {frozenset({1, 4}), frozenset({2, 3}), frozenset({5})}
    )
    assert report(2, ok, "Figures 1/2 encode and map to Figures 3/4 partitions")


def test_criterion_3_lattice_vs_oracle():
    ok = passed("lattice", [("b", n, ()) for n in range(1, 6)])
    pairs = sum(len(sh.lattice_elements(n)) ** 2 for n in range(1, 6))
    assert report(3, ok, f"lattice per oracle; formula meet/join match on {pairs} pairs, n <= 5")


def test_criterion_4_cover_equivalence():
    ok = True
    for n in range(1, 6):
        vecs = bb.enumerate_vectors(n)
        bracket_edges = {
            (a, b) for a in vecs for b in bb.upper_covers(a, n)
        }
        flip_edges = set()
        for a in vecs:
            t = bb.decode(a, n)
            for c in t.chords:
                if tri_b.color(t, c) == tri_b.GREEN:
                    flip_edges.add((a, bb.encode(tri_b.flip(t, c))))
        ok &= bracket_edges == flip_edges
    assert report(4, ok, "bracket-order Hasse edges == symmetric-flip edges, n <= 5")


def test_criterion_5_closure_maps():
    ok = True
    for n in range(1, 5):
        vecs = bb.enumerate_vectors(n)
        vals = list(range(n)) + [INF]
        for f in itertools.product(vals, repeat=n):
            f = tuple(f)
            if bb.in_m2(f, n):
                above = [r for r in vecs if bb.leq(f, r)]
                uf = bb.up(f, n)
                ok &= uf == min(above) and all(bb.leq(uf, r) for r in above)
                ok &= all(bb.leq(f, r) == bb.leq(uf, r) for r in vecs)
            if bb.in_m1(f, n):
                below = [r for r in vecs if bb.leq(r, f)]
                df = bb.down(f, n)
                ok &= df == max(below) and all(bb.leq(r, df) for r in below)
                ok &= all(bb.leq(r, f) == bb.leq(r, df) for r in vecs)
    assert report(5, ok, "up/down are exact closures + Galois equivalences, n <= 4")


def test_criterion_6_bijection():
    ok = passed("bijection", [("b", n, ()) for n in range(1, 7)])
    assert report(6, ok, "psi bijective onto NC^B with two-sided inverse, n <= 6")


# type b for n <= 4, and bds with every S for n <= 3
B_AND_BDS = [("b", n, ()) for n in range(1, 5)]
B_AND_BDS += [("bds", n, s) for n in range(1, 4) for s in all_subsets(n)]


def test_criterion_7_left_modularity():
    ok = passed("leftmod", B_AND_BDS)
    assert report(
        7, ok, "every S_{i,t} left modular; chain unrefinable (n<=4; all s at n<=3)"
    )


def test_criterion_8_el_and_homotopy():
    ok = passed("el", B_AND_BDS)
    assert report(
        8, ok, "EL property, unique decreasing chains, mobius == oracle (n<=4; all s at n<=3)"
    )


def test_criterion_9_join_irreducibles():
    ok = True
    for n in range(1, 5):
        vecs = bb.enumerate_vectors(n)
        po = FinitePoset.build(vecs, bb.leq)
        formula = {w for _, w in sh.join_irreducibles(n)}
        ok &= len(formula) == n * n
        ok &= po.join_irreducible_elements() == formula
        for s in all_subsets(n):
            elems = list(sh.lattice_elements(n, s))
            pos = FinitePoset.build(elems, bb.leq)
            ok &= pos.join_irreducible_elements() == {
                w for _, w in sh.join_irreducibles(n, s)
            }
            for v in elems:
                acc = elems[0]  # bottom of T^S in sorted order
                for _, w in sh.join_irreducibles(n, s):
                    if bb.leq(w, v):
                        q.check_member(w, s, n)
                        acc = q._join_s(acc, w, s, n)
                ok &= acc == v
    assert report(9, ok, "oracle join irreducibles == W_{i,t} families; joins regenerate, n <= 4")


def test_criterion_10a_quotient_structure():
    # the bds kind's meet is the type-B meet: `lattice` checks it is inherited
    ok = passed("lattice", [("bds", n, s) for n in range(1, 5) for s in all_subsets(n)])
    # concrete non-sublattice witness
    s = frozenset({3})
    a, b = (0, 1, 0), (0, 0, 1)
    ok &= q.vector_in_tns(a, 3, s) and q.vector_in_tns(b, 3, s)
    ok &= not q.vector_in_tns(bb.join(a, b, 3), 3, s)
    assert report(
        "10a", ok, "T^S lattice = induced subposet, meet inherited, witness found (n <= 4, all s)"
    )


def _meet_breaks_condition_ii(v, z, s, n):
    """Some k in s, k < n, where min(v, z) keeps v_k = n-1 but violates (ii).

    An entry r_k = n-1 >= k needs r_{k+1} = inf (condition (ii)).  With
    z_k = inf, min(v, z) keeps the n-1 at k, so when min(v_{k+1}, z_{k+1})
    is finite the meet v^z must lower entry k, while w^z (w = project(v))
    takes z_k = inf there.
    """
    return any(
        k < n and v[k - 1] == n - 1 and z[k - 1] == INF and min(v[k], z[k]) != INF
        for k in s
    )


def test_criterion_10b_congruence():
    """~_S against the oracle's meets and joins, n <= 4, all s.

    For every v with w = project(v) != v (so v ~_S w) and every z: the
    joins v|z and w|z are always equivalent, and the meets v^z and w^z are
    inequivalent exactly in the condition-(ii) cases of
    `_meet_breaks_condition_ii`, the README witness among them.  So the
    literal congruence claim fails on the meet side, as documented.
    """
    join_failures, meet_failures, predicted = set(), set(), set()
    for n in range(1, 5):
        vecs = bb.enumerate_vectors(n)
        po = FinitePoset.build(vecs, bb.leq)
        meets, joins = po.all_meets(), po.all_joins()
        named = [*vecs, None]  # index -1, no meet or join, reads as None
        for s in all_subsets(n):
            for v in vecs:
                w = q.project(v, s, n)
                if w == v:
                    continue
                iv, iw = po.index[v], po.index[w]
                for k, z in enumerate(vecs):
                    case = (n, tuple(sorted(s)), v, z)
                    if not q.equivalent(named[joins[iv, k]], named[joins[iw, k]], s, n):
                        join_failures.add(case)
                    if not q.equivalent(named[meets[iv, k]], named[meets[iw, k]], s, n):
                        meet_failures.add(case)
                    if _meet_breaks_condition_ii(v, z, s, n):
                        predicted.add(case)
    witness = (2, (1,), (1, INF), (INF, 0))
    unexpected = meet_failures - predicted
    missing = predicted - meet_failures
    ok = not (join_failures or unexpected or missing) and witness in meet_failures
    report(
        "10b",
        ok,
        "~_S join-compatible; meet failures = condition-(ii) set "
        f"({len(meet_failures)}), n <= 4, all s",
    )
    assert not join_failures, (
        f"join congruence fails in {len(join_failures)} instances; "
        f"first (n, s, v, z): {min(join_failures)}"
    )
    assert not unexpected and not missing, (
        f"meet failures != condition-(ii) prediction: {len(unexpected)} unexpected "
        f"(first: {min(unexpected, default=None)}), {len(missing)} missing "
        f"(first: {min(missing, default=None)})"
    )
    assert witness in meet_failures, "README witness n=2, s={1}, v=(1,inf), z=(inf,0)"


def test_criterion_11_type_a():
    ok = True
    for n, want in ((1, 2), (2, 5), (3, 14), (4, 42), (5, 132), (6, 429)):
        ok &= ta.catalan(n + 1) == want
        ok &= len(ta.enumerate_a(n)) == want
    for suite in ("lattice", "covers", "bijection"):
        ok &= passed(suite, [("a", n, ()) for n in range(1, 6)])
    for n in range(1, 6):
        vecs = ta.enumerate_a(n)
        ok &= all(ta.validate_a(tuple(map(min, a, b)), n) is None for a in vecs for b in vecs)
    assert report(
        11,
        ok,
        "|T_n^A| = Catalan(n+1) (n<=6); lattice ops == oracle, covers == flips, "
        "psi_a bijective (n<=5); min valid",
    )
