"""Named verification suites run against the brute-force oracle.

Every suite is `suite_<name>(kind, n, s=())`, a thin composition of
module-level operations.  It starts from the kind object (`tamari.kinds`),
which refuses a suite its `suites` does not list, and reads S and the
elements through it, so the element cap covers every suite.  Its report
holds "passed", the failure strings and the type, n and S it ran on; the
CLI maps a failure to exit code 2.  `run_suite` looks `suite_<name>` up
when it runs, so a patched or traced suite is the one called.

Suites over T_n^S work in the index space of `shelling.lattice_elements`.
The witnesses stay independent of what they check: the oracle receives
only the order matrix, `suite_covers` never reads the cached covers,
`suite_lattice` reads no cached table but sets the row forms (`bracket_b`)
of the kind's meet and join against the oracle and the scalar forms, and
`suite_el` sets the cached-cover search against `decreasing_chain_build`.
"""

from __future__ import annotations

import math
import os
import random

from . import bracket_b as bb
from . import noncross as nc
from . import quotient_bds as q
from . import shelling as sh
from . import tamari_a as ta
from . import tri_b
from .kinds import TypeA, TypeB, TypeBDS, lattice_kind

KINDS = (TypeA, TypeB, TypeBDS)
SUITES = tuple(dict.fromkeys(name for k in KINDS for name in k.suites))


def _seed() -> int:
    return int(os.environ.get("TAMARI_SEED", "0"))


def _lattice(suite: str, kind: str, n: int, s):
    """The kind object for (kind, n, s); refuses a suite its `suites` does not list."""
    lat = lattice_kind(kind, n, s)
    if suite not in lat.suites:
        types = [k.name for k in KINDS if suite in k.suites]
        plural = "s" if len(types) > 1 else ""
        raise ValueError(f"suite {suite} applies to type{plural} {' and '.join(types)} only")
    return lat


def _report(name: str, lat, failures: list[str], checked: int, **extra) -> dict:
    return {"suite": name, "checked": checked, "failures": failures, "passed": not failures,
            **extra, "type": lat.name, "n": lat.n, "s": sorted(lat.s)}


def _as_vector(row) -> tuple:
    """The bracket vector of a float row, as the scalar kernels print it."""
    return tuple(x if x == math.inf else int(x) for x in row.tolist())


def _poset(elems):
    """The oracle poset of bracket vectors under the componentwise order."""
    from .oracle import FinitePoset  # numpy loads only once a suite needs the oracle

    order = elems.order if isinstance(elems, sh.IndexedLattice) else sh.order_matrix(elems)
    return FinitePoset(elems, order)


def _algebra_entries(lat, idx: sh.RowIndex, a, b, c) -> tuple:
    """The `shelling.op_tables` entries the lattice-algebra pass reads for
    triples (a, b, c), made on demand: join and meet [a, b]; `ok`, where
    [a, b] and [b, c] are indices; join [[a, b], c], [a, [b, c]],
    [a, meet[a, b]] and meet alike, void where not `ok`."""
    import numpy as np

    size = len(idx.rows)

    # [x, y] is the row form at (elems[min], elems[max]), looked up, made once
    # per distinct pair (keyed min * size + max); a -2 of a triple that is
    # not `ok` reads row 0, and what it gives is void
    def entry(op, x, y):
        pairs, inv = np.unique(np.minimum(x, y).clip(0) * size + np.maximum(x, y).clip(0),
                               return_inverse=True)
        return idx.lookup(op(idx.rows[pairs // size], idx.rows[pairs % size]))[inv]

    (jab, jbc), (mab, mbc) = ([entry(op, a, b), entry(op, b, c)]
                              for op in (lat.join_rows, lat.meet_rows))
    joins = [entry(lat.join_rows, x, y) for x, y in ((jab, c), (a, jbc), (a, mab))]
    meets = [entry(lat.meet_rows, x, y) for x, y in ((mab, c), (a, mbc), (a, jab))]
    return jab, mab, np.minimum.reduce([jab, jbc, mab, mbc]) >= 0, joins, meets


def suite_lattice(kind: str, n: int, s=()) -> dict:
    """Poset is a lattice per oracle; formula meet/join match it on all pairs.

    One walk of `oracle.pair_blocks` sets the row forms at (elems[i],
    elems[j]), i <= j, against the oracle's `meets_of`/`joins_of`, which
    answer [j, i] alike: unless the oracle's element has the row form's
    row, a line against each.  No N x N table is held.  `checked` counts
    those N^2 entries plus the lattice-algebra triples (b, bds: all while
    N^3 <= 10,000, else a seeded sample); their pass reads `_algebra_entries`
    and checks the scalar formulas, arguments swapped, against the row forms.
    """
    import numpy as np

    from .oracle import pair_blocks

    lat = _lattice("lattice", kind, n, s)
    elems, failures = lat.elements(), []
    po, idx = _poset(elems), sh.RowIndex(elems)
    ops = {"meet": (lat.meet_rows, po.meets_of), "join": (lat.join_rows, po.joins_of)}
    wrong = []  # (i, is join, j, oracle answer, row form) with i <= j; sorted, line order
    for i, j in pair_blocks(len(elems)):
        for name, (op, bounds_of) in ops.items():
            want = bounds_of(i, j)
            got = op(idx.rows[i], idx.rows[j])
            bad = ((want < 0) | (idx.rows[want] != got).any(1)).nonzero()[0]
            got = got[bad]  # the block's rows go before the next call
            wrong += zip(i[bad].tolist(), [name == "join"] * len(bad), j[bad].tolist(),
                         want[bad].tolist(), map(_as_vector, got))
    named = [*elems, None]  # index -1, no meet or join, reads as None
    checked = len(elems) ** 2
    for i, w, j, want, v in sorted(wrong):
        name, a, b = ("meet", "join")[w], elems[i], elems[j]
        failures.append(f"{name}({a},{b}) = {v} != oracle {named[want]}")
        failures.append(f"{name}({a},{b}) = {v} != oracle {name}({b},{a}) = {named[want]}")
    if any(want < 0 for _, _, _, want, _ in wrong):
        failures.append("oracle: not a lattice")
    if isinstance(lat, TypeB):  # type B and its quotients only
        # lattice algebra: exhaustive triples at small n, seeded sample beyond;
        # one k = 6000 draw makes the random() calls of 2,000 k = 3 draws in turn
        rng, size = random.Random(_seed()), len(elems)
        a, b, c = (np.indices((size,) * 3).reshape(3, -1) if size**3 <= 10_000
                   else np.array(rng.choices(range(size), k=6000)).reshape(-1, 3).T)
        checked += len(a)
        jab, mab, ok, (j1, j2, ja), (m1, m2, ma) = _algebra_entries(lat, idx, a, b, c)
        # join, meet associativity and absorption fail; a value outside the lattice is no index
        laws = [(j1 != j2) & ok, (m1 != m2) & ok, ((ja != a) | (ma != a)) & ok]
        for p, r, u, j_ab, m_ab, *assoc, absorb in zip(
                *(col.tolist() for col in (a, b, c, jab, mab, *laws))):
            x, y = elems[p], elems[r]
            flipped = po.index.get(lat.join(y, x), -2), po.index.get(lat.meet(y, x), -2)
            if flipped != (j_ab, m_ab):
                failures.append(f"commutativity fails at {x},{y}")
            for name, bad in zip(("join", "meet"), assoc):
                if bad:
                    failures.append(f"{name} associativity fails at {x},{y},{elems[u]}")
            if absorb:
                failures.append(f"absorption fails at {x},{y}")
    return _report("lattice", lat, failures, checked)


def suite_covers(kind: str, n: int, s=()) -> dict:
    """Bracket-order Hasse edges equal diagonal-flip edges (quotient: subposet Hasse)."""
    lat = _lattice("covers", kind, n, s)
    failures: list[str] = []
    checked = 0
    elems = lat.elements()
    if not lat.s:  # witness: the diagonal-flip graph
        tris = {v: lat.decode(v) for v in elems}
        ups = {v: lat.green_flips(t) for v, t in tris.items()}
        for a in elems:
            for b in elems:
                checked += 1
                if lat.covers(a, b) != (tris[b] in ups[a]):
                    failures.append(f"cover mismatch at {a} -> {b}")
    else:  # witness: the oracle's Hasse diagram of the subposet T_n^S, on every a < b
        hasse = _poset(elems).covers
        for i, j in zip(*(x.tolist() for x in elems.strict)):
            checked += 1
            if lat.covers(elems[i], elems[j]) != hasse[i, j]:
                failures.append(f"quotient cover mismatch at {elems[i]} -> {elems[j]}")
    return _report("covers", lat, failures, checked)


def suite_bijection(kind: str, n: int, s=()) -> dict:
    """psi is injective with image exactly NC^B_n (restricted by S); inverses compose to id.

    Each v is decoded once, to t, and encode(t) == v is checked.  When
    `_red_chords(psi(t))` is the red set of t, `from_red_set` rebuilds t
    from it, whose psi(t) == p the forward loop saw, so psi_inverse(p) = t:
    the round trip, compared where t is at hand, so that no red set is
    held.  A p the forward loop did not see noncrossing goes through the
    checked `psi_inverse`."""
    lat = _lattice("bijection", kind, n, s)
    failures: list[str] = []
    checked = 0
    vecs = lat.elements()
    if isinstance(lat, TypeA):  # witness: the classical psi_a
        seen = set()
        for v in vecs:
            p = ta.psi_a(ta.decode_a(v, n))
            checked += 1
            if p in seen:
                failures.append(f"psi_a not injective at {v}")
            seen.add(p)
        if len(seen) != ta.catalan(n + 1):
            failures.append(f"|image| = {len(seen)} != catalan({n + 1})")
    else:  # witness: psi from T_n^S onto the enumerated NC^B partitions that S allows
        images, noncrossing, round_trip = {}, set(), set()
        for v in vecs:
            t = bb.decode(v, n)
            p = nc.psi(t)
            checked += 1
            if bb.encode(t) != v:
                failures.append(f"encode(decode(v)) != v at {v}")
            if nc.is_noncrossing_b(p):
                noncrossing.add(p.blocks)
                if frozenset(nc._red_chords(p)) == t.reds:
                    round_trip.add(p.blocks)
            else:
                failures.append(f"psi({v}) not symmetric noncrossing")
            if p.blocks in images:
                failures.append(f"psi not injective at {v} / {images[p.blocks]}")
            images[p.blocks] = v
        ncb = [p for p in nc.enumerate_ncb(n) if nc.in_bds(p, lat.s)]
        if {p.blocks for p in ncb} != set(images):
            failures.append("image of psi differs from enumerated NC^B")
        for p in ncb:
            checked += 1
            try:
                if not (p.blocks in round_trip if p.blocks in noncrossing
                        else bb.encode(nc.psi_inverse(p)) == images.get(p.blocks)):
                    failures.append(f"psi_inverse round trip fails at {p.sorted_blocks()}")
            except ValueError as err:  # the enumerator listed what psi_inverse refuses
                failures.append(f"psi_inverse refuses {p.sorted_blocks()}: {err}")
    return _report("bijection", lat, failures, checked)


def suite_leftmod(kind: str, n: int, s=()) -> dict:
    """Chain elements are left modular and the chain is unrefinable."""
    lat = _lattice("leftmod", kind, n, s)
    lat.elements()  # the cap: is_left_modular works on the listed lattice
    failures: list[str] = []
    checked = 0
    chain = sh.left_modular_chain(n, lat.s)
    for a, b in zip(chain, chain[1:]):
        checked += 1
        if not q.covers_s(a, b, lat.s, n):
            failures.append(f"chain step {a} -> {b} is not a cover")
    for x in chain:
        checked += 1
        try:
            if not sh.is_left_modular(x, n, lat.s):
                failures.append(f"{x} is not left modular")
        except AssertionError as err:  # a formula table left T_n^S
            failures.append(f"{x}: {err}")
    return _report("leftmod", lat, failures, checked)


def suite_el(kind: str, n: int, s=()) -> dict:
    """EL property, decreasing-chain uniqueness and Mobius vs oracle."""
    lat = _lattice("el", kind, n, s)
    elems = lat.elements()
    rep = sh.verify_el(n, lat.s)
    failures = [str(v) for v in rep["violations"]]
    checked = rep["intervals_checked"]
    po = _poset(elems)
    for i, j in zip(*(x.tolist() for x in elems.order.nonzero())):  # every y <= z
        y, z = elems[i], elems[j]
        checked += 1
        found = sh.decreasing_chains(y, z, n, lat.s)
        built = sh.decreasing_chain_build(y, z, n, lat.s)
        if built is None and found:
            failures.append(f"builder missed the decreasing chain in [{y},{z}]")
        if built is not None and [built] != found:
            failures.append(f"builder chain differs from search in [{y},{z}]")
        mu = sh.chain_mobius(built)
        if mu not in (-1, 0, 1) or mu != po.mobius(y, z):
            failures.append(f"mobius mismatch at [{y},{z}]: {mu} vs {po.mobius(y, z)}")
    return _report("el", lat, failures, checked)


def _class_tops(every: sh.RowIndex, g, s, n: int, failures: list[str]):
    """`q.project` of every row of g: the class tops.  The first that is
    not in T_n^B, which `project` would refuse, is a failure line."""
    tops = q._project_rows(g.copy(), s, n)
    left = every.lookup(tops) < 0
    if left.any():
        k = int(left.argmax())
        left_at = _as_vector(g[k]), _as_vector(tops[k])
        failures.append("projection of {} left the lattice: {}".format(*left_at))
    return tops


def suite_congruence(kind: str, n: int, s=()) -> dict:
    """Congruence both ways, plus quotient order = subposet order.

    The meet half of the congruence is known to fail (see the erratum in
    the README); it is checked faithfully regardless.  For each v with
    w = project(v) != v, the type-B joins and meets of v and of w with
    every z of T_n^B are row forms, projected and compared per z.  One
    walk of `oracle.pair_blocks` (i <= j: the row forms are symmetric)
    sets the type-B meet's row form at (elems[i], elems[j]) against the
    row of the oracle's `meets_of`, with lines at [i, j] and [j, i], so no
    N x N table is held, and finds the witness of no sublattice: the first
    pair, row-major, whose type-B join has n-1 at a coordinate in S.
    """
    import numpy as np

    from .oracle import pair_blocks

    lat = _lattice("congruence", kind, n, s)
    s = lat.s
    failures: list[str] = []
    checked = 0
    elems = lat.elements()
    vecs = TypeB(n).elements()  # all of T_n^B, under the same cap
    every = sh.RowIndex(vecs)
    pairs = [(v, q.project(v, s, n)) for v in vecs if q.project(v, s, n) != v]
    for v, w in pairs:
        checked += len(vecs)
        apart = {}
        for name, op in (("join", bb.join_rows), ("meet", bb.meet_rows)):
            tv, tw = (_class_tops(every, op(x, every.rows, n), s, n, failures) for x in (v, w))
            apart[name] = (tv != tw).any(1)
        for k in (apart["join"] | apart["meet"]).nonzero()[0].tolist():
            z = vecs[k]
            if apart["join"][k]:
                failures.append(f"join congruence fails: v={v} w={w} z={z}")
            if apart["meet"][k]:
                failures.append(f"meet congruence fails: v={v} w={w} z={z}")
    po, wrong, witness = _poset(elems), set(), None
    rows, in_s = np.array(elems, dtype=float), [k - 1 for k in sorted(s)]
    for i, j in pair_blocks(len(elems)):  # the type-B meet against the oracle's; the witness
        want = po.meets_of(i, j)
        bad = ((want < 0) | (rows[want] != bb.meet_rows(rows[i], rows[j], n)).any(1)).nonzero()[0]
        wrong.update(zip(i[bad].tolist(), j[bad].tolist()), zip(j[bad].tolist(), i[bad].tolist()))
        if witness is None:
            out = (bb.join_rows(rows[i], rows[j], n)[:, in_s] == n - 1).any(1)
            witness = tuple(elems[x[out.argmax()]] for x in (i, j)) if out.any() else None
    checked += len(elems) ** 2
    for i, j in sorted(wrong):  # row-major over the whole table
        failures.append(f"inherited meet wrong at {elems[i]},{elems[j]}")
    return _report("congruence", lat, failures, checked, non_sublattice_witness=witness)


def run_suite(name: str, kind: str, n: int, s=()) -> dict:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    return globals()[f"suite_{name}"](kind, n, s)


def triple_count_check(n: int) -> dict:
    """Acceptance-style cardinality cross-check for |T_n^B|."""
    by_vectors = len(bb.enumerate_vectors(n))
    by_flips = len(tri_b.enumerate_triangulations(n))
    by_partitions = len(nc.enumerate_ncb(n))
    expected = math.comb(2 * n, n)
    return {
        "n": n,
        "vectors": by_vectors,
        "flip_graph": by_flips,
        "noncrossing": by_partitions,
        "binomial": expected,
        "passed": by_vectors == by_flips == by_partitions == expected,
    }
