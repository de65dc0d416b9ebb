"""Named verification suites run against the brute-force oracle.

Each suite is a thin composition of module-level operations; it returns a
report dict with a "passed" flag and a list of human-readable failure
strings.  The CLI maps suite failures to exit code 2.  Suites that take a
type work through its kind object (`tamari.kinds`), branching only where
the witnesses differ on purpose.
"""

from __future__ import annotations

import itertools
import math
import os
import random

from . import bracket_b as bb
from . import noncross as nc
from . import quotient_bds as q
from . import shelling as sh
from . import tamari_a as ta
from . import tri_b
from .kinds import TypeA, TypeB, lattice_kind


def _seed() -> int:
    return int(os.environ.get("TAMARI_SEED", "0"))


def _report(name: str, failures: list[str], checked: int) -> dict:
    return {
        "suite": name,
        "checked": checked,
        "failures": failures,
        "passed": not failures,
    }


def _parse_s(s) -> frozenset:
    return frozenset(s or ())


def _poset(elems):
    """The oracle poset of bracket vectors under the componentwise order."""
    import numpy as np  # numpy loads only once a suite needs the oracle

    from .oracle import FinitePoset

    a = np.array(elems, dtype=float)  # inf stays inf
    return FinitePoset(elems, (a[:, None, :] <= a[None, :, :]).all(-1))


def suite_lattice(kind: str, n: int, s=()) -> dict:
    """Poset is a lattice per oracle; formula meet/join match it on all pairs.

    The formulas run once per unordered pair {a, b}, a listed no later
    than b, and each value is compared as an element index (-2 for a
    vector that is not an element) with both oracle entries [a, b] and
    [b, a].  `checked` counts the N^2 oracle entries compared plus the
    triples of the lattice-algebra pass (types b and bds), which checks
    commutativity, so also a formula wrong in one argument order only: on
    every pair while N^3 <= 10,000, on a seeded sample beyond.
    """
    import numpy as np

    lat = lattice_kind(kind, n, s)
    failures: list[str] = []
    elems = list(lat.elements())
    po = _poset(elems)
    meets, joins = po.all_meets(), po.all_joins()
    index = po.index
    named = [*elems, None]  # index -1, no meet or join, reads as None
    checked = len(elems) ** 2
    for i, a in enumerate(elems):
        for name, op, table in (("meet", lat.meet, meets), ("join", lat.join, joins)):
            vals = [op(a, b) for b in elems[i:]]
            got = np.fromiter((index.get(v, -2) for v in vals), np.int32, len(vals))
            row, col = table[i, i:], table[i:, i]
            for k in np.flatnonzero((got != row) | (got != col)).tolist():
                b, v = elems[i + k], vals[k]
                if got[k] != row[k]:
                    failures.append(f"{name}({a},{b}) = {v} != oracle {named[row[k]]}")
                if got[k] != col[k]:
                    failures.append(
                        f"{name}({a},{b}) = {v} != oracle {name}({b},{a}) = {named[col[k]]}"
                    )
    if (meets < 0).any() or (joins < 0).any():
        failures.append("oracle: not a lattice")
    if isinstance(lat, TypeB):  # type B and its quotients only
        # lattice algebra: exhaustive triples at small n, seeded sample beyond
        rng = random.Random(_seed())
        triples = (
            list(itertools.product(elems, repeat=3))
            if len(elems) ** 3 <= 10_000
            else [tuple(rng.choices(elems, k=3)) for _ in range(2000)]
        )
        meet, join = lat.meet, lat.join
        for a, b, c in triples:
            checked += 1
            if join(a, b) != join(b, a) or meet(a, b) != meet(b, a):
                failures.append(f"commutativity fails at {a},{b}")
            if join(join(a, b), c) != join(a, join(b, c)):
                failures.append(f"join associativity fails at {a},{b},{c}")
            if meet(meet(a, b), c) != meet(a, meet(b, c)):
                failures.append(f"meet associativity fails at {a},{b},{c}")
            if join(a, meet(a, b)) != a or meet(a, join(a, b)) != a:
                failures.append(f"absorption fails at {a},{b}")
    return _report("lattice", failures, checked)


def suite_covers(kind: str, n: int, s=()) -> dict:
    """Bracket-order Hasse edges equal diagonal-flip edges (quotient: subposet Hasse)."""
    lat = lattice_kind(kind, n, s)
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
    else:  # witness: the Hasse diagram of the subposet T_n^S
        for a in elems:
            for b in elems:
                if a == b or not bb.leq(a, b):
                    continue
                checked += 1
                hasse = not any(
                    c != a and c != b and bb.leq(a, c) and bb.leq(c, b) for c in elems
                )
                if lat.covers(a, b) != hasse:
                    failures.append(f"quotient cover mismatch at {a} -> {b}")
    return _report("covers", failures, checked)


def suite_bijection(kind: str, n: int, s=()) -> dict:
    """psi is injective with image exactly NC^B_n (restricted by S); inverses compose to id."""
    lat = lattice_kind(kind, n, s)
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
        images = {}
        for v in vecs:
            p = nc.psi(bb.decode(v, n))
            checked += 1
            if not nc.is_noncrossing_b(p):
                failures.append(f"psi({v}) not symmetric noncrossing")
            if p.blocks in images:
                failures.append(f"psi not injective at {v} / {images[p.blocks]}")
            images[p.blocks] = v
        ncb = [p for p in nc.enumerate_ncb(n) if nc.in_bds(p, lat.s)]
        if {p.blocks for p in ncb} != set(images):
            failures.append("image of psi differs from enumerated NC^B")
        for p in ncb:
            checked += 1
            if bb.encode(nc.psi_inverse(p)) != images.get(p.blocks):
                failures.append(f"psi_inverse round trip fails at {p.sorted_blocks()}")
    return _report("bijection", failures, checked)


def suite_leftmod(n: int, s=()) -> dict:
    """Chain elements are left modular and the chain is unrefinable."""
    s = _parse_s(s)
    failures: list[str] = []
    checked = 0
    chain = sh.left_modular_chain(n, s)
    for a, b in zip(chain, chain[1:]):
        checked += 1
        if not q.covers_s(a, b, s, n):
            failures.append(f"chain step {a} -> {b} is not a cover")
    for x in chain:
        checked += 1
        if not sh.is_left_modular(x, n, s):
            failures.append(f"{x} is not left modular")
    return _report("leftmod", failures, checked)


def suite_el(n: int, s=()) -> dict:
    """EL property, decreasing-chain uniqueness and Mobius vs oracle."""
    s = _parse_s(s)
    rep = sh.verify_el(n, s)
    failures = [str(v) for v in rep["violations"]]
    checked = rep["intervals_checked"]
    elems = list(sh.lattice_elements(n, s))
    po = _poset(elems)
    for y in elems:
        for z in elems:
            if not bb.leq(y, z):
                continue
            checked += 1
            found = sh.decreasing_chains(y, z, n, s)
            built = sh.decreasing_chain_build(y, z, n, s)
            if built is None and found:
                failures.append(f"builder missed the decreasing chain in [{y},{z}]")
            if built is not None and [built] != found:
                failures.append(f"builder chain differs from search in [{y},{z}]")
            mu = sh.mobius(y, z, n, s)
            if mu not in (-1, 0, 1) or mu != po.mobius(y, z):
                failures.append(f"mobius mismatch at [{y},{z}]: {mu} vs {po.mobius(y, z)}")
    return _report("el", failures, checked)


def suite_congruence(n: int, s=()) -> dict:
    """Congruence both ways, plus quotient order = subposet order.

    The meet half of the congruence is known to fail (see the erratum in
    the README); it is checked faithfully regardless.
    """
    s = _parse_s(s)
    failures: list[str] = []
    checked = 0
    vecs = sh.lattice_elements(n, frozenset())
    elems = list(sh.lattice_elements(n, s))
    pairs = [(v, q.project(v, s, n)) for v in vecs if q.project(v, s, n) != v]
    for v, w in pairs:
        for z in vecs:
            checked += 1
            if not q.equivalent(bb.join(v, z, n), bb.join(w, z, n), s, n):
                failures.append(f"join congruence fails: v={v} w={w} z={z}")
            if not q.equivalent(bb.meet(v, z, n), bb.meet(w, z, n), s, n):
                failures.append(f"meet congruence fails: v={v} w={w} z={z}")
    meets = _poset(elems).all_meets()
    named = [*elems, None]
    for a, mrow in zip(elems, meets.tolist()):
        for b, m in zip(elems, mrow):
            checked += 1
            if q.meet_s(a, b, s, n) != named[m]:
                failures.append(f"inherited meet wrong at {a},{b}")
    witness = next(
        (
            (a, b)
            for a in elems
            for b in elems
            if not q.vector_in_tns(bb.join(a, b, n), n, s)
        ),
        None,
    )
    out = _report("congruence", failures, checked)
    out["non_sublattice_witness"] = witness
    return out


# Suite name -> runner; the suite functions are looked up when one runs.
_RUNNERS = {
    "lattice": lambda kind, n, s: suite_lattice(kind, n, s),
    "covers": lambda kind, n, s: suite_covers(kind, n, s),
    "bijection": lambda kind, n, s: suite_bijection(kind, n, s),
    "leftmod": lambda kind, n, s: suite_leftmod(n, s),
    "el": lambda kind, n, s: suite_el(n, s),
    "congruence": lambda kind, n, s: suite_congruence(n, s),
}
SUITES = tuple(_RUNNERS)


def run_suite(name: str, kind: str, n: int, s=()) -> dict:
    if name not in _RUNNERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITES}")
    out = _RUNNERS[name](kind, n, s)
    out.update({"type": kind, "n": n, "s": sorted(_parse_s(s))})
    return out


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
