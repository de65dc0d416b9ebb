"""The four benchmark workloads: verify, frontier, query and cli.

Each `build_<name>(seed, tiny)` generates its inputs from the seed (with
`gen`, never with the package) and returns a `Workload`: a fixed list of
operations per repetition, each with a correctness check that runs off the
timed path.  Expected answers come from closed forms, from `gen`'s own
enumeration, from the README figures, or (for the CLI layer only) from the
package called in-process during set-up.
"""

from __future__ import annotations

import gc
import json
import math
import random
from dataclasses import dataclass, field
from functools import partial
from math import inf as INF
from typing import Callable

import gen
from tamari import bracket_b as bb
from tamari import noncross as nc
from tamari import shelling as sh
from tamari import verify as vfy

# The README's figure 2 vector, its triangulation and its figure 4 partition.
FIG2_VECTOR = (0, INF, 0, 0, 2, 0)
FIG2_CHORDS = [
    ["2", "5"], ["2", "7"], ["2", "-2"], ["2", "-7"], ["3", "5"], ["5", "7"],
    ["7", "-2"], ["-2", "-5"], ["-2", "-7"], ["-3", "-5"], ["-5", "-7"],
]
ERRATUM_PREFIX = "meet congruence fails"
# The cache object itself: the tracer replaces the module attribute.
LATTICE_ELEMENTS = sh.lattice_elements


@dataclass
class Op:
    """One timed operation: `call()` in-process, or `python -m tamari *argv`."""

    kind: str
    check: Callable[[object], str | None]  # problem description, or None
    call: Callable[[], object] | None = None
    argv: list[str] | None = None


@dataclass
class Workload:
    name: str
    reps: list[list[Op]]  # input sets; repetition k runs reps[k % len(reps)]
    warm: list[Op] = field(default_factory=list)
    # True when a user runs the whole list as one command (`verify_all.py`):
    # p50_ms and tail_ms then describe repetitions, not single suites.
    plan_is_one_operation: bool = False
    lru_hits: int = 0  # lattice_elements cache counts, summed over repetitions
    lru_misses: int = 0

    def rep_ops(self, k: int) -> list[Op]:
        return self.reps[k % len(self.reps)]

    def before_rep(self) -> None:
        # A user's single `tamari verify` starts with a cold cache.
        info = LATTICE_ELEMENTS.cache_info()
        self.lru_hits += info.hits
        self.lru_misses += info.misses
        LATTICE_ELEMENTS.cache_clear()
        # Each repetition starts from a collected heap, as a fresh command
        # does, instead of paying for the previous repetition's garbage.
        gc.collect()


def _late(mod, attr: str, *args):
    """A call of mod.attr(*args) that looks the name up when it runs, so
    that a traced run calls the wrapper, not the function seen at set-up."""
    return partial(_invoke, mod, attr, args)


def _invoke(mod, attr: str, args):
    return getattr(mod, attr)(*args)


def _vec_json(v) -> list:
    return ["inf" if x == INF else x for x in v]


def _expect(pred: bool, problem: str) -> str | None:
    return None if pred else problem


# -- verify and frontier -------------------------------------------------------


def _tns(n: int, s) -> list:
    return [v for v in gen.all_vectors(n) if gen.in_tns(v, n, s)]


def _comparable_pairs(elems: list) -> int:
    return sum(1 for a in elems for b in elems if gen.leq(a, b))


def expected_checked(suite: str, kind: str, n: int, s) -> int:
    """The exact `checked` count of a suite report, from gen's enumeration."""
    if kind == "a":
        return gen.catalan(n + 1) ** 2
    elems = _tns(n, s)
    size = len(elems)
    if suite == "lattice":
        return size * size + (size**3 if size**3 <= 10_000 else 2000)
    if suite == "covers":
        return size * size if not s else _comparable_pairs(elems) - size
    if suite == "bijection":
        return 2 * size
    if suite == "leftmod":
        chain = 1 + n * n - len(s)
        return 2 * chain - 1
    if suite == "el":
        return 2 * _comparable_pairs(elems) - size
    if suite == "congruence":
        every = gen.all_vectors(n)
        moved = sum(1 for v in every if not gen.in_tns(v, n, s))
        return moved * len(every) + size * size
    raise ValueError(suite)


def _check_suite(report, checked: int, erratum: bool) -> str | None:
    if report["checked"] != checked:
        return f"checked {report['checked']} != expected {checked}"
    if erratum:
        # The documented ~_S meet-congruence erratum: the suite must fail,
        # and only on the meet side.
        if report["passed"] or not report["failures"]:
            return "congruence passed: the documented meet erratum did not show"
        other = [f for f in report["failures"] if not f.startswith(ERRATUM_PREFIX)]
        return _expect(not other, f"unexpected congruence failure: {other[:1]}")
    return _expect(report["passed"], f"suite failed: {report['failures'][:1]}")


def _suite_op(suite: str, kind: str, n: int, s=()) -> Op:
    checked = expected_checked(suite, kind, n, frozenset(s))
    erratum = suite == "congruence"
    return Op(
        f"{suite}-{kind}{n}",
        partial(_check_suite, checked=checked, erratum=erratum),
        call=_late(vfy, "run_suite", suite, kind, n, s),
    )


def _count_op(n: int) -> Op:
    want = math.comb(2 * n, n)

    def check(rep):
        counts = (rep["vectors"], rep["flip_graph"], rep["noncrossing"], rep["binomial"])
        return _expect(rep["passed"] and counts == (want,) * 4, f"counts {counts} != {want}")

    return Op(f"counts-b{n}", check, call=_late(vfy, "triple_count_check", n))


VERIFY_PLAN = [
    ("lattice", "b", 5, ()),
    ("lattice", "a", 5, ()),
    ("lattice", "bds", 5, (2, 4)),
    ("covers", "b", 4, ()),
    ("covers", "a", 5, ()),
    ("bijection", "b", 6, ()),
    ("leftmod", "bds", 4, (1,)),
    ("el", "b", 4, ()),
    ("el", "bds", 4, (2,)),
    ("congruence", "bds", 4, (1, 3)),
]
VERIFY_TINY = [
    ("lattice", "b", 3, ()),
    ("lattice", "a", 3, ()),
    ("lattice", "bds", 3, (2,)),
    ("covers", "b", 2, ()),
    ("covers", "a", 3, ()),
    ("bijection", "b", 3, ()),
    ("leftmod", "bds", 3, (1,)),
    ("el", "b", 2, ()),
    ("el", "bds", 3, (2,)),
    ("congruence", "bds", 3, (1, 3)),
]


def build_verify(seed: int, tiny: bool) -> Workload:
    plan = VERIFY_TINY if tiny else VERIFY_PLAN
    ops = [_suite_op(*entry) for entry in plan] + [_count_op(3 if tiny else 5)]
    warm = [_suite_op(suite, kind, 2, s[:1]) for suite, kind, _, s in VERIFY_TINY]
    return Workload("verify", [ops], warm, plan_is_one_operation=True)


def build_frontier(seed: int, tiny: bool) -> Workload:
    return Workload(
        "frontier",
        [[_suite_op("lattice", "b", 3 if tiny else 6)]],
        [_suite_op("lattice", "b", 3)],
    )


# -- query ------------------------------------------------------------------


def _check_bound(kind: str, a, b, n: int, r) -> str | None:
    if not gen.is_valid(r, n):
        return f"{kind} result is not a valid vector"
    below = kind == "meet"
    ok = all(gen.leq(r, x) if below else gen.leq(x, r) for x in (a, b))
    return _expect(ok, f"{kind} is not a {'lower' if below else 'upper'} bound of its inputs")


def _check_upper_covers(v, n: int, ws) -> str | None:
    return _expect(list(ws) == gen.upper_covers(v, n), "upper covers differ from gen's")


def _check_psi(n: int, p) -> str | None:
    return _expect(p.n == n and nc.is_noncrossing_b(p), "psi output is not in NC^B")


def _check_round_trip(v, t) -> str | None:
    return _expect(bb.encode(t) == v, "encode(psi_inverse(psi(decode(v)))) != v")


def _psi_of(v, n: int):
    """psi of the decoded vector, as `tamari psi` computes it."""
    return nc.psi(bb.decode(v, n))


def _query_rep(rng: random.Random, n: int, vectors: int, ups: int, m: int, trips: int) -> list[Op]:
    """One input set: meet/join/covers/decode/psi on `vectors` vectors at n,
    upper_covers on the first `ups` of them, psi_inverse round trips at m on
    `trips` sampled elements and the top element."""
    vs = [gen.sample_vector(n, rng) for _ in range(vectors)]
    ops: list[Op] = []
    for k, v in enumerate(vs):
        for d in (1, 2, 3, 4):
            u = vs[(k + d) % len(vs)]
            ops.append(Op("meet", partial(_check_bound, "meet", v, u, n), call=_late(bb, "meet", v, u, n)))
            ops.append(Op("join", partial(_check_bound, "join", v, u, n), call=_late(bb, "join", v, u, n)))
        w = gen.random_cover(v, n, rng)
        if w is not None:
            ops.append(Op("covers", lambda r: _expect(r is True, "covers(v, cover of v) is False"),
                          call=_late(bb, "covers", v, w, n)))
        ops.append(Op("decode", lambda t, v=v: _expect(bb.encode(t) == v, "encode(decode(v)) != v"),
                      call=_late(bb, "decode", v, n)))
        ops.append(Op("psi", partial(_check_psi, n), call=partial(_psi_of, v, n)))
        if k < ups:
            ops.append(Op("upper_covers", partial(_check_upper_covers, v, n),
                          call=_late(bb, "upper_covers", v, n)))
    # psi_inverse round trips: the partitions are built here, in set-up.
    targets = [gen.sample_vector(m, rng) for _ in range(trips)] + [(INF,) * m]
    for v in targets:
        p = _psi_of(v, m)
        ops.append(Op("psi_inverse", partial(_check_round_trip, v), call=_late(nc, "psi_inverse", p)))
    if not all(bb.is_valid(x, len(x)) for x in vs + targets[:-1]):
        raise AssertionError("sampler produced an invalid vector")
    return ops


# n, vectors, upper_covers per set, m, random round trips per set, sets.
# upper_covers (~85 ms at n=64) and the top-element round trip (~3.6 s)
# are the heaviest operations; with about 4 of the former per set, the
# tail percentile (10 samples beyond) lands mid-way through the
# upper_covers samples instead of on their most extreme few.
QUERY_SIZES = (64, 14, 4, 12, 2, 8)
QUERY_TINY = (8, 5, 2, 5, 2, 2)


def build_query(seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    n, vectors, ups, m, trips, sets = QUERY_TINY if tiny else QUERY_SIZES
    reps = [_query_rep(rng, n, vectors, ups, m, trips) for _ in range(sets)]
    warm = _query_rep(random.Random(seed), 8, 2, 1, 5, 1)
    return Workload("query", reps, warm)


# -- cli ------------------------------------------------------------------------


def _parse(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def _cli_check(expected: Callable[[str], bool], what: str):
    def check(result) -> str | None:
        code, out = result
        if code != 0:
            return f"{what}: exit code {code}"
        return _expect(expected(out), f"{what}: unexpected output {out[:80]!r}")

    return check


def _cli_op(kind: str, argv: list[str], expected: Callable[[str], bool]) -> Op:
    return Op(kind, _cli_check(expected, " ".join(argv)), argv=argv)


def _vec_arg(v) -> str:
    return json.dumps(_vec_json(v))


def _cli_rep(rng: random.Random, n: int, mn: int, fixed: list[Op]) -> list[Op]:
    a, b, v = (gen.sample_vector(n, rng) for _ in range(3))
    y, w = (gen.sample_vector(mn, rng) for _ in range(2))
    if not all(bb.is_valid(x, len(x)) for x in (a, b, v, y, w)):
        raise AssertionError("sampler produced an invalid vector")
    args = ["--n", str(n)]
    meet, join = bb.meet(a, b, n), bb.join(a, b, n)
    ups = [_vec_json(w) for w in gen.upper_covers(v, n)]
    p = _psi_of(v, n).to_json()
    z = bb.join(y, w, mn)
    mu = sh.mobius(y, z, mn)
    h = sh.interval_homotopy(y, z, mn)
    mob = {
        "interval": [_vec_json(y), _vec_json(z)],
        "mobius": mu,
        "homotopy": "contractible" if h[0] == "contractible" else f"sphere({h[1]})",
    }
    pair = ["--vector", _vec_arg(a), "--other", _vec_arg(b)]
    return [
        _cli_op("meet", ["meet", *args, *pair],
                lambda out: _parse(out) == _vec_json(meet) and gen.leq(meet, a) and gen.leq(meet, b)),
        _cli_op("join", ["join", *args, *pair],
                lambda out: _parse(out) == _vec_json(join) and gen.leq(a, join) and gen.leq(b, join)),
        _cli_op("covers", ["covers", *args, "--vector", _vec_arg(v)],
                lambda out: [_parse(line) for line in out.splitlines() if line] == ups),
        _cli_op("psi", ["psi", *args, "--vector", _vec_arg(v)], lambda out: _parse(out) == p),
        _cli_op("psi-inv", ["psi-inv", "--partition", json.dumps(p)],
                lambda out: (_parse(out) or {}).get("vector") == _vec_json(v)),
        _cli_op("mobius", ["mobius", "--n", str(mn), "--vector", _vec_arg(y), "--other", _vec_arg(z)],
                lambda out: _parse(out) == mob),
        *fixed,
    ]


def _fixed_cli_ops(tiny: bool) -> list[Op]:
    ca, cb, hn, vn = (4, 4, 3, 2) if tiny else (7, 8, 4, 4)
    listing = [_vec_json(v) for v in gen.all_vectors(cb)]
    hasse_nodes = gen.all_vectors(hn)
    hasse_edges = sum(len(gen.upper_covers(v, hn)) for v in hasse_nodes)
    verify_checked = expected_checked("lattice", "b", vn, frozenset())

    def hasse_ok(out):
        data = _parse(out) or {}
        return len(data.get("nodes", ())) == len(hasse_nodes) and len(data.get("edges", ())) == hasse_edges

    def verify_ok(out):
        data = _parse(out) or {}
        return data.get("passed") is True and data.get("checked") == verify_checked

    return [
        _cli_op("decode", ["decode", "--n", "6", "--vector", _vec_arg(FIG2_VECTOR)],
                lambda out: _parse(out) == {"n": 6, "chords": FIG2_CHORDS}),
        _cli_op("hasse", ["hasse", "--n", str(hn)], hasse_ok),
        _cli_op("count-a", ["count", "--type", "a", "--n", str(ca)],
                lambda out: out.strip() == str(gen.catalan(ca + 1))),
        _cli_op("count-b", ["count", "--n", str(cb)],
                lambda out: out.strip() == str(math.comb(2 * cb, cb))),
        _cli_op("enumerate", ["enumerate", "--n", str(cb)],
                lambda out: [_parse(line) for line in out.splitlines()] == listing),
        _cli_op("verify", ["verify", "lattice", "--n", str(vn)], verify_ok),
    ]


CLI_KINDS = ("meet", "join", "covers", "psi", "psi-inv", "mobius",
             "decode", "hasse", "count-a", "count-b", "enumerate", "verify")


def build_cli(seed: int, tiny: bool) -> Workload:
    rng = random.Random(seed)
    fixed = _fixed_cli_ops(tiny)
    n, mn, sets = (3, 3, 2) if tiny else (6, 5, 16)
    reps = [_cli_rep(rng, n, mn, fixed) for _ in range(sets)]
    warm = [_cli_op("count", ["count", "--n", "3"], lambda out: out.strip() == "20")]
    return Workload("cli", reps, warm)


BUILDERS = {
    "verify": build_verify,
    "frontier": build_frontier,
    "query": build_query,
    "cli": build_cli,
}
