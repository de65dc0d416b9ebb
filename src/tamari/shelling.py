"""Join irreducibles, left modularity, EL-labelling and interval homotopy.

Works uniformly over the type-B lattice (s empty) and its BD^S quotients:
elements are the T_n^S bracket vectors under the componentwise order.

The irreducible W_{i,t} and chain element S_{i,t} families are indexed by
i in [1,n] and t in [1,n-1] + {inf}; the total order on labels is

    W_{n,1} < W_{n,2} < ... < W_{n,inf} < W_{n-1,1} < ... < W_{1,inf},

which matches the order of the S_{i,t} in the lattice.  Cover edges are
labelled by the least irreducible below the top but not the bottom;
every interval then has a unique weakly increasing maximal chain
(lexicographically first) and at most one decreasing chain, giving the
Mobius value and the homotopy type of the open interval.

`is_left_modular`, `decreasing_chains` and `verify_el` work on the cached
`IndexedLattice` of `lattice_elements(n, s)`; the witnesses
`decreasing_chain_build` (so `mobius`) and `gamma_chain_label` take their
own checked steps.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import inf as INF

from . import bracket_b as bb
from . import quotient_bds as q

Label = tuple  # (i, t)


def w_vector(n: int, i: int, t):
    """Bracket vector of the join irreducible W_{i,t}."""
    if not (1 <= i <= n and (t == INF or 1 <= t <= n - 1)):
        raise ValueError(f"bad irreducible index ({i}, {t})")
    v = [0] * n
    v[i - 1] = t
    if t != INF and t >= i:
        v[n + i - t - 1] = INF
    vec = tuple(v)
    assert bb.is_valid(vec, n)
    return vec


def s_vector(n: int, i: int, t):
    """Bracket vector of the left modular element S_{i,t}."""
    if not (1 <= i <= n and (t == INF or 1 <= t <= n - 1)):
        raise ValueError(f"bad chain index ({i}, {t})")
    vec = tuple([0] * (i - 1) + [t] + [INF] * (n - i))
    assert bb.is_valid(vec, n)
    return vec


def label_order(n: int) -> list[Label]:
    """All n^2 labels (i, t) in increasing order under the label order."""
    return [(i, t) for i in range(n, 0, -1) for t in [*range(1, n), INF]]


def join_irreducibles(n: int, s=frozenset()) -> list[tuple[Label, tuple]]:
    """Irreducibles of T_n^S in label order: no i in s with t = n-1, and not the bottom."""
    return list(_irreducibles(n, frozenset(s)))


@lru_cache(maxsize=None)
def _irreducibles(n: int, s: frozenset) -> tuple:
    # the bottom can be a W: W_{1,inf} is the one element of T_1^S for S = {1}
    bottom = q.project(bb.bottom_vector(n), s, n)
    irr = [((i, t), w_vector(n, i, t)) for i, t in label_order(n) if not (i in s and t == n - 1)]
    return tuple((lab, w) for lab, w in irr if w != bottom)


@lru_cache(maxsize=None)
def _irreducibles_at(n: int, s: frozenset) -> tuple:
    """For each coordinate k, the irreducibles W_{k+1,t} in label order."""
    irr = _irreducibles(n, s)
    return tuple(tuple(x for x in irr if x[0][0] == k + 1) for k in range(n))


def left_modular_chain(n: int, s=frozenset()) -> list[tuple]:
    """Unrefinable chain bottom = S_{n,1}-chain = top, merged under ~_S."""
    chain = [q.project(bb.bottom_vector(n), s, n)]
    for i, t in label_order(n):
        if not (i in s and t == n - 1) and (v := s_vector(n, i, t)) != chain[-1]:
            chain.append(v)
    return chain


def order_matrix(elems):
    """Read-only N x N bool matrix: [i, j] when elems[i] <= elems[j] componentwise."""
    import numpy as np

    a = np.array(elems, dtype=float)  # inf stays inf
    order = (a[:, None, :] <= a[None, :, :]).all(-1)
    order.flags.writeable = False  # shared by every reader of the cached lattice
    return order


class IndexedLattice(tuple):
    """T_n^S in lexicographic order, a linear extension, plus what is fixed
    per (n, s), each built on first use and kept on the object, so clearing
    the `lattice_elements` cache drops it.  Elements are named by index:
    `index` maps elements to indices, `order` is the `order_matrix`,
    `strict` holds every pair y < z as two index arrays (y-major),
    `covers[i]` the upper covers of i (increasing), `ranks[i]` the rank of
    each one's EL label, and `meets`/`joins` the `op_table`s of the type-B
    meet, which T_n^S inherits, and of the T_n^S join."""

    def __new__(cls, n: int, s=frozenset()):
        self = super().__new__(cls, q.elements_tns(n, s))
        self.n, self.s = n, frozenset(s)
        return self

    index = cached_property(lambda self: {v: k for k, v in enumerate(self)})
    order = cached_property(order_matrix)

    @cached_property
    def strict(self) -> tuple:
        ys, zs = self.order.nonzero()
        return ys[ys != zs], zs[ys != zs]

    @cached_property
    def covers(self) -> list[list[int]]:
        return [[self.index[w] for w in q._upper_covers_s(v, self.s, self.n)] for v in self]

    @cached_property
    def ranks(self) -> list[list[int]]:
        rank = _label_rank(self.n, self.s)
        return [[rank[_el_label(v, self[w], self.n, self.s)] for w in ws]
                for v, ws in zip(self, self.covers)]

    @cached_property
    def meets(self):
        return op_table(self, self.index, lambda a, b: bb.meet(a, b, self.n))

    @cached_property
    def joins(self):
        return op_table(self, self.index, lambda a, b: q._join_s(a, b, self.s, self.n))


lattice_elements = lru_cache(maxsize=None)(IndexedLattice)  # one per (n, s)


def op_table(elems, index: dict, op):
    """N x N index table of op, called once per unordered pair {a, b}, a
    listed no later than b, with -2 for a value that is not an element."""
    import numpy as np

    size = len(elems)
    table = np.empty((size, size), np.int16 if size < 2**15 else np.int32)
    for i, a in enumerate(elems):
        row = [index.get(op(a, b), -2) for b in elems[i:]]
        table[i, i:] = row
        table[i:, i] = row
    return table


def is_left_modular(x, n: int, s=frozenset()) -> bool:
    """(y v x) ^ z == y v (x ^ z) for every comparable pair y < z."""
    q.check_member(x, s, n)
    lat = lattice_elements(n, frozenset(s))
    k = lat.index[x]
    ys, zs = lat.strict
    yx, xz = lat.joins[ys, k], lat.meets[k, zs]
    if (yx < 0).any() or (xz < 0).any():
        raise AssertionError("a meet or join formula left T_n^S")
    return bool((lat.meets[yx, zs] == lat.joins[ys, xz]).all())


@lru_cache(maxsize=None)
def _label_rank(n: int, s: frozenset) -> dict[Label, int]:
    return {lab: k for k, (lab, _) in enumerate(_irreducibles(n, s))}


def el_label(a, b, n: int, s=frozenset()) -> Label:
    """Label of a cover edge: the least irreducible below b but not below a.

    A cover changes one coordinate k, and the label is always some
    W_{k+1,t}, so only those irreducibles are scanned.
    """
    if not q.covers_s(a, b, s, n):
        raise ValueError(f"{a} is not covered by {b}")
    return _el_label(a, b, n, s)


def _el_label(a, b, n: int, s) -> Label:
    """`el_label` for an edge already known to be a cover of T_n^S."""
    k = next(k for k in range(n) if a[k] != b[k])
    for lab, w in _irreducibles_at(n, frozenset(s))[k]:
        if bb.leq(w, b) and not bb.leq(w, a):
            return lab
    raise AssertionError("cover edge with empty irreducible set")


def gamma_chain_label(a, b, n: int, s=frozenset()):
    """Liu's chain labelling: least chain step whose new irreducibles meet W(a,b).

    Returns (step index, the new irreducibles at that step).
    """
    chain = left_modular_chain(n, s)
    irr = join_irreducibles(n, s)
    wab = [(lab, w) for lab, w in irr if bb.leq(w, b) and not bb.leq(w, a)]
    for m in range(1, len(chain)):
        step = [
            (lab, w)
            for lab, w in irr
            if bb.leq(w, chain[m]) and not bb.leq(w, chain[m - 1])
        ]
        if any(lab in {l for l, _ in step} for lab, _ in wab):
            return m, step
    raise AssertionError("no chain step hit")


def decreasing_chains(y, z, n: int, s=frozenset()) -> list[list]:
    """All maximal chains from y to z in T_n^S with strictly decreasing labels.

    Exhaustive search over the cached covers and label ranks; at most one
    such chain can exist, and this is enforced.
    """
    if not bb.leq(y, z):
        raise ValueError(f"{y} is not below {z}")
    lat = lattice_elements(n, frozenset(s))
    top = lat.index[z]
    below_top = lat.order[:, top]
    out: list[list] = []

    def rec(chain: list, last_rank) -> None:
        cur = chain[-1]
        if cur == top:
            out.append([lat[k] for k in chain])
            return
        for w, r in zip(lat.covers[cur], lat.ranks[cur]):
            if below_top[w] and (last_rank is None or r < last_rank):
                chain.append(w)
                rec(chain, r)
                chain.pop()

    rec([lat.index[y]], None)
    if len(out) > 1:
        raise AssertionError(f"multiple decreasing chains in [{y}, {z}]")
    return out


def decreasing_chain_build(y, z, n: int, s=frozenset()):
    """Constructive decreasing chain: repeatedly take the unique cover at
    the first coordinate where the current vector differs from z; fail if
    it overshoots z or the labels stop decreasing."""
    if not bb.leq(y, z):
        raise ValueError(f"{y} is not below {z}")
    rank = _label_rank(n, frozenset(s))
    chain = [y]
    last = None
    cur = y
    while cur != z:
        k = next(k for k in range(n) if cur[k] != z[k])
        nxt = bb._next_value_at(cur, n, k)
        if nxt is None:
            return None
        w = q.project(cur[:k] + (nxt,) + cur[k + 1 :], s, n)
        if not bb.leq(w, z):
            return None
        r = rank[el_label(cur, w, n, s)]
        if last is not None and not r < last:
            return None
        chain.append(w)
        cur, last = w, r
    return chain


def chain_mobius(chain) -> int:
    """Mobius value of a built decreasing chain (or None): (-1)^len or 0."""
    return 0 if chain is None else (-1) ** (len(chain) - 1)


def mobius(y, z, n: int, s=frozenset()) -> int:
    """Mobius value from the decreasing-chain rule, via `chain_mobius`."""
    return chain_mobius(decreasing_chain_build(y, z, n, s))


def chain_homotopy(chain):
    """("sphere", d) for a built decreasing chain of length d+2, else ("contractible",).

    Covers give the (-1)-sphere (empty complex); y = z reports dimension -2.
    """
    return ("contractible",) if chain is None else ("sphere", len(chain) - 3)


def interval_homotopy(y, z, n: int, s=frozenset()):
    """Homotopy type of the open interval (y, z), via `chain_homotopy`."""
    return chain_homotopy(decreasing_chain_build(y, z, n, s))


def verify_el(n: int, s=frozenset()) -> dict:
    """Check the EL property on every interval of T_n^S.

    Each interval must carry exactly one weakly increasing maximal chain
    of label ranks (`IndexedLattice.ranks`), and that chain must be
    lexicographically first.
    """
    lat = lattice_elements(n, frozenset(s))
    ups, labels = lat.covers, lat.ranks
    violations = []
    for y in range(len(lat)):
        above = lat.order[y].nonzero()[0].tolist()  # y, then every z > y
        counts = {y: {None: 1}}  # rising chains from y to v, by last label
        for v in above:  # a linear extension: counts[v] is complete here
            for w, lab in zip(ups[v], labels[v]):
                into = counts.setdefault(w, {})
                for prev, c in counts[v].items():
                    if prev is None or prev <= lab:
                        into[lab] = into.get(lab, 0) + c
        for z in above[1:]:
            rising = sum(counts[z].values())
            below_z = lat.order[:, z]
            lex, lex_labels = y, []
            while lex != z:
                steps = sorted((lab, w) for w, lab in zip(ups[lex], labels[lex]) if below_z[w])
                if len(steps) > 1 and steps[0][0] == steps[1][0]:
                    violations.append({"interval": (lat[y], lat[z]), "problem": "label tie"})
                lab, lex = steps[0]
                lex_labels.append(lab)
            lex_rising = all(a <= b for a, b in zip(lex_labels, lex_labels[1:]))
            if rising != 1 or not lex_rising:
                problem = f"{rising} rising chains, lex-first rising: {lex_rising}"
                violations.append({"interval": (lat[y], lat[z]), "problem": problem})
    return {
        "n": n,
        "s": sorted(s),
        "intervals_checked": len(lat.strict[0]),
        "violations": violations,
        "passed": not violations,
    }
