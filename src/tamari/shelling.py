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
own checked steps.  A cover's label and its rank are read from the two
nonzero entries of each W_{k+1,t}, so `mobius` builds no irreducible; the
n^2 irreducible vectors are listed only by `join_irreducibles`.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, partial
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


def left_modular_chain(n: int, s=frozenset()) -> list[tuple]:
    """Unrefinable chain bottom = S_{n,1}-chain = top, merged under ~_S."""
    chain = [q.project(bb.bottom_vector(n), s, n)]
    for i, t in label_order(n):
        if not (i in s and t == n - 1) and (v := s_vector(n, i, t)) != chain[-1]:
            chain.append(v)
    return chain


def order_matrix(elems):
    """Read-only N x N bool matrix: [i, j] when elems[i] <= elems[j] at every coordinate."""
    import numpy as np

    a = np.array(elems, dtype=float)  # inf stays inf
    order = np.ones((len(a), len(a)), dtype=bool)
    for col in a.T:
        order &= col[:, None] <= col
    order.flags.writeable = False  # shared by every reader of the cached lattice
    return order


class RowIndex:
    """Element indices of bracket-vector rows: `lookup(rows)` maps an
    (m, width) float array to the index of each row in elems, -2 for a row
    that is not an element.

    A row is found by its base-(width+1) key (inf as width, every entry
    clipped to [0, width]) and `searchsorted` over the sorted element keys;
    the element there is then compared with the row itself, so a row with
    an out-of-range entry, whose key aliases an element's, reads -2.  The
    keys fit int64 for every lattice under the element cap.
    """

    def __init__(self, elems):
        import numpy as np

        self.rows = np.array(elems, dtype=float)  # inf stays inf
        width = self.rows.shape[1]
        self._radix = (width + 1) ** np.arange(width - 1, -1, -1, dtype=np.int64)
        keys = self._key(self.rows)
        self._order = keys.argsort(kind="stable")
        self._keys = keys[self._order]

    def _key(self, rows):
        return rows.clip(0, len(self._radix)).astype("int64") @ self._radix

    def lookup(self, rows):
        import numpy as np

        pos = np.searchsorted(self._keys, self._key(rows)).clip(max=len(self._keys) - 1)
        found = self._order[pos]
        return np.where((self.rows[found] == rows).all(1), found, -2)


class IndexedLattice(tuple):
    """T_n^S in lexicographic order, a linear extension, plus what is fixed
    per (n, s), each built on first use and kept on the object, so clearing
    the `lattice_elements` cache drops it.  Elements are named by index:
    `index` maps elements to indices, `order` is the `order_matrix`,
    `strict` holds every pair y < z as two index arrays (y-major),
    `covers[i]` the upper covers of i (increasing), `ranks[i]` the rank of
    each one's EL label, and `meets`/`joins` the `op_tables` of the type-B
    meet, which T_n^S inherits, and of the T_n^S join, by their row forms
    `bb.meet_rows` and `q._join_s_rows`: `is_left_modular` reads both and
    `verify.suite_congruence` the meets; `verify.suite_lattice` neither."""

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
        n, s = self.n, self.s
        return [[_label_rank(_el_label(v, self[w], n, s), n, s) for w in ws]
                for v, ws in zip(self, self.covers)]

    @cached_property
    def meets(self):
        return op_tables(self, {"meet": partial(bb.meet_rows, n=self.n)})["meet"]

    @cached_property
    def joins(self):
        return op_tables(self, {"join": partial(q._join_s_rows, s=self.s, n=self.n)})["join"]


lattice_elements = lru_cache(maxsize=None)(IndexedLattice)  # one per (n, s)


def op_tables(elems, row_ops: dict) -> dict:
    """N x N index tables of commutative operations, one per name, -2 for a
    value that is not an element.  row_ops[name](a, rows) is a pairwise row
    form (`bracket_b`).  One walk of `oracle.pair_blocks` gathers each
    block's rows once and evaluates each pair i <= j once, as (elems[i],
    elems[j]), by one call and one `RowIndex` lookup per operation, writing
    [i, j] and [j, i]."""
    import numpy as np

    from .oracle import index_dtype, pair_blocks  # numpy loads only once a table is built

    size = len(elems)
    idx = RowIndex(elems)
    tables = {name: np.empty((size, size), index_dtype(size)) for name in row_ops}
    for i, j in pair_blocks(size):
        a, b = idx.rows[i], idx.rows[j]
        for name, op in row_ops.items():
            tables[name][i, j] = tables[name][j, i] = idx.lookup(op(a, b))
    return tables


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


def _label_rank(lab: Label, n: int, s) -> int:
    """The place of label lab among the irreducibles of T_n^S in label order.

    Its place in `label_order` is (n-i)*n plus t-1 (n-1 for inf), less the
    dropped labels (j, n-1), j in s, listed before it: those with j > i,
    and (i, n-1) itself when t = inf.  (The other dropped label, W_{1,inf},
    the bottom of the one-element T_1^{1}, labels no cover.)
    """
    i, t = lab
    place = (n - i) * n + (n - 1 if t == INF else t - 1)
    return place - sum(j > i for j in s) - (i in s and t == INF)


def _w_leq(k: int, t, v, n: int) -> bool:
    """W_{k+1,t} <= v, from W's nonzero entries: t at k, and inf at n+k-t
    when t >= k+1 is finite (`w_vector`)."""
    return t <= v[k] and (t == INF or t <= k or v[n + k - t] == INF)


def el_label(a, b, n: int, s=frozenset()) -> Label:
    """Label of a cover edge: the least irreducible below b but not below a.

    A cover changes one coordinate k, and the label is always some
    W_{k+1,t}, so only those irreducibles are scanned.
    """
    if not q.covers_s(a, b, s, n):
        raise ValueError(f"{a} is not covered by {b}")
    return _el_label(a, b, n, s)


def _el_label(a, b, n: int, s) -> Label:
    """`el_label` for an edge already known to be a cover of T_n^S.

    Only the W_{k+1,t} of the changed coordinate k are tried, in label
    order, without (k+1, n-1) for k+1 in s.  The bottom, dropped from the
    irreducibles of T_1^{1}, lies below a, so it never passes.
    """
    k = next(k for k in range(n) if a[k] != b[k])
    for t in (*range(1, n), INF):
        if not (t == n - 1 and k + 1 in s) and _w_leq(k, t, b, n) and not _w_leq(k, t, a, n):
            return (k + 1, t)
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
        r = _label_rank(el_label(cur, w, n, s), n, s)
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
