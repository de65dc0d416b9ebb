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
"""

from __future__ import annotations

from functools import lru_cache
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


def _t_range(n: int) -> list:
    return list(range(1, n)) + [INF]


def label_order(n: int) -> list[Label]:
    """All n^2 labels (i, t) in increasing order under the label order."""
    return [(i, t) for i in range(n, 0, -1) for t in _t_range(n)]


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
    for i in range(n, 0, -1):
        for t in _t_range(n):
            if i in s and t == n - 1:
                continue
            v = s_vector(n, i, t)
            if v != chain[-1]:
                chain.append(v)
    return chain


@lru_cache(maxsize=None)
def lattice_elements(n: int, s=frozenset()) -> tuple:
    return tuple(q.elements_tns(n, s))


@lru_cache(maxsize=None)
def _strict_pairs(n: int, s: frozenset) -> tuple:
    """Every pair (y, z) of T_n^S with y < z, in `lattice_elements` order."""
    elems = lattice_elements(n, s)
    return tuple((y, z) for y in elems for z in elems if y != z and bb.leq(y, z))


@lru_cache(maxsize=None)
def _order_masks(n: int, s: frozenset) -> tuple[dict, dict]:
    """Up-sets and down-sets of T_n^S as bitsets over `lattice_elements`
    indices: bit k of up[y] (down[z]) is set when element k is >= y (<= z)."""
    index = {v: k for k, v in enumerate(lattice_elements(n, s))}
    up = {v: 1 << k for v, k in index.items()}
    down = dict(up)
    for y, z in _strict_pairs(n, s):
        up[y] |= 1 << index[z]
        down[z] |= 1 << index[y]
    return up, down


def is_left_modular(x, n: int, s=frozenset()) -> bool:
    """(y v x) ^ z == y v (x ^ z) for every comparable pair y < z."""
    q.check_member(x, s, n)
    for y, z in _strict_pairs(n, frozenset(s)):
        lhs = bb.meet(q._join_s(y, x, s, n), z, n)
        rhs = q._join_s(y, bb.meet(x, z, n), s, n)
        if lhs != rhs:
            return False
    return True


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


def _upper_covers_in(v, z, n: int, s) -> list:
    return [w for w in q._upper_covers_s(v, s, n) if bb.leq(w, z)]


def decreasing_chains(y, z, n: int, s=frozenset()) -> list[list]:
    """All maximal chains from y to z with strictly decreasing labels.

    Exhaustive search; at most one such chain can exist, and this is
    enforced.  The walk takes only upper covers of members, so it labels
    its edges unchecked.
    """
    if not bb.leq(y, z):
        raise ValueError(f"{y} is not below {z}")
    rank = _label_rank(n, frozenset(s))
    out: list[list] = []

    def rec(chain: list, last_rank) -> None:
        cur = chain[-1]
        if cur == z:
            out.append(list(chain))
            return
        for w in _upper_covers_in(cur, z, n, s):
            r = rank[_el_label(cur, w, n, s)]
            if last_rank is None or r < last_rank:
                chain.append(w)
                rec(chain, r)
                chain.pop()

    rec([y], None)
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


def mobius(y, z, n: int, s=frozenset()) -> int:
    """Mobius value from the decreasing-chain rule: (-1)^len or 0."""
    chain = decreasing_chain_build(y, z, n, s)
    if chain is None:
        return 0
    return -1 if (len(chain) - 1) % 2 else 1


def interval_homotopy(y, z, n: int, s=frozenset()):
    """("sphere", d) for a decreasing chain of length d+2, else ("contractible",).

    Covers give the (-1)-sphere (empty complex); y = z reports dimension -2.
    """
    chain = decreasing_chain_build(y, z, n, s)
    if chain is None:
        return ("contractible",)
    return ("sphere", len(chain) - 3)


def verify_el(n: int, s=frozenset(), labeller=None) -> dict:
    """Check the EL property on every interval of T_n^S.

    Each interval must carry exactly one weakly increasing maximal chain,
    and that chain must be lexicographically first.  A custom labeller
    (cover pair -> comparable value) can be injected; the default is the
    least-irreducible labelling.
    """
    rank = _label_rank(n, frozenset(s))
    if labeller is None:
        def labeller(a, b):
            return rank[el_label(a, b, n, s)]

    elems = lattice_elements(n, s)
    edge_label = {}
    ups: dict = {}
    for v in elems:
        ups[v] = q.upper_covers_s(v, s, n)
        for w in ups[v]:
            edge_label[(v, w)] = labeller(v, w)

    violations = []
    pairs = _strict_pairs(n, frozenset(s))
    up, down = _order_masks(n, frozenset(s))
    for y, z in pairs:
        # the interval in index order: lattice_elements order is
        # lexicographic, so a linear extension, and every element comes
        # after all those below it
        inside = []
        bits = up[y] & down[z]
        while bits:
            low = bits & -bits
            inside.append(elems[low.bit_length() - 1])
            bits ^= low
        counts = {v: {} for v in inside}
        counts[y] = {None: 1}
        for v in inside:
            for w in ups[v]:
                if w not in counts:  # above z
                    continue
                lab = edge_label[(v, w)]
                for prev, c in counts[v].items():
                    if prev is None or prev <= lab:
                        counts[w][lab] = counts[w].get(lab, 0) + c
        rising = sum(counts[z].values())
        lex = [y]
        while lex[-1] != z:
            steps = [w for w in ups[lex[-1]] if w in counts]
            labs = sorted(edge_label[(lex[-1], w)] for w in steps)
            if len(labs) > 1 and labs[0] == labs[1]:
                violations.append({"interval": (y, z), "problem": "label tie"})
            lex.append(min(steps, key=lambda w: edge_label[(lex[-1], w)]))
        lex_labels = [edge_label[(a, b)] for a, b in zip(lex, lex[1:])]
        lex_rising = all(a <= b for a, b in zip(lex_labels, lex_labels[1:]))
        if rising != 1 or not lex_rising:
            violations.append(
                {
                    "interval": (y, z),
                    "problem": f"{rising} rising chains, lex-first rising: {lex_rising}",
                }
            )
    return {
        "n": n,
        "s": sorted(s),
        "intervals_checked": len(pairs),
        "violations": violations,
        "passed": not violations,
    }
