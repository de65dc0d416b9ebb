"""The equivalence ~_S and the Tamari lattice of pseudo-type BD_n^S.

T_n^S consists of the triangulations with r_i != n-1 for every i in S;
equivalently those avoiding both triangles i, i+1, (i+1)bar and
ibar, i+1, (i+1)bar for i in S.  Two distinct vectors are equivalent when
they agree except at one k in S where one has n-1 and the other inf.
Classes have size at most two and their top elements are the T_n^S
representatives, so the quotient is never materialized: `project` maps a
vector to its class top.

~_S is the kernel of the closure `project`.  It is compatible with join,
but not with meet, so it is not a lattice congruence (README "Known
erratum").  T_n^S is still a lattice: it is closed under the type-B meet,
which it inherits, and its join is the projection of the type-B join.

The operations are kernels (`_join_s`, ...) that check nothing and are
defined only on members of T_n^S; the meet is the type-B `meet`.  Callers
hold members (the enumerated lattice, the CLI after parsing, which runs
`check_member`) and call the kernels; `covers_s` is `check_member` on
both operands plus `_covers_s`.  `_join_s_rows` is the row form of
`_join_s`, for the whole-lattice passes (`bracket_b` explains the two forms).
"""

from __future__ import annotations

from math import inf as INF

from . import bracket_b as bb
from .polygon import chord, n_vertices
from .tri_b import TriangulationB


def has_collapsing_triangles(t: TriangulationB, i: int) -> bool:
    """Both triangles i, i+1, (i+1)bar and ibar, i+1, (i+1)bar present."""
    n = t.n
    m = n_vertices(n)
    edges = t.edges()

    def triangle(a: int, b: int, c: int) -> bool:
        return chord(a, b) in edges and chord(b, c) in edges and chord(a, c) in edges

    vi, vi1, vbar_i1 = i - 1, i % m, (n + 1 + i) % m
    vbar_i = (n + i) % m
    return triangle(vi, vi1, vbar_i1) and triangle(vbar_i, vi1, vbar_i1)


def in_tns(t: TriangulationB, s) -> bool:
    """Membership in T_n^S; triangle and bracket tests must agree."""
    by_triangle = not any(has_collapsing_triangles(t, i) for i in s)
    v = bb.encode(t)
    by_bracket = vector_in_tns(v, t.n, s)
    assert by_triangle == by_bracket, (v, sorted(s))
    return by_bracket


def vector_in_tns(v, n: int, s) -> bool:
    return all(v[i - 1] != n - 1 for i in s)


def project(v, s, n: int):
    """Top of the ~_S class: each n-1 entry at a coordinate in s becomes inf."""
    result = _project(v, s, n)
    if not bb.is_valid(result, n):
        raise AssertionError(f"projection of {v} left the lattice: {result}")
    return result


def _project(v, s, n: int):
    """`project` without its check: v must be a valid type-B vector."""
    out = list(v)
    for k in s:
        if out[k - 1] == n - 1:
            out[k - 1] = INF
    return tuple(out)


def class_of(v, s, n: int) -> frozenset:
    """The ~_S equivalence class of v (size 1 or 2)."""
    top = project(v, s, n)
    members = {top}
    for k in s:
        if top[k - 1] == INF:
            w = top[: k - 1] + (n - 1,) + top[k:]
            if bb.is_valid(w, n):
                members.add(w)
    return frozenset(m for m in members if m == v or project(m, s, n) == top)


def equivalent(v, w, s, n: int) -> bool:
    return project(v, s, n) == project(w, s, n)


def _top(n: int, s, k: int) -> int:
    """One past the largest finite T_n^S value at coordinate k (0-based)."""
    return n - 1 if k + 1 in s else n


def elements_tns(n: int, s) -> list:
    """T_n^S lexicographically: the type-B vectors with no n-1 at a coordinate in S."""
    return list(bb.vectors_with(n, [[*range(_top(n, s, k)), INF] for k in range(n)]))


def check_member(v, s, n: int) -> None:
    """Raise ValueError unless v is a valid type-B vector in T_n^S."""
    if not bb.is_valid(v, n) or not vector_in_tns(v, n, s):
        raise ValueError(f"{v} is not in T_n^S for s={sorted(s)}")


def _join_s(a, b, s, n: int):
    """Join in T_n^S, of members: the projection of the type-B join."""
    return _project(bb.join(a, b, n), s, n)


def _join_s_rows(a, rows, s, n: int):
    """`_join_s`, pairwise as `bb.meet_rows`, of a with rows, an (m, n)
    float array of members: the type-B row join (`bb.join_rows`), projected."""
    return _project_rows(bb.join_rows(a, rows, n), s, n)


def _project_rows(g, s, n: int):
    """`_project` on every row of g, an (m, n) float array, in place."""
    for k in s:
        col = g[:, k - 1]
        col[col == n - 1] = INF
    return g


def covers_s(a, b, s, n: int) -> bool:
    """Cover in (T_n^S, <=): one changed coordinate, no T_n^S element between.

    No finite T_n^S value in between is legal when the next legal value
    at the changed coordinate (`bb._next_value_at`) is not below both.
    """
    check_member(a, s, n)
    check_member(b, s, n)
    return _covers_s(a, b, s, n)


def _covers_s(a, b, s, n: int) -> bool:
    diffs = [k for k in range(n) if a[k] != b[k]]
    if len(diffs) != 1 or not a[diffs[0]] < b[diffs[0]]:
        return False
    k = diffs[0]
    nxt = bb._next_value_at(a, n, k)
    return nxt is None or nxt >= min(b[k], _top(n, s, k))


def _upper_covers_s(v, s, n: int) -> list:
    """Upward covers in T_n^S of a member: project the type-B cover at each coordinate."""
    return sorted({_project(w, s, n) for w in bb.upper_covers(v, n)})
