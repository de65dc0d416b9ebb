import itertools
from math import inf

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

settings.register_profile(
    "ci", max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("ci")


def all_subsets(n):
    out = []
    for r in range(n + 1):
        out.extend(frozenset(c) for c in itertools.combinations(range(1, n + 1), r))
    return out


@st.composite
def bracket_vectors(draw, max_n: int, min_n: int = 1):
    """(v, n): a valid type-B bracket vector with min_n <= n <= max_n, filled
    left to right.

    Coordinate k (0-based) is drawn from the finite x that keep condition
    (i) against every earlier coordinate, plus inf; it is inf alone when an
    earlier finite r_i >= i (1-based) points at it through condition (ii).
    inf is always legal at the end of a valid prefix, so the fill never
    gets stuck.
    """
    n = draw(st.integers(min_n, max_n))
    v: list = []
    pinned: set = set()
    for k in range(n):
        if k in pinned:
            legal = [inf]
        else:
            legal = [
                x
                for x in range(n)
                if all(v[i] <= x - (k - i) for i in range(max(0, k - x), k))
            ] + [inf]
        x = draw(st.sampled_from(legal))
        if x != inf and x >= k + 1:
            pinned.add(n + k - x)
        v.append(x)
    return tuple(v), n


@pytest.fixture
def fresh_lattices():
    """Lattices cached while a kernel or cached field is patched must not
    outlive the test."""
    from tamari import shelling as sh

    yield
    sh.lattice_elements.cache_clear()


@pytest.fixture(scope="session")
def vectors_by_n():
    from tamari import bracket_b as bb

    return {n: bb.enumerate_vectors(n) for n in range(1, 6)}


@pytest.fixture(scope="session")
def triangulations_by_n(vectors_by_n):
    from tamari import bracket_b as bb

    return {
        n: {v: bb.decode(v, n) for v in vecs}
        for n, vecs in vectors_by_n.items()
        if n <= 4
    }
