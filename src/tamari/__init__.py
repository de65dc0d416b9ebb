"""Tamari lattices on centrally symmetric polygon triangulations.

Bracket vectors are the canonical coordinates: n-tuples over
[0, n-1] + {inf} under the componentwise order.  See the README for the
module map and the CLI (`python -m tamari`).
"""

from math import inf as INF

from . import bracket_b as _bb
from .bracket_b import (
    bottom_vector,
    covers,
    decode,
    down,
    encode,
    enumerate_vectors,
    is_valid,
    leq,
    top_vector,
    up,
)
from .noncross import NoncrossingPartitionB, enumerate_ncb, in_bds, psi, psi_inverse
from .tri_b import TriangulationB, flip


def meet(a, b, n):
    """Meet in T_n^B; unlike `bracket_b.meet`, both inputs are validated."""
    return _bb.meet(_bb._check_valid(a, n), _bb._check_valid(b, n), n)


def join(a, b, n):
    """Join in T_n^B; unlike `bracket_b.join`, both inputs are validated."""
    return _bb.join(_bb._check_valid(a, n), _bb._check_valid(b, n), n)


def __getattr__(name):
    # The oracle needs numpy; load it only when FinitePoset is asked for.
    if name == "FinitePoset":
        from .oracle import FinitePoset

        return FinitePoset
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "INF",
    "FinitePoset",
    "NoncrossingPartitionB",
    "TriangulationB",
    "bottom_vector",
    "covers",
    "decode",
    "down",
    "encode",
    "enumerate_ncb",
    "enumerate_vectors",
    "flip",
    "in_bds",
    "is_valid",
    "join",
    "leq",
    "meet",
    "psi",
    "psi_inverse",
    "top_vector",
    "up",
]
