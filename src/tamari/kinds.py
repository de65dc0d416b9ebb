"""One object per lattice kind: classical A, type B and the BD^S quotients.

All three use bracket vectors under the componentwise order and take their
lattice operations from `bracket_b` at the kind's `width` (n, or n+1 for
type A), defined once on `Kind`.  A kind binds n (and S for BD^S) and
owns what differs: parsing outside input (raising only ValueError), JSON
formatting, enumeration and counting, the geometric views, and `suites`,
the one record of the verify suites that apply to it.
A command a kind lacks is refused by its own method.  Parsing validates,
so the operations may call unchecked kernels (`bb._covers`).
`lattice_kind` is the only place a type name is compared.  Kinds call
library functions through their modules when they run (`bb.meet(...)`),
so outside-in tracing sees every call.
"""

from __future__ import annotations

import json
import math

from . import bracket_b as bb
from . import noncross as nc
from . import quotient_bds as q
from . import shelling as sh
from . import tamari_a as ta
from . import tri_b

# Largest lattice that is listed element by element (enumerate, the verify suites).
MAX_ELEMENTS = 10**6
# Largest n for a closed-form count: C(2n, n) then has about 3000 digits.
MAX_COUNT_N = 5000
TRIANGULATION_SHAPE = '{"n": n, "chords": [[a, b], ...]}'


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:
        raise ValueError(f"malformed JSON in {what}: {e}") from None


class Kind:
    """What every kind shares: input parsing, the lattice operations,
    counting and enumeration."""

    def __init__(self, n, s=frozenset()):
        self.n = n
        self.s = s

    def __str__(self) -> str:
        return f"type={self.name} n={self.n}" + (f" s={sorted(self.s)}" if self.s else "")

    def parse_vector(self, text: str) -> tuple:
        data = _parse_json(text, "vector")
        try:
            v, broken = self._checked(data)
        except (TypeError, ValueError) as e:
            raise ValueError(f"invalid bracket vector {data}: {e}") from None
        if broken is not None:
            raise ValueError(f"invalid bracket vector {data}: condition {broken[0]} at {broken[1]}")
        return v

    def parse_triangulation(self, text: str):
        data = _parse_json(text, "triangulation")
        try:
            return self.triangulation.from_json(data)
        except (KeyError, TypeError, OverflowError):
            raise ValueError(f"invalid triangulation: expected {TRIANGULATION_SHAPE}") from None
        except ValueError as e:
            raise ValueError(f"invalid triangulation: {e}") from None

    @property
    def width(self) -> int:
        """The length of the kind's vectors, the size of `bracket_b` they use."""
        return self.n

    # -- order and operations, those of T_width^B -----------------------------

    def meet(self, a, b):
        return bb.meet(a, b, self.width)

    def join(self, a, b):
        return bb.join(a, b, self.width)

    # the row forms, pairwise: a (one element, or an array aligned with rows)
    # against each row of rows, an (m, width) float array of elements

    def meet_rows(self, a, rows):
        return bb.meet_rows(a, rows, self.width)

    def join_rows(self, a, rows):
        return bb.join_rows(a, rows, self.width)

    def covers(self, a, b) -> bool:
        return bb._covers(a, b, self.width)

    def count(self) -> int:
        if self.n > MAX_COUNT_N:
            raise ValueError(f"n={self.n} exceeds the cap {MAX_COUNT_N} for count")
        return self.size()

    def elements(self):
        """Every element, lexicographically; refused above MAX_ELEMENTS."""
        # each size at least doubles with n, so from n = 20 on it is over the cap
        if self.n >= MAX_ELEMENTS.bit_length() or self.size() > MAX_ELEMENTS:
            raise ValueError(f"n={self.n}: more than {MAX_ELEMENTS} elements, the enumeration cap")
        return self._elements()


class TypeB(Kind):
    """The type-B Tamari lattice T_n^B."""

    name = "b"
    # no congruence: with S empty ~_S is the identity, leaving only meets `lattice` checks
    suites = ("lattice", "covers", "bijection", "leftmod", "el")
    triangulation = tri_b.TriangulationB

    def _checked(self, data):
        """(vector, first violated condition or None)."""
        v = bb.vector_from_json(data)
        return v, bb.violation(v, self.n) if len(v) == self.n else ("length", len(v))

    def vector_json(self, v) -> list:
        return bb.vector_to_json(v)

    # -- the whole lattice --------------------------------------------------

    def size(self) -> int:
        """|T_n^B|, in closed form."""
        return math.comb(2 * self.n, self.n)

    def _elements(self):
        return sh.lattice_elements(self.n, self.s)

    # -- order and operations -----------------------------------------------

    def upper_covers(self, v) -> list:
        return bb.upper_covers(v, self.n)

    def edge_label(self, a, b):
        """The EL label of a cover edge, as `hasse` prints it."""
        return sh.el_label(a, b, self.n, self.s)

    def mobius(self, y, z) -> dict:
        if not bb.leq(y, z):
            raise ValueError("first vector must be below the second")
        chain = sh.decreasing_chain_build(y, z, self.n, self.s)
        h = sh.chain_homotopy(chain)
        return {
            "interval": [bb.vector_to_json(y), bb.vector_to_json(z)],
            "mobius": sh.chain_mobius(chain),
            "homotopy": "contractible" if h[0] == "contractible" else f"sphere({h[1]})",
        }

    # -- geometric views ----------------------------------------------------

    def decode(self, v):
        return bb.decode(v, self.n)

    def encode(self, t) -> tuple:
        return bb.encode(t)

    def green_flips(self, t) -> set:
        """The upper covers of a triangulation in the flip graph."""
        return tri_b.green_flips(t)

    def psi_json(self, v):
        return nc.psi(bb.decode(v, self.n)).to_json()

    def psi_inverse(self, text: str):
        """The triangulation of a partition given as JSON text."""
        data = _parse_json(text, "partition")
        try:
            return nc.psi_inverse(nc.NoncrossingPartitionB.from_json(data))
        except ValueError as e:
            raise ValueError(f"invalid partition: {e}") from None


class TypeBDS(TypeB):
    """The pseudo-type BD_n^S lattice T_n^S, a subposet of T_n^B.

    A vector parses only if it lies in T_n^S, so the operations, which
    take members, check nothing.  Upper covers come out sorted, also for
    S empty.
    """

    name = "bds"
    suites = ("lattice", "covers", "bijection", "leftmod", "el", "congruence")

    def parse_vector(self, text: str) -> tuple:
        v = super().parse_vector(text)
        q.check_member(v, self.s, self.n)
        return v

    def size(self) -> int:
        """|T_n^S| = C(2n, n) - |S|*Catalan(n-1), in closed form.

        Every centrally symmetric triangulation of the (2n+2)-gon has
        exactly one diameter {i, ibar}: the centre lies in no triangle,
        since no triangle is centrally symmetric, so it lies on a chord,
        which is a diameter, and two diameters cross.  r_k = n-1 exactly
        when the triangulation has the collapsing triangles at k
        (`quotient_bds.in_tns`): the diameter is {k+1, (k+1)bar} and the
        triangle on it has apex k.  Fixing that triangle leaves one
        (n+1)-gon half to triangulate freely, the other half being its
        image, so Catalan(n-1) vectors have r_k = n-1.  No two k share a
        vector, which would need two diameters, so the |S| removed sets
        are disjoint.
        """
        return math.comb(2 * self.n, self.n) - len(self.s) * ta.catalan(self.n - 1)

    def join(self, a, b):
        return q._join_s(a, b, self.s, self.n)

    def join_rows(self, a, rows):
        return q._join_s_rows(a, rows, self.s, self.n)

    def covers(self, a, b) -> bool:
        return q._covers_s(a, b, self.s, self.n)

    def upper_covers(self, v) -> list:
        return q._upper_covers_s(v, self.s, self.n)


class TypeA(Kind):
    """The classical Tamari lattice on (n+3)-gon triangulations: (n+1)-vectors."""

    name = "a"
    suites = ("lattice", "covers", "bijection")
    triangulation = ta.TriangulationA

    def _checked(self, data):
        v = tuple(data)
        return v, ta.validate_a(v, self.n)

    def vector_json(self, v) -> list:
        return list(v)

    def size(self) -> int:
        """|T_n^A| = Catalan(n+1), in closed form."""
        return ta.catalan(self.n + 1)

    def _elements(self):
        return ta.enumerate_a(self.n)

    @property
    def width(self) -> int:
        # the type-A vectors are the ideal below (0, 1, ..., n) in T_{n+1}^B
        return self.n + 1

    def upper_covers(self, v) -> list:
        """The type-B covers at size n+1 that stay in the ideal (w_i <= i-1),
        reversed: higher coordinates first is lexicographic order."""
        ups = bb.upper_covers(v, self.width)
        return [w for w in reversed(ups) if all(x <= k for k, x in enumerate(w))]

    def edge_label(self, a, b):
        return None

    def decode(self, v):
        return ta.decode_a(v, self.n)

    def encode(self, t) -> tuple:
        return ta.encode_a(t)

    def green_flips(self, t) -> set:
        return ta.green_flips_a(t)

    def psi_json(self, v):
        return ta.partition_a_to_json(ta.psi_a(ta.decode_a(v, self.n)))

    def psi_inverse(self, text: str):
        raise ValueError("psi-inv is implemented for types b and bds only")

    def mobius(self, y, z) -> dict:
        raise ValueError("mobius is implemented for types b and bds only")


def lattice_kind(type: str, n=None, s=None) -> Kind:
    """The kind for a type name "a", "b" or "bds" at size n.

    s is the subset S of [n], as integers or as the text of --s ("1,3");
    only type bds takes one.
    """
    if type != "bds":
        if s:
            raise ValueError("--s is only allowed with --type bds")
        return {"a": TypeA, "b": TypeB}[type](n)
    if isinstance(s, str):
        try:
            s = [int(x) for x in s.split(",") if x.strip()]
        except ValueError as e:
            raise ValueError(f"bad --s value {s!r}: {e}") from None
    s = frozenset(s or ())
    if any(not 1 <= i <= n for i in s):
        raise ValueError(f"--s entries must lie in [1, {n}]")
    return TypeBDS(n, s)
