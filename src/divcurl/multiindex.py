"""Multi-index and label combinatorics.

Everything downstream is built on two finite index families:

* multi-indices: length-n tuples of non-negative integers with a fixed
  total order k, enumerated in graded reverse lexicographic order;
* labels: strictly increasing tuples over {1, ..., N}, enumerated
  lexicographically, used to name components of differential forms.

The permutation sign ``perm_sign_between`` and the orderings that pair
multi-indices with labels are defined here as well.  The generalized
Kronecker symbol epsilon^{a I}_L of the operator actions is
``perm_sign_between(a + I, L)``.  All arithmetic is exact integer
arithmetic.
"""

from __future__ import annotations

import hashlib
import json
import random
from functools import lru_cache
from itertools import combinations
from math import comb

__all__ = [
    "multiindices",
    "labels",
    "perm_sign_between",
    "embed_multiindex",
    "complement",
    "Ordering",
    "make_ordering",
    "random_ordering",
]


@lru_cache(maxsize=None)
def multiindices(n: int, k: int) -> tuple:
    """All length-n multi-indices of total order k, graded revlex order.

    For n=2, k=2 this is (2,0), (1,1), (0,2): the pure power in the first
    slot comes first and the order is reversed-lexicographic on the
    reversed tuples.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if k < 0:
        raise ValueError("order must be non-negative")
    out = []

    def fill(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining + 1):
            fill(prefix + (v,), remaining - v, slots - 1)

    fill((), k, n)
    out.sort(key=lambda a: a[::-1])
    return tuple(out)


@lru_cache(maxsize=None)
def labels(n: int, q: int) -> tuple:
    """All strictly increasing q-tuples over {1, ..., n}, lexicographic.

    ``labels(n, 0)`` is ``((),)``: the single empty label of 0-forms.
    The package's one check that a degree lies in 0..n.
    """
    if q < 0 or q > n:
        raise ValueError(f"label degree {q} out of range 0..{n}")
    return tuple(combinations(range(1, n + 1), q))


def perm_sign_between(src, dst) -> int:
    """Sign of the permutation carrying the tuple src onto dst.

    Returns 0 when either tuple has a repeated entry or the two tuples do
    not hold the same set of values.  src and dst may be any equal-length
    integer sequences; neither needs to be sorted.
    """
    src = tuple(src)
    dst = tuple(dst)
    if len(src) != len(dst):
        return 0
    try:
        image = [dst.index(v) for v in src]
    except ValueError:
        return 0
    # Sort image in place by transpositions, each of which flips the sign.
    # image is a permutation unless two entries of src share a position of
    # dst; then some position is asked to take a value it already holds.
    sign = 1
    for i in range(len(image)):
        j = image[i]
        while j != i:
            if image[j] == j:
                return 0
            image[i], image[j] = image[j], j
            sign = -sign
            j = image[i]
    return sign


def embed_multiindex(alpha, N: int) -> tuple:
    """Pad a multi-index on n variables with zeros up to length N."""
    alpha = tuple(alpha)
    if len(alpha) > N:
        raise ValueError("multi-index longer than target dimension")
    return alpha + (0,) * (N - len(alpha))


def complement(label, N: int):
    """Complement I' of a label I in {1..N} and the sign epsilon^{I'I}.

    The sign is that of the permutation carrying the concatenation I'+I to
    (1, ..., N), e.g. complement((1, 2), 3) == ((3,), 1).
    """
    label = tuple(label)
    full = tuple(range(1, N + 1))
    if any(i < 1 or i > N for i in label):
        raise ValueError("label entries out of range")
    comp = tuple(i for i in full if i not in set(label))
    return comp, perm_sign_between(comp + label, full)


class Ordering:
    """A bijection between order-k multi-indices and degree-ell labels.

    Pairs an embedded multi-index i(alpha) (length N, supported in the
    first n slots) with a label in labels(N, ell).  The number of
    multi-indices C(n-1+k, k) must equal C(N, ell) for such a bijection
    to exist; the constructor enforces this and bijectivity.
    """

    __slots__ = ("n", "k", "ell", "N", "pairs", "kind", "_fwd")

    def __init__(self, n, k, ell, N, pairs, kind="custom"):
        self.n = n
        self.k = k
        self.ell = ell
        self.N = N
        self.kind = kind
        source = multiindices(n, k)
        m = len(source)
        if comb(N, ell) != m:
            raise ValueError(
                f"C({N},{ell})={comb(N, ell)} != C({n - 1 + k},{k})={m}; "
                "no bijection exists"
            )
        pairs = tuple((tuple(a), tuple(lab)) for a, lab in pairs)
        fwd = dict(pairs)
        bwd = {lab: a for a, lab in pairs}
        expected_keys = {embed_multiindex(a, N) for a in source}
        if set(fwd) != expected_keys or len(fwd) != m:
            raise ValueError(
                "ordering table does not cover every multi-index exactly once; "
                f"its keys are multi-indices embedded to length N = {N}")
        if set(bwd) != set(labels(N, ell)) or len(bwd) != m:
            raise ValueError("ordering table is not a bijection onto the labels")
        # store pairs in the canonical enumeration order of the multi-indices
        self.pairs = tuple(
            (embed_multiindex(a, N), fwd[embed_multiindex(a, N)]) for a in source
        )
        self._fwd = dict(self.pairs)

    def label_of(self, alpha) -> tuple:
        """Label assigned to a multi-index (length n or embedded length N)."""
        alpha = tuple(alpha)
        if len(alpha) == self.n:
            alpha = embed_multiindex(alpha, self.N)
        return self._fwd[alpha]

    def __eq__(self, other):
        return isinstance(other, Ordering) and self.pairs == other.pairs and (
            (self.n, self.k, self.ell, self.N)
            == (other.n, other.k, other.ell, other.N)
        )

    def __hash__(self):
        return hash((self.n, self.k, self.ell, self.N, self.pairs))

    def __repr__(self):
        return (
            f"Ordering(n={self.n}, k={self.k}, ell={self.ell}, N={self.N}, "
            f"kind={self.kind!r})"
        )

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "ell": self.ell,
            "N": self.N,
            "kind": self.kind,
            "pairs": [[list(a), list(lab)] for a, lab in self.pairs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """Short stable hash identifying this ordering in reports."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]


def make_ordering(n, k, ell, N, kind="lexicographic") -> Ordering:
    """Build one of the named orderings.  A custom ordering is built from
    its table of (multi-index, label) pairs with Ordering itself.

    Kinds:

    * ``lexicographic``: r-th multi-index (graded revlex) gets the r-th
      label (lexicographic).
    * ``diagonal``: requires ell == 1; the pure power k*e_j is sent to the
      singleton label (j), remaining multi-indices get the remaining
      labels in order.
    * ``chained``: requires ell == 1 and k >= 2; (k,0,...,0) -> (1) and
      (1,0,..,k-1 in slot j,..,0) -> (j) for j >= 2, remainder in order.
    """
    source = [embed_multiindex(a, N) for a in multiindices(n, k)]
    labs = list(labels(N, ell))
    if kind == "lexicographic":
        return Ordering(n, k, ell, N, list(zip(source, labs)), kind=kind)
    if kind in ("diagonal", "chained"):
        if ell != 1:
            raise ValueError(f"{kind} ordering is defined for ell=1 only")
        if kind == "diagonal":
            special = [embed_multiindex(tuple(k if t == j else 0 for t in range(n)), N)
                       for j in range(n)]
        else:
            if k < 2:
                raise ValueError("chained ordering needs k >= 2")
            first = [k] + [0] * (n - 1)
            special = [embed_multiindex(tuple(first), N)]
            for j in range(1, n):
                a = [0] * n
                a[0] = 1
                a[j] = k - 1
                special.append(embed_multiindex(tuple(a), N))
        pairs = [(a, (j + 1,)) for j, a in enumerate(special)]
        rest_alpha = [a for a in source if a not in set(special)]
        rest_label = [lab for lab in labs if lab[0] > n]
        pairs += list(zip(rest_alpha, rest_label))
        return Ordering(n, k, ell, N, pairs, kind=kind)
    raise ValueError(f"unknown ordering kind {kind!r}")


def random_ordering(n, k, ell, N, rng: random.Random) -> Ordering:
    """Uniformly random bijection; rng is a seeded random.Random."""
    source = [embed_multiindex(a, N) for a in multiindices(n, k)]
    labs = list(labels(N, ell))
    rng.shuffle(labs)
    return Ordering(n, k, ell, N, list(zip(source, labs)), kind="random")
