"""The order-k exterior operators, their adjoints, and Hodge Laplacians.

An OperatorSpec fixes (n, k, ell, N, ordering): the operator raises form
degree by ell and differentiates coefficients k times, coupling the
derivative multi-index alpha to the label block ordering(alpha):

    (T F)_L = sum_{I, alpha} epsilon^{ordering(alpha) I}_L d^k F_I / dx^alpha

for L of degree q + ell over N slots.  Every operator acts on the space
its form lives on, labels {1, ..., F.N}: the hybrid space when F.N == N
and the source space when F.N == n, where the same action has every
label constrained to {1, ..., n} (the paper's source operator).

Adjoints are available through two independent routes that must agree:

* star conjugation: T* = (-1)^(k + q(F.N - ell - q)) star T star, with q
  the output degree, and
* the coordinate sum (T* H)_V = (-1)^k sum epsilon^{ordering(beta) V}_I
  d^k H_I / dx^beta,

where the global coordinate sign (-1)^k is the one forced by k-fold
integration by parts against the label-wise pairing.  On the exact
backend apply_T_star computes both and raises if they ever differ.

The Hodge Laplacian box = T T* + T* T acts on q-forms through an
integer coefficient tensor; box_coeff_tensor builds it by direct
summation over connecting labels and box_coeff_closed_form builds it
entry by entry from the overlap decomposition of the two derivative
blocks, each on the hybrid or (top=True) the source space.  Both are
exposed so they can be cross-checked exactly.  Both take their label
width from _tensor_width, the one raise for a trivial source operator
(n < ell), then read labels(width, q), which rejects a degree outside
0..width, before any other work; a tensor carries that width.

Every action runs through one table path: _table picks the raising
table _t_table or the coordinate-adjoint table _tstar_table over labels
in {1..F.N}, _apply holds the single degree guard, and one kernel, _rows,
evaluates the (I, alpha, OUT, sign) entries on either backend, grouping
them by output label on each call and yielding the output one label at a
time in sorted order.  _apply_table is the form of the rows (apply_T,
apply_T_star_coordinate, CoeffTensor.contract and tt_single_orientation
end there); the star-conjugate T*, box_apply and
inequalities.hodge_solve read the rows as they come.  The tables are
keyed by the label width, so when N == n the two spaces share them.
apply_T_star compares its two exact routes with Form ==, which is exact.

_t_table is the only enumeration of the raising coupling: the summation
tensor, the real T o T (_tt_table) and the scalar dictionary (vs_reduction
and vs_lift, in the section after the tensor code, which turn T F = 0 at
degree N - ell into one k-th order divergence equation and back) are read
off its cached entries.  The routes that check
them keep their own loops, so a fault in _t_table cannot hide on both
sides of a check: _tstar_table (built directly) behind the adjoint,
the closed-form and direct-sum tensor entries, and forms.py's star and
wedge behind the pairing routes.

Inside the builders a label is an int bitmask (sum of 1 << x), and the
output label of an entry is looked up by mask in _label_index; labels
stay tuples at every boundary: table entries, CoeffTensor.entries and
JSON.  Two sign routes exist, and each check of a table sets one
against the other:

* multiindex.perm_sign_between, the reference sign, gives the signs of
  _t_table (so of the summation tensor, _tt_table and the scalar
  dictionary), of forms.py's hodge_star, complement and wedge, and of
  coeff_entry_direct here;
* _sort_sign, the parity of sum_{x in a} popcount(B & ((1 << x) - 1)),
  gives the signs of _tstar_table and of the closed form (_overlap_row,
  read by box_coeff_closed_form; it reads no table).

So the star-conjugate adjoint route and the summation = closed-form
check each see a fault in either sign.  _tensor_by_summation sums on
packed int keys and turns only the nonzero sums into tuple keys.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import groupby
from operator import add, itemgetter

import numpy as np

from .forms import (
    Form,
    _pullback,
    _pullback_plan,
    _star_label,
    form_max_abs,
    hodge_star,
    lp_norm,
    zero_form,
)
from .gridfield import GridField, _deriv_multiplier
from .increments import admissible_increments
from .multiindex import (
    Ordering,
    labels,
    make_ordering,
    multiindices,
    perm_sign_between,
)
from .trigpoly import TrigPoly, _quarter_turns

__all__ = [
    "OperatorSpec",
    "spec_for",
    "apply_T",
    "apply_T_star",
    "apply_T_star_coordinate",
    "compose_TT",
    "tt_single_orientation",
    "box_apply",
    "CoeffTensor",
    "box_coeff_tensor",
    "box_coeff_closed_form",
    "coeff_entry_direct",
    "vs_reduction",
    "vs_lift",
    "divergence_defect",
    "invariance_defect",
]


@dataclass(frozen=True)
class OperatorSpec:
    """Validated parameter bundle (n, k, ell, N, ordering)."""

    n: int
    k: int
    ell: int
    N: int
    ordering: Ordering

    def __post_init__(self):
        n, k, ell, N = self.n, self.k, self.ell, self.N
        if n < 2 or k < 1 or not (1 <= ell <= k):
            raise ValueError("need n >= 2, k >= 1 and 1 <= ell <= k")
        m = math.comb(n - 1 + k, k)
        if math.comb(N, ell) != m:
            raise ValueError(f"C({N},{ell}) != C({n - 1 + k},{k}); not admissible")
        o = self.ordering
        if (o.n, o.k, o.ell, o.N) != (n, k, ell, N):
            raise ValueError("ordering parameters do not match the spec")

    def describe(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "ell": self.ell,
            "N": self.N,
            "ordering_kind": self.ordering.kind,
            "ordering_digest": self.ordering.digest(),
        }


def spec_for(n, k, ell, kind="lexicographic") -> OperatorSpec:
    """Resolve N from the admissibility equation and build the spec."""
    for sol in admissible_increments(n, k):
        if sol.ell == ell:
            ordering = make_ordering(n, k, ell, sol.N, kind=kind)
            return OperatorSpec(n, k, ell, sol.N, ordering)
    raise ValueError(f"ell={ell} is not an admissible increment for (n={n}, k={k})")


# ---- coupling tables -------------------------------------------------------


def _mask(label) -> int:
    """A label as an int bitmask: the sum of 1 << x over its entries."""
    m = 0
    for x in label:
        m |= 1 << x
    return m


def _sort_sign(a, B: int) -> int:
    """Sign of sorting the concatenation a + B, for a sorted label a and
    the mask B of a label disjoint from it: the parity of the pairs
    x in a, y in B with y < x."""
    count = 0
    for x in a:
        count += (B & ((1 << x) - 1)).bit_count()
    return -1 if count & 1 else 1


@lru_cache(maxsize=None)
def _label_index(width: int, q: int) -> dict:
    """{mask: label} over labels(width, q), in their order."""
    return {_mask(L): L for L in labels(width, q)}


@lru_cache(maxsize=None)
def _t_table(spec: OperatorSpec, q: int, width: int):
    """Entries (I, alpha, L, sign) of the degree-raising action at degree q
    over labels in {1..width}: N for the hybrid space, n for the source
    space.  The signs come from the reference perm_sign_between, not
    _sort_sign, so that the adjoint and closed-form checks set the two
    against each other.
    """
    index = _label_index(width, q)
    if q + spec.ell > width:
        return ()
    out = _label_index(width, q + spec.ell)
    pairs = _image_alphas(spec, width)
    entries = []
    for mI, I in index.items():
        for alpha, a, ma in pairs:
            if not mI & ma:
                L = out[mI | ma]
                entries.append((I, alpha, L, perm_sign_between(a + I, L)))
    return tuple(entries)


@lru_cache(maxsize=None)
def _tstar_table(spec: OperatorSpec, q: int, width: int):
    """Entries (I, beta, V, sign) of the coordinate adjoint at degree q:
    V of degree q - ell collects epsilon^{ordering(beta) V}_I terms."""
    lower = _label_index(width, q - spec.ell)
    index = _label_index(width, q)
    pairs = _image_alphas(spec, width)
    return tuple((index[mV | mb], beta, V, _sort_sign(b, mV))
                 for mV, V in lower.items()
                 for beta, b, mb in pairs if not mV & mb)


def _rows(F: Form, entries, overall=1):
    """Yield (OUT, coefficient) of a table of (I, alpha, OUT, sign) entries
    on F, one output label at a time in sorted label order: the sum of
    sign * overall * d^alpha F_I over OUT's entries, in table order.

    Each call groups the entries that read a label of F by output label,
    so a label that reads none is not yielded and no grouping outlives the
    call.  An exact row sums integer numerators over the lcm D of F's
    coefficient denominators: each entry adds sign * overall * (quarter
    turn sign) * w^alpha * numerator into one int sum per (freq, phase),
    a sum that reaches 0 is deleted (so the terms keep the order a merge
    per entry gives them), and each surviving sum becomes one Fraction
    over D.  A grid row is one GridField, its terms fresh half spectra
    scaled and added in place.
    """
    coeffs, n, P = F.coeffs, F.n, F.P
    live = defaultdict(list)
    for entry in entries:
        if entry[0] in coeffs:
            live[entry[2]].append(entry)
    if F.backend == "grid":
        def row(part):
            acc = None
            for I, alpha, _, sign in part:
                term = coeffs[I].spectrum() * _deriv_multiplier(n, P, alpha)
                if sign * overall != 1:
                    term *= sign * overall
                acc = term if acc is None else np.add(acc, term, out=acc)
            return GridField.from_spectrum(n, P, acc)
    else:
        D = math.lcm(*(c.denominator for poly in coeffs.values()
                       for c in poly.terms.values()))
        numerators = {I: [(freq, phase, c.numerator * (D // c.denominator))
                          for (freq, phase), c in poly.terms.items()]
                      for I, poly in coeffs.items()}

        def row(part):
            out = {}
            for I, alpha, _, sign in part:
                powers, flip, turn = _quarter_turns(alpha, n)
                factor = sign * overall
                by_phase = (factor * turn[0], factor * turn[1])
                for freq, phase, v in numerators[I]:
                    mono = by_phase[phase] * v
                    for axis, order in powers:
                        mono *= freq[axis] ** order
                    if mono:
                        key = (freq, phase ^ flip)
                        total = out.get(key, 0) + mono
                        if total:
                            out[key] = total
                        else:
                            del out[key]
            return TrigPoly._canonical(n, {key: Fraction(v, D)
                                           for key, v in out.items()})
    for OUT in sorted(live):
        yield OUT, row(live[OUT])


def _apply_table(F: Form, entries, out_q: int, width: int, overall=1) -> Form:
    """The form of a table's rows on F (_rows)."""
    return Form(F.n, width, out_q, dict(_rows(F, entries, overall)),
                F.backend, F.P)


def _merged(combine, streams):
    """Row streams in sorted label order merged label by label, a label's
    rows combined in stream order; about one row per stream is held."""
    rows = heapq.merge(*streams, key=itemgetter(0))
    for lab, group in groupby(rows, key=itemgetter(0)):
        yield lab, reduce(combine, (c for _, c in group))


def _table(spec: OperatorSpec, F: Form, adjoint: bool) -> tuple:
    """(entries, overall) of T on F over labels {1..F.N}, or with
    adjoint=True of its coordinate adjoint (no entries below degree ell)."""
    if not adjoint:
        return _t_table(spec, F.q, F.N), 1
    entries = _tstar_table(spec, F.q, F.N) if F.q >= spec.ell else ()
    return entries, (-1) ** spec.k


def _apply(spec: OperatorSpec, F: Form, adjoint: bool) -> Form:
    """T on F over labels {1..F.N}, or with adjoint=True its coordinate
    adjoint.

    The one degree guard: an output degree outside 0..F.N gives the zero
    form at the nearest existing degree.
    """
    out_q = F.q - spec.ell if adjoint else F.q + spec.ell
    if not 0 <= out_q <= F.N:
        return zero_form(F.n, F.N, min(max(out_q, 0), F.N), F.backend, F.P)
    entries, overall = _table(spec, F, adjoint)
    return _apply_table(F, entries, out_q, F.N, overall)


# ---- the operators ---------------------------------------------------------


def _check_space(spec: OperatorSpec, F: Form):
    """F must live on the hybrid space (F.N == N) or the source space
    (F.N == n) of the spec, and the source space needs n >= ell."""
    if F.n != spec.n or F.N not in (spec.N, spec.n):
        raise ValueError("form lives on neither the hybrid (N) nor the "
                         "source (n) space of the spec")
    _tensor_width(spec, F.N == spec.n)


def apply_T(spec: OperatorSpec, F: Form) -> Form:
    """Degree-raising operator on q-forms over {1..F.N}, the hybrid or the
    source space; degree q + ell <= F.N."""
    _check_space(spec, F)
    if F.q + spec.ell > F.N:
        raise ValueError("output degree would exceed N")
    return _apply(spec, F, adjoint=False)


def apply_T_star_coordinate(spec: OperatorSpec, H: Form) -> Form:
    """Coordinate route for the adjoint: global sign (-1)^k."""
    _check_space(spec, H)
    if H.q < spec.ell:
        raise ValueError("adjoint needs degree q >= ell")
    return _apply(spec, H, adjoint=True)


def _star_conjugate(spec, H) -> Form:
    """(-1)^(k + q(H.N - ell - q)) star T star H, q the output degree.
    Each row of T(star H) is scaled by its star sign where that is not 1,
    then by the overall sign (the two multiplies hodge_star and scale
    make), and lands on its complement label, so T(star H) is never held
    whole."""
    q_out = H.q - spec.ell
    sign = (-1) ** (spec.k + q_out * (H.N - spec.ell - q_out))
    mid = hodge_star(H)
    coeffs = {}
    for lab, c in _rows(mid, *_table(spec, mid, adjoint=False)):
        comp, s = _star_label(lab, H.N)
        if s != 1:
            c = c.scale(s)
        coeffs[comp] = c.scale(sign)
    return Form(H.n, H.N, q_out, coeffs, H.backend, H.P)


def apply_T_star(spec: OperatorSpec, H: Form) -> Form:
    """Adjoint of apply_T via star conjugation, on H's space.

    On the exact backend the coordinate route is evaluated as well and any
    disagreement raises; the two routes are algebraically identical, so a
    mismatch means a sign fault somewhere.  Grid forms are not
    cross-checked: their rounding would make an exact comparison fail.
    """
    _check_space(spec, H)
    if H.q < spec.ell:
        raise ValueError("adjoint needs degree q >= ell")
    out = _star_conjugate(spec, H)
    if H.backend == "trig" and out != _apply(spec, H, adjoint=True):
        raise ArithmeticError(
            "adjoint routes disagree; an epsilon or sign table is corrupt"
        )
    return out


# ---- composition laws ------------------------------------------------------


def compose_TT(spec: OperatorSpec, F: Form) -> Form:
    """T applied twice; requires q + 2 ell <= F.N.

    Identically zero exactly when ell is odd; for even ell the result
    equals twice the single-orientation sum (see tt_single_orientation).
    """
    _check_space(spec, F)
    if F.q + 2 * spec.ell > F.N:
        raise ValueError("no room for two degree raises at this q")
    return apply_T(spec, apply_T(spec, F))


def _tt_table(spec: OperatorSpec, q: int, width: int):
    """Entries (I, alpha, beta, M, sign) of the real T o T at degree q: the
    raising tables of degrees q and q + ell composed through their shared
    label, so sign = epsilon^{b a I}_M.  Both orientations appear."""
    up = {}
    for entry in _t_table(spec, q + spec.ell, width):
        up.setdefault(entry[0], []).append(entry)
    return tuple((I, alpha, beta, M, s1 * s2)
                 for I, alpha, L, s1 in _t_table(spec, q, width)
                 for _, beta, M, s2 in up.get(L, ()))


def tt_single_orientation(spec: OperatorSpec, F: Form) -> Form:
    """The half of T o T with the two derivative blocks in a fixed order:

        sum_{alpha < beta} epsilon^{ordering(beta) ordering(alpha) I}_M
                           d^{2k} F_I / dx^{alpha + beta}  on each M,
    alpha before beta in multiindices order."""
    _check_space(spec, F)
    if F.q + 2 * spec.ell > F.N:
        raise ValueError("no room for two degree raises at this q")
    rank = {alpha: i for i, alpha in enumerate(multiindices(spec.n, spec.k))}
    half = tuple((I, tuple(x + y for x, y in zip(alpha, beta)), M, sign)
                 for I, alpha, beta, M, sign in _tt_table(spec, F.q, F.N)
                 if rank[alpha] < rank[beta])
    return _apply_table(F, half, F.q + 2 * spec.ell, F.N)


def box_apply(spec: OperatorSpec, H: Form) -> Form:
    """Hodge Laplacian T T* + T* T on H's space; a part whose intermediate
    degree does not exist contributes zero.  The outer applies are read as
    rows and the two parts summed label by label (_merged), T T* H first,
    so neither part is held whole; on the grid it makes no FFT call."""
    _check_space(spec, H)
    streams = []
    for adjoint, exists in ((True, H.q >= spec.ell),
                            (False, H.q + spec.ell <= H.N)):
        if exists:
            mid = _apply(spec, H, adjoint)
            streams.append(_rows(mid, *_table(spec, mid, not adjoint)))
    return Form(H.n, H.N, H.q, dict(_merged(add, streams)), H.backend, H.P)


# ---- the Laplacian coefficient tensor ---------------------------------------


@dataclass(frozen=True)
class CoeffTensor:
    """Sparse integer tensor C^{M I}_{alpha beta} of a Hodge Laplacian.

    box H = (-1)^k sum_{M,I,alpha,beta} C^{MI}_{alpha beta}
            d^{2k} H_I / dx^{alpha+beta}  dz^M.

    Entries are keyed by (M, I, alpha, beta) and omitted when zero; every
    stored value lies in {-2, -1, 1, 2}.  The tensor is symmetric under
    the simultaneous swap (M, alpha) <-> (I, beta).  Its labels lie in
    {1..width}: width is N on the hybrid space and n on the source space.
    """

    spec: OperatorSpec
    q: int
    width: int
    entries: dict

    def value(self, M, I, alpha, beta) -> int:
        return self.entries.get((tuple(M), tuple(I), tuple(alpha), tuple(beta)), 0)

    def contract(self, H: Form) -> Form:
        """Apply the Laplacian through the tensor; must equal box_apply."""
        if (H.n, H.N, H.q) != (self.spec.n, self.width, self.q):
            raise ValueError("form shape does not match the tensor")
        table = tuple((I, tuple(x + y for x, y in zip(alpha, beta)), M, val)
                      for (M, I, alpha, beta), val in self.entries.items())
        return _apply_table(H, table, self.q, self.width,
                            overall=(-1) ** self.spec.k)

    def is_kronecker(self) -> bool:
        """True when C^{MI}_{alpha beta} = delta_MI delta_alpha,beta."""
        labs = set(labels(self.width, self.q))
        alphas = {a for a, _, _ in _image_alphas(self.spec, self.width)}
        return (len(self.entries) == len(labs) * len(alphas)
                and all(v == 1 and M == I and a == b and I in labs
                        and a in alphas
                        for (M, I, a, b), v in self.entries.items()))


def _image_alphas(spec: OperatorSpec, width: int):
    """(alpha, label, label mask) triples of the ordering whose label lies
    inside {1..width}."""
    pairs = [(alpha, spec.ordering.label_of(alpha))
             for alpha in multiindices(spec.n, spec.k)]
    return [(alpha, a, _mask(a)) for alpha, a in pairs if max(a) <= width]


def _tensor_by_summation(spec: OperatorSpec, q: int, width: int) -> dict:
    """Sum over connecting labels, read off the raising table: T* T pairs
    the degree-q entries that share an output label L, T T* the degree
    q - ell entries that share an input label K.

    The sums run on int keys ((iM m + b) S + iI m + a), with iM, iI the
    positions of M and I in labels(width, q), a and b those of alpha and
    beta among the m multi-indices, and S = m * len(labels(width, q));
    each entry carries its share of the key in the place its labels take
    in (M, I, alpha, beta).  Only the nonzero sums become tuple keys, in
    the order their keys were first met.
    """
    labs = labels(width, q)
    alphas = multiindices(spec.n, spec.k)
    m = len(alphas)
    S = m * len(labs)
    row = {L: i * m for i, L in enumerate(labs)}
    col = {alpha: i for i, alpha in enumerate(alphas)}

    def up():  # T* T: the entry (I, alpha) meets the entry (M, beta) at L
        groups = {}
        for I, alpha, L, s in _t_table(spec, q, width):
            u = row[I] + col[alpha]
            groups.setdefault(L, []).append((u, u * S, s))
        return groups

    def down():  # T T*: the entry (M, alpha) meets the entry (I, beta) at K
        groups = {}
        if q >= spec.ell:
            for K, alpha, M, s in _t_table(spec, q - spec.ell, width):
                groups.setdefault(K, []).append(
                    (row[M] * S + col[alpha], col[alpha] * S + row[M], s))
        return groups

    sums = {}
    get = sums.get
    for part in (up, down):  # one part's groups are held at a time
        for group in part().values():
            for x, _, s1 in group:
                for _, y, s2 in group:
                    key = x + y
                    sums[key] = get(key, 0) + s1 * s2
    nonzero = [(key, v) for key, v in sums.items() if v]
    del sums, get  # the cancelled keys go before the tuple keys come
    entries = {}
    for key, v in nonzero:
        hi, lo = divmod(key, S)
        iM, b = divmod(hi, m)
        iI, a = divmod(lo, m)
        entries[labs[iM], labs[iI], alphas[a], alphas[b]] = v
    return entries


def _tensor_width(spec: OperatorSpec, top: bool) -> int:
    """Label width of the source space (top=True), n, or of the hybrid
    space, N; raises for the source space when n < ell, where the source
    operator is trivial.  A degree outside 0..width is left to labels()."""
    if top and spec.n < spec.ell:
        raise ValueError("source operator is trivial for n < ell")
    return spec.n if top else spec.N


@lru_cache(maxsize=None)
def box_coeff_tensor(spec: OperatorSpec, q: int, top: bool = False) -> CoeffTensor:
    """Tensor by direct summation over connecting labels L and K, on the
    hybrid space or (top=True) the source space, labels in {1..n} only.

    The cache keys on the call as written, so every caller in the package
    passes top positionally: box_coeff_tensor(spec, q, top).
    """
    width = _tensor_width(spec, top)
    return CoeffTensor(spec, q, width, _tensor_by_summation(spec, q, width))


def coeff_entry_direct(spec, M, I, alpha, beta, top=False) -> int:
    """One entry, at degree len(I), by the literal sums over all L and K."""
    width = spec.n if top else spec.N
    q = len(I)
    a = spec.ordering.label_of(alpha)
    b = spec.ordering.label_of(beta)
    total = 0
    if q + spec.ell <= width:
        for L in labels(width, q + spec.ell):
            total += (perm_sign_between(a + tuple(I), L)
                      * perm_sign_between(b + tuple(M), L))
    if q - spec.ell >= 0:
        for K in labels(width, q - spec.ell):
            total += (perm_sign_between(a + K, tuple(M))
                      * perm_sign_between(b + K, tuple(I)))
    return total


def _overlap_row(ell, mI, a, ma, pairs):
    """(beta, mask of M, entry) for each (beta, b, mb) of pairs with a
    nonzero C^{MI}_{alpha beta}, at the one M where it can be nonzero;
    mI is the mask of the label I, a = ordering(alpha) with mask ma,
    b = ordering(beta) with mask mb, and the shared block is
    lam = a intersect b:

    * lam disjoint from I gives the raising part epsilon^{a I}_{b M} at
      M = (a union I) minus b, which needs a disjoint from I and b inside
      a union I; when lam is empty the lowering part equals (-1)^ell
      times it, giving the factor (1 + (-1)^(ell^2));
    * lam inside I gives the lowering part epsilon^{a K}_M epsilon^{b K}_I
      at M = a union K, K = I minus b, which needs b inside I and a
      disjoint from K;
    * every other overlap pattern gives zero.

    Sorting a + I and then b + M gives epsilon^{a I}_{b M}; sorting a + K
    and b + K gives the lowering signs.
    """
    row = []
    if not ma & mI:  # raising; lam is disjoint from I too
        union = ma | mI
        sign_aI = _sort_sign(a, mI)
        for beta, b, mb in pairs:
            if mb & ~union:
                continue
            factor = 1 if mb & ma else 1 + (-1) ** (ell * ell)
            if factor:
                mM = union & ~mb
                row.append((beta, mM, factor * sign_aI * _sort_sign(b, mM)))
        return row
    for beta, b, mb in pairs:  # lowering; b inside I puts lam inside I
        mK = mI & ~mb
        if mb & ~mI or ma & mK:
            continue
        row.append((beta, ma | mK, _sort_sign(a, mK) * _sort_sign(b, mK)))
    return row


@lru_cache(maxsize=None)
def box_coeff_closed_form(spec: OperatorSpec, q: int, top: bool = False) -> CoeffTensor:
    """Full tensor from the overlap decomposition: each (I, alpha, beta)
    has at most one M with a nonzero entry."""
    width = _tensor_width(spec, top)
    index = _label_index(width, q)
    pairs = _image_alphas(spec, width)
    entries = {}
    for mI, I in index.items():
        for alpha, a, ma in pairs:
            for beta, mM, v in _overlap_row(spec.ell, mI, a, ma, pairs):
                entries[index[mM], I, alpha, beta] = v
    return CoeffTensor(spec, q, width, entries)


# ---- the scalar dictionary: reduction to divergence form and back -----------


def vs_reduction(spec: OperatorSpec, F: Form) -> dict:
    """Scalar family {alpha: g_alpha} of a hybrid (N - ell)-form:

        g_alpha = epsilon^{ordering(alpha) I}_{(1..N)} F_I,
        I the complement of ordering(alpha),

    read off the raising table at degree N - ell.  When T F = 0 the family
    satisfies sum_alpha d^k g_alpha / dx^alpha = 0 in the same exact
    arithmetic as F.
    """
    if (F.n, F.N) != (spec.n, spec.N):
        raise ValueError("form does not live on the spec's hybrid space")
    if F.q != spec.N - spec.ell:
        raise ValueError("reduction needs degree N - ell")
    out = {}
    for I, alpha, _, sign in _t_table(spec, spec.N - spec.ell, spec.N):
        if I in F.coeffs and not F.coeffs[I].is_zero():
            out[alpha] = F.coeffs[I].scale(sign)
    return out


def vs_lift(spec: OperatorSpec, g: dict) -> Form:
    """Rebuild the (N - ell)-form whose reduction is the family g:

        F_I = epsilon^{ordering(alpha) I}_{(1..N)} g_alpha,
        I the complement of ordering(alpha).

    Every key of g must be one of multiindices(n, k).
    """
    q = spec.N - spec.ell
    complements = {alpha: (I, sign)
                   for I, alpha, _, sign in _t_table(spec, q, spec.N)}
    coeffs = {}
    for alpha, fn in g.items():
        if alpha not in complements:
            raise ValueError(f"family key {alpha!r} is not in "
                             f"multiindices({spec.n}, {spec.k})")
        I, sign = complements[alpha]
        coeffs[I] = fn.scale(sign)
    return Form(spec.n, spec.N, q, coeffs)


def divergence_defect(g: dict):
    """sum_alpha d^k g_alpha / dx^alpha (exact on the trig backend)."""
    acc = None
    for alpha, fn in g.items():
        term = fn.diff_alpha(tuple(alpha))
        acc = term if acc is None else acc + term
    return acc


# ---- invariance under rotations ---------------------------------------------


def invariance_defect(spec: OperatorSpec, A, F: Form) -> float:
    """Norm of T(pullback F) - pullback(T F) for the map x -> A(x-c)+c.

    A must be orthogonal.  F is a source form (N == n), as the pullback
    requires.  On the exact
    backend A must be a signed permutation and the defect is reported as
    an exact coefficient bound; on the grid backend the pullback uses
    band-limited interpolation, so probes should be well localized away
    from the box seam.  The center is the box midpoint on the grid
    backend (keeping localized probes away from the seam) and the origin
    on the exact backend (where the pullback is frequency relabeling and
    needs no centering).
    """
    A = np.asarray(A, dtype=float)
    if not np.allclose(A @ A.T, np.eye(spec.n), atol=1e-12):
        raise ValueError("expected an orthogonal matrix")
    _check_space(spec, F)
    center = np.full(spec.n, np.pi) if F.backend == "grid" else None
    # F and T F are pulled back through the same mapped nodes: one phase
    # table serves both
    A, phases = _pullback_plan(F, A, center)
    left = _apply(spec, _pullback(F, A, phases), adjoint=False)
    right = _pullback(_apply(spec, F, adjoint=False), A, phases)
    diff = left - right
    if diff.backend == "trig":
        return form_max_abs(diff)
    return lp_norm(diff, 2)
