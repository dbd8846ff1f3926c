"""The order-k exterior operators, their adjoints, and Hodge Laplacians.

An OperatorSpec fixes (n, k, ell, N, ordering): the operator raises form
degree by ell and differentiates coefficients k times, coupling the
derivative multi-index alpha to the label block ordering(alpha):

    (T F)_L = sum_{I, alpha} epsilon^{ordering(alpha) I}_L d^k F_I / dx^alpha

for L of degree q + ell over N slots.  The source-space operator Top is
the same action with every label constrained to {1, ..., n}.

Adjoints are available through two independent routes that must agree:

* star conjugation: T* = (-1)^(k + q(N - ell - q)) star T star, with q the
  output degree, and
* the coordinate sum (T* H)_V = (-1)^k sum epsilon^{ordering(beta) V}_I
  d^k H_I / dx^beta,

where the global coordinate sign (-1)^k is the one forced by k-fold
integration by parts against the label-wise pairing.  On the exact
backend apply_T_star computes both and raises if they ever differ.

The Hodge Laplacian box = T T* + T* T acts on hybrid q-forms through an
integer coefficient tensor; box_coeff_tensor builds it by direct
summation over connecting labels and box_coeff_closed_form builds it
entry by entry from the overlap decomposition of the two derivative
blocks.  Both are exposed so they can be cross-checked exactly.

Every action runs through one table path: _apply picks the raising
table _t_table or the coordinate-adjoint table _tstar_table over labels
in {1..N} or {1..n}, holds the single degree guard, and hands the table
to _apply_table, which evaluates (I, alpha, OUT, sign) entries on either
backend.  apply_T, apply_Top, their coordinate adjoints, both
Laplacians, CoeffTensor.contract and tt_single_orientation all end
there.

_t_table is the only enumeration of the raising coupling: the summation
tensor, the real T o T (_tt_table) and the scalar dictionary of
vs_reduction are read off its cached entries.  The routes that check
them keep their own signs, so a fault in _t_table cannot hide on both
sides of a check: _tstar_table (built directly) behind the adjoint,
the closed-form and direct-sum tensor entries, and forms.py's star and
wedge behind the pairing routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .forms import Form, lp_norm, pullback_linear, hodge_star, zero_form
from .gridfield import GridField, _deriv_multiplier
from .increments import binom
from .multiindex import (
    Ordering,
    labels,
    make_ordering,
    multiindices,
    perm_sign_between,
)

__all__ = [
    "OperatorSpec",
    "spec_for",
    "apply_T",
    "apply_T_star",
    "apply_T_star_coordinate",
    "apply_Top",
    "apply_Top_star",
    "apply_Top_star_coordinate",
    "compose_TT",
    "tt_single_orientation",
    "box_apply",
    "box_apply_top",
    "CoeffTensor",
    "box_coeff_tensor",
    "box_coeff_closed_form",
    "coeff_entry_direct",
    "coeff_entry_closed_form",
    "top_coeff_tensor",
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
        m = binom(n - 1 + k, k)
        if binom(N, ell) != m:
            raise ValueError(f"C({N},{ell}) != C({n - 1 + k},{k}); not admissible")
        if N < n - 1 + ell:
            raise ValueError("dimension constraint N >= n - 1 + ell violated")
        o = self.ordering
        if (o.n, o.k, o.ell, o.N) != (n, k, ell, N):
            raise ValueError("ordering parameters do not match the spec")

    def digest(self) -> str:
        return self.ordering.digest()

    def describe(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "ell": self.ell,
            "N": self.N,
            "ordering_kind": self.ordering.kind,
            "ordering_digest": self.digest(),
        }


def spec_for(n, k, ell, kind="lexicographic", table=None) -> OperatorSpec:
    """Resolve N from the admissibility equation and build the spec."""
    from .increments import admissible_increments

    for sol in admissible_increments(n, k):
        if sol.ell == ell:
            ordering = make_ordering(n, k, ell, sol.N, kind=kind, table=table)
            return OperatorSpec(n, k, ell, sol.N, ordering)
    raise ValueError(f"ell={ell} is not an admissible increment for (n={n}, k={k})")


# ---- coupling tables -------------------------------------------------------


def _width(spec: OperatorSpec, top: bool) -> int:
    """Label range of the hybrid (N) or source (n) space."""
    return spec.n if top else spec.N


@lru_cache(maxsize=None)
def _t_table(spec: OperatorSpec, q: int, top: bool):
    """Entries (I, alpha, L, sign) of the degree-raising action at degree q.

    With top=True all labels are constrained to {1..n} (the source-space
    operator); otherwise they run over {1..N}.
    """
    pairs = _image_alphas(spec, top)
    entries = []
    for I in labels(_width(spec, top), q):
        setI = set(I)
        for alpha, a in pairs:
            if setI & set(a):
                continue
            L = tuple(sorted(a + I))
            entries.append((I, alpha, L, perm_sign_between(a + I, L)))
    return tuple(entries)


@lru_cache(maxsize=None)
def _tstar_table(spec: OperatorSpec, q: int, top: bool):
    """Entries (I, beta, V, sign) of the coordinate adjoint at degree q:
    V of degree q - ell collects epsilon^{ordering(beta) V}_I terms."""
    pairs = _image_alphas(spec, top)
    entries = []
    for V in labels(_width(spec, top), q - spec.ell):
        setV = set(V)
        for beta, b in pairs:
            if setV & set(b):
                continue
            I = tuple(sorted(b + V))
            entries.append((I, beta, V, perm_sign_between(b + V, I)))
    return tuple(entries)


def _apply_table(F: Form, entries, out_q: int, width: int, overall=1) -> Form:
    """Evaluate sum sign * overall * d^alpha F_I on each output label of a
    table of (I, alpha, OUT, sign) entries."""
    if F.backend == "grid":
        return _apply_table_grid(F, entries, out_q, width, overall)
    acc = {}
    for I, alpha, OUT, sign in entries:
        c = F.coeffs.get(I)
        if c is None:
            continue
        term = c.diff_alpha(alpha)
        factor = sign * overall
        if factor not in (1, -1):  # |factor| = 2 occurs in tensor contraction
            term, factor = term.scale(factor), 1
        prev = acc.get(OUT)
        if prev is None:
            acc[OUT] = term if factor == 1 else -term
        else:
            acc[OUT] = prev + term if factor == 1 else prev - term
    return Form(F.n, width, out_q, acc, backend="trig")


def _apply_table_grid(F: Form, entries, out_q, width, overall) -> Form:
    n = F.n
    P = F.grid_P()
    spectra = {lab: c.spectrum() for lab, c in F.coeffs.items()}
    acc = {}
    for I, alpha, OUT, sign in entries:
        sp = spectra.get(I)
        if sp is None:
            continue
        # a fresh array, so it is scaled and accumulated in place
        term = sp * _deriv_multiplier(n, P, tuple(alpha))
        factor = sign * overall
        if factor != 1:
            term *= factor
        if OUT in acc:
            acc[OUT] += term
        else:
            acc[OUT] = term
    coeffs = {OUT: GridField.from_spectrum(n, P, sp) for OUT, sp in acc.items()}
    if not coeffs:
        return zero_form(n, width, out_q, backend="grid", P=P)
    return Form(n, width, out_q, coeffs, backend="grid")


def _zero_like(F: Form, width: int, q: int) -> Form:
    """The zero q-form on F's backend, at F's grid resolution."""
    P = F.grid_P() if F.backend == "grid" else None
    return zero_form(F.n, width, q, backend=F.backend, P=P)


def _apply(spec: OperatorSpec, F: Form, top: bool, adjoint: bool) -> Form:
    """T (or Top) on F, or with adjoint=True its coordinate adjoint.

    The one degree guard: an output degree outside 0..width gives the zero
    form at the nearest existing degree.
    """
    width = _width(spec, top)
    out_q = F.q - spec.ell if adjoint else F.q + spec.ell
    if not 0 <= out_q <= width:
        return _zero_like(F, width, min(max(out_q, 0), width))
    if adjoint:
        return _apply_table(F, _tstar_table(spec, F.q, top), out_q, width,
                            overall=(-1) ** spec.k)
    return _apply_table(F, _t_table(spec, F.q, top), out_q, width)


# ---- the operators ---------------------------------------------------------


def _check_space(spec: OperatorSpec, F: Form, top: bool):
    if (F.n, F.N) != (spec.n, _width(spec, top)):
        raise ValueError("source forms live over N == n" if top
                         else "form does not live on the spec's hybrid space")


def apply_T(spec: OperatorSpec, F: Form) -> Form:
    """Degree-raising operator on hybrid q-forms; degree q + ell <= N."""
    _check_space(spec, F, top=False)
    if F.q + spec.ell > spec.N:
        raise ValueError("output degree would exceed N")
    return _apply(spec, F, top=False, adjoint=False)


def apply_T_star_coordinate(spec: OperatorSpec, H: Form) -> Form:
    """Coordinate route for the adjoint: global sign (-1)^k."""
    _check_space(spec, H, top=False)
    if H.q < spec.ell:
        raise ValueError("adjoint needs degree q >= ell")
    return _apply(spec, H, top=False, adjoint=True)


def _star_conjugate(spec, H, top: bool) -> Form:
    q_out = H.q - spec.ell
    sign = (-1) ** (spec.k + q_out * (_width(spec, top) - spec.ell - q_out))
    mid = _apply(spec, hodge_star(H), top=top, adjoint=False)
    return hodge_star(mid).scale(sign)


def _checked_adjoint(spec: OperatorSpec, H: Form, top: bool, check) -> Form:
    """Star-conjugate adjoint with the coordinate-route cross-check of
    apply_T_star, on the hybrid or (top=True) the source space."""
    _check_space(spec, H, top)
    if H.q < spec.ell:
        raise ValueError("adjoint needs degree q >= ell")
    out = _star_conjugate(spec, H, top)
    if check is None:
        check = H.backend == "trig"
    if check and not (out - _apply(spec, H, top=top, adjoint=True)).is_zero():
        raise ArithmeticError(
            "adjoint routes disagree; an epsilon or sign table is corrupt"
        )
    return out


def apply_T_star(spec: OperatorSpec, H: Form, check=None) -> Form:
    """Adjoint of apply_T via star conjugation.

    On the exact backend (or with check=True) the coordinate route is
    evaluated as well and any disagreement raises; the two routes are
    algebraically identical, so a mismatch means a sign fault somewhere.
    """
    return _checked_adjoint(spec, H, False, check)


def apply_Top(spec: OperatorSpec, f: Form) -> Form:
    """Source-space operator: the same action with labels inside {1..n}.

    Returns the zero form when the output degree exceeds n.  Nontrivial
    only when n >= ell.
    """
    _check_space(spec, f, top=True)
    if spec.n < spec.ell:
        raise ValueError("source operator is trivial for n < ell")
    return _apply(spec, f, top=True, adjoint=False)


def apply_Top_star_coordinate(spec: OperatorSpec, h: Form) -> Form:
    _check_space(spec, h, top=True)
    if spec.n < spec.ell:
        raise ValueError("source operator is trivial for n < ell")
    if h.q < spec.ell:
        raise ValueError("adjoint needs degree q >= ell")
    return _apply(spec, h, top=True, adjoint=True)


def apply_Top_star(spec: OperatorSpec, h: Form, check=None) -> Form:
    """Adjoint of apply_Top, cross-checked like apply_T_star."""
    return _checked_adjoint(spec, h, True, check)


# ---- composition laws ------------------------------------------------------


def compose_TT(spec: OperatorSpec, F: Form) -> Form:
    """T applied twice; requires q + 2 ell <= N.

    Identically zero exactly when ell is odd; for even ell the result
    equals twice the single-orientation sum (see tt_single_orientation).
    """
    _check_space(spec, F, top=False)
    if F.q + 2 * spec.ell > spec.N:
        raise ValueError("no room for two degree raises at this q")
    return apply_T(spec, apply_T(spec, F))


def _tt_table(spec: OperatorSpec, q: int):
    """Entries (I, alpha, beta, M, sign) of the real T o T at degree q: the
    raising tables of degrees q and q + ell composed through their shared
    label, so sign = epsilon^{b a I}_M.  Both orientations appear."""
    up = _grouped(_t_table(spec, q + spec.ell, False), 0)
    return tuple((I, alpha, beta, M, s1 * s2)
                 for I, alpha, L, s1 in _t_table(spec, q, False)
                 for _, beta, M, s2 in up.get(L, ()))


def tt_single_orientation(spec: OperatorSpec, F: Form) -> Form:
    """The half of T o T with the two derivative blocks in a fixed order:

        sum_{alpha < beta} epsilon^{ordering(beta) ordering(alpha) I}_M
                           d^{2k} F_I / dx^{alpha + beta}  on each M,
    alpha before beta in multiindices order."""
    _check_space(spec, F, top=False)
    if F.q + 2 * spec.ell > spec.N:
        raise ValueError("no room for two degree raises at this q")
    rank = {alpha: i for i, alpha in enumerate(multiindices(spec.n, spec.k))}
    half = [(I, tuple(x + y for x, y in zip(alpha, beta)), M, sign)
            for I, alpha, beta, M, sign in _tt_table(spec, F.q)
            if rank[alpha] < rank[beta]]
    return _apply_table(F, half, F.q + 2 * spec.ell, spec.N)


def _box(spec: OperatorSpec, H: Form, top: bool) -> Form:
    """T T* + T* T, summed over the parts whose intermediate degree exists."""
    _check_space(spec, H, top)
    width = _width(spec, top)
    parts = []
    if H.q >= spec.ell:
        down = _apply(spec, H, top=top, adjoint=True)
        parts.append(_apply(spec, down, top=top, adjoint=False))
    if H.q + spec.ell <= width:
        up = _apply(spec, H, top=top, adjoint=False)
        parts.append(_apply(spec, up, top=top, adjoint=True))
    if not parts:
        return _zero_like(H, width, H.q)
    return sum(parts[1:], parts[0])


def box_apply(spec: OperatorSpec, H: Form) -> Form:
    """Hodge Laplacian T T* + T* T; a part whose intermediate degree does
    not exist contributes zero."""
    return _box(spec, H, top=False)


def box_apply_top(spec: OperatorSpec, h: Form) -> Form:
    """Source-space Hodge Laplacian Top Top* + Top* Top."""
    return _box(spec, h, top=True)


# ---- the Laplacian coefficient tensor ---------------------------------------


@dataclass(frozen=True)
class CoeffTensor:
    """Sparse integer tensor C^{M I}_{alpha beta} of a Hodge Laplacian.

    box H = (-1)^k sum_{M,I,alpha,beta} C^{MI}_{alpha beta}
            d^{2k} H_I / dx^{alpha+beta}  dz^M.

    Entries are keyed by (M, I, alpha, beta) and omitted when zero; every
    stored value lies in {-2, -1, 1, 2}.  The tensor is symmetric under
    the simultaneous swap (M, alpha) <-> (I, beta).
    """

    spec: OperatorSpec
    q: int
    top: bool
    entries: dict

    def value(self, M, I, alpha, beta) -> int:
        return self.entries.get((tuple(M), tuple(I), tuple(alpha), tuple(beta)), 0)

    def contract(self, H: Form) -> Form:
        """Apply the Laplacian through the tensor; must equal box_apply."""
        width = _width(self.spec, self.top)
        if (H.n, H.N, H.q) != (self.spec.n, width, self.q):
            raise ValueError("form shape does not match the tensor")
        table = [(I, tuple(x + y for x, y in zip(alpha, beta)), M, val)
                 for (M, I, alpha, beta), val in self.entries.items()]
        return _apply_table(H, table, self.q, width, overall=(-1) ** self.spec.k)

    def to_obj(self) -> dict:
        rows = [
            [list(M), list(I), list(a), list(b), v]
            for (M, I, a, b), v in sorted(self.entries.items())
        ]
        return {
            "spec": self.spec.describe(),
            "q": self.q,
            "source_space": self.top,
            "entries": rows,
        }

    def is_kronecker(self) -> bool:
        """True when C^{MI}_{alpha beta} = delta_MI delta_alpha,beta."""
        width = _width(self.spec, self.top)
        return self.entries == {(I, I, a, a): 1 for I in labels(width, self.q)
                                for a, _ in _image_alphas(self.spec, self.top)}


def _image_alphas(spec: OperatorSpec, top: bool):
    """(alpha, label) pairs of the ordering, restricted to {1..n} labels
    in the source-space case."""
    pairs = [(alpha, spec.ordering.label_of(alpha))
             for alpha in multiindices(spec.n, spec.k)]
    return [(alpha, a) for alpha, a in pairs if not top or max(a) <= spec.n]


def _grouped(entries, slot) -> dict:
    """Table entries keyed by their input (slot 0) or output (slot 2) label."""
    groups = {}
    for entry in entries:
        groups.setdefault(entry[slot], []).append(entry)
    return groups


def _tensor_by_summation(spec: OperatorSpec, q: int, top: bool) -> dict:
    """Sum over connecting labels, read off the raising table: T* T pairs
    the degree-q entries that share an output label L, T T* the degree
    q - ell entries that share an input label K."""
    entries = {}

    def put(key, val):
        newval = entries.get(key, 0) + val
        if newval == 0:
            entries.pop(key, None)
        else:
            entries[key] = newval

    for group in _grouped(_t_table(spec, q, top), 2).values():
        for I, alpha, _, s1 in group:
            for M, beta, _, s2 in group:
                put((M, I, alpha, beta), s1 * s2)
    if q >= spec.ell:
        for group in _grouped(_t_table(spec, q - spec.ell, top), 0).values():
            for _, alpha, M, s1 in group:
                for _, beta, I, s2 in group:
                    put((M, I, alpha, beta), s1 * s2)
    return entries


@lru_cache(maxsize=None)
def box_coeff_tensor(spec: OperatorSpec, q: int) -> CoeffTensor:
    """Tensor by direct summation over connecting labels L and K."""
    if not (0 <= q <= spec.N):
        raise ValueError("degree out of range")
    return CoeffTensor(spec, q, False, _tensor_by_summation(spec, q, False))


@lru_cache(maxsize=None)
def top_coeff_tensor(spec: OperatorSpec, q: int) -> CoeffTensor:
    """Source-space Laplacian tensor: labels in {1..n} only."""
    if spec.n < spec.ell:
        raise ValueError("source operator is trivial for n < ell")
    if not (0 <= q <= spec.n):
        raise ValueError("degree out of range")
    return CoeffTensor(spec, q, True, _tensor_by_summation(spec, q, True))


def coeff_entry_direct(spec, q, M, I, alpha, beta, top=False) -> int:
    """One tensor entry by the literal sums over all L and K."""
    width = _width(spec, top)
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


def coeff_entry_closed_form(spec, q, M, I, alpha, beta, top=False) -> int:
    """One tensor entry from the overlap decomposition, no label sums.

    With a = ordering(alpha), b = ordering(beta) and shared block
    lam = a intersect b:

    * lam disjoint from I and M (in particular lam empty) contributes the
      raising part epsilon^{a I}_{b M}; when lam is empty the lowering
      part equals (-1)^ell times it, giving the factor (1 + (-1)^(ell^2));
    * lam contained in both I and M contributes the lowering part
      epsilon^{a K}_M epsilon^{b K}_I with K = M minus a = I minus b;
    * every other overlap pattern gives zero.
    """
    M, I = tuple(M), tuple(I)
    a = spec.ordering.label_of(alpha)
    b = spec.ordering.label_of(beta)
    lam = set(a) & set(b)
    setI, setM = set(I), set(M)

    def lowering():
        if not (set(a) <= setM and set(b) <= setI):
            return 0
        K = tuple(t for t in M if t not in set(a))
        if tuple(t for t in I if t not in set(b)) != K:
            return 0
        return perm_sign_between(a + K, M) * perm_sign_between(b + K, I)

    if not lam:
        raising = perm_sign_between(a + I, b + M)
        return (1 + (-1) ** (spec.ell * spec.ell)) * raising
    if not (lam & setI) and not (lam & setM):
        return perm_sign_between(a + I, b + M)
    if lam <= setI and lam <= setM:
        return lowering()
    return 0


@lru_cache(maxsize=None)
def box_coeff_closed_form(spec: OperatorSpec, q: int, top: bool = False) -> CoeffTensor:
    """Full tensor rebuilt from coeff_entry_closed_form on the candidate
    support (all (M, I, alpha, beta) that either part could touch)."""
    width = _width(spec, top)
    pairs = [(alpha, a, set(a)) for alpha, a in _image_alphas(spec, top)]
    entries = {}
    for I in labels(width, q):
        setI = set(I)
        for alpha, a, set_a in pairs:
            for beta, b, set_b in pairs:
                cands = set()
                if not (set_a & setI) and set_b <= set_a | setI:
                    cands.add(tuple(t for t in sorted(a + I) if t not in set_b))
                if set_b <= setI:
                    K = tuple(t for t in I if t not in set_b)
                    if not (set_a & set(K)):
                        cands.add(tuple(sorted(a + K)))
                for M in cands:
                    val = coeff_entry_closed_form(spec, q, M, I, alpha, beta, top)
                    if val:
                        entries[(M, I, alpha, beta)] = val
    return CoeffTensor(spec, q, top, entries)


# ---- invariance under rotations ---------------------------------------------


def invariance_defect(spec: OperatorSpec, A, F: Form, center=None) -> float:
    """Norm of Top(pullback F) - pullback(Top F) for the map x -> A(x-c)+c.

    A must be orthogonal.  F is a source form (N == n).  On the exact
    backend A must be a signed permutation and the defect is reported as
    an exact coefficient bound; on the grid backend the pullback uses
    band-limited interpolation, so probes should be well localized away
    from the box seam.  The default center is the box midpoint on the
    grid backend (keeping localized probes away from the seam) and the
    origin on the exact backend (where the pullback is frequency
    relabeling and needs no centering).
    """
    A = np.asarray(A, dtype=float)
    if not np.allclose(A @ A.T, np.eye(spec.n), atol=1e-12):
        raise ValueError("expected an orthogonal matrix")
    _check_space(spec, F, top=True)
    if center is None and F.backend == "grid":
        center = np.full(spec.n, np.pi)
    TF = _apply(spec, F, top=True, adjoint=False)
    left = _apply(spec, pullback_linear(F, A, center), top=True, adjoint=False)
    right = pullback_linear(TF, A, center)
    diff = left - right
    if diff.backend == "trig":
        from .forms import form_max_abs

        return form_max_abs(diff)
    return lp_norm(diff, 2)
