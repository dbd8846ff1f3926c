"""Differential forms with coefficients on an n-torus and labels over N slots.

A Form of degree q carries one coefficient per label in labels(N, q).
Coefficients are functions of the first n variables only (the remaining
N - n slots are inert), so partial derivatives in slots beyond n vanish
and restriction to the source space is the identity on coefficients.
Two coefficient backends are supported: exact TrigPoly and numeric
GridField.  Forms are immutable; every operation returns a new Form.

Conventions fixed here and used throughout:

* the torus carries the normalized measure, so constants have unit norm
  and mean values are plain coefficient means;
* the Hodge star sends the I component to the I' = complement component
  with sign epsilon^{I I'}_{(1..N)};
* Lp norms aggregate components pointwise in little-l2 before taking the
  p-th power, while Sobolev norms p-sum the per-component, per-derivative
  Lp norms;
* a grid form carries its resolution P even when it has no coefficients,
  so zero results keep it; an exact form has P = None.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .gridfield import GridField, _check_P, grid_points
from .multiindex import (
    complement,
    labels,
    multiindices,
    perm_sign_between,
)
from .trigpoly import TrigPoly

__all__ = [
    "Form",
    "zero_form",
    "partial",
    "hodge_star",
    "wedge",
    "inner_product",
    "inner_product_wedge",
    "lp_norm",
    "sobolev_norm",
    "grad_lp_norm",
    "pullback_linear",
    "sample_form",
    "form_max_abs",
]


@lru_cache(maxsize=None)
def _label_set(N: int, q: int) -> frozenset:
    """The valid labels of a q-form over N slots, for membership tests."""
    return frozenset(labels(N, q))


class Form:
    """A q-form over N slots; P is the grid resolution of a grid form,
    read from its coefficients and needed only when it has none."""

    __slots__ = ("n", "N", "q", "coeffs", "backend", "P")

    def __init__(self, n, N, q, coeffs, backend=None, P=None):
        if not (1 <= n <= N):
            raise ValueError("need 1 <= n <= N")
        valid = _label_set(N, q)  # labels() rejects q outside 0..N
        clean = {}
        for lab, c in coeffs.items():
            lab = tuple(lab)
            if lab not in valid:
                raise ValueError(f"label {lab} invalid for degree {q} over N={N}")
            if isinstance(c, TrigPoly):
                kind = "trig"
                if c.n != n:
                    raise ValueError("coefficient dimension mismatch")
                if c.is_zero():
                    continue
            elif isinstance(c, GridField):
                kind = "grid"
                if c.n != n:
                    raise ValueError("coefficient dimension mismatch")
            else:
                raise TypeError("coefficients must be TrigPoly or GridField")
            if backend is None:
                backend = kind
            elif backend != kind:
                raise ValueError("mixed coefficient backends in one form")
            clean[lab] = c
        if backend is None:
            backend = "trig"
        if backend == "grid":
            Ps = {c.P for c in clean.values()}
            if len(Ps) > 1:
                raise ValueError("mixed grid resolutions in one form")
            if P is None:
                if not Ps:
                    raise ValueError("a grid form with no coefficients needs P")
                P = Ps.pop()
            elif Ps - {P}:
                raise ValueError(f"P={P} disagrees with the coefficients")
            _check_P(P)
        elif P is not None:
            raise ValueError("an exact form has no grid resolution")
        self.n, self.N, self.q = n, N, q
        self.coeffs = clean
        self.backend = backend
        self.P = P

    # ---- basic structure -------------------------------------------------

    def coeff(self, lab):
        """Coefficient on a label; implicit zeros materialize on demand."""
        lab = tuple(lab)
        if lab in self.coeffs:
            return self.coeffs[lab]
        if lab not in _label_set(self.N, self.q):
            raise KeyError(lab)
        return self._zero_coeff()

    def _zero_coeff(self):
        if self.backend == "trig":
            return TrigPoly.zero(self.n)
        return GridField.zero(self.n, self.P)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs.values())

    def __add__(self, other):
        return self._merge(other, operator.add, lambda c: c)

    def __sub__(self, other):
        return self._merge(other, operator.sub, operator.neg)

    def _merge(self, other, both, alone):
        """Label by label, both(mine, theirs) where both forms hold the
        label and alone(theirs) where only other does."""
        self._check_shape(other)
        out = dict(self.coeffs)
        for lab, c in other.coeffs.items():
            out[lab] = both(out[lab], c) if lab in out else alone(c)
        # an empty operand adopts the other's backend and P: the one with
        # coefficients, else the one that carries a grid resolution
        base = (self if self.coeffs or (not other.coeffs and self.P is not None)
                else other)
        return Form(self.n, self.N, self.q, out, base.backend, base.P)

    def __neg__(self):
        return Form(self.n, self.N, self.q,
                    {lab: -c for lab, c in self.coeffs.items()},
                    self.backend, self.P)

    def scale(self, factor):
        return Form(self.n, self.N, self.q,
                    {lab: c.scale(factor) for lab, c in self.coeffs.items()},
                    self.backend, self.P)

    def _check_shape(self, other):
        if not isinstance(other, Form):
            raise TypeError("expected a Form")
        if (self.n, self.N, self.q) != (other.n, other.N, other.q):
            raise ValueError(
                f"form shape mismatch: {(self.n, self.N, self.q)} vs "
                f"{(other.n, other.N, other.q)}"
            )
        if self.coeffs and other.coeffs and self.backend != other.backend:
            raise ValueError("backend mismatch")
        if None not in (self.P, other.P) and self.P != other.P:
            raise ValueError("grid resolution mismatch")

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if (self.n, self.N, self.q) != (other.n, other.N, other.q):
            return False
        if self.backend == "trig" and other.backend == "trig":
            # exact: no stored coefficient is zero, and terms are canonical
            return self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self):
        return (f"Form(n={self.n}, N={self.N}, q={self.q}, "
                f"backend={self.backend!r}, components={len(self.coeffs)})")


def zero_form(n, N, q, backend="trig", P=None) -> Form:
    return Form(n, N, q, {}, backend, P)


# ---- calculus ---------------------------------------------------------------


def partial(F: Form, alpha) -> Form:
    """Componentwise mixed partial d^alpha.

    alpha may have length n or length N; any requested derivative in a
    slot beyond n returns the zero form, because coefficients do not
    depend on those variables.
    """
    alpha = tuple(alpha)
    if len(alpha) not in (F.n, F.N):
        raise ValueError("multi-index length must be n or N")
    if any(a < 0 for a in alpha):
        raise ValueError("negative derivative order")
    if any(alpha[F.n:]):
        return Form(F.n, F.N, F.q, {}, F.backend, F.P)
    alpha = alpha[: F.n]
    return Form(F.n, F.N, F.q,
                {lab: c.diff_alpha(alpha) for lab, c in F.coeffs.items()},
                F.backend, F.P)


def _star_label(lab, N):
    """The label the Hodge star sends lab's coefficient to, and its sign
    epsilon^{I I'}."""
    comp, sign = complement(lab, N)  # sign = epsilon^{I' I}
    return comp, -sign if len(lab) * (N - len(lab)) % 2 else sign


def hodge_star(F: Form) -> Form:
    """Hodge star: the I coefficient lands on I' with sign epsilon^{I I'}."""
    out = {}
    for lab, c in F.coeffs.items():
        comp, sign = _star_label(lab, F.N)
        out[comp] = c.scale(sign) if sign != 1 else c
    return Form(F.n, F.N, F.N - F.q, out, F.backend, F.P)


def wedge(F: Form, G: Form) -> Form:
    """Exterior product; zero form when the degrees overflow N."""
    if (F.n, F.N) != (G.n, G.N):
        raise ValueError("wedge needs matching (n, N)")
    if F.coeffs and G.coeffs and F.backend != G.backend:
        raise ValueError("backend mismatch")
    qr = F.q + G.q
    if qr > F.N:
        # identically zero; represented as the empty top-degree form
        return Form(F.n, F.N, F.N, {}, F.backend, F.P)
    out = {}
    for labA, cA in F.coeffs.items():
        setA = set(labA)
        for labB, cB in G.coeffs.items():
            if setA & set(labB):
                continue
            target = tuple(sorted(labA + labB))
            sign = perm_sign_between(labA + labB, target)
            term = (cA * cB).scale(sign) if sign != 1 else cA * cB
            out[target] = out[target] + term if target in out else term
    return Form(F.n, F.N, qr, out, F.backend, F.P)


def inner_product(F: Form, G: Form):
    """Label-wise pairing sum_I integral(F_I * G_I), each label pairing its
    terms (TrigPoly.mean_product, exact) or its samples, without building
    the product."""
    F._check_shape(G)
    exact = F.backend == "trig"
    total = Fraction(0) if exact else 0.0
    for lab in set(F.coeffs) & set(G.coeffs):
        f, g = F.coeffs[lab], G.coeffs[lab]
        total += (f.mean_product(g) if exact
                  else float(np.mean(f.samples * g.samples)))
    return total


def inner_product_wedge(F: Form, G: Form):
    """Same pairing computed through the star and wedge route.

    Builds F wedge (star G), extracts the top coefficient with a second
    star, restricts to the source space, and integrates there.  Agrees
    exactly with inner_product on the exact backend.
    """
    F._check_shape(G)
    top = wedge(F, hodge_star(G))
    scalar = hodge_star(top)  # 0-form carrying the density
    return scalar.coeff(()).mean()


# ---- norms -------------------------------------------------------------------


def _auto_P(F: Form) -> int:
    """Oversampled resolution for quadrature of |.|^p: the least power of
    two >= max(32, 4 (B + 1)) for the bandwidth B."""
    B = max((c.max_freq() for c in F.coeffs.values()), default=1)
    return max(32, 1 << (4 * B + 3).bit_length())


def _samples(F: Form, P=None) -> list:
    """Sample arrays of the coefficients, in label order; an exact form is
    sampled at P, by default on the grid its bandwidth picks."""
    if F.backend == "trig":
        F = sample_form(F, P or _auto_P(F))
    return [F.coeffs[lab].samples for lab in sorted(F.coeffs)]


def _l2_lp(comps, p) -> float:
    """Lp norm of the pointwise little-l2 magnitude of the component
    arrays, their squares summed in order."""
    if not comps:
        return 0.0
    mag2 = comps[0] * comps[0]
    for comp in comps[1:]:
        mag2 += comp * comp
    return float(np.mean(mag2 ** (p / 2.0)) ** (1.0 / p))


def _l2_half_spectra(rows, n, P) -> float:
    """L2 norm of the pointwise little-l2 magnitude of a P^n grid form
    given as (label, rfftn half spectrum) rows in sorted label order, by
    Parseval: mean(f^2) = P^(-2n) sum w |S|^2, w being 1 on the last
    axis's columns 0 and P/2 and 2 on every other column.  Rows are summed
    as they come, from elementwise squares and np.sum only (no BLAS), so
    the bits do not depend on numpy's SIMD dispatch."""
    total = 0.0
    for _, sp in rows:
        sq = sp.real * sp.real + sp.imag * sp.imag
        total += (2.0 * np.sum(sq[..., 1:-1]) + np.sum(sq[..., 0])
                  + np.sum(sq[..., -1]))
    return math.sqrt(total) / P ** n


def lp_norm(F: Form, p) -> float:
    """Lp norm of the pointwise little-l2 magnitude of the component vector.

    An exact form is sampled on the grid its bandwidth picks (_auto_P;
    for another, pass sample_form(F, P)): p = 2 is integrated exactly
    there, other p are quadratures.  The L2 norm of a grid form is read
    off its half spectra by Parseval, with no inverse transform; other
    grid norms sum samples.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 2 and F.backend == "grid":
        return _l2_half_spectra(((lab, c.spectrum()) for lab, c
                                 in sorted(F.coeffs.items())), F.n, F.P)
    return _l2_lp(_samples(F), p)


def sobolev_norm(F: Form, a, p) -> float:
    """W^{a,p} norm: p-sum of per-component Lp norms of all partials of
    order up to a in the source variables."""
    if a < 0:
        raise ValueError("order must be non-negative")
    return _sobolev_norm(F, a, p, _samples(F))


def _sobolev_norm(F: Form, a, p, order0) -> float:
    """sobolev_norm with F's own samples, order0, read already."""
    total = 0.0
    for s in range(a + 1):
        for beta in multiindices(F.n, s):
            for comp in _samples(partial(F, beta)) if s else order0:
                total += float(np.mean(np.abs(comp) ** p))
    return total ** (1.0 / p)


def grad_lp_norm(F: Form, p) -> float:
    """Lp norm of the full first derivative array, aggregated pointwise in
    little-l2 over both the component and the differentiation axis."""
    P = _auto_P(F) if F.backend == "trig" else None  # every partial on F's grid
    comps = []
    for axis in range(F.n):
        e = tuple(1 if t == axis else 0 for t in range(F.n))
        comps += _samples(partial(F, e), P)
    return _l2_lp(comps, p)


# ---- change of variables ------------------------------------------------------


def _is_signed_permutation(A) -> bool:
    arr = np.asarray(A, dtype=float)
    if not np.all(np.isin(arr, (-1.0, 0.0, 1.0))):
        return False
    return (np.all(np.sum(np.abs(arr), axis=0) == 1)
            and np.all(np.sum(np.abs(arr), axis=1) == 1))


def _pullback_trig_coeff(c: TrigPoly, A_int) -> TrigPoly:
    """Exact composition x -> A x for a signed permutation matrix."""
    n = c.n
    terms = {}
    for (freq, phase), coeff in c.terms.items():
        # cos(w . Ax) = cos((A^T w) . x)
        new = [0] * n
        for i in range(n):
            for j in range(n):
                new[j] += A_int[i][j] * freq[i]
        key = (tuple(new), phase)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return TrigPoly(n, terms)


def pullback_linear(F: Form, A, center=None) -> Form:
    """Pullback of an ordinary form (N == n) by x -> A(x - c) + c.

    Coefficients are composed with the map and the label components mix
    through minors of A.  On the grid backend the composed coefficients
    are evaluated by direct Fourier summation of the band-limited
    interpolant at the mapped nodes, through one phase table per call
    that every label reads (_grid_phases); on the exact backend A must be
    a signed permutation so frequencies stay integral.
    """
    return _pullback(F, *_pullback_plan(F, A, center))


def _pullback_plan(F: Form, A, center):
    """Check that F can be pulled back by x -> A(x - c) + c; returns A as a
    float array and, for a grid form, the phase table of the mapped nodes
    (None for an exact form).  Every form of F's kind (n, N == n,
    backend, P) can then be pulled back through _pullback with them."""
    if F.N != F.n:
        raise ValueError("pullback is defined for forms with N == n")
    n = F.n
    A = np.asarray(A, dtype=float)
    if A.shape != (n, n):
        raise ValueError("matrix shape mismatch")
    if center is None:
        center = np.zeros(n)
    center = np.asarray(center, dtype=float)
    if F.backend == "grid":
        return A, _grid_phases(n, F.P, A, center)
    if not _is_signed_permutation(A):
        raise ValueError(
            "exact pullback needs a signed permutation matrix; "
            "sample to a grid for general rotations"
        )
    if np.any(center):
        # recentring shifts phases, which leaves the rational setting
        raise ValueError("exact pullback supports center=0 only")
    return A, None


def _grid_phases(n: int, P: int, A, center) -> list:
    """Per axis, the (P^n, P) table exp(i y_axis k) at the mapped grid
    nodes y = A(x - c) + c, over k in fftfreq order.

    The columns k = 0..P/2-1 and the Nyquist column -P/2 are computed;
    each column -k is the conjugate of column k."""
    pts = grid_points(n, P).reshape(-1, n)
    mapped = (pts - center) @ A.T + center
    ks = np.fft.fftfreq(P, d=1.0 / P)
    h = P // 2
    phases = []
    for axis in range(n):
        table = np.empty((len(mapped), P), dtype=complex)
        table[:, :h + 1] = np.exp(1j * np.outer(mapped[:, axis], ks[:h + 1]))
        table[:, h + 1:] = np.conj(table[:, h - 1:0:-1])
        phases.append(table)
    return phases


def _pullback(F: Form, A, phases) -> Form:
    """pullback_linear for A and phases from _pullback_plan."""
    n = F.n
    if F.backend == "trig":
        A_int = [[int(round(A[i, j])) for j in range(n)] for i in range(n)]
        composed = {lab: _pullback_trig_coeff(c, A_int)
                    for lab, c in F.coeffs.items()}
    else:
        P = F.P
        composed = {
            lab: GridField(n, P, _fourier_eval(c, phases).reshape((P,) * n))
            for lab, c in F.coeffs.items()}
    out = {}
    for labJ in labels(n, F.q):
        cols = [j - 1 for j in labJ]
        acc = None
        for labI, c in composed.items():
            rows = [i - 1 for i in labI]
            # a signed permutation's minors are 0 or +-1, which LU gets exactly
            det = float(np.linalg.det(A[np.ix_(rows, cols)])) if rows else 1.0
            if abs(det) < 1e-15:
                continue
            term = c.scale(det)
            acc = term if acc is None else acc + term
        if acc is not None:
            out[labJ] = acc
    return Form(n, n, F.q, out, F.backend, F.P)


def _fourier_eval(field: GridField, phases) -> np.ndarray:
    """Evaluate the trigonometric interpolant of a grid field at M points
    by separable mode summation; phases[axis] is the (M, P) table
    exp(i x_axis k) over k in fftfreq order.

    The sum runs over the full spectrum, in fftn's layout, built from the
    held half spectrum: columns -P/2+1..-1 of the last axis are conjugates
    of columns P/2-1..1, each other axis indexed as -k mod P.  Off the grid
    the interpolant depends on where the Nyquist mode sits; its column
    stays at -P/2, where fftn puts it."""
    n, P = field.n, field.P
    h = P // 2
    half = field.spectrum() / (P ** n)
    spec = np.empty((P,) * n, dtype=complex)
    spec[..., :h + 1] = half
    flipped = -np.arange(P) % P
    spec[..., h + 1:] = np.conj(
        half[np.ix_(*[flipped] * (n - 1), np.arange(h - 1, 0, -1))])
    letters = "abcdefg"[:n]
    expr = ",".join(f"p{letters[axis]}" for axis in range(n))
    expr += f",{letters}->p"
    vals = np.einsum(expr, *phases, spec, optimize=True)
    return vals.real


def sample_form(F: Form, P: int) -> Form:
    """An exact form on the P grid, holding TrigPoly.half_spectrum(P)."""
    if F.backend != "trig":
        raise ValueError("sample_form expects a TrigPoly-backed form")
    out = {lab: GridField.from_spectrum(F.n, P, c.half_spectrum(P))
           for lab, c in F.coeffs.items()}
    return Form(F.n, F.N, F.q, out, "grid", P)


def form_max_abs(F: Form) -> float:
    """Largest absolute coefficient value: exact term magnitude sum bound on
    TrigPoly (0 iff the form is exactly 0), max sample magnitude on grids."""
    if F.backend == "trig":
        return float(max((sum(abs(c) for c in poly.terms.values())
                          for poly in F.coeffs.values()), default=0))
    return max((c.max_abs() for c in F.coeffs.values()), default=0.0)
