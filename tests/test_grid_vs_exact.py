"""Exact-vs-grid differential tests: the FFT backend against TrigPoly.

Random band-limited exact forms of bandwidth B are pushed through each
operator on both backends over random (n <= 3, k, ell, ordering).  At a
resolution P > 2B every derivative is below the Nyquist mode, so the
grid result must equal the sampled exact result up to rounding: 1e-10
relative to its largest absolute value.

The grids are matched to the data (P is the power of two with
2B < P <= 4B).  The rounding floor grows like (P / 2B)^order in the
derivative order: on a 32-grid, k = 3 data of bandwidth 1 or 2 reach
3e-9, while at matched resolution the worst seen is 1.1e-12.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcurl.forms import Form, sample_form
from divcurl.increments import admissible_increments
from divcurl.inequalities import hodge_solve
from divcurl.multiindex import labels, make_ordering, multiindices, random_ordering
from divcurl.operators import (
    OperatorSpec,
    apply_T,
    apply_T_star,
    apply_Top,
    apply_Top_star,
    box_apply,
    box_apply_top,
)
from divcurl.trigpoly import COS, SIN, TrigPoly

FIXED = settings(derandomize=True, database=None, deadline=None,
                 max_examples=25)
TOL = 1e-10
# (n, k, ell, N) with n <= 3 and N <= 6
SHAPES = [(n, k, sol.ell, sol.N) for n in (2, 3) for k in (1, 2, 3)
          for sol in admissible_increments(n, k) if sol.N <= 6]


def kinds(k, ell):
    """Ordering kinds defined at (k, ell)."""
    out = ["lexicographic", "random"]
    if ell == 1:
        out.append("diagonal")
        if k >= 2:
            out.append("chained")
    return out


@st.composite
def specs(draw, ell_one=False):
    n, k, ell, N = draw(st.sampled_from(
        [s for s in SHAPES if s[2] == 1 or not ell_one]))
    kind = draw(st.sampled_from(kinds(k, ell)))
    if kind == "random":
        ordering = random_ordering(n, k, ell, N,
                                   random.Random(draw(st.integers(0, 999))))
    else:
        ordering = make_ordering(n, k, ell, N, kind=kind)
    return OperatorSpec(n, k, ell, N, ordering)


@st.composite
def band_polys(draw, n, B):
    """A sum of up to three waves with |frequency| <= B on every axis; the
    first sits at B on some axis, so the bandwidth is exactly B."""
    axis = draw(st.integers(0, n - 1))
    first = tuple(B if j == axis else draw(st.integers(-B, B)) for j in range(n))
    freqs = [first] + draw(st.lists(st.tuples(*[st.integers(-B, B)] * n),
                                    max_size=2))
    terms = {}
    for freq in freqs:
        coeff = Fraction(draw(st.sampled_from((-3, -2, -1, 1, 2, 3))),
                         draw(st.integers(1, 4)))
        key = (freq, draw(st.sampled_from((COS, SIN))))
        terms[key] = terms.get(key, 0) + coeff
    return TrigPoly(n, terms)


@st.composite
def band_forms(draw, n, N, q, B):
    labs = labels(N, q)
    picked = draw(st.lists(st.sampled_from(labs), min_size=1,
                           max_size=min(2, len(labs)), unique=True))
    return Form(n, N, q, {lab: draw(band_polys(n, B)) for lab in picked},
                backend="trig")


@st.composite
def resolutions(draw):
    """(B, P) with P in {16, 32} and 2B < P <= 4B."""
    P = draw(st.sampled_from((16, 32)))
    return draw(st.integers(P // 4, P // 2 - 1)), P


def assert_grid_matches(got: Form, exact: Form, P):
    """Grid result against the sampled exact one, relative to its max."""
    ref = sample_form(exact, P)
    assert (got.n, got.N, got.q) == (ref.n, ref.N, ref.q)
    scale = max(c.max_abs() for c in ref.coeffs.values())
    err = max(np.max(np.abs(got.coeff(lab).samples - ref.coeff(lab).samples))
              for lab in set(got.coeffs) | set(ref.coeffs))
    assert err <= TOL * scale, (err, scale)


# name: (operator, acts on source forms, degree step in units of ell)
OPERATORS = {
    "apply_T": (apply_T, False, 1),
    "apply_T_star": (apply_T_star, False, -1),
    "box_apply": (box_apply, False, 0),
    "apply_Top": (apply_Top, True, 1),
    "apply_Top_star": (apply_Top_star, True, -1),
    "box_apply_top": (box_apply_top, True, 0),
}


@pytest.mark.parametrize("name", list(OPERATORS))
@FIXED
@given(data=st.data())
def test_grid_operator_matches_exact(name, data):
    op, source, step = OPERATORS[name]
    spec = data.draw(specs())
    if source and spec.n < spec.ell:
        return  # the source operators are trivial there
    width = spec.n if source else spec.N
    q = data.draw(st.sampled_from([q for q in range(width + 1)
                                   if 0 <= q + step * spec.ell <= width]))
    B, P = data.draw(resolutions())
    F = data.draw(band_forms(spec.n, width, q, B))
    exact = op(spec, F)
    if exact.is_zero():
        return  # no scale to compare against
    assert_grid_matches(op(spec, sample_form(F, P)), exact, P)


def symbol_inverse(spec, H: Form) -> Form:
    """Exact solution of box Z = H for ell = 1, where box acts on each wave
    of frequency w as sigma(w) = sum_alpha w^(2 alpha); H is mean free."""
    def sigma(freq):
        return sum(math.prod(w ** (2 * a) for w, a in zip(freq, alpha))
                   for alpha in multiindices(spec.n, spec.k))

    return Form(spec.n, spec.N, H.q, {
        lab: TrigPoly(spec.n, {(freq, phase): c / sigma(freq)
                               for (freq, phase), c in poly.terms.items()})
        for lab, poly in H.coeffs.items()}, backend="trig")


@FIXED
@given(data=st.data())
def test_hodge_solve_matches_exact(data):
    spec = data.draw(specs(ell_one=True))
    q = data.draw(st.integers(0, spec.N))
    B, P = data.draw(resolutions())
    # closed F = T phi of degree q + 1 and coclosed G = T* psi of degree q - 1
    F = G = None
    if q + 1 <= spec.N and (q == 0 or data.draw(st.booleans())):
        F = apply_T(spec, data.draw(band_forms(spec.n, spec.N, q, B)))
    if q >= 1 and (F is None or data.draw(st.booleans())):
        G = apply_T_star(spec, data.draw(band_forms(spec.n, spec.N, q, B)))
    pieces = ([apply_T_star(spec, F)] if F is not None else []) + \
        ([apply_T(spec, G)] if G is not None else [])
    rhs = sum(pieces[1:], pieces[0])
    if rhs.is_zero():
        return
    Z = symbol_inverse(spec, rhs)
    assert box_apply(spec, Z) == rhs
    def sampled(form):
        return None if form is None else sample_form(form, P)

    got, _ = hodge_solve(spec, q, F=sampled(F), G=sampled(G))
    assert_grid_matches(got, Z, P)
