"""Exact trigonometric polynomial ring: algebra, calculus, sampling."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divcurl.trigpoly import COS, SIN, TrigPoly
from divcurl.randoms import random_rational, random_trigpoly


def test_wave_normalization():
    # cos is even, sin is odd: a negative leading frequency is folded back
    assert TrigPoly.wave(2, (-1, 2), COS, 1) == TrigPoly.wave(2, (1, -2), COS, 1)
    assert TrigPoly.wave(2, (-1, 2), SIN, 1) == TrigPoly.wave(2, (1, -2), SIN, -1)
    assert TrigPoly.wave(1, (0,), SIN, 5).is_zero()
    assert TrigPoly.wave(1, (0,), COS, Fraction(3, 2)).mean() == Fraction(3, 2)


def test_linear_algebra_is_exact():
    rng = random.Random(3)
    for _ in range(20):
        f = random_trigpoly(rng, 2)
        g = random_trigpoly(rng, 2)
        assert (f + g) - g == f
        assert f.scale(Fraction(3, 7)).scale(Fraction(7, 3)) == f
        assert (f - f).is_zero()


def test_product_to_sum_small_cases():
    # cos(x)cos(x) = 1/2 + cos(2x)/2
    c = TrigPoly.wave(1, (1,), COS, 1)
    prod = c * c
    assert prod.mean() == Fraction(1, 2)
    assert prod - TrigPoly.const(1, Fraction(1, 2)) == TrigPoly.wave(
        1, (2,), COS, Fraction(1, 2))
    # sin(x)cos(x) = sin(2x)/2
    s = TrigPoly.wave(1, (1,), SIN, 1)
    assert s * c == TrigPoly.wave(1, (2,), SIN, Fraction(1, 2))
    # (cos x + sin x)^2 = 1 + sin(2x): the cos(2x) sums cancel and are dropped
    assert (c + s) * (c + s) == TrigPoly.const(1, 1) + TrigPoly.wave(1, (2,), SIN, 1)
    # orthogonality of distinct waves under the mean
    for w1 in [(1, 0), (2, 1)]:
        for w2 in [(0, 1), (1, 2)]:
            f = TrigPoly.wave(2, w1, COS, 1) * TrigPoly.wave(2, w2, COS, 1)
            assert f.mean() == 0


def test_product_matches_pointwise():
    rng = random.Random(11)
    pts = np.random.default_rng(0).uniform(0, 2 * np.pi, size=(40, 2))
    for _ in range(10):
        f = random_trigpoly(rng, 2)
        g = random_trigpoly(rng, 2)
        lhs = (f * g).eval_at(pts)
        rhs = f.eval_at(pts) * g.eval_at(pts)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_derivatives_exact():
    f = TrigPoly.wave(2, (3, 1), COS, Fraction(2, 5))
    # d/dx1 cos(3x+y) = -3 sin(3x+y)
    assert f.diff(0) == TrigPoly.wave(2, (3, 1), SIN, Fraction(-6, 5))
    assert f.diff(0).diff(1) == f.diff(1).diff(0)
    # second derivative returns to cos with factor -9
    assert f.diff(0).diff(0) == f.scale(-9)
    g = TrigPoly.wave(2, (1, 2), SIN, 1)
    assert g.diff_alpha((2, 1)) == g.diff(0).diff(0).diff(1)


def test_diff_alpha_embedded_guard():
    f = TrigPoly.wave(2, (1, 1), COS, 1)
    assert f.diff_alpha((1, 0, 0)) == f.diff(0)  # zero tail is fine
    with pytest.raises(ValueError):
        f.diff_alpha((0, 0, 2))  # derivative along a label-only slot


def test_mean_and_integral_identities():
    # mean of cos^2 over the torus is 1/2, exact
    c = TrigPoly.wave(2, (1, 0), COS, 1)
    assert (c * c).mean() == Fraction(1, 2)
    s = TrigPoly.wave(2, (2, 3), SIN, Fraction(1, 3))
    assert (s * s).mean() == Fraction(1, 18)
    assert s.mean() == 0


def test_sampling_matches_pointwise_eval():
    rng = random.Random(7)
    for n, P in [(1, 8), (2, 16), (2, 32)]:
        f = random_trigpoly(rng, n, max_freq=3, terms=4)
        grid = f.sample(P)
        axes = np.arange(P) * 2 * np.pi / P
        mesh = np.stack(np.meshgrid(*([axes] * n), indexing="ij"), axis=-1)
        direct = f.eval_at(mesh.reshape(-1, n)).reshape((P,) * n)
        assert np.max(np.abs(grid - direct)) < 1e-12


def test_sampling_aliases_high_modes():
    """Sampling is evaluation: cos(17 x) and cos(x) agree on a 16-grid."""
    hi = TrigPoly.wave(1, (17,), COS, 1)
    lo = TrigPoly.wave(1, (1,), COS, 1)
    assert np.max(np.abs(hi.sample(16) - lo.sample(16))) < 1e-12


# ---- hot-path equivalence: one-pass diff_alpha, trusted constructor -------

FIXED = settings(derandomize=True, database=None, deadline=None,
                 max_examples=150)
coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@st.composite
def trigpolys(draw, n):
    waves = draw(st.lists(st.tuples(st.tuples(*[st.integers(-3, 3)] * n),
                                    st.sampled_from((COS, SIN)),
                                    coefficients),
                          max_size=5))
    return TrigPoly(n, {(freq, phase): c for freq, phase, c in waves})


@st.composite
def placed_cases(draw):
    """(poly, P) with n <= 3 and P = 2..32: frequencies up to 2P on every
    axis, so terms alias (|f| >= P/2) and fold onto each other, and one
    term on the last axis's Nyquist column."""
    n = draw(st.integers(1, 3))
    P = draw(st.sampled_from((2, 4, 8, 16, 32)))
    freqs = st.integers(-2 * P, 2 * P)
    waves = draw(st.lists(st.tuples(st.tuples(*[freqs] * n),
                                    st.sampled_from((COS, SIN)), coefficients),
                          max_size=5))
    nyquist = draw(st.tuples(*[freqs] * (n - 1))) + (
        draw(st.sampled_from((P // 2, -P // 2, 3 * P // 2))),)
    waves.append((nyquist, draw(st.sampled_from((COS, SIN))), draw(coefficients)))
    return TrigPoly(n, {(freq, phase): c for freq, phase, c in waves}), P


@settings(FIXED, max_examples=300)
@given(placed_cases())
def test_half_spectrum_is_the_rfftn_of_the_samples(case):
    """The placed half spectrum is a real field's rfftn layout: the rfftn
    of its irfftn (sample) gives it back to a few ulps, and it is the
    rfftn of the pointwise values at the nodes, aliasing included."""
    poly, P = case
    n = poly.n
    placed = poly.half_spectrum(P)
    assert placed.shape == (P,) * (n - 1) + (P // 2 + 1,)
    scale = np.max(np.abs(placed), initial=0.0)
    assert np.max(np.abs(np.fft.rfftn(poly.sample(P)) - placed)) \
        <= 4 * np.finfo(float).eps * scale
    axes = np.arange(P) * 2 * np.pi / P
    mesh = np.stack(np.meshgrid(*([axes] * n), indexing="ij"), axis=-1)
    direct = poly.eval_at(mesh.reshape(-1, n)).reshape((P,) * n)
    total = sum(abs(float(c)) for c in poly.terms.values())
    assert np.max(np.abs(np.fft.rfftn(direct) - placed)) \
        <= 1e-13 * P ** n * total


@st.composite
def poly_pairs(draw):
    n = draw(st.integers(1, 4))
    return draw(trigpolys(n)), draw(trigpolys(n))


@st.composite
def multiindices_up_to(draw, n, order):
    alpha = []
    for _ in range(n):
        alpha.append(draw(st.integers(0, order - sum(alpha))))
    return tuple(alpha)


@st.composite
def poly_and_alpha(draw):
    n = draw(st.integers(1, 4))
    return draw(trigpolys(n)), draw(multiindices_up_to(n, 8))


def assert_canonical(p):
    """The invariant the public constructor establishes, and the terms
    it would rebuild from p's own terms, in the same order."""
    for (freq, phase), c in p.terms.items():
        assert len(freq) == p.n
        assert type(c) is Fraction and c != 0
        lead = next((f for f in freq if f), 0)
        assert lead > 0 or phase == COS
    rebuilt = TrigPoly(p.n, p.terms)
    assert list(rebuilt.terms.items()) == list(p.terms.items())


def iterated_diff(p, alpha):
    for axis, order in enumerate(alpha):
        for _ in range(order):
            p = p.diff(axis)
    return p


def merge_reference(f, g, sign):
    """f + sign * g through the canonicalizing public constructor."""
    merged = dict(f.terms)
    for key, c in g.terms.items():
        merged[key] = merged.get(key, 0) + sign * c
    return TrigPoly(f.n, merged)


@FIXED
@given(poly_and_alpha(), st.integers(0, 2))
def test_diff_alpha_equals_iterated_diff(case, extra):
    f, alpha = case
    want = iterated_diff(f, alpha)
    for padded in (alpha, alpha + (0,) * extra):
        got = f.diff_alpha(padded)
        assert_canonical(got)
        assert list(got.terms.items()) == list(want.terms.items())


@FIXED
@given(poly_and_alpha(), st.integers(0, 2), st.integers(1, 3))
def test_diff_alpha_rejects_nonzero_tail(case, gap, order):
    f, alpha = case
    with pytest.raises(ValueError):
        f.diff_alpha(alpha + (0,) * gap + (order,))


@st.composite
def leibniz_cases(draw):
    n = draw(st.integers(1, 3))
    return (draw(trigpolys(n)), draw(trigpolys(n)),
            draw(multiindices_up_to(n, 3)))


@settings(FIXED, max_examples=60)
@given(leibniz_cases())
def test_leibniz_rule(case):
    """d^alpha (f g) = sum over beta <= alpha of
    C(alpha, beta) d^beta f d^(alpha - beta) g."""
    f, g, alpha = case
    rhs = TrigPoly.zero(f.n)
    for beta in itertools.product(*(range(a + 1) for a in alpha)):
        weight = math.prod(math.comb(a, b) for a, b in zip(alpha, beta))
        rest = tuple(a - b for a, b in zip(alpha, beta))
        rhs = rhs + (f.diff_alpha(beta) * g.diff_alpha(rest)).scale(weight)
    assert (f * g).diff_alpha(alpha) == rhs


@FIXED
@given(poly_pairs(), coefficients)
def test_ring_results_are_canonical(pair, factor):
    f, g = pair
    for got, want in [
        (f + g, merge_reference(f, g, 1)),
        (f - g, merge_reference(f, g, -1)),
        (-f, TrigPoly(f.n, {k: -c for k, c in f.terms.items()})),
        (f.scale(factor),
         TrigPoly(f.n, {k: c * factor for k, c in f.terms.items()})),
        (f.scale(0), TrigPoly.zero(f.n)),
        (f - f, TrigPoly.zero(f.n)),
    ]:
        assert_canonical(got)
        assert list(got.terms.items()) == list(want.terms.items())


# ---- fast paths against kept references: product, pairing, random build ----


def _canon_reference(freq, phase, coeff):
    lead = next((f for f in freq if f), 0)
    if lead == 0:
        return None if phase == SIN else (freq, COS, coeff)
    if lead < 0:
        return (tuple(-f for f in freq), phase,
                -coeff if phase == SIN else coeff)
    return freq, phase, coeff


def product_reference(f, g):
    """The product with every product-to-sum term canonicalized on its
    own, in the order the identities list them."""
    acc = {}

    def put(freq, phase, coeff):
        c = _canon_reference(freq, phase, coeff)
        if c is not None:
            acc[c[:2]] = acc.get(c[:2], Fraction(0)) + c[2]

    for (u, pu), cu in f.terms.items():
        for (v, pv), cv in g.terms.items():
            c = cu * cv / 2
            plus = tuple(a + b for a, b in zip(u, v))
            minus = tuple(a - b for a, b in zip(u, v))
            if pu == COS and pv == COS:
                put(minus, COS, c)
                put(plus, COS, c)
            elif pu == SIN and pv == SIN:
                put(minus, COS, c)
                put(plus, COS, -c)
            elif pu == SIN and pv == COS:
                put(plus, SIN, c)
                put(minus, SIN, c)
            else:
                put(plus, SIN, c)
                put(minus, SIN, -c)
    return TrigPoly(f.n, {k: c for k, c in acc.items() if c})


@FIXED
@given(poly_pairs())
def test_product_equals_reference_term_for_term(pair):
    f, g = pair
    for a, b in ((f, g), (g, f), (f, f), (f, f + g)):
        got, want = a * b, product_reference(a, b)
        assert_canonical(got)
        assert list(got.terms.items()) == list(want.terms.items())


@st.composite
def poly_triples(draw):
    n = draw(st.integers(1, 4))
    return draw(trigpolys(n)), draw(trigpolys(n)), draw(coefficients)


@FIXED
@given(poly_triples())
def test_mean_product_equals_mean_of_product(case):
    f, h, c = case
    n = f.n
    const = TrigPoly.const(n, c)
    for g in (h, f, f + h, f - h, const, f + const, f.scale(c)):
        for a, b in ((f, g), (g, f)):
            got = a.mean_product(b)
            assert type(got) is Fraction
            assert got == (a * b).mean()


def test_mean_product_pairs_only_equal_terms():
    w = (1, -2)
    c, s = TrigPoly.wave(2, w, COS, 3), TrigPoly.wave(2, w, SIN, 5)
    one = TrigPoly.const(2, Fraction(2, 3))
    assert c.mean_product(s) == s.mean_product(c) == 0       # cos vs sin
    assert c.mean_product(c) == Fraction(9, 2)               # halved
    assert s.mean_product(s) == Fraction(25, 2)
    assert one.mean_product(one) == Fraction(4, 9)           # not halved
    assert (one + c).mean_product(one + s) == Fraction(4, 9)
    assert TrigPoly.zero(2).mean_product(c) == 0
    with pytest.raises(ValueError):
        c.mean_product(TrigPoly.zero(3))


@FIXED
@given(poly_pairs())
def test_scale_by_one_and_minus_one(pair):
    f, _ = pair
    assert f.scale(1) is f
    assert f.scale(Fraction(1)) is f
    assert list(f.scale(-1).terms.items()) == list((-f).terms.items())


def random_trigpoly_reference(rng, n, max_freq=2, terms=2):
    """The wave-and-merge build: one constructor call and one merge per
    drawn term."""
    acc = TrigPoly.zero(n)
    for _ in range(terms):
        freq = tuple(rng.randint(-max_freq, max_freq) for _ in range(n))
        phase = rng.choice((COS, SIN))
        acc = acc + TrigPoly.wave(n, freq, phase, random_rational(rng))
    return acc


@pytest.mark.parametrize("n, max_freq, terms", [
    (1, 1, 6), (2, 2, 2), (3, 1, 8), (3, 2, 2), (4, 0, 3)])
def test_random_trigpoly_equals_wave_and_merge_build(n, max_freq, terms):
    for seed in range(40):
        rng, ref = random.Random(seed), random.Random(seed)
        got = random_trigpoly(rng, n, max_freq, terms)
        want = random_trigpoly_reference(ref, n, max_freq, terms)
        assert_canonical(got)
        assert list(got.terms.items()) == list(want.terms.items())
        assert rng.getstate() == ref.getstate()
