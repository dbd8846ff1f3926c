"""Forms over hybrid label spaces: star, wedge, pairings, norms, pullback."""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from divcurl.forms import (
    Form,
    _auto_P,
    _samples,
    form_max_abs,
    grad_lp_norm,
    hodge_star,
    inner_product,
    inner_product_wedge,
    lp_norm,
    partial,
    pullback_linear,
    sample_form,
    sobolev_norm,
    wedge,
    zero_form,
)
from divcurl.gridfield import GridField, grid_points
from divcurl.multiindex import labels
from divcurl.operators import invariance_defect, spec_for
from divcurl.randoms import random_trig_form
from divcurl.trigpoly import TrigPoly


def cosx1(n=2):
    return TrigPoly.wave(n, (1,) + (0,) * (n - 1), 0, 1)


def test_constructor_validation():
    f = cosx1()
    with pytest.raises(ValueError):
        Form(2, 3, 1, {(4,): f}, backend="trig")          # label out of range
    with pytest.raises(ValueError):
        Form(2, 3, 1, {(1, 2): f}, backend="trig")        # wrong degree
    with pytest.raises(ValueError):
        Form(2, 3, 1, {(2, 1): f}, backend="trig")        # not increasing
    with pytest.raises(ValueError):
        Form(2, 3, 1, {(1,): f}, backend="grid")          # backend mismatch
    g32 = GridField(2, 32, np.zeros((32, 32)))
    g16 = GridField(2, 16, np.zeros((16, 16)))
    with pytest.raises(ValueError):
        Form(2, 3, 1, {(1,): g32, (2,): g16}, backend="grid")  # mixed P


def test_label_errors_read_one_cached_label_set(monkeypatch):
    """Form and Form.coeff test labels against one frozenset per (N, q),
    built once, with the messages the per-call set gave."""
    from divcurl import forms

    f = cosx1()
    Form(2, 4, 2, {(1, 2): f}, backend="trig")
    # a second build of the set would call labels again
    monkeypatch.setattr(forms, "labels", None)
    for bad in [(4, 5), (2, 1), (1,)]:
        with pytest.raises(ValueError,
                           match=rf"label \({bad[0]}, ?.*\) invalid for degree 2 over N=4"):
            Form(2, 4, 2, {bad: f}, backend="trig")
    F = Form(2, 4, 2, {(1, 2): f}, backend="trig")
    assert F.coeff((3, 4)).is_zero()
    with pytest.raises(KeyError):
        F.coeff((2, 1))


def test_hodge_star_classical_three_space():
    f = cosx1()
    F1 = Form(2, 3, 1, {(1,): f}, backend="trig")
    s = hodge_star(F1)
    assert s.q == 2 and s.coeff((2, 3)) == f
    F2 = Form(2, 3, 1, {(2,): f}, backend="trig")
    assert hodge_star(F2).coeff((1, 3)) == f.scale(-1)
    F3 = Form(2, 3, 1, {(3,): f}, backend="trig")
    assert hodge_star(F3).coeff((1, 2)) == f


def test_star_involution_sign_law():
    rng = random.Random(2)
    for N in (2, 3, 4):
        for q in range(N + 1):
            F = random_trig_form(rng, 2, N, q, components=3)
            sign = (-1) ** (q * (N - q))
            assert (hodge_star(hodge_star(F)) - F.scale(sign)).is_zero()


def test_wedge_graded_anticommutativity():
    rng = random.Random(4)
    for (q1, q2) in [(1, 1), (1, 2), (2, 1), (0, 2)]:
        F = random_trig_form(rng, 2, 4, q1, components=2)
        G = random_trig_form(rng, 2, 4, q2, components=2)
        sign = (-1) ** (q1 * q2)
        assert (wedge(F, G) - wedge(G, F).scale(sign)).is_zero()


def test_wedge_explicit_sign():
    f = cosx1()
    g = TrigPoly.wave(2, (0, 1), 1, 1)
    A = Form(2, 2, 1, {(2,): f}, backend="trig")
    B = Form(2, 2, 1, {(1,): g}, backend="trig")
    w = wedge(A, B)
    assert w.coeff((1, 2)) == (f * g).scale(-1)


def test_pairing_two_routes_agree_exactly():
    """Coordinate pairing versus the wedge-with-star route."""
    rng = random.Random(8)
    for n, N in [(2, 2), (2, 3), (2, 4)] + [(3, N) for N in range(3, 11)]:
        for q in range(N + 1):
            F = random_trig_form(rng, n, N, q, components=3)
            G = F + random_trig_form(rng, n, N, q, components=2)
            a = inner_product(F, G)
            b = inner_product_wedge(F, G)
            assert a == b and isinstance(a, Fraction)
            assert inner_product(F, G) == inner_product(G, F)


def test_exact_pairing_equals_the_mean_of_the_product():
    """inner_product pairs terms on the exact backend; summing the means
    of the label-wise products is the reference."""
    rng = random.Random(81)
    for n, N in [(2, 2), (2, 4), (3, 3), (3, 6)]:
        for q in range(N + 1):
            F = random_trig_form(rng, n, N, q, components=4)
            H = random_trig_form(rng, n, N, q, components=3)
            for G in (F, H, F + H, zero_form(n, N, q)):
                want = sum((F.coeff(lab) * G.coeff(lab)).mean()
                           for lab in set(F.coeffs) | set(G.coeffs))
                got = inner_product(F, G)
                assert got == want and type(got) is Fraction


def test_exact_equality_agrees_with_a_zero_difference():
    """Form == compares the coefficient dicts on the exact backend, which
    must say what (F - G).is_zero() says."""
    rng = random.Random(82)
    for n, N in [(2, 2), (2, 3), (3, 5)]:
        for q in range(N + 1):
            F = random_trig_form(rng, n, N, q, components=3)
            H = random_trig_form(rng, n, N, q, components=2)
            bump = Form(n, N, q, {labels(N, q)[0]: TrigPoly.const(n, 1)})
            for G in (F, F + H - H, H, F + H, F + bump, F.scale(-1),
                      F.scale(2), zero_form(n, N, q)):
                assert (F == G) == (F - G).is_zero() == (G == F)
                assert (F != G) != (F == G)


def test_norm_frozen_values():
    F = Form(2, 3, 1, {(1,): cosx1()}, backend="trig")
    assert inner_product(F, F) == Fraction(1, 2)
    assert abs(lp_norm(F, 2) - 1 / math.sqrt(2)) < 1e-12
    assert abs(sobolev_norm(F, 1, 2) - 1.0) < 1e-12
    assert abs(grad_lp_norm(F, 2) - 1 / math.sqrt(2)) < 1e-12
    # |cos| has kinks, so the L1 quadrature converges like P**-2
    err_default = abs(lp_norm(F, 1) - 2 / math.pi)
    err_fine = abs(lp_norm(sample_form(F, 512), 1) - 2 / math.pi)
    assert err_default < 5e-3
    assert err_fine < 1e-4 and err_fine < err_default / 50
    assert abs(grad_lp_norm(sample_form(F, 512), 1) - 2 / math.pi) < 1e-4


def test_grad_norm_of_exact_form_samples_one_grid():
    """The partials of cos(20 x) + cos(y) have different bandwidths; all
    are sampled on the grid that F's bandwidth picks."""
    F = Form(2, 2, 0, {(): TrigPoly.wave(2, (20, 0)) + TrigPoly.wave(2, (0, 1))})
    assert abs(grad_lp_norm(F, 2) - math.sqrt(200.5)) < 1e-12


def test_norms_agree_across_backends():
    """At matched resolution both backends run the same quadrature sums:
    an exact form's norms on the grid its bandwidth picks (32 here), and
    those of the grid form sampled at that P, whose partials are
    spectral."""
    rng = random.Random(12)
    F = random_trig_form(rng, 2, 3, 1, components=3)
    P = 32
    assert _auto_P(F) == P
    Fg = sample_form(F, P)
    for p in (1, 2, 3):
        assert abs(lp_norm(F, p) - lp_norm(Fg, p)) < 1e-12
    assert abs(sobolev_norm(F, 1, 1.5) - sobolev_norm(Fg, 1, 1.5)) < 1e-11


def test_partial_and_zero_form():
    F = Form(2, 3, 1, {(1,): cosx1()}, backend="trig")
    d1 = partial(F, (1, 0))
    assert d1.coeff((1,)) == cosx1().diff(0)
    # a derivative slot beyond the base dimension annihilates hybrid forms
    assert partial(F, (0, 0, 1)).is_zero()
    z = zero_form(2, 3, 2, backend="grid", P=16)
    assert z.is_zero() and z.P == 16


def test_grid_form_carries_its_resolution():
    z = zero_form(2, 3, 1, backend="grid", P=16)
    assert z.coeffs == {} and z.P == 16
    assert z.coeff((2,)).P == 16
    assert zero_form(2, 3, 1).P is None
    field = GridField.zero(2, 32)
    assert Form(2, 3, 1, {(1,): field}, "grid").P == 32
    assert Form(2, 3, 1, {(1,): field}, "grid", 32).P == 32
    with pytest.raises(ValueError, match="disagrees"):
        Form(2, 3, 1, {(1,): field}, "grid", 16)
    with pytest.raises(ValueError, match="needs P"):
        zero_form(2, 3, 1, backend="grid")
    with pytest.raises(ValueError, match="power of two"):
        zero_form(2, 3, 1, backend="grid", P=12)
    with pytest.raises(ValueError, match="exact form"):
        zero_form(2, 3, 1, P=16)
    with pytest.raises(ValueError, match="resolution mismatch"):
        z + zero_form(2, 3, 1, backend="grid", P=32)


def test_grid_zero_results_keep_their_resolution():
    """An inert-slot partial and an overflowing wedge are empty forms; on
    the grid they keep the input's resolution, and so does the star."""
    rng = random.Random(21)
    F = sample_form(random_trig_form(rng, 2, 3, 1), 16)
    G = sample_form(random_trig_form(rng, 2, 3, 2), 16)
    D = partial(F, (0, 0, 1))
    W = wedge(G, G)  # degree 4 > N = 3
    for Z in (D, W, hodge_star(W), -D, D.scale(2), D + D, W - W):
        assert Z.backend == "grid" and Z.coeffs == {} and Z.P == 16
        assert lp_norm(Z, 2) == 0.0 and grad_lp_norm(Z, 2) == 0.0
        assert sobolev_norm(Z, 1, 2) == 0.0
    assert W.q == 3 and hodge_star(W).q == 0


def test_empty_exact_form_adds_to_a_grid_form_in_either_order():
    """An empty operand takes the other's backend and P, on the left as on
    the right, for + and for -."""
    rng = random.Random(22)
    G = sample_form(random_trig_form(rng, 2, 3, 1), 16)
    Z = zero_form(2, 3, 1)
    for S, sign in ((Z + G, 1), (G + Z, 1), (Z - G, -1), (G - Z, 1)):
        assert S.backend == "grid" and S.P == 16
        assert S.coeffs.keys() == G.coeffs.keys()
        assert form_max_abs(S - G.scale(sign)) == 0.0
    E = zero_form(2, 3, 1, backend="grid", P=16)
    for S in (Z + E, E + Z, Z - E, E - Z):
        assert S.backend == "grid" and S.P == 16 and S.coeffs == {}
    assert (Z + Z).backend == "trig" and (Z + Z).P is None


def test_pullback_signed_permutation_exact():
    # quarter turn: psi(x) = (-x2, x1); pullback of dx1 is -dx2
    A = np.array([[0.0, -1.0], [1.0, 0.0]])
    F = Form(2, 2, 1, {(1,): TrigPoly.const(2, 1)}, backend="trig")
    pb = pullback_linear(F, A)
    assert pb.coeff((2,)) == TrigPoly.const(2, -1)
    assert pb.coeff((1,)).is_zero() if pb.coeffs.get((1,)) else True
    # scalars compose: cos(x1) o psi = cos(-x2) = cos(x2)
    G = Form(2, 2, 0, {(): cosx1()}, backend="trig")
    assert pullback_linear(G, A).coeff(()) == TrigPoly.wave(2, (0, 1), 0, 1)


def test_pullback_exact_matches_grid_for_every_signed_permutation():
    """Every signed permutation with n in {2, 3} at every degree: the exact
    pullback, sampled, equals the grid pullback of the sampled form, so
    every minor size from 0 to n is exercised on both backends."""
    rng = random.Random(41)
    cases = 0
    for n in (2, 3):
        for perm in itertools.permutations(range(n)):
            for signs in itertools.product((1, -1), repeat=n):
                A = np.zeros((n, n))
                for i, (j, s) in enumerate(zip(perm, signs)):
                    A[i, j] = s
                for q in range(n + 1):
                    F = random_trig_form(rng, n, n, q)
                    exact = sample_form(pullback_linear(F, A), 8)
                    grid = pullback_linear(sample_form(F, 8), A)
                    assert form_max_abs(exact - grid) < 1e-10, (A, q)
                    cases += 1
    assert cases == 216


def test_pullback_grid_rotation_matches_analytic():
    P = 64
    theta = 0.7
    A = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    xs = grid_points(2, P)
    sig = 0.3
    gauss = np.exp(-((xs[..., 0] - np.pi) ** 2 + (xs[..., 1] - np.pi) ** 2)
                   / (2 * sig**2))
    F = Form(2, 2, 0, {(): GridField(2, P, gauss)}, backend="grid")
    center = np.array([np.pi, np.pi])
    pb = pullback_linear(F, A, center)
    pts = (xs.reshape(-1, 2) - center) @ A.T + center
    truth = np.exp(-((pts[:, 0] - np.pi) ** 2 + (pts[:, 1] - np.pi) ** 2)
                   / (2 * sig**2)).reshape(P, P)
    assert np.max(np.abs(pb.coeff(()).samples - truth)) < 1e-6


def test_pullback_exact_requires_signed_permutation():
    A = np.array([[0.6, -0.8], [0.8, 0.6]])
    F = Form(2, 2, 0, {(): cosx1()}, backend="trig")
    with pytest.raises(ValueError, match="needs a signed permutation matrix"):
        pullback_linear(F, A)


_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("call, message", [
    (lambda: invariance_defect(spec_for(2, 1, 1), [[1.0, 1.0], [0.0, 1.0]],
                               Form(2, 2, 0, {(): cosx1()})),
     "expected an orthogonal matrix"),
    (lambda: pullback_linear(Form(2, 2, 0, {(): cosx1()}), np.eye(3)),
     "matrix shape mismatch"),
    (lambda: pullback_linear(Form(2, 2, 0, {(): cosx1()}), _SWAP,
                             center=[1.0, 0.0]),
     "exact pullback supports center=0 only"),
    (lambda: pullback_linear(Form(2, 3, 1, {(1,): cosx1()}), _SWAP),
     "pullback is defined for forms with N == n"),
], ids=["orthogonal", "shape", "center", "hybrid"])
def test_pullback_and_rotation_guards(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_sampling_commutes_with_arithmetic():
    rng = random.Random(20)
    F = random_trig_form(rng, 2, 3, 1, components=2)
    G = random_trig_form(rng, 2, 3, 1, components=2)
    P = 32
    lhs = sample_form(F + G, P)
    rhs = sample_form(F, P) + sample_form(G, P)
    assert form_max_abs(lhs - rhs) < 1e-12


def test_sample_form_places_spectra_with_no_transform(monkeypatch):
    """Each coefficient of sample_form(F, P) holds TrigPoly.half_spectrum(P),
    built with no FFT call; its samples are the bytes of TrigPoly.sample,
    which the exact norms read (_samples)."""
    def forbidden(*args, **kwargs):
        raise AssertionError("sample_form called an FFT")

    rng = random.Random(21)
    for n, N, q, P in [(1, 2, 1, 8), (2, 3, 1, 16), (3, 3, 2, 8)]:
        F = random_trig_form(rng, n, N, q, components=2)
        with monkeypatch.context() as patched:
            for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn",
                         "rfftn", "irfftn"):
                patched.setattr(np.fft, name, forbidden)
            Fg = sample_form(F, P)
        assert Fg.coeffs.keys() == F.coeffs.keys()
        for lab, c in Fg.coeffs.items():
            assert c.spectrum().tobytes() == F.coeffs[lab].half_spectrum(P).tobytes()
        assert [c.samples.tobytes() for _, c in sorted(Fg.coeffs.items())] == \
            [s.tobytes() for s in _samples(F, P)]
