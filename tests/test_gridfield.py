"""Float grid backend: spectral derivatives and their conventions."""

import numpy as np
import pytest

from divcurl.gridfield import GridField, _deriv_multiplier, grid_points, int_freqs


def wave_field(n, P, freq, phase=0.0):
    xs = grid_points(n, P)
    arg = sum(f * xs[..., j] for j, f in enumerate(freq)) + phase
    return GridField(n, P, np.cos(arg))


def test_power_of_two_enforced():
    with pytest.raises(ValueError):
        GridField(2, 24, np.zeros((24, 24)))
    GridField(2, 16, np.zeros((16, 16)))


def test_spectral_derivative_on_waves():
    P = 32
    f = wave_field(2, P, (3, 2))
    xs = grid_points(2, P)
    expected = -3 * np.sin(3 * xs[..., 0] + 2 * xs[..., 1])
    assert np.max(np.abs(f.diff(0).samples - expected)) < 1e-12
    # mixed fourth derivative
    g = f.diff_alpha((2, 2))
    expected4 = 9 * 4 * np.cos(3 * xs[..., 0] + 2 * xs[..., 1])
    assert np.max(np.abs(g.samples - expected4)) < 1e-10


def test_nyquist_convention_odd_orders_vanish():
    """The real signal cos(P/2 x) carries an ambiguous Nyquist mode; odd
    derivative orders drop it (the symmetric interpolant has slope zero
    at the nodes), even orders keep the full multiplier."""
    P = 16
    f = wave_field(1, P, (P // 2,))
    assert np.max(np.abs(f.diff(0).samples)) < 1e-12
    xs = grid_points(1, P)
    d2 = -(P // 2) ** 2 * np.cos((P // 2) * xs[..., 0])
    assert np.max(np.abs(f.diff_alpha((2,)).samples - d2)) < 1e-9


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("last", [False, True])
def test_nyquist_convention_on_every_axis(n, last):
    """The same rule on the last axis, which the half spectrum stores for
    frequencies 0..P/2 only, and on an axis it stores whole: odd orders
    along x_j drop cos(P/2 x_j + x_m), even orders keep (i P/2)^order.
    The wave also runs along another axis m: on a non-last axis an odd
    Nyquist multiplier left unzeroed would not cancel in the inverse real
    transform.  On the last axis that transform drops it anyway, so the
    multiplier itself is checked too (scalar_symbol_array reads it)."""
    P = 16
    j, m = (n - 1, 0) if last else (0, n - 1)
    f = wave_field(n, P, tuple(P // 2 if t == j else int(t == m)
                               for t in range(n)))
    for order in (1, 2, 3, 4):
        alpha = tuple(order if t == j else 0 for t in range(n))
        want = 0.0 if order % 2 else (-1) ** (order // 2) * (P // 2) ** order
        tol = 1e-12 * (P // 2) ** order
        got = f.diff_alpha(alpha)
        assert np.max(np.abs(got.samples - want * f.samples)) < tol
        nyquist = np.take(_deriv_multiplier(n, P, alpha), P // 2, axis=j)
        assert np.max(np.abs(nyquist - want)) < tol


def test_diff_alpha_embedded_guard():
    f = wave_field(2, 16, (1, 1))
    assert np.allclose(f.diff_alpha((1, 0, 0)).samples, f.diff(0).samples)
    with pytest.raises(ValueError):
        f.diff_alpha((0, 0, 1))


def test_mean_and_arithmetic():
    P = 16
    f = wave_field(2, P, (1, 0))
    g = GridField.const(2, P, 2.5)
    assert abs((f * f).mean() - 0.5) < 1e-14
    assert abs(g.mean() - 2.5) < 1e-15
    assert np.allclose((f + g - f).samples, g.samples)
    assert np.max(np.abs((f * 0.0).samples)) == 0.0
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(TypeError):
            op(f, 1.0)


def test_half_spectrum_fields():
    """Operator outputs carry the rfftn half spectrum and read samples
    lazily; sample-built inputs keep no forward transform."""
    rng = np.random.default_rng(2)
    f = GridField(2, 16, rng.normal(size=(16, 16)))
    sp = f.spectrum()
    assert sp.shape == (16, 9) and f._spectrum is None
    g = GridField.from_spectrum(2, 16, sp)
    assert g._samples is None
    assert np.max(np.abs(g.samples - f.samples)) < 1e-14
    assert g.samples is g.samples
    d, e = f.diff(0), f.diff(1)
    for out, want in [(d + e, lambda: d.samples + e.samples),
                      (d - e, lambda: d.samples - e.samples),
                      (-d, lambda: -d.samples),
                      (d.scale(2.5), lambda: 2.5 * d.samples)]:
        assert out._samples is None  # computed on the spectra
        assert np.max(np.abs(out.samples - want())) < 1e-12
    assert np.max(np.abs((d - f).samples - (d.samples - f.samples))) < 1e-13
    with pytest.raises(ValueError):
        GridField.from_spectrum(2, 16, np.zeros((16, 16), dtype=complex))


def test_serialization_roundtrip_bitwise():
    rng = np.random.default_rng(1)
    f = GridField(2, 16, rng.normal(size=(16, 16)))
    g = GridField.from_obj(f.to_obj())
    assert g.n == f.n and g.P == f.P
    assert np.array_equal(g.samples, f.samples)


def test_int_freqs_layout():
    assert list(int_freqs(8)) == [0, 1, 2, 3, -4, -3, -2, -1]
