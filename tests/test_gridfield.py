"""Float grid backend: spectral derivatives and their conventions."""

import itertools
import random

import numpy as np
import pytest

from divcurl.forms import Form, sample_form
from divcurl.gridfield import GridField, _deriv_multiplier, grid_points, int_freqs
from divcurl.operators import apply_T, apply_T_star, box_apply, spec_for
from divcurl.randoms import random_trig_form, random_trigpoly


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
    assert np.max(np.abs(f.diff_alpha((1, 0)).samples - expected)) < 1e-12
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
    assert np.max(np.abs(f.diff_alpha((1,)).samples)) < 1e-12
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
    assert np.allclose(f.diff_alpha((1, 0, 0)).samples,
                       f.diff_alpha((1, 0)).samples)
    with pytest.raises(ValueError):
        f.diff_alpha((0, 0, 1))


def test_mean_and_arithmetic():
    P = 16
    f = wave_field(2, P, (1, 0))
    g = GridField(2, P, np.full((P, P), 2.5))
    assert abs((f * f).mean() - 0.5) < 1e-14
    assert abs(g.mean() - 2.5) < 1e-15
    assert np.allclose((f + g - f).samples, g.samples)
    assert np.max(np.abs((f * 0.0).samples)) == 0.0
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(TypeError):
            op(f, 1.0)


def test_half_spectrum_fields():
    """A field holds the rfftn half spectrum, of its samples when built
    from them, and computes samples on each read; +, -, negation and
    scale compute on the spectra."""
    rng = np.random.default_rng(2)
    x = rng.normal(size=(16, 16))
    f = GridField(2, 16, x)
    sp = f.spectrum()
    assert sp.shape == (16, 9)
    assert sp.tobytes() == np.fft.rfftn(x).tobytes()
    assert np.max(np.abs(f.samples - x)) < 1e-14
    g = GridField.from_spectrum(2, 16, sp)
    assert g.spectrum().tobytes() == sp.tobytes()
    first = g.samples
    assert first.tobytes() == g.samples.tobytes() == f.samples.tobytes()
    d, e = f.diff_alpha((1, 0)), f.diff_alpha((0, 1))
    ds, es = d.spectrum(), e.spectrum()
    for out, on_spectra, want in [
            (d + e, ds + es, lambda: d.samples + e.samples),
            (d - e, ds - es, lambda: d.samples - e.samples),
            (-d, -ds, lambda: -d.samples),
            (d.scale(2.5), ds * 2.5, lambda: 2.5 * d.samples)]:
        assert out.spectrum().tobytes() == on_spectra.tobytes()
        assert np.max(np.abs(out.samples - want())) < 1e-12
    assert np.max(np.abs((d - f).samples - (d.samples - f.samples))) < 1e-13
    with pytest.raises(ValueError):
        GridField.from_spectrum(2, 16, np.zeros((16, 16), dtype=complex))


def _held(built, x):
    if built == "samples":
        return GridField(2, 16, x)
    return GridField.from_spectrum(2, 16, np.fft.rfftn(x))


@pytest.mark.parametrize("left, right",
                         itertools.product(("samples", "spectrum"), repeat=2))
def test_a_field_holds_exactly_one_array_after_every_call(left, right):
    """However a field was built, it holds one read-only array, its half
    spectrum; no call (reading samples included) keeps anything or
    changes that array, and every result holds one half spectrum too."""
    assert GridField.__slots__ == ("n", "P", "_spectrum")
    rng = np.random.default_rng(4)
    f = _held(left, rng.normal(size=(16, 16)))
    g = _held(right, rng.normal(size=(16, 16)))
    held = (f._spectrum, g._spectrum)
    before = [a.tobytes() for a in held]
    calls = {
        "samples": lambda: f.samples,
        "spectrum": f.spectrum,
        "+": lambda: f + g,
        "-": lambda: f - g,
        "negation": lambda: -f,
        "product": lambda: f * g,
        "scale": lambda: f.scale(2.5),
        "diff_alpha": lambda: f.diff_alpha((1, 2)),
        "mean": f.mean,
        "max_abs": f.max_abs,
    }
    for name, call in calls.items():
        out = call()
        assert f._spectrum is held[0] and g._spectrum is held[1], name
        assert [a.tobytes() for a in held] == before, name
        for field in (f, g, out):
            if isinstance(field, GridField):
                assert not hasattr(field, "__dict__"), name
                assert field._spectrum.shape == (16, 9), name
                assert not field._spectrum.flags.writeable, name
    for out, op in ((f + g, np.add), (f - g, np.subtract)):
        assert out.spectrum().tobytes() == \
            op(f.spectrum(), g.spectrum()).tobytes()


@pytest.mark.parametrize("n, P", [(1, 2), (1, 16), (2, 16), (3, 8)])
def test_mean_of_a_spectrum_held_field_reads_coefficient_zero(monkeypatch, n, P):
    """The mean of a spectrum-held field is its zero coefficient over P^n,
    with no inverse transform, and matches the mean of its samples."""
    x = np.random.default_rng(n * P).normal(size=(P,) * n) + 0.3
    f = GridField.from_spectrum(n, P, np.fft.rfftn(x))
    samples = f.samples

    def forbidden(*args, **kwargs):
        raise AssertionError("mean() transformed the field")

    monkeypatch.setattr(np.fft, "irfftn", forbidden)
    assert f.mean() == float(f.spectrum()[(0,) * n].real) / P ** n
    assert abs(f.mean() - samples.mean()) <= 1e-15
    assert abs(f.mean() - x.mean()) <= 1e-15


@pytest.mark.parametrize("n, P", [(1, 2), (1, 32), (2, 16), (3, 8)])
def test_a_field_built_from_samples_makes_one_rfftn(monkeypatch, n, P):
    """GridField(n, P, x) transforms x once, when it is built; reading its
    spectrum, mean, is_zero or a derivative makes no further call."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn",
                 "irfftn"):
        def counted(*args, _name=name, _original=getattr(np.fft, name),
                    **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    f = GridField(n, P, np.random.default_rng(P).normal(size=(P,) * n))
    f.spectrum(), f.mean(), f.is_zero(), f.diff_alpha((1,) * n)
    assert calls == ["rfftn"]


def _library_fields():
    """Zero and nonzero fields as the library builds them: from samples,
    as placed half spectra, and by derivatives, arithmetic and operators."""
    P = 16
    rng = random.Random(8)
    f = GridField(2, P, np.random.default_rng(8).normal(size=(P, P)))
    wave = GridField(2, P, np.cos(grid_points(2, P)[..., 0]))
    const = GridField(2, P, np.full((P, P), 3.0))
    placed = sample_form(Form(2, 2, 0, {(): random_trigpoly(rng, 2)}),
                         P).coeffs[()]
    H = sample_form(random_trig_form(rng, 2, 3, 1), P)
    spec = spec_for(2, 2, 1, "diagonal")
    zeros = [GridField.zero(1, 2), GridField.zero(2, P),
             GridField(2, P, np.zeros((P, P))), const.diff_alpha((1, 0)),
             const.diff_alpha((0, 2)), f - f, f.scale(0), f * 0.0,
             wave.diff_alpha((0, 1))]
    nonzeros = [f, wave, const, placed, placed.diff_alpha((2, 1)),
                f + placed, -f, f * wave,
                GridField(1, 2, np.array([1e-300, 0.0]))]
    for F in (apply_T(spec, H), apply_T_star(spec, H), box_apply(spec, H)):
        nonzeros += F.coeffs.values()
    return zeros, nonzeros


def test_is_zero_agrees_with_the_samples():
    """is_zero reads the spectrum; on every field the library builds it
    says what not np.any(samples) says."""
    zeros, nonzeros = _library_fields()
    for field in zeros + nonzeros:
        assert field.is_zero() == (not np.any(field.samples))
    assert all(f.is_zero() for f in zeros)
    assert not any(f.is_zero() for f in nonzeros)


def test_int_freqs_layout():
    assert list(int_freqs(8)) == [0, 1, 2, 3, -4, -3, -2, -1]
