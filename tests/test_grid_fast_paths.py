"""The grid fast paths give the bits of the plain routes they replace.

hodge_solve and box_apply transform each input once per call through a
spectrum-held copy (forms._with_spectra); invariance_defect builds one
phase table for both of its pullbacks, half of it by conjugation
(forms._grid_phases).  Each is compared by tobytes() with a reference
built the plain way: _apply on the sample-only inputs, and the direct
np.exp phase table.  hodge_solve's closedness norms and residuals are
Parseval sums over half spectra; the reference writes that sum out in
numpy and checks it against the sample-domain norms it replaced.  Form
subtraction works label by label and negates nothing; GridField a - b
gives the bits of a + (-b).  What a spectrum-held form gives does not
depend on whether its samples were read before.
"""

import itertools
import math
import random

import numpy as np
import pytest

from divcurl.forms import (
    Form,
    _grid_phases,
    _l2_lp,
    _pullback,
    _with_spectra,
    lp_norm,
    partial,
    pullback_linear,
    sample_form,
)
from divcurl.gridfield import GridField, grid_points
from divcurl.inequalities import hodge_solve, scalar_symbol_array
from divcurl.multiindex import labels
from divcurl.operators import (
    _apply,
    apply_T,
    apply_T_star,
    box_apply,
    invariance_defect,
    spec_for,
)
from divcurl.randoms import random_trig_form

SPEC = spec_for(2, 2, 1, "diagonal")     # N = 3


def _bytes(F: Form) -> dict:
    return {lab: c.samples.tobytes() for lab, c in F.coeffs.items()}


def _data(seed, q, P, with_F, with_G):
    """Sampled closed F = T phi of degree q + 1 and coclosed G = T* psi of
    degree q - 1; both hold samples only."""
    rng = random.Random(seed)
    n, N = SPEC.n, SPEC.N
    F = G = None
    if with_F:
        F = sample_form(apply_T(SPEC, random_trig_form(rng, n, N, q)), P)
    if with_G:
        G = sample_form(apply_T_star(SPEC, random_trig_form(rng, n, N, q)), P)
    return F, G


def _parseval_l2(spectra, n, P):
    """L2 norm of real P^n grid fields from their rfftn half spectra, in
    order: mean(f^2) = P^(-2n) sum w |S|^2 with w = 1 on the last axis's
    columns 0 and P/2 and 2 elsewhere."""
    total = 0.0
    for sp in spectra:
        sq = sp.real * sp.real + sp.imag * sp.imag
        total += (2.0 * np.sum(sq[..., 1:-1]) + np.sum(sq[..., 0])
                  + np.sum(sq[..., -1]))
    return math.sqrt(total) / P ** n


def _reference_hodge_solve(spec, q, F, G):
    """hodge_solve with every apply run on the sample-only data and its
    norms summed over half spectra in numpy; also the norms the same
    applies give on samples (the route the Parseval sums replaced)."""
    info, on_samples, rhs = {}, {}, None
    data = [(X, name, adjoint) for X, name, adjoint
            in ((F, "F", False), (G, "G", True)) if X is not None]
    P = data[0][0].P
    for X, name, adjoint in data:
        co = "co" if adjoint else ""
        scale = max(lp_norm(X, 2), 1e-30)
        closure = _apply(spec, X, adjoint=adjoint)
        labs = sorted(closure.coeffs)
        info[f"{co}closedness_{name}"] = _parseval_l2(
            [closure.coeffs[lab].spectrum() for lab in labs], spec.n, P) / scale
        on_samples[f"{co}closedness_{name}"] = _l2_lp(
            [closure.coeffs[lab].samples for lab in labs], 2) / scale
        info[f"mean_{name}"] = max(
            (abs(float(c.mean())) for c in X.coeffs.values()), default=0.0)
        piece = _apply(spec, X, adjoint=not adjoint)
        rhs = piece if rhs is None else rhs + piece
    sig = scalar_symbol_array(spec, P)
    coeffs = {}
    for lab in labels(spec.N, q):
        if lab in rhs.coeffs:
            sp = rhs.coeffs[lab].spectrum()
            coeffs[lab] = GridField.from_spectrum(spec.n, P, np.divide(
                sp, sig, out=np.zeros_like(sp), where=sig > 0))
    Z = Form(spec.n, spec.N, q, coeffs, "grid", P)
    for X, _, adjoint in data:
        key = "residual_Tstar" if adjoint else "residual_T"
        TZ = _apply(spec, Z, adjoint=adjoint)
        info[key] = _parseval_l2([
            (TZ.coeffs[lab].spectrum() if lab in TZ.coeffs else 0.0)
            - (np.fft.rfftn(X.coeffs[lab].samples) if lab in X.coeffs else 0.0)
            for lab in sorted(TZ.coeffs.keys() | X.coeffs.keys())], spec.n, P)
        on_samples[key] = lp_norm(TZ - X, 2)
    return Z, info, on_samples


@pytest.mark.parametrize("P", [16, 32])
@pytest.mark.parametrize("q, with_F, with_G", [
    (0, True, False),       # (F)
    (1, False, True),       # (G)
    (1, True, True),        # (F, G)
    (2, True, True),
])
def test_hodge_solve_matches_plain_applies_bitwise(P, q, with_F, with_G):
    F, G = _data(10 * q + P, q, P, with_F, with_G)
    Z, info = hodge_solve(SPEC, q, F=F, G=G)
    Z_ref, info_ref, on_samples = _reference_hodge_solve(SPEC, q, F, G)
    assert _bytes(Z) == _bytes(Z_ref)
    assert sorted(info) == sorted(info_ref)
    for key, value in info.items():
        assert np.float64(value).tobytes() == np.float64(info_ref[key]).tobytes(), key
    # Parseval moves only rounding: each norm is the sample-domain one to
    # 1e-13 of its datum's L2 norm (the closedness keys are relative to it)
    for X, closedness, residual in ((F, "closedness_F", "residual_T"),
                                    (G, "coclosedness_G", "residual_Tstar")):
        if X is not None:
            assert abs(info[closedness] - on_samples[closedness]) <= 1e-13
            assert abs(info[residual] - on_samples[residual]) \
                <= 1e-13 * lp_norm(X, 2)


@pytest.mark.parametrize("P", [16, 32])
@pytest.mark.parametrize("q", range(SPEC.N + 1))
def test_box_apply_matches_plain_applies_bitwise(P, q):
    H = sample_form(random_trig_form(random.Random(q + P), SPEC.n, SPEC.N, q), P)
    parts = []
    if q >= SPEC.ell:
        parts.append(_apply(SPEC, _apply(SPEC, H, adjoint=True), adjoint=False))
    if q + SPEC.ell <= SPEC.N:
        parts.append(_apply(SPEC, _apply(SPEC, H, adjoint=False), adjoint=True))
    ref = sum(parts[1:], parts[0])
    got = box_apply(SPEC, H)
    assert (got.q, got.P) == (ref.q, ref.P)
    assert _bytes(got) == _bytes(ref)


def _direct_phases(n, P, A, center):
    pts = grid_points(n, P).reshape(-1, n)
    mapped = (pts - center) @ A.T + center
    ks = np.fft.fftfreq(P, d=1.0 / P)
    return [np.exp(1j * np.outer(mapped[:, axis], ks)) for axis in range(n)]


def _rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


@pytest.mark.parametrize("n, P", [(2, 2), (2, 32), (2, 64), (2, 128),
                                  (3, 16), (3, 32)])
def test_grid_phases_equal_the_direct_table(n, P):
    rng = np.random.default_rng(P + n)
    A = np.linalg.qr(rng.normal(size=(n, n)))[0]
    for center in (np.zeros(n), np.full(n, np.pi)):
        got = _grid_phases(n, P, A, center)
        ref = _direct_phases(n, P, A, center)
        assert len(got) == len(ref) == n
        for g, r in zip(got, ref):
            assert g.shape == r.shape
            assert np.array_equal(g, r)


def _gaussian_form(q, P):
    spec = spec_for(2, 1, 1)
    xs = grid_points(2, P)
    coeffs = {}
    for i, lab in enumerate(labels(2, q)):
        g = np.exp(-np.sum((xs - np.pi - 0.05 * i) ** 2, axis=-1) / (2 * 0.24 ** 2))
        coeffs[lab] = GridField(2, P, (1 + i) * g)
    return spec, Form(2, 2, q, coeffs, backend="grid")


@pytest.mark.parametrize("q", [0, 1])
@pytest.mark.parametrize("theta", [0.3, 0.9, 2.2, 4.0])
def test_invariance_defect_matches_the_direct_table_bitwise(q, theta):
    P = 64
    spec, F = _gaussian_form(q, P)
    A, center = _rotation(theta), np.full(2, np.pi)
    phases = _direct_phases(2, P, A, center)
    left = _apply(spec, _pullback(F, A, phases), adjoint=False)
    right = _pullback(_apply(spec, F, adjoint=False), A, phases)
    ref = lp_norm(left - right, 2)
    got = invariance_defect(spec, A, F)
    assert np.float64(got).tobytes() == np.float64(ref).tobytes()
    assert _bytes(pullback_linear(F, A, center)) == \
        _bytes(_pullback(F, A, phases))


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(np.fft, name)

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture
def rfftn_calls(monkeypatch):
    return _count_calls(monkeypatch, "rfftn")


@pytest.fixture
def irfftn_calls(monkeypatch):
    return _count_calls(monkeypatch, "irfftn")


def _no_spectra(*forms):
    return all(c._spectrum is None
               for F in forms if F is not None for c in F.coeffs.values())


@pytest.mark.parametrize("q, with_F, with_G", [(0, True, False),
                                               (1, False, True),
                                               (1, True, True),
                                               (2, True, True)])
def test_hodge_solve_transforms_each_datum_once(rfftn_calls, irfftn_calls,
                                               q, with_F, with_G):
    """One rfftn per datum label and no inverse transform: the norms are
    Parseval sums over half spectra."""
    F, G = _data(q, q, 16, with_F, with_G)
    hodge_solve(SPEC, q, F=F, G=G)
    expected = sum(len(X.coeffs) for X in (F, G) if X is not None)
    assert len(rfftn_calls) == expected
    assert irfftn_calls == []
    assert _no_spectra(F, G)


def _noise(rng, n, N, q, P):
    """A sample-held grid q-form of standard normal noise on every label."""
    return Form(n, N, q, {lab: GridField(n, P, rng.normal(size=(P,) * n))
                          for lab in labels(N, q)}, "grid", P)


def _spectral_outputs(n, P):
    """Spectrum-only grid forms over random samples (Nyquist content
    included): on n = 1, which has no operator spec, the partials
    d, d^2, d^3; above it T, T*, box and the hodge_solve potential of a
    k = 1 spec (odd-order multipliers, zeroed at P/2) and a k = 2 one."""
    rng = np.random.default_rng(10 * n + P)
    if n == 1:
        H = _noise(rng, 1, 1, 0, P)
        return [partial(H, (order,)) for order in (1, 2, 3)]
    out = []
    for spec in (spec_for(n, 1, 1), spec_for(n, 2, 1, "diagonal")):
        for q in range(spec.N + 1):
            H = _noise(rng, n, spec.N, q, P)
            if q + spec.ell <= spec.N:
                TH = _apply(spec, H, adjoint=False)
                out += [TH, hodge_solve(spec, q, F=TH)[0]]
            if q >= spec.ell:
                out.append(_apply(spec, H, adjoint=True))
            out.append(box_apply(spec, H))
    return [F for F in out if F.coeffs]


@pytest.mark.parametrize("P", [2, 4, 16, 32])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_parseval_norm_equals_the_sample_norm(irfftn_calls, n, P):
    for F in _spectral_outputs(n, P):
        assert all(c._samples is None for c in F.coeffs.values())
        del irfftn_calls[:]
        got = lp_norm(F, 2)
        assert irfftn_calls == []
        ref = _l2_lp([F.coeffs[lab].samples for lab in sorted(F.coeffs)], 2)
        assert abs(got - ref) <= 1e-13 * ref, (F, got, ref)


@pytest.mark.parametrize("q", range(SPEC.N + 1))
def test_box_apply_transforms_its_input_once(rfftn_calls, q):
    H = sample_form(random_trig_form(random.Random(q), SPEC.n, SPEC.N, q), 16)
    box_apply(SPEC, H)
    assert len(rfftn_calls) == len(H.coeffs)
    assert _no_spectra(H)


def test_with_spectra_copies_hold_spectra_and_leave_the_input_alone(rfftn_calls):
    F, _ = _data(3, 1, 16, True, False)
    before = _bytes(F)
    copy = _with_spectra(F)
    assert len(rfftn_calls) == len(F.coeffs)
    for lab, c in F.coeffs.items():
        held = copy.coeffs[lab]
        assert held._samples is None
        assert held._spectrum.tobytes() == np.fft.rfftn(c.samples).tobytes()
    assert _no_spectra(F) and _bytes(F) == before
    # a spectrum-held form is copied with no transform, sharing its arrays;
    # an exact form has none to hold
    del rfftn_calls[:]
    again = _with_spectra(copy)
    assert rfftn_calls == []
    assert all(again.coeffs[lab]._spectrum is c._spectrum
               for lab, c in copy.coeffs.items())
    exact = random_trig_form(random.Random(3), SPEC.n, SPEC.N, 1)
    assert _with_spectra(exact) is exact


def test_spectral_form_results_do_not_depend_on_sample_reads():
    """lp_norm(F, 2), F + G, F - G and -F of spectrum-held forms (T of
    noise at every degree) give the same bytes before and after the
    samples of every field are read."""
    rng = np.random.default_rng(16)
    P = 16
    for q in range(SPEC.N - SPEC.ell + 1):
        F, G = (_apply(SPEC, _noise(rng, SPEC.n, SPEC.N, q, P), adjoint=False)
                for _ in range(2))

        def results():
            return ([np.float64(lp_norm(F, 2)).tobytes()]
                    + [_bytes(X) for X in (F + G, F - G, -F)])

        before = results()
        for c in [*F.coeffs.values(), *G.coeffs.values()]:
            c.samples
        assert results() == before, q


def _field(state, seed, P=16):
    """A field holding its samples or its spectrum."""
    x = np.random.default_rng(seed).normal(size=(P, P))
    if state == "samples":
        return GridField(2, P, x)
    return GridField.from_spectrum(2, P, np.fft.rfftn(x))


def test_hodge_solve_negates_nothing_and_minus_is_plus_negative(monkeypatch):
    """The residuals subtract per label, without a negated copy of each
    datum; a - b takes the domain of a + (-b) and gives its bits."""
    negated = []
    original = GridField.__neg__

    def counted(self):
        negated.append(self)
        return original(self)

    monkeypatch.setattr(GridField, "__neg__", counted)
    for q, with_F, with_G in [(0, True, False), (1, True, True),
                              (2, True, True)]:
        F, G = _data(q, q, 16, with_F, with_G)
        hodge_solve(SPEC, q, F=F, G=G)
    assert negated == []
    states = ("samples", "spectrum")
    for left, right in itertools.product(states, repeat=2):
        got = _field(left, 1) - _field(right, 2)
        ref = _field(left, 1) + (-_field(right, 2))
        assert (got._samples is None) == (ref._samples is None), (left, right)
        assert (got._spectrum is None) == (ref._spectrum is None), (left, right)
        if got._spectrum is not None:
            assert got._spectrum.tobytes() == ref._spectrum.tobytes()
        assert got.samples.tobytes() == ref.samples.tobytes(), (left, right)
