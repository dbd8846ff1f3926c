"""The grid fast paths give the bits of the plain routes they replace.

hodge_solve and box_apply transform each input once per call through a
call-local view (forms._with_spectra); invariance_defect builds one
phase table for both of its pullbacks, half of it by conjugation
(forms._grid_phases).  Each is compared by tobytes() with a reference
built the plain way: _apply on the sample-only inputs, and the direct
np.exp phase table.
"""

import random

import numpy as np
import pytest

from divcurl.forms import (
    Form,
    _grid_phases,
    _pullback,
    _with_spectra,
    lp_norm,
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


def _reference_hodge_solve(spec, q, F, G):
    """hodge_solve with every apply run on the sample-only data."""
    info, rhs = {}, None
    data = [(X, name, adjoint) for X, name, adjoint
            in ((F, "F", False), (G, "G", True)) if X is not None]
    for X, name, adjoint in data:
        co = "co" if adjoint else ""
        scale = max(lp_norm(X, 2), 1e-30)
        info[f"{co}closedness_{name}"] = lp_norm(
            _apply(spec, X, adjoint=adjoint), 2) / scale
        info[f"mean_{name}"] = max(
            (abs(float(c.mean())) for c in X.coeffs.values()), default=0.0)
        piece = _apply(spec, X, adjoint=not adjoint)
        rhs = piece if rhs is None else rhs + piece
    P = data[0][0].P
    sig = scalar_symbol_array(spec, P)
    coeffs = {}
    for lab in labels(spec.N, q):
        if lab in rhs.coeffs:
            sp = rhs.coeffs[lab].spectrum()
            coeffs[lab] = GridField.from_spectrum(spec.n, P, np.divide(
                sp, sig, out=np.zeros_like(sp), where=sig > 0))
    Z = Form(spec.n, spec.N, q, coeffs, "grid", P)
    for X, _, adjoint in data:
        info["residual_Tstar" if adjoint else "residual_T"] = lp_norm(
            _apply(spec, Z, adjoint=adjoint) - X, 2)
    return Z, info


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
    Z_ref, info_ref = _reference_hodge_solve(SPEC, q, F, G)
    assert _bytes(Z) == _bytes(Z_ref)
    assert sorted(info) == sorted(info_ref)
    for key, value in info.items():
        assert np.float64(value).tobytes() == np.float64(info_ref[key]).tobytes(), key


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


@pytest.fixture
def rfftn_calls(monkeypatch):
    calls = []
    original = np.fft.rfftn

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfftn", counted)
    return calls


def _no_spectra(*forms):
    return all(c._spectrum is None
               for F in forms if F is not None for c in F.coeffs.values())


@pytest.mark.parametrize("q, with_F, with_G", [(0, True, False),
                                               (1, False, True),
                                               (1, True, True),
                                               (2, True, True)])
def test_hodge_solve_transforms_each_datum_once(rfftn_calls, q, with_F, with_G):
    F, G = _data(q, q, 16, with_F, with_G)
    hodge_solve(SPEC, q, F=F, G=G)
    expected = sum(len(X.coeffs) for X in (F, G) if X is not None)
    assert len(rfftn_calls) == expected
    assert _no_spectra(F, G)


@pytest.mark.parametrize("q", range(SPEC.N + 1))
def test_box_apply_transforms_its_input_once(rfftn_calls, q):
    H = sample_form(random_trig_form(random.Random(q), SPEC.n, SPEC.N, q), 16)
    box_apply(SPEC, H)
    assert len(rfftn_calls) == len(H.coeffs)
    assert _no_spectra(H)


def test_with_spectra_view_shares_samples_and_leaves_the_input_alone(rfftn_calls):
    F, _ = _data(3, 1, 16, True, False)
    view = _with_spectra(F)
    assert len(rfftn_calls) == len(F.coeffs)
    for lab, c in F.coeffs.items():
        v = view.coeffs[lab]
        assert v.samples is c.samples
        assert np.array_equal(v._spectrum, np.fft.rfftn(c.samples))
    assert _no_spectra(F)
    # a view already holds its spectra; an exact form has none to hold
    assert all(v2 is v for v2, v in zip(_with_spectra(view).coeffs.values(),
                                        view.coeffs.values()))
    exact = random_trig_form(random.Random(3), SPEC.n, SPEC.N, 1)
    assert _with_spectra(exact) is exact
