"""The grid fast paths give the bits of the plain routes they replace.

hodge_solve and box_apply read their inputs' held half spectra and make
no FFT call; invariance_defect builds one phase table for both of its
pullbacks, half of it by conjugation (forms._grid_phases), and a grid
pullback fills the full spectrum from the half spectrum by conjugate
symmetry (forms._fourier_eval).  Each is compared with a reference
built the plain way: _apply on the inputs, the direct np.exp phase
table and the fftn of the samples.  hodge_solve's closedness norms and
residuals are Parseval sums over half spectra; the reference writes that
sum out in numpy and checks it against the sample-domain norms it
replaced.  Form subtraction works label by label and negates nothing;
GridField a - b gives the bits of a + (-b).  What a grid form gives does
not depend on whether its samples were read before.

Every apply, exact or grid, runs through one kernel, operators._rows,
which groups the table's live entries by output label on each call and
yields the output one label at a time in sorted label order; each row is
checked against the plain loop over the table in order (bitwise on the
grid, term by term on exact forms), and a table corrupted after earlier
applies reaches the rows.  hodge_solve, the grid T* and box_apply hold
no whole intermediate form: their traced memory peaks are bounded in
label sizes.
"""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from divcurl.forms import (
    Form,
    _fourier_eval,
    _grid_phases,
    _l2_lp,
    _pullback,
    lp_norm,
    partial,
    pullback_linear,
    sample_form,
)
from divcurl.gridfield import GridField, _deriv_multiplier, grid_points
from divcurl.inequalities import hodge_solve, scalar_symbol_array
from divcurl.multiindex import labels
from divcurl import operators as ops
from divcurl.operators import (
    _apply,
    apply_T,
    apply_T_star,
    apply_T_star_coordinate,
    box_apply,
    box_coeff_tensor,
    invariance_defect,
    spec_for,
)
from divcurl.randoms import random_trig_form, random_trigpoly

SPEC = spec_for(2, 2, 1, "diagonal")     # N = 3


def _bytes(F: Form) -> dict:
    return {lab: c.samples.tobytes() for lab, c in F.coeffs.items()}


def _sampled(F: Form, P) -> Form:
    """The exact form F on the P grid, each coefficient built from its
    samples, one rfftn per label (sample_form places the spectra)."""
    return Form(F.n, F.N, F.q, {lab: GridField(F.n, P, poly.sample(P))
                                for lab, poly in F.coeffs.items()}, "grid", P)


def _data(seed, q, P, with_F, with_G):
    """Sampled closed F = T phi of degree q + 1 and coclosed G = T* psi of
    degree q - 1; both built from samples."""
    rng = random.Random(seed)
    n, N = SPEC.n, SPEC.N
    F = G = None
    if with_F:
        F = _sampled(apply_T(SPEC, random_trig_form(rng, n, N, q)), P)
    if with_G:
        G = _sampled(apply_T_star(SPEC, random_trig_form(rng, n, N, q)), P)
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
    """hodge_solve with every apply run on the data and its norms summed
    over half spectra in numpy; also the norms the same
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
            - (X.coeffs[lab].spectrum() if lab in X.coeffs else 0.0)
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
    H = _sampled(random_trig_form(random.Random(q + P), SPEC.n, SPEC.N, q), P)
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


def _fftn_eval(field, phases):
    """The interpolant of field at the points of phases, summed over the
    fftn of its samples."""
    n, P = field.n, field.P
    spec = np.fft.fftn(field.samples) / P ** n
    letters = "abc"[:n]
    expr = ",".join(f"p{letter}" for letter in letters) + f",{letters}->p"
    return np.einsum(expr, *phases, spec).real


def _nyquist_fields(n, P):
    """Random samples, and on each axis j the wave cos(P/2 x_j + x_m), m the
    next axis (none when n = 1): a field held wholly at the Nyquist
    frequency of axis j."""
    xs = grid_points(n, P)
    rng = np.random.default_rng(100 * n + P)
    yield GridField(n, P, rng.normal(size=(P,) * n))
    for j in range(n):
        other = xs[..., (j + 1) % n] if n > 1 else 0.0
        yield GridField(n, P, np.cos(P // 2 * xs[..., j] + other))


@pytest.mark.parametrize("P", [2, 4, 8, 16, 32])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_fourier_eval_equals_the_fftn_evaluation(n, P):
    """The full spectrum filled from the held half spectrum gives the
    fftn route's values off the grid to 1e-14 relative, Nyquist mode
    included."""
    rng = np.random.default_rng(P + n)
    points = rng.uniform(0.0, 2 * np.pi, size=(9, n))
    ks = np.fft.fftfreq(P, d=1.0 / P)
    phases = [np.exp(1j * np.outer(points[:, axis], ks)) for axis in range(n)]
    for field in _nyquist_fields(n, P):
        ref = _fftn_eval(field, phases)
        got = _fourier_eval(field, phases)
        assert got.shape == ref.shape == (9,)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("n, P", [(1, 2), (1, 32), (2, 2), (2, 16), (3, 8)])
def test_fourier_eval_under_the_identity_gives_the_samples(n, P):
    """At the grid nodes the interpolant is the samples, up to the
    rounding of exp(i x k) at arguments up to pi P: 4 P ulps."""
    phases = _grid_phases(n, P, np.eye(n), np.zeros(n))
    for field in _nyquist_fields(n, P):
        got = _fourier_eval(field, phases).reshape((P,) * n)
        assert np.max(np.abs(got - field.samples)) <= \
            4 * P * np.finfo(float).eps * np.max(np.abs(field.samples))


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


def _held(*forms):
    """The bytes of every coefficient's held half spectrum."""
    return [c.spectrum().tobytes()
            for F in forms if F is not None for c in F.coeffs.values()]


@pytest.mark.parametrize("q, with_F, with_G", [(0, True, False),
                                               (1, False, True),
                                               (1, True, True),
                                               (2, True, True)])
def test_hodge_solve_transforms_each_datum_once(rfftn_calls, irfftn_calls,
                                               q, with_F, with_G):
    """Each datum label is transformed once, when the datum is built from
    samples; the solve reads the held spectra and makes no transform:
    its norms are Parseval sums over half spectra.  The data are not
    changed."""
    F, G = _data(q, q, 16, with_F, with_G)
    assert len(rfftn_calls) == sum(len(X.coeffs) for X in (F, G) if X is not None)
    del rfftn_calls[:], irfftn_calls[:]     # those of building the data
    before = _held(F, G)
    hodge_solve(SPEC, q, F=F, G=G)
    assert rfftn_calls == []
    assert irfftn_calls == []
    assert _held(F, G) == before


def _noise(rng, n, N, q, P):
    """A grid q-form built from standard normal noise on every label."""
    return Form(n, N, q, {lab: GridField(n, P, rng.normal(size=(P,) * n))
                          for lab in labels(N, q)}, "grid", P)


def _grid_forms(n, P):
    """Grid forms built from random samples (Nyquist content included)
    and the outputs computed from them: on n = 1, which has no operator
    spec, the partials d, d^2, d^3; above it T, T*, box and the hodge_solve
    potential of a k = 1 spec (odd-order multipliers, zeroed at P/2) and
    a k = 2 one."""
    rng = np.random.default_rng(10 * n + P)
    if n == 1:
        H = _noise(rng, 1, 1, 0, P)
        return [H] + [partial(H, (order,)) for order in (1, 2, 3)]
    out = []
    for spec in (spec_for(n, 1, 1), spec_for(n, 2, 1, "diagonal")):
        for q in range(spec.N + 1):
            H = _noise(rng, n, spec.N, q, P)
            out.append(H)
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
    for F in _grid_forms(n, P):
        del irfftn_calls[:]
        got = lp_norm(F, 2)
        assert irfftn_calls == []
        ref = _l2_lp([F.coeffs[lab].samples for lab in sorted(F.coeffs)], 2)
        assert abs(got - ref) <= 1e-13 * ref, (F, got, ref)


@pytest.mark.parametrize("q", range(SPEC.N + 1))
def test_box_apply_transforms_its_input_once(rfftn_calls, q):
    """H is transformed once per label, when it is built from samples;
    box_apply reads the held spectra and leaves them as they were."""
    H = _sampled(random_trig_form(random.Random(q), SPEC.n, SPEC.N, q), 16)
    assert len(rfftn_calls) == len(H.coeffs)
    del rfftn_calls[:]
    before = _held(H)
    box_apply(SPEC, H)
    assert rfftn_calls == []
    assert _held(H) == before


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


def _field(built, seed, P=16):
    """A field built from samples or from their rfftn."""
    x = np.random.default_rng(seed).normal(size=(P, P))
    if built == "samples":
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
        assert got.spectrum().tobytes() == ref.spectrum().tobytes(), (left, right)
        assert got.samples.tobytes() == ref.samples.tobytes(), (left, right)


# ---- the row kernel -----------------------------------------------------


def _plain_grid_apply(F, entries, overall):
    """The grid apply as one loop over the table in order, every output
    label accumulated at once: {OUT: half spectrum}."""
    acc = {}
    for I, alpha, OUT, sign in entries:
        c = F.coeffs.get(I)
        if c is None:
            continue
        term = c.spectrum() * _deriv_multiplier(F.n, F.P, tuple(alpha))
        factor = sign * overall
        if factor != 1:
            term *= factor
        if OUT in acc:
            acc[OUT] += term
        else:
            acc[OUT] = term
    return acc


def _plain_exact_apply(F, entries, overall):
    """The exact apply as one loop over the table in order, one diff_alpha
    and one merge per entry: {OUT: TrigPoly}."""
    acc = {}
    for I, alpha, OUT, sign in entries:
        c = F.coeffs.get(I)
        if c is None:
            continue
        term = c.diff_alpha(alpha).scale(sign * overall)
        acc[OUT] = acc[OUT] + term if OUT in acc else term
    return acc


def _kernel_tables(spec, q):
    """(name, entries, overall) of T, the coordinate T* and the Laplacian
    tensor contraction at degree q on the hybrid space."""
    sign_k = (-1) ** spec.k
    tables = [("T", ops._t_table(spec, q, spec.N), 1)]
    if q >= spec.ell:
        tables.append(("T*", ops._tstar_table(spec, q, spec.N), sign_k))
    tensor = box_coeff_tensor(spec, q, False)
    tables.append(("contract", tuple(
        (I, tuple(x + y for x, y in zip(a, b)), M, v)
        for (M, I, a, b), v in tensor.entries.items()), sign_k))
    return tables


def _spectra_bytes(F):
    return {lab: c.spectrum().tobytes() for lab, c in F.coeffs.items()}


@pytest.mark.parametrize("P", [16, 32, pytest.param(None, id="exact")])
@pytest.mark.parametrize("n, k, ell", [(2, 2, 1), (3, 2, 1)])
def test_grid_rows_equal_the_plain_table_loop_bitwise(n, k, ell, P):
    """At every degree, on a form filled on every label and on one with
    every other label dropped (so some output labels read nothing), the
    rows come out in sorted label order, one per output label the plain
    loop fills: on the grid (noise at P) each with its bytes, on exact
    forms (P None) each with its terms, values and term order."""
    spec = spec_for(n, k, ell, "diagonal")
    rng = np.random.default_rng(100 * n + (P or 0))
    exact = random.Random(n)
    for q in range(spec.N + 1):
        if P is None:
            full = Form(spec.n, spec.N, q, {
                lab: random_trigpoly(exact, spec.n) for lab in labels(spec.N, q)})
        else:
            full = _noise(rng, spec.n, spec.N, q, P)
        sparse = Form(spec.n, spec.N, q, dict(list(full.coeffs.items())[::2]),
                      full.backend, P)
        for H in (full, sparse):
            for name, entries, overall in _kernel_tables(spec, q):
                rows = list(ops._rows(H, entries, overall))
                if P is None:
                    ref = _plain_exact_apply(H, entries, overall)
                    got = {lab: list(c.terms.items()) for lab, c in rows}
                    want = {lab: list(c.terms.items()) for lab, c in ref.items()}
                else:
                    ref = _plain_grid_apply(H, entries, overall)
                    got = {lab: c.spectrum().tobytes() for lab, c in rows}
                    want = {lab: sp.tobytes() for lab, sp in ref.items()}
                assert [lab for lab, _ in rows] == sorted(ref), (q, name)
                assert got == want, (q, name)


def _flip_first(table):
    return tuple((I, a, L, -s if j == 0 else s)
                 for j, (I, a, L, s) in enumerate(table))


def test_grid_rows_see_a_table_corrupted_after_grouping(monkeypatch):
    """The grouping is made on each call: with the tables built and read
    by earlier grid applies, a one-entry sign flip in _t_table
    moves the grid T and the star-conjugate T*, and one in _tstar_table
    the coordinate T*; each gives the plain loop over the corrupted
    table."""
    spec = spec_for(3, 2, 1, "diagonal")
    H = _noise(np.random.default_rng(7), spec.n, spec.N, 2, 16)
    healthy = [_spectra_bytes(f(spec, H))
               for f in (apply_T, apply_T_star, apply_T_star_coordinate)]
    real_t, real_tstar = ops._t_table, ops._tstar_table
    monkeypatch.setattr(ops, "_t_table", lambda *key: _flip_first(real_t(*key)))
    monkeypatch.setattr(ops, "_tstar_table",
                        lambda *key: _flip_first(real_tstar(*key)))
    got = [_spectra_bytes(f(spec, H))
           for f in (apply_T, apply_T_star, apply_T_star_coordinate)]
    assert all(g != h for g, h in zip(got, healthy))
    ref = {lab: sp.tobytes() for lab, sp in _plain_grid_apply(
        H, ops._t_table(spec, 2, spec.N), 1).items()}
    assert got[0] == ref
    ref = {lab: sp.tobytes() for lab, sp in _plain_grid_apply(
        H, ops._tstar_table(spec, 2, spec.N), (-1) ** spec.k).items()}
    assert got[2] == ref


def _peak_in_labels(call, P):
    """The tracemalloc peak of call() with cold table and multiplier
    caches, in half spectra of a P^3 grid (P * P * (P/2 + 1) * 16 bytes)."""
    for cache in (ops._t_table, ops._tstar_table, _deriv_multiplier):
        cache.cache_clear()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (P * P * (P // 2 + 1) * 16)


def _closed_and_coclosed(spec, P):
    """On (3, 2, 1, diagonal): a sampled closed 3-form F = T phi and a
    coclosed 1-form G = T* psi, phi and psi random exact 2-forms."""
    rng = random.Random(0)
    F = sample_form(apply_T(spec, random_trig_form(rng, 3, 6, 2)), P)
    G = sample_form(apply_T_star(spec, random_trig_form(rng, 3, 6, 2)), P)
    return F, G


def test_hodge_solve_and_grid_T_star_hold_no_whole_intermediate_form():
    """On (3, 2, 1, diagonal) at q = 2, P = 32: hodge_solve once held
    T F, T* F, T G, their sum, Z, T Z and T* Z whole (about 71 labels at
    its peak), and the grid T* held T(star H), its star and their scaled
    copy (about 39).  Streaming the rows leaves Z or the result, the data,
    the six cold multipliers and a few rows: about 29 and 25."""
    spec = spec_for(3, 2, 1, "diagonal")
    P = 32
    F, G = _closed_and_coclosed(spec, P)
    assert _peak_in_labels(lambda: hodge_solve(spec, 2, F=F, G=G), P) <= 40
    assert _peak_in_labels(lambda: apply_T_star(spec, F), P) <= 30


def test_grid_box_apply_holds_neither_part_whole():
    """box_apply of the degree-3 F above once held T T* F and T* T F whole
    beside their sum (about 67 labels at its peak); summing the outer
    applies' rows label by label leaves the two intermediates T* F and
    T F, the result and a few rows: about 56."""
    spec = spec_for(3, 2, 1, "diagonal")
    P = 32
    F, _ = _closed_and_coclosed(spec, P)
    assert _peak_in_labels(lambda: box_apply(spec, F), P) <= 60
