"""Numerical probes for the duality and Gagliardo-Nirenberg style bounds.

Probes are built from separable periodized Gaussian bumps.  Dilation acts
on bump parameters (centers move toward the dilation point, widths
scale), which reproduces u(lam^{-1} x) without resampling artifacts for
bumps that stay localized inside the box.

The two probe families:

* duality_ratio: |<F, H>| / (||F||_1 ||grad H||_n), exactly invariant
  under simultaneous dilation of both arguments in the continuum;
* gn_ratio: ||u||_{W^{k-1, n/(n-1)}} / (||T u||_1 + ||T* u||_1) on source
  forms, meaningful away from the excluded degrees q in {1, n-1} (at the
  excluded degrees it is only meaningful for closed or coclosed inputs,
  which make_closed_source / make_coclosed_source construct).

hodge_solve inverts the ell = 1 Hodge Laplacian spectrally (the symbol
is scalar and positive away from the zero mode) and reports the
reconstruction residuals, which measure how far the sampled data are
from the discrete closed/coclosed subspaces.
"""

from __future__ import annotations

import heapq
import math
import random
import sys
from dataclasses import dataclass
from functools import reduce
from itertools import groupby
from operator import add, itemgetter, sub

import numpy as np

from . import __version__
from .forms import (
    Form,
    _l2_half_spectra,
    _l2_lp,
    _samples,
    _sobolev_norm,
    grad_lp_norm,
    inner_product,
    lp_norm,
)
from .gridfield import GridField, _check_P, _deriv_multiplier, int_freqs
from .multiindex import labels, multiindices
from .operators import OperatorSpec, _apply, _grid_rows, _table, spec_for

__all__ = [
    "BumpSpec",
    "bump_form",
    "random_bump_form",
    "dilate_form_specs",
    "duality_ratio",
    "duality_dilation_study",
    "gn_ratio",
    "make_closed_source",
    "make_coclosed_source",
    "classical_gn_ratio",
    "hodge_solve",
    "scalar_symbol_array",
    "run_suite",
    "default_config",
]


# ---- bump machinery ---------------------------------------------------------


def _periodized_gaussian_1d(P, center, sigma):
    x = np.arange(P) * (2 * np.pi / P)
    images = 2 * np.pi * np.arange(-2, 3).reshape(-1, 1)    # j = -2..2
    args = -((x - center - images) ** 2) / (2 * sigma**2)
    # math.exp, not np.exp: numpy's exp rounds differently under its
    # AVX-512 and AVX2 loops, libm's does not depend on the SIMD level
    waves = np.array([math.exp(a) for a in args.ravel().tolist()])
    return sum(waves.reshape(args.shape))       # image by image, in order


@dataclass(frozen=True)
class BumpSpec:
    """A separable periodized Gaussian: amplitude * prod_j g(x_j; c_j, s_j)."""

    amplitude: float
    centers: tuple
    sigmas: tuple

    def field(self, n, P) -> np.ndarray:
        if len(self.centers) != n or len(self.sigmas) != n:
            raise ValueError("bump dimension mismatch")
        out = np.array(self.amplitude, dtype=float)
        for axis in range(n):
            line = _periodized_gaussian_1d(P, self.centers[axis], self.sigmas[axis])
            shape = [1] * n
            shape[axis] = P
            out = out * line.reshape(shape)
        return out

    def dilate(self, lam):
        """Parameter-level dilation x -> pi + lam (x - pi)."""
        return BumpSpec(
            self.amplitude,
            tuple(np.pi + lam * (c - np.pi) for c in self.centers),
            tuple(lam * s for s in self.sigmas),
        )


def bump_form(n, N, q, spec_map, P) -> Form:
    """Assemble a grid form from {label: [BumpSpec, ...]}."""
    coeffs = {}
    for lab, bumps in spec_map.items():
        if bumps:
            acc = np.zeros((P,) * n)
            for b in bumps:
                acc = acc + b.field(n, P)
            coeffs[lab] = GridField(n, P, acc)
    return Form(n, N, q, coeffs, "grid", P)


def random_bump_spec(rng: random.Random, n, sigma_range=(0.25, 0.4), spread=1.2):
    return BumpSpec(
        amplitude=rng.uniform(0.3, 1.0) * rng.choice((-1, 1)),
        centers=tuple(np.pi + rng.uniform(-spread, spread) for _ in range(n)),
        sigmas=tuple(rng.uniform(*sigma_range) for _ in range(n)),
    )


def random_bump_form(rng, n, N, q, P, components=2, sigma_range=(0.25, 0.4),
                     spread=1.2):
    """A random bump form together with its parameter map (for dilation)."""
    labs = labels(N, q)
    count = min(components, len(labs))
    chosen = rng.sample(labs, count) if count < len(labs) else list(labs)
    spec_map = {
        lab: [random_bump_spec(rng, n, sigma_range, spread)] for lab in chosen
    }
    return bump_form(n, N, q, spec_map, P), spec_map


def dilate_form_specs(spec_map, lam):
    return {lab: [b.dilate(lam) for b in bumps]
            for lab, bumps in spec_map.items()}


# ---- ratio probes -----------------------------------------------------------


def duality_ratio(F: Form, H: Form) -> float:
    """|<F, H>| / (||F||_1 ||grad H||_n); dilation invariant in the
    continuum when both arguments dilate together."""
    if (F.n, F.N, F.q) != (H.n, H.N, H.q):
        raise ValueError("probe forms must share shape")
    num = abs(float(inner_product(F, H)))
    den = lp_norm(F, 1) * grad_lp_norm(H, F.n)
    if den == 0:
        raise ValueError("degenerate probe (zero denominator)")
    return num / den


def duality_dilation_study(n, N, q, F_specs, H_specs, lams, P) -> dict:
    ratios = []
    for lam in lams:
        F = bump_form(n, N, q, dilate_form_specs(F_specs, lam), P)
        H = bump_form(n, N, q, dilate_form_specs(H_specs, lam), P)
        ratios.append(duality_ratio(F, H))
    ratios = np.array(ratios)
    drift = float(ratios.max() / ratios.min() - 1) if ratios.min() > 0 else float("inf")
    return {"lams": list(map(float, lams)), "ratios": ratios.tolist(),
            "max_drift": drift}


EXCLUDED_NOTE = (
    "degree q in {1, n-1} needs a side condition: pass assume='closed' "
    "(q = n-1) or assume='coclosed' (q = 1) with an input that satisfies it, "
    "or allow_excluded=True to probe the unconstrained failure"
)


def _excluded_degree(n, q) -> bool:  # the unconstrained gn_ratio is unbounded
    return q in (1, n - 1)


def gn_ratio(spec: OperatorSpec, u: Form, assume=None,
             allow_excluded=False) -> float:
    """||u||_{W^{k-1, n/(n-1)}} / (||T u||_1 + ||T* u||_1) on source forms.

    At the excluded degrees the unconstrained quotient is unbounded;
    assume='closed' / 'coclosed' asserts (and verifies) the side
    condition that restores meaning.
    """
    if (u.n, u.N) != (spec.n, spec.n):
        raise ValueError("gn_ratio expects a source form")
    n, q = spec.n, u.q
    if _excluded_degree(n, q) and assume is None and not allow_excluded:
        raise ValueError(EXCLUDED_NOTE)
    Tu_1, Tsu_1 = (lp_norm(_apply(spec, u, adjoint=adjoint), 1)
                   for adjoint in (False, True))
    order0 = _samples(u)  # read once for ||u||_1 and the Sobolev norm
    scale = _l2_lp(order0, 1)
    if assume == "closed" and Tu_1 > 1e-8 * max(scale, 1e-30):
        raise ValueError("input is not closed: ||T u||_1 > 1e-8 ||u||_1")
    if assume == "coclosed" and Tsu_1 > 1e-8 * max(scale, 1e-30):
        raise ValueError("input is not coclosed: ||T* u||_1 > 1e-8 ||u||_1")
    num = _sobolev_norm(u, spec.k - 1, n / (n - 1), order0)
    den = Tu_1 + Tsu_1
    if den == 0:
        raise ValueError("degenerate probe (T u and T* u both vanish)")
    return num / den


def make_closed_source(spec: OperatorSpec, q, rng, P) -> Form:
    """A closed source q-form: u = T phi (closed since T T = 0 for odd ell)."""
    if spec.ell % 2 == 0:
        raise ValueError("T T = 0 needs odd ell; use a kernel projection instead")
    if q < spec.ell:
        raise ValueError("no closed range forms below degree ell")
    phi, _ = random_bump_form(rng, spec.n, spec.n, q - spec.ell, P)
    u = _apply(spec, phi, adjoint=False)
    if u.is_zero():
        raise ValueError("probe collapsed to zero; retry with another seed")
    return u


def make_coclosed_source(spec: OperatorSpec, q, rng, P) -> Form:
    """A coclosed source q-form: u = T* psi."""
    if spec.ell % 2 == 0:
        raise ValueError("T* T* = 0 needs odd ell")
    if q + spec.ell > spec.n:
        raise ValueError("no coclosed range forms above degree n - ell")
    psi, _ = random_bump_form(rng, spec.n, spec.n, q + spec.ell, P)
    u = _apply(spec, psi, adjoint=True)
    if u.is_zero():
        raise ValueError("probe collapsed to zero; retry with another seed")
    return u


def classical_gn_ratio(samples: np.ndarray) -> float:
    """Plain-numpy ||u||_{n/(n-1)} / ||grad u||_1 for a scalar grid sample,
    independent of the Form/operator classes (cross-check path)."""
    n = samples.ndim
    P = samples.shape[0]
    spec = np.fft.fftn(samples)
    ks = int_freqs(P)
    grads = []
    for axis in range(n):
        shape = [1] * n
        shape[axis] = P
        mult = (1j * ks.astype(complex)).reshape(shape)
        grads.append(np.fft.ifftn(spec * mult).real)
    gnorm = np.sqrt(sum(g * g for g in grads))
    dx = (2 * np.pi / P) ** n / (2 * np.pi) ** n
    p = n / (n - 1)
    num = (np.sum(np.abs(samples) ** p) * dx) ** (1 / p)
    den = np.sum(gnorm) * dx
    return num / den


# ---- spectral Hodge solve (ell = 1) -----------------------------------------


def scalar_symbol_array(spec: OperatorSpec, P) -> np.ndarray:
    """sigma(omega) = sum_alpha |m_alpha(omega)|^2 built from the discrete
    derivative multipliers (including their Nyquist handling), so that the
    spectral inverse is exact against the grid operators.  Away from the
    Nyquist modes this equals sum_alpha omega^{2 alpha}.

    The array has the half-spectrum layout of GridField.spectrum(): the
    last axis runs over frequencies 0..P/2, the others over int_freqs(P).
    """
    _check_spectral(spec)
    sig = 0.0
    for alpha in multiindices(spec.n, spec.k):
        sig = sig + np.abs(_deriv_multiplier(spec.n, P, tuple(alpha))) ** 2
    return sig


def _check_spectral(spec: OperatorSpec):
    if spec.ell != 1:
        raise ValueError("spectral inversion implemented for ell = 1")


def _merged(combine, streams):
    """Row streams in sorted label order merged label by label, a label's
    rows combined in stream order; about one row per stream is held."""
    rows = heapq.merge(*streams, key=itemgetter(0))
    for lab, group in groupby(rows, key=itemgetter(0)):
        yield lab, reduce(combine, (sp for _, sp in group))


def hodge_solve(spec: OperatorSpec, q, F=None, G=None, closed_tol=1e-6) -> tuple:
    """Solve box Z = T* F + T G for the degree-q potential Z (ell = 1).

    F is a closed (q+1)-form, G a coclosed (q-1)-form (either may be
    None).  Both must be mean free; the solver verifies the side
    conditions to closed_tol relative accuracy and reports reconstruction
    residuals ||T Z - F|| and ||T* Z - G||, which vanish exactly when the
    sampled data are exactly closed/coclosed on the grid and otherwise
    measure their sampling defect.

    Every step reads the data's held half spectra, so the solve makes no
    FFT call, and besides Z and the data holds a few output labels at a
    time, never a whole intermediate form: the closedness norms and the
    residuals are Parseval sums over the rows (operators._grid_rows) of
    T X and T Z - X, each mean is a coefficient 0, and each label of
    T* F + T G is divided into Z as it arrives.
    """
    _check_spectral(spec)
    # (datum, name, adjoint): F is checked and reconstructed through T and
    # enters the right-hand side through T*; G the other way round
    data = [(X, name, adjoint) for X, name, adjoint
            in ((F, "F", False), (G, "G", True)) if X is not None]
    if not data:
        raise ValueError("need at least one datum")
    if data[0][0].backend != "grid":
        raise ValueError("hodge_solve works on the grid backend")
    P = data[0][0].P
    n, N = spec.n, spec.N

    info = {}
    for X, name, adjoint in data:
        step, co = (-1, "co") if adjoint else (1, "")
        if (X.n, X.N, X.q) != (n, N, q + step):
            raise ValueError(f"{name} must be a hybrid (q{step:+d})-form")
        scale = max(lp_norm(X, 2), 1e-30)
        key = f"{co}closedness_{name}"
        info[key] = _l2_half_spectra(_grid_rows(X, *_table(spec, X, adjoint)),
                                     n, P) / scale
        if info[key] > closed_tol:
            raise ValueError(f"{name} is not {co}closed to the requested tolerance")
        info[f"mean_{name}"] = max((abs(float(c.mean())) for c in X.coeffs.values()),
                                   default=0.0)
        if info[f"mean_{name}"] > closed_tol * scale:
            raise ValueError(f"{name} must be mean free")

    # the right-hand side T* F + T G, label by label; modes where sigma
    # vanishes (the zero mode, and Nyquist modes that every multiplier
    # drops) are mapped to 0
    sig = scalar_symbol_array(spec, P)
    mask = sig > 0
    coeffs = {}
    for lab, spectrum in _merged(add, [_grid_rows(X, *_table(spec, X, not adjoint))
                                       for X, _, adjoint in data]):
        out = np.divide(spectrum, sig, out=np.zeros_like(spectrum), where=mask)
        coeffs[lab] = GridField.from_spectrum(n, P, out)
    Z = Form(n, N, q, coeffs, "grid", P)

    # T Z - X by label; a label of X alone enters as X_I: |0 - X_I| = |X_I|
    for X, _, adjoint in data:
        held = ((lab, c.spectrum()) for lab, c in sorted(X.coeffs.items()))
        info["residual_Tstar" if adjoint else "residual_T"] = _l2_half_spectra(
            _merged(sub, [_grid_rows(Z, *_table(spec, Z, adjoint)), held]), n, P)
    return Z, info


# ---- suite runner ------------------------------------------------------------


def default_config() -> dict:
    return {
        "seed": 2024,
        "probes": [
            {"kind": "duality", "n": 2, "k": 1, "q": 1, "trials": 6, "P": 64,
             "lams": [1.0, 0.8, 0.6], "sigma_range": [0.25, 0.4]},
            {"kind": "gn", "n": 2, "k": 1, "ell": 1, "q": 0, "trials": 6,
             "P": 64, "sigma_range": [0.25, 0.4]},
            {"kind": "gn_dilation", "n": 2, "k": 2, "ell": 1,
             "ordering": "diagonal", "q": 0, "P": 128,
             "lams": [1.0, 0.85, 0.7], "sigma_range": [0.15, 0.2]},
            {"kind": "classical_gn", "n": 2, "trials": 4, "P": 64},
            {"kind": "hodge", "n": 2, "k": 2, "ell": 1,
             "ordering": "diagonal", "q": 0, "P": 32},
        ],
    }


def _probe_duality(entry, spec, P, rng) -> dict:
    # duality pairs live on any label space; the source space N = n here
    n, N, q = spec.n, spec.n, entry["q"]
    ratios = []
    drifts = []
    for _ in range(entry.get("trials", 4)):
        _, F_specs = random_bump_form(rng, n, N, q, P,
                                      sigma_range=tuple(entry["sigma_range"]))
        _, H_specs = random_bump_form(rng, n, N, q, P,
                                      sigma_range=tuple(entry["sigma_range"]))
        study = duality_dilation_study(n, N, q, F_specs, H_specs,
                                       entry.get("lams", [1.0]), P)
        ratios.extend(study["ratios"])
        drifts.append(study["max_drift"])
    return {"kind": "duality", "ratios": ratios, "max_ratio": max(ratios),
            "max_drift": max(drifts)}


def _probe_gn(entry, spec, P, rng) -> dict:
    q = entry["q"]
    ratios = []
    for _ in range(entry.get("trials", 4)):
        u, _ = random_bump_form(rng, spec.n, spec.n, q, P,
                                sigma_range=tuple(entry["sigma_range"]))
        ratios.append(gn_ratio(spec, u))
    return {"kind": "gn", "q": q, "ratios": ratios, "max_ratio": max(ratios)}


def _probe_gn_dilation(entry, spec, P, rng) -> dict:
    q = entry["q"]
    _, specs = random_bump_form(rng, spec.n, spec.n, q, P,
                                sigma_range=tuple(entry["sigma_range"]),
                                spread=0.8)
    ratios = []
    for lam in entry["lams"]:
        u = bump_form(spec.n, spec.n, q, dilate_form_specs(specs, lam), P)
        ratios.append(gn_ratio(spec, u))
    arr = np.array(ratios)
    drift = float(arr.max() / arr.min() - 1)
    return {"kind": "gn_dilation", "q": q, "lams": entry["lams"],
            "ratios": ratios, "max_drift": drift}


def _probe_classical_gn(entry, spec, P, rng) -> dict:
    n = spec.n
    rows = []
    for _ in range(entry.get("trials", 4)):
        u, _ = random_bump_form(rng, n, n, 0, P, sigma_range=(0.25, 0.4))
        ours = gn_ratio(spec, u)
        theirs = classical_gn_ratio(u.coeffs[()].samples)
        rows.append({"ours": ours, "independent": theirs,
                     "rel_gap": abs(ours - theirs) / theirs})
    return {"kind": "classical_gn", "rows": rows,
            "max_rel_gap": max(r["rel_gap"] for r in rows)}


def _probe_hodge(entry, spec, P, rng) -> dict:
    q = entry["q"]
    phi, _ = random_bump_form(rng, spec.n, spec.N, q, P, components=2)
    F = _apply(spec, phi, adjoint=False)
    Z, info = hodge_solve(spec, q, F=F)
    return {"kind": "hodge", "q": q, "P": P,
            "residual_T": info["residual_T"],
            "closedness_F": info["closedness_F"]}


# probe kind -> (probe function, keys its entry must carry, default P)
_PROBES = {
    "duality": (_probe_duality, ("n", "k", "q", "sigma_range"), 64),
    "gn": (_probe_gn, ("n", "k", "ell", "q", "sigma_range"), 64),
    "gn_dilation": (_probe_gn_dilation,
                    ("n", "k", "ell", "q", "sigma_range", "lams"), 128),
    "classical_gn": (_probe_classical_gn, ("n",), 64),
    "hodge": (_probe_hodge, ("n", "k", "ell", "q"), 32),
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_numbers(value) -> bool:
    """Positive numbers that fit a float (JSON reads 1e309 as inf)."""
    return isinstance(value, list) and all(
        (_is_int(x) or isinstance(x, float)) and 0 < x <= sys.float_info.max
        for x in value)


# log2 of the largest probe grid P^n: 32 MiB a field, above every probe run
_MAX_PROBE_NODES_LOG2 = 22
# probe keys whose values are checked up front: (test, what the value must be)
_VALUE_RULES = {
    **{key: (_is_int, "an integer") for key in ("n", "k", "ell", "q")},
    **{key: (lambda v: _is_int(v) and v >= 1, "a positive integer")
       for key in ("P", "trials")},
    "sigma_range": (lambda v: _positive_numbers(v) and len(v) == 2,
                    "a list of two positive numbers"),
    "lams": (lambda v: _positive_numbers(v) and len(v) >= 1,
             "a non-empty list of positive numbers"),
}


def _bump_width_ok(width: float, P: int) -> bool:
    """_periodized_gaussian_1d of this width is finite and nonzero on the
    P grid wherever its center sits: width^2 neither overflows nor
    underflows, and the line centered half a grid step off the nodes,
    where its largest sample is smallest, keeps a nonzero sample."""
    if not 0 < width * width < math.inf:
        return False
    with np.errstate(over="ignore", under="ignore"):
        return bool(_periodized_gaussian_1d(P, np.pi / P, width).max() > 0)


def _resolve_probe(kind, entry) -> tuple:
    """(spec, P) of one probe entry, after each check its probe would meet
    later: the size of its grid, labels() for the degree, hodge_solve's
    ell and the degree of its datum T phi, gn_ratio's degrees."""
    missing = [key for key in _PROBES[kind][1] if key not in entry]
    if missing:
        raise ValueError(f"missing required keys {missing}")
    for key, (ok, what) in _VALUE_RULES.items():
        if key in entry and not ok(entry[key]):
            raise ValueError(f"{key} must be {what}")
    P = entry.get("P", _PROBES[kind][2])
    _check_P(P)
    if entry["n"] * (P.bit_length() - 1) > _MAX_PROBE_NODES_LOG2:
        raise ValueError(f"a grid of P^n = {P}^{entry['n']} nodes is above "
                         f"the limit of 2^{_MAX_PROBE_NODES_LOG2}")
    for sigma in entry.get("sigma_range", ()):
        for lam in entry.get("lams", [1.0]):
            width = float(sigma) * float(lam)
            if not _bump_width_ok(width, P):
                raise ValueError(
                    f"bump width {width!r} (a sigma_range end times a lams "
                    "entry) does not give a finite, nonzero bump on the "
                    f"P = {P} grid")
    if "ell" in _PROBES[kind][1]:
        spec = spec_for(entry["n"], entry["k"], entry["ell"],
                        kind=entry.get("ordering", "lexicographic"))
    else:  # duality and classical_gn: k = ell = 1 over n
        spec = spec_for(entry["n"], 1, 1)
    q = entry.get("q", 0)
    labels(spec.N if kind == "hodge" else spec.n, q)
    if kind == "hodge":
        _check_spectral(spec)
        if q + spec.ell > spec.N:
            raise ValueError(f"output degree q + ell = {q + spec.ell} "
                             f"exceeds N = {spec.N}")
    if kind in ("gn", "gn_dilation") and _excluded_degree(spec.n, q):
        raise ValueError(EXCLUDED_NOTE)
    return spec, P


def _check_config(config) -> list:
    """Reject a malformed probe configuration with a ValueError naming the
    offending probe, before any probe runs; returns each probe's (spec, P)."""
    if not isinstance(config, dict):
        raise ValueError("config must be a JSON object, got "
                         f"{type(config).__name__}")
    if not _is_int(config.get("seed", 0)):
        raise ValueError("config: seed must be an integer")
    probes = config.get("probes", [])
    if not isinstance(probes, list):
        raise ValueError("config: probes must be a list")
    resolved = []
    for i, entry in enumerate(probes):
        if not isinstance(entry, dict):
            raise ValueError(f"probe {i}: entry must be a JSON object")
        kind = entry.get("kind")
        if not isinstance(kind, str) or kind not in _PROBES:
            raise ValueError(f"probe {i}: unknown probe kind {kind!r}")
        try:
            resolved.append(_resolve_probe(kind, entry))
        except ValueError as exc:
            raise ValueError(f"probe {i} ({kind}): {exc}") from None
    return resolved


def run_suite(config: dict) -> dict:
    """Run the configured probe battery; deterministic for a fixed config."""
    resolved = _check_config(config)
    seed = config.get("seed", 0)
    results = []
    for i, (entry, (spec, P)) in enumerate(zip(config.get("probes", []),
                                               resolved)):
        rng = random.Random(seed * 10007 + i)
        results.append(_PROBES[entry["kind"]][0](entry, spec, P, rng))
    return {
        "schema": "divcurl.report/1",
        "package_version": __version__,
        "seed": seed,
        "results": results,
    }
