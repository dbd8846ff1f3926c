"""Fourier symbols of the Hodge Laplacians and ellipticity probes.

Acting on a plane wave, box(zeta e^{i xi.x}) = S(xi) zeta e^{i xi.x} where
S(xi) is the symmetric matrix

    S(xi)_{M I} = sum_{alpha, beta} C^{M I}_{alpha beta} xi^{alpha + beta}

over the degree-q labels (the two (-1)^k factors, one from the operator
and one from 2k-fold differentiation of the wave, cancel).  For rational
xi everything here is exact; floating point enters only in dense
eigenvalue scans for ell >= 2, and those are spot-checked against exact
Rayleigh quotients.

Every gamma = alpha + beta has order 2k, so with xi = p / d over one
common denominator d each entry is (sum of c p^gamma) / d^{2k}: an
integer sum over the distinct monomials of the slot.  The tensor is
compiled once per (spec, q, space) into those integer (gamma, c) lists,
and each frequency costs one power per distinct gamma and one Fraction
per slot read.  Every reader works on those slots.  Whether S(xi) =
sigma(xi) Id (ell = 1) is read once per table, from the tensor's own
is_kronecker(), and then one diagonal slot is the whole symbol.  A dense
matrix is built only to print it (box_symbol) or for eigvalsh (ell >= 2).

The strength measure is the Legendre-Hadamard style quotient

    lh_quotient = min_zeta <S(xi) zeta, zeta> / (|zeta|^2 |xi|^{2k})

which is scale invariant in xi, so scans only need directions; rational
points on the sphere come from the stereographic parametrization.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .forms import Form
from .multiindex import labels
from .operators import OperatorSpec, box_apply, box_coeff_tensor
from .trigpoly import TrigPoly

__all__ = [
    "box_symbol",
    "symbol_rayleigh",
    "lh_quotient",
    "min_symbol_eigenvalue",
    "rational_sphere_point",
    "ellipticity_scan",
    "source_symbol_scalar",
    "wave_symbol_check",
]


def _as_fractions(xi, n):
    xi = tuple(Fraction(x) for x in xi)
    if len(xi) != n:
        raise ValueError(f"direction must have {n} entries")
    return xi


@lru_cache(maxsize=None)
def _symbol_table(spec: OperatorSpec, q: int, source: bool):
    """(labels, gammas, slots, scalar): slots holds (i, j, ((g, c), ...))
    with gammas[g] the exponent and c the integer tensor sum on it; scalar
    is True when S(xi) = sigma(xi) Id for every xi."""
    tensor = box_coeff_tensor(spec, q, source)
    labs = labels(tensor.width, q)
    idx = {L: i for i, L in enumerate(labs)}
    gamma_idx = {}
    sums = {}
    for (M, I, alpha, beta), val in tensor.entries.items():
        gamma = tuple(a + b for a, b in zip(alpha, beta))
        g = gamma_idx.setdefault(gamma, len(gamma_idx))
        slot = sums.setdefault((idx[M], idx[I]), {})
        slot[g] = slot.get(g, 0) + val
    slots = tuple((i, j, tuple((g, c) for g, c in terms.items() if c))
                  for (i, j), terms in sums.items())
    # ell >= 2 tensors, Kronecker at q = 0 and q = N, keep eigvalsh
    scalar = spec.ell == 1 and tensor.is_kronecker()
    return labs, tuple(gamma_idx), slots, scalar


def _slot_values(spec: OperatorSpec, gammas, slots, xi):
    """[(i, j, S_ij(xi))] over the given slots: xi = p / d over one common
    denominator d, one integer power per distinct gamma, one Fraction per
    slot."""
    xi = _as_fractions(xi, spec.n)
    d = math.lcm(*(x.denominator for x in xi))
    p = [x.numerator * (d // x.denominator) for x in xi]
    mono = [math.prod(pi ** gi for pi, gi in zip(p, gamma))
            for gamma in gammas]
    den = d ** (2 * spec.k)
    return [(i, j, Fraction(sum(c * mono[g] for g, c in terms), den))
            for i, j, terms in slots]


def box_symbol(spec: OperatorSpec, q: int, xi, source=False):
    """Exact symbol matrix of the Hodge Laplacian at frequency xi.

    Returns (labels, S) with S a nested list of Fractions indexed by the
    degree-q labels of the hybrid space (or the source space when
    source=True).
    """
    labs, gammas, slots, _ = _symbol_table(spec, q, bool(source))
    S = [[Fraction(0)] * len(labs) for _ in labs]
    for i, j, v in _slot_values(spec, gammas, slots, xi):
        S[i][j] = v
    return labs, S


def symbol_rayleigh(spec, q, xi, zeta, source=False) -> Fraction:
    """Exact Rayleigh numerator <S(xi) zeta, zeta> for rational zeta."""
    labs, gammas, slots, _ = _symbol_table(spec, q, bool(source))
    values = _slot_values(spec, gammas, slots, xi)
    zeta = [Fraction(z) for z in zeta]
    if len(zeta) != len(labs):
        raise ValueError("zeta length must match the label count")
    return sum((v * zeta[i] * zeta[j] for i, j, v in values), Fraction(0))


def min_symbol_eigenvalue(spec, q, xi, source=False):
    """Smallest eigenvalue of S(xi): exact when ell = 1, where S(xi) is
    sigma(xi) Id and one diagonal slot holds sigma; otherwise a float from
    the dense symmetric eigensolver."""
    _, gammas, slots, scalar = _symbol_table(spec, q, bool(source))
    if scalar:
        return _slot_values(spec, gammas, slots[:1], xi)[0][2]
    _, S = box_symbol(spec, q, xi, source=source)
    M = np.array([[float(v) for v in row] for row in S])
    return float(np.linalg.eigvalsh(M)[0])


def lh_quotient(spec, q, xi, source=False):
    """min eigenvalue of S(xi) divided by |xi|^{2k}; scale invariant."""
    xi = _as_fractions(xi, spec.n)
    nrm = sum(x * x for x in xi) ** spec.k
    if nrm == 0:
        raise ValueError("xi must be nonzero")
    ev = min_symbol_eigenvalue(spec, q, xi, source=source)
    if isinstance(ev, Fraction):
        return ev / nrm
    return ev / float(nrm)


def source_symbol_scalar(spec, xi) -> Fraction:
    """The scalar sigma(xi) = sum over source-coupled alpha of xi^{2 alpha}
    (requires ell = 1, where the source symbol is sigma times identity):
    the one slot of the source degree-0 table."""
    if spec.ell != 1:
        raise ValueError("scalar symbol only for ell = 1")
    _, gammas, slots, _ = _symbol_table(spec, 0, True)
    return _slot_values(spec, gammas, slots, xi)[0][2]


def rational_sphere_point(u):
    """Stereographic image of a rational tuple u: a rational point on the
    unit sphere in one more dimension, (2u, 1 - |u|^2) / (1 + |u|^2)."""
    u = [Fraction(x) for x in u]
    s = sum(x * x for x in u)
    denom = 1 + s
    return tuple([2 * x / denom for x in u] + [(1 - s) / denom])


def ellipticity_scan(spec, q, source=False, samples=40, seed=0) -> dict:
    """Probe the symbol over coordinate axes, the diagonal direction and
    random rational sphere points, each direction once; report the worst
    quotient seen.

    Exact zeros of the quotient are reported as witnesses (the scan
    proves degeneracy when it finds one; it only suggests ellipticity
    otherwise).
    """
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    rng = random.Random(seed)
    n = spec.n
    dirs = []
    for j in range(n):
        e = [0] * n
        e[j] = 1
        dirs.append(tuple(e))
    dirs.append((1,) * n)
    for _ in range(samples):
        u = [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(n - 1)]
        pt = rational_sphere_point(u)
        if pt not in dirs:
            dirs.append(pt)
    best = None
    worst = None
    witnesses = []
    exact = spec.ell == 1
    for xi in dirs:
        val = lh_quotient(spec, q, xi, source=source)
        fval = float(val)
        if worst is None or fval < worst[0]:
            worst = (fval, xi)
        if best is None or fval > best[0]:
            best = (fval, xi)
        if (val == 0) if exact else (fval < 1e-12):
            witnesses.append(tuple(str(x) for x in xi))
    return {
        "n": spec.n,
        "k": spec.k,
        "ell": spec.ell,
        "N": spec.N,
        "ordering_kind": spec.ordering.kind,
        "q": q,
        "source_space": source,
        "directions_tested": len(dirs),
        "min_quotient": worst[0],
        "min_at": [str(x) for x in worst[1]],
        "max_quotient": best[0],
        "degenerate_witnesses": witnesses,
        "exact_arithmetic": exact,
    }


def wave_symbol_check(spec, q, xi_int, zeta=None, source=False) -> bool:
    """Verify box(zeta cos(xi.x)) = (S(xi) zeta) cos(xi.x) exactly.

    xi_int must be integer so the wave lives on the exact backend; zeta
    defaults to all ones.  Returns True or raises with the discrepancy.
    """
    xi_int = tuple(int(x) for x in xi_int)
    width = box_coeff_tensor(spec, q, bool(source)).width
    labs, gammas, slots, _ = _symbol_table(spec, q, bool(source))
    if zeta is None:
        zeta = [Fraction(1)] * len(labs)
    zeta = [Fraction(z) for z in zeta]
    wave = TrigPoly.wave(spec.n, xi_int, 0, Fraction(1))
    coeffs = {L: wave.scale(z) for L, z in zip(labs, zeta) if z != 0}
    H = Form(spec.n, width, q, coeffs, backend="trig")
    out = box_apply(spec, H)
    rows = [0] * len(labs)
    for i, j, v in _slot_values(spec, gammas, slots, xi_int):
        rows[i] += v * zeta[j]
    expected = {L: wave.scale(val) for L, val in zip(labs, rows) if val != 0}
    want = Form(spec.n, width, q, expected, backend="trig")
    if out != want:
        raise ArithmeticError(
            f"symbol mismatch at xi={xi_int}: {(out - want).coeffs}")
    return True
