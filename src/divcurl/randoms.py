"""Seeded random generators used by the verification suites and tests."""

from __future__ import annotations

import random
from fractions import Fraction

from .forms import Form
from .multiindex import labels, multiindices
from .trigpoly import COS, SIN, TrigPoly, _canon

__all__ = [
    "random_rational",
    "random_trigpoly",
    "random_trig_form",
    "divergence_free_family",
]


def random_rational(rng: random.Random) -> Fraction:
    """Nonzero rational with numerator in -4..4 and denominator in 1..6."""
    num = rng.choice([i for i in range(-4, 5) if i != 0])
    return Fraction(num, rng.randint(1, 6))


def random_trigpoly(rng: random.Random, n, max_freq=2, terms=2) -> TrigPoly:
    """Sum of `terms` random waves, merged canonically in one dict in the
    order they are drawn (a wave that cancels a stored one removes it)."""
    acc = {}
    for _ in range(terms):
        freq = tuple(rng.randint(-max_freq, max_freq) for _ in range(n))
        phase = rng.choice((COS, SIN))
        wave = _canon(freq, phase, random_rational(rng))
        if wave is None:
            continue
        key = wave[:2]
        total = acc.get(key, 0) + wave[2]
        if total:
            acc[key] = total
        else:
            del acc[key]
    return TrigPoly._canonical(n, acc)


def random_trig_form(rng: random.Random, n, N, q, components=3) -> Form:
    """Sparse random form: a few labels carry small rational trig coefficients."""
    labs = list(labels(N, q))
    rng.shuffle(labs)
    picked = labs[: min(components, len(labs))]
    coeffs = {}
    for lab in picked:
        poly = random_trigpoly(rng, n)
        if not poly.is_zero():
            coeffs[lab] = poly
    return Form(n, N, q, coeffs, backend="trig")


def divergence_free_family(spec, rng: random.Random) -> dict:
    """A random exact-arithmetic family {alpha: g_alpha} over
    multiindices(spec.n, spec.k) with vanishing k-th order divergence,
    built from three antisymmetric pairs: g_a += d^b h, g_b -= d^a h."""
    mis = multiindices(spec.n, spec.k)
    g = {alpha: None for alpha in mis}
    for _ in range(3):
        ia, ib = rng.sample(range(len(mis)), 2)
        alpha, beta = mis[ia], mis[ib]
        h = random_trigpoly(rng, spec.n)
        da = h.diff_alpha(beta)
        db = h.diff_alpha(alpha)
        g[alpha] = da if g[alpha] is None else g[alpha] + da
        g[beta] = (db.scale(-1) if g[beta] is None else g[beta] + db.scale(-1))
    return {a: fn for a, fn in g.items() if fn is not None and not fn.is_zero()}
