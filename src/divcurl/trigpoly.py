"""Exact trigonometric polynomials with rational coefficients.

A TrigPoly is a finite sum  sum_w  a_w cos(w.x) + b_w sin(w.x)  with
integer frequency vectors w and Fraction coefficients.  The class is the
exact backend for forms on the torus [0, 2pi)^n: products use the
product-to-sum identities, derivatives and mean values are exact, and the
normalized mean over the torus is just the constant coefficient.

Terms are kept canonical: the first nonzero entry of a stored frequency
is positive (cos is even, sin is odd) and zero coefficients are dropped.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, sub

import numpy as np

COS, SIN = 0, 1

__all__ = ["TrigPoly", "COS", "SIN"]


def _canon(freq, phase, coeff):
    """Normalize (freq, phase, coeff) so the leading nonzero freq entry is
    positive; returns None for terms that are identically zero."""
    if coeff == 0:
        return None
    lead = next((f for f in freq if f != 0), 0)
    if lead == 0:
        if phase == SIN:
            return None  # sin(0) == 0
        return freq, COS, coeff
    if lead < 0:
        freq = tuple(-f for f in freq)
        if phase == SIN:
            coeff = -coeff
    return freq, phase, coeff


@lru_cache(maxsize=None)
def _quarter_turns(alpha: tuple, n: int):
    """(powers, flip, sign) of the mixed partial d^alpha in n variables:
    the (axis, order) pairs with order > 0, |alpha| mod 2 (a flip swaps
    cos and sin), and the sign |alpha| quarter turns put on a term, by
    its phase.  Slots of alpha beyond n must be 0."""
    if len(alpha) > n:
        if any(alpha[n:]):
            raise ValueError("derivative slot beyond the variable count")
        alpha = alpha[:n]
    powers = tuple((axis, order) for axis, order in enumerate(alpha) if order)
    turns = sum(order for _, order in powers) % 4
    return powers, turns % 2, ((1, -1, -1, 1)[turns], (1, 1, -1, -1)[turns])


class TrigPoly:
    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        clean = {}
        for (freq, phase), coeff in (terms or {}).items():
            if len(freq) != n:
                raise ValueError("frequency length does not match dimension")
            c = _canon(tuple(int(f) for f in freq), phase, Fraction(coeff))
            if c is None:
                continue
            freq, phase, coeff = c
            key = (freq, phase)
            coeff = clean.get(key, Fraction(0)) + coeff
            if coeff == 0:
                clean.pop(key, None)
            else:
                clean[key] = coeff
        self.terms = clean

    @classmethod
    def _canonical(cls, n, terms):
        """Wrap a terms dict that is already canonical, without checking.

        The caller guarantees the invariant the public constructor
        establishes: every coefficient is a nonzero Fraction, the first
        nonzero entry of every frequency is positive, and no SIN term sits
        at the zero frequency.  The dict is stored, not copied.
        """
        self = object.__new__(cls)
        self.n = n
        self.terms = terms
        return self

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n):
        return cls(n, {})

    @classmethod
    def const(cls, n, value):
        return cls(n, {((0,) * n, COS): Fraction(value)})

    @classmethod
    def wave(cls, n, freq, phase=COS, coeff=1):
        return cls(n, {(tuple(freq), phase): Fraction(coeff)})

    # ---- ring operations ----------------------------------------------

    def _merge(self, other, negate):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        merged = dict(self.terms)
        for key, c in other.terms.items():
            if negate:
                c = -c
            total = merged.get(key)
            total = c if total is None else total + c
            if total:
                merged[key] = total
            else:
                del merged[key]
        return TrigPoly._canonical(self.n, merged)

    def __add__(self, other):
        return self._merge(other, False)

    def __sub__(self, other):
        return self._merge(other, True)

    def __neg__(self):
        return TrigPoly._canonical(
            self.n, {k: -c for k, c in self.terms.items()})

    def scale(self, factor):
        factor = Fraction(factor)
        if factor == 1:
            return self
        if factor == -1:
            return -self
        if not factor:
            return TrigPoly._canonical(self.n, {})
        return TrigPoly._canonical(
            self.n, {k: c * factor for k, c in self.terms.items()})

    def __mul__(self, other):
        """Product by the product-to-sum identities, canonical inline: the
        sum u + v of two canonical frequencies is canonical, and only the
        difference u - v may need its sign flipped (or, at 0, its sin
        term dropped)."""
        if not isinstance(other, TrigPoly):
            return self.scale(other)
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        half = Fraction(1, 2)
        acc = {}
        get = acc.get
        for (u, pu), cu in self.terms.items():
            for (v, pv), cv in other.terms.items():
                c = cu * cv * half
                plus = tuple(map(add, u, v))
                minus = tuple(map(sub, u, v))
                lead = 0
                for lead in minus:
                    if lead:
                        break
                if lead < 0:
                    minus = tuple(-f for f in minus)
                if pu == pv:  # cos cos: c, c; sin sin: c, -c
                    key = (minus, COS)
                    acc[key] = get(key, 0) + c
                    key = (plus, COS)
                    acc[key] = get(key, 0) + (c if pu == COS else -c)
                else:  # sin cos: c, c; cos sin: c, -c; then -1 per flip
                    key = (plus, SIN)
                    acc[key] = get(key, 0) + c
                    if lead:
                        key = (minus, SIN)
                        m = c if (pu == SIN) == (lead > 0) else -c
                        acc[key] = get(key, 0) + m
        return TrigPoly._canonical(self.n, {k: c for k, c in acc.items() if c})

    __rmul__ = __mul__

    # ---- calculus ------------------------------------------------------

    def diff(self, axis: int) -> "TrigPoly":
        """Exact partial derivative along one axis."""
        out = {}
        for (freq, phase), coeff in self.terms.items():
            w = freq[axis]
            if w == 0:
                continue
            if phase == COS:
                out[(freq, SIN)] = -coeff * w
            else:
                out[(freq, COS)] = coeff * w
        return TrigPoly._canonical(self.n, out)

    def diff_alpha(self, alpha) -> "TrigPoly":
        """Mixed partial of multi-index alpha (length n, or longer with
        zeros in the extra slots), in one pass over the terms.

        Each term is multiplied by the integer monomial w^alpha of its
        frequency w and turned |alpha| quarter turns, one per derivative:
        cos -> -sin -> -cos -> sin -> cos, and sin -> cos -> -sin -> -cos
        -> sin.  A term whose monomial is 0 is dropped.  The turn keeps
        the frequency and maps distinct terms to distinct terms, so the
        result is canonical without re-normalization.
        """
        powers, flip, sign = _quarter_turns(tuple(alpha), self.n)
        if not powers:
            return self
        out = {}
        for (freq, phase), coeff in self.terms.items():
            mono = 1
            for axis, order in powers:
                mono *= freq[axis] ** order
            if mono:
                out[(freq, phase ^ flip)] = coeff * (sign[phase] * mono)
        return TrigPoly._canonical(self.n, out)

    def mean(self) -> Fraction:
        """Mean value over the torus with normalized measure (2pi)^-n."""
        return self.terms.get(((0,) * self.n, COS), Fraction(0))

    def mean_product(self, other: "TrigPoly") -> Fraction:
        """Mean of self * other over the torus, without the product.

        Distinct canonical terms are orthogonal, so only equal (freq,
        phase) keys pair: c d at the zero frequency and c d / 2 at every
        other one, where cos^2 and sin^2 have mean 1/2.  Linear in the
        term count, where (self * other).mean() is quadratic; the two are
        equal.
        """
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        small, large = self.terms, other.terms
        if len(small) > len(large):
            small, large = large, small
        zero = ((0,) * self.n, COS)
        const = Fraction(0)
        wave = Fraction(0)
        for key, c in small.items():
            d = large.get(key)
            if d is not None:
                if key == zero:
                    const = c * d
                else:
                    wave += c * d
        return const + wave / 2

    # ---- predicates and helpers ----------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def max_freq(self) -> int:
        return max((abs(f) for freq, _ in self.terms for f in freq), default=0)

    def __eq__(self, other):
        return (
            isinstance(other, TrigPoly)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return f"TrigPoly.zero({self.n})"
        bits = []
        for (freq, phase), coeff in sorted(self.terms.items()):
            fn = "cos" if phase == COS else "sin"
            bits.append(f"{coeff}*{fn}{freq}")
        return " + ".join(bits)

    # ---- sampling -------------------------------------------------------

    def half_spectrum(self, P: int) -> np.ndarray:
        """The rfftn half spectrum of the samples on the uniform P^n grid:
        each term's e^{+-iw.x} at w folded modulo P (pointwise aliasing),
        times the power of two P^n / 2, on the last axis's columns 0..P/2;
        only Fraction -> float and the sums of folded terms round."""
        spec = np.zeros((P,) * (self.n - 1) + (P // 2 + 1,), dtype=complex)
        scale = P ** self.n / 2
        for (freq, phase), coeff in self.terms.items():
            # the e^{iw.x} coefficient; e^{-iw.x} takes its conjugate
            c = float(coeff) * scale * (1 if phase == COS else -1j)
            for sign, value in ((1, c), (-1, c.conjugate())):
                idx = tuple(sign * f % P for f in freq)
                if idx[-1] <= P // 2:
                    spec[idx] += value
        return spec

    def sample(self, P: int) -> np.ndarray:
        """Values at the nodes of the uniform P^n grid of [0, 2pi)^n."""
        return np.fft.irfftn(self.half_spectrum(P), s=(P,) * self.n,
                             axes=tuple(range(self.n)))

    def eval_at(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at arbitrary points, shape (..., n)."""
        pts = np.asarray(points, dtype=float)
        out = np.zeros(pts.shape[:-1])
        for (freq, phase), coeff in self.terms.items():
            angle = pts @ np.asarray(freq, dtype=float)
            wave = np.cos(angle) if phase == COS else np.sin(angle)
            out += float(coeff) * wave
        return out
