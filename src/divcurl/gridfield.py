"""Real sample grids on the torus with spectral calculus.

A GridField is a real float64 function on the uniform P^n grid of
[0, 2pi)^n with P a power of two.  It holds exactly one array: its half
spectrum, in numpy's rfftn layout (the last axis runs over frequencies
0..P/2 only, the rest being fixed by conjugate symmetry).  A field built
from samples transforms them once, when it is built; from_spectrum takes
a half spectrum as it is, as every sampled exact form, derivative,
operator output and solve does.  samples is an inverse transform on each
read and is never kept.

Derivatives are Fourier multipliers on the half spectrum.  +, -,
negation, scale and the mean (the normalized integral: coefficient 0
over P^n) work on half spectra, and so does the L2 norm of a grid form
(forms.lp_norm), a Parseval sum with no inverse transform.  Pointwise
products and every other norm read samples.  Held arrays are marked
read-only; all operations return new fields.
"""

from __future__ import annotations

import operator
from functools import lru_cache

import numpy as np

__all__ = ["GridField", "grid_points", "int_freqs"]


def _check_P(P: int):
    if P < 2 or (P & (P - 1)) != 0:
        raise ValueError("grid resolution must be a power of two")


@lru_cache(maxsize=None)
def int_freqs(P: int) -> np.ndarray:
    """Integer FFT frequencies for one axis of length P."""
    _check_P(P)
    return np.fft.fftfreq(P, d=1.0 / P).astype(np.int64)


@lru_cache(maxsize=32)
def grid_points(n: int, P: int) -> np.ndarray:
    """Grid nodes, shape (P,)*n + (n,)."""
    _check_P(P)
    axes = [np.arange(P) * (2.0 * np.pi / P)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)


def _half_shape(n: int, P: int) -> tuple:
    """Shape of the rfftn half spectrum of a P^n grid."""
    return (P,) * (n - 1) + (P // 2 + 1,)


def _frozen(array: np.ndarray) -> np.ndarray:
    array = np.ascontiguousarray(array)
    array.flags.writeable = False
    return array


@lru_cache(maxsize=64)
def _deriv_multiplier(n: int, P: int, alpha: tuple) -> np.ndarray:
    """Fourier multiplier of the mixed partial d^alpha on the half spectrum.

    Every axis runs over int_freqs(P) except the last, which runs over
    0..P/2 as in rfftn.  The Nyquist mode is zeroed for odd one-axis
    orders so differentiation maps real fields to real fields; even
    orders keep (i P/2)^order."""
    mult = np.ones(_half_shape(n, P), dtype=complex)
    for axis, order in enumerate(alpha):
        if order == 0:
            continue
        ks = int_freqs(P) if axis < n - 1 else np.arange(P // 2 + 1)
        shape = [1] * n
        shape[axis] = ks.size
        k = ks.reshape(shape).astype(float)
        factor = (1j * k) ** order
        if order % 2 == 1:
            factor = np.where(np.abs(k) == P // 2, 0.0, factor)
        mult = mult * factor
    mult.flags.writeable = False
    return mult


class GridField:
    __slots__ = ("n", "P", "_spectrum")

    def __init__(self, n: int, P: int, samples: np.ndarray):
        """The field with these samples, held as their rfftn."""
        _check_P(P)
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (P,) * n:
            raise ValueError(f"expected shape {(P,) * n}, got {samples.shape}")
        self.n = n
        self.P = P
        self._spectrum = _frozen(np.fft.rfftn(samples))

    @classmethod
    def from_spectrum(cls, n: int, P: int, sp: np.ndarray) -> "GridField":
        """The field holding the rfftn half spectrum sp."""
        _check_P(P)
        sp = np.asarray(sp, dtype=complex)
        if sp.shape != _half_shape(n, P):
            raise ValueError(f"expected shape {_half_shape(n, P)}, got {sp.shape}")
        field = cls.__new__(cls)
        field.n = n
        field.P = P
        field._spectrum = _frozen(sp)
        return field

    @classmethod
    def zero(cls, n, P):
        return cls.from_spectrum(n, P, np.zeros(_half_shape(n, P), dtype=complex))

    @property
    def samples(self) -> np.ndarray:
        """The samples, transformed afresh (and not kept) on each read."""
        return np.fft.irfftn(self._spectrum, s=(self.P,) * self.n,
                             axes=tuple(range(self.n)))

    def spectrum(self) -> np.ndarray:
        """The held rfftn half spectrum."""
        return self._spectrum

    def _like_spectrum(self, sp):
        return GridField.from_spectrum(self.n, self.P, sp)

    def _check_compat(self, other):
        if self.n != other.n or self.P != other.P:
            raise ValueError("grid mismatch")

    def _combine(self, other, op):
        if not isinstance(other, GridField):
            return NotImplemented
        self._check_compat(other)
        return self._like_spectrum(op(self._spectrum, other._spectrum))

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __neg__(self):
        return self._like_spectrum(-self._spectrum)

    def scale(self, factor):
        return self._like_spectrum(self._spectrum * float(factor))

    def __mul__(self, other):
        if isinstance(other, GridField):
            self._check_compat(other)
            return GridField(self.n, self.P, self.samples * other.samples)
        return self.scale(other)

    __rmul__ = __mul__

    def diff_alpha(self, alpha) -> "GridField":
        alpha = tuple(alpha)
        if len(alpha) > self.n:
            if any(alpha[self.n:]):
                raise ValueError("derivative slot beyond the sample dimension")
            alpha = alpha[: self.n]
        alpha = alpha + (0,) * (self.n - len(alpha))
        if all(a == 0 for a in alpha):
            return self
        mult = _deriv_multiplier(self.n, self.P, alpha)
        return self._like_spectrum(self._spectrum * mult)

    def mean(self) -> float:
        return float(self._spectrum[(0,) * self.n].real) / self.P ** self.n

    def is_zero(self) -> bool:
        return not np.any(self._spectrum)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def __repr__(self):
        return f"GridField(n={self.n}, P={self.P}, max|.|={self.max_abs():.3g})"
