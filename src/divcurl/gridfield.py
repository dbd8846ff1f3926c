"""Real sample grids on the torus with spectral calculus.

A GridField is a real float64 function on the uniform P^n grid of
[0, 2pi)^n with P a power of two.  It holds exactly one array, fixed
when it is built: its samples, or its half spectrum (numpy's rfftn
layout: the last axis runs over frequencies 0..P/2 only, the rest being
fixed by conjugate symmetry) when built by from_spectrum, as every
derivative, operator output and spectral solve is.  samples and
spectrum() compute the other representation when asked and never keep
it, so a field's values and bits depend only on how it was built.

Derivatives are Fourier multipliers on the half spectrum.  +, -,
negation and scale work on spectra when every operand holds a spectrum
and on samples otherwise; the L2 norm of a grid form (forms.lp_norm)
follows the same rule, summing half spectra by Parseval with no inverse
transform.  Pointwise products, the mean (the normalized integral) and
every other norm read samples.  Held arrays are marked read-only; all
operations return new fields.
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


def _spectral(*fields) -> bool:
    """Whether +, -, negation or scale on fields (and forms.lp_norm's L2
    norm of them) runs on their half spectra: each holds one."""
    return all(f._spectrum is not None for f in fields)


class GridField:
    __slots__ = ("n", "P", "_samples", "_spectrum")

    def __init__(self, n: int, P: int, samples: np.ndarray):
        _check_P(P)
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (P,) * n:
            raise ValueError(f"expected shape {(P,) * n}, got {samples.shape}")
        self.n = n
        self.P = P
        self._samples = _frozen(samples)
        self._spectrum = None

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
        field._samples = None
        field._spectrum = _frozen(sp)
        return field

    @classmethod
    def zero(cls, n, P):
        return cls(n, P, np.zeros((P,) * n))

    @property
    def samples(self) -> np.ndarray:
        """The samples; transformed afresh (and not kept) when the field
        holds its spectrum."""
        if self._samples is not None:
            return self._samples
        return np.fft.irfftn(self._spectrum, s=(self.P,) * self.n,
                             axes=tuple(range(self.n)))

    def spectrum(self) -> np.ndarray:
        """The rfftn half spectrum; transformed afresh (and not kept) when
        the field holds its samples."""
        if self._spectrum is not None:
            return self._spectrum
        return np.fft.rfftn(self._samples)

    def _like(self, samples):
        return GridField(self.n, self.P, samples)

    def _like_spectrum(self, sp):
        return GridField.from_spectrum(self.n, self.P, sp)

    def _check_compat(self, other):
        if self.n != other.n or self.P != other.P:
            raise ValueError("grid mismatch")

    def _combine(self, other, op):
        if not isinstance(other, GridField):
            return NotImplemented
        self._check_compat(other)
        if _spectral(self, other):
            return self._like_spectrum(op(self._spectrum, other._spectrum))
        return self._like(op(self.samples, other.samples))

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __neg__(self):
        if _spectral(self):
            return self._like_spectrum(-self._spectrum)
        return self._like(-self._samples)

    def scale(self, factor):
        if _spectral(self):
            return self._like_spectrum(self._spectrum * float(factor))
        return self._like(self._samples * float(factor))

    def __mul__(self, other):
        if isinstance(other, GridField):
            self._check_compat(other)
            return self._like(self.samples * other.samples)
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
        return self._like_spectrum(self.spectrum() * mult)

    def mean(self) -> float:
        return float(self.samples.mean())

    def is_zero(self) -> bool:
        return not np.any(self.samples)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.samples)))

    def __repr__(self):
        return f"GridField(n={self.n}, P={self.P}, max|.|={self.max_abs():.3g})"
