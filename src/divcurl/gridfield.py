"""Real sample grids on the torus with spectral calculus.

A GridField holds real float64 samples on the uniform P^n grid of
[0, 2pi)^n with P a power of two.  Derivatives are Fourier multipliers,
the mean of the samples is the normalized integral, and products are
pointwise.  Sample arrays are marked read-only; all operations return new
fields.
"""

from __future__ import annotations

import base64
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


@lru_cache(maxsize=64)
def _deriv_multiplier(n: int, P: int, alpha: tuple) -> np.ndarray:
    """Fourier multiplier of the mixed partial d^alpha on the full spectrum.

    The Nyquist mode is zeroed for odd one-axis orders so differentiation
    maps real fields to real fields."""
    mult = np.ones((P,) * n, dtype=complex)
    ks = int_freqs(P)
    for axis, order in enumerate(alpha):
        if order == 0:
            continue
        shape = [1] * n
        shape[axis] = P
        k = ks.reshape(shape).astype(float)
        factor = (1j * k) ** order
        if order % 2 == 1:
            factor = np.where(np.abs(k) == P // 2, 0.0, factor)
        mult = mult * factor
    mult.flags.writeable = False
    return mult


class GridField:
    __slots__ = ("n", "P", "samples")

    def __init__(self, n: int, P: int, samples: np.ndarray):
        _check_P(P)
        samples = np.asarray(samples, dtype=float)
        if samples.shape != (P,) * n:
            raise ValueError(f"expected shape {(P,) * n}, got {samples.shape}")
        samples = np.ascontiguousarray(samples)
        samples.flags.writeable = False
        self.n = n
        self.P = P
        self.samples = samples

    @classmethod
    def zero(cls, n, P):
        return cls(n, P, np.zeros((P,) * n))

    @classmethod
    def const(cls, n, P, value):
        return cls(n, P, np.full((P,) * n, float(value)))

    def _like(self, samples):
        return GridField(self.n, self.P, samples)

    def _check_compat(self, other):
        if self.n != other.n or self.P != other.P:
            raise ValueError("grid mismatch")

    def __add__(self, other):
        if not isinstance(other, GridField):
            return NotImplemented
        self._check_compat(other)
        return self._like(self.samples + other.samples)

    def __sub__(self, other):
        self._check_compat(other)
        return self._like(self.samples - other.samples)

    def __neg__(self):
        return self._like(-self.samples)

    def scale(self, factor):
        return self._like(self.samples * float(factor))

    def __mul__(self, other):
        if isinstance(other, GridField):
            self._check_compat(other)
            return self._like(self.samples * other.samples)
        return self.scale(other)

    __rmul__ = __mul__

    def spectrum(self) -> np.ndarray:
        return np.fft.fftn(self.samples)

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
        return self._like(np.fft.ifftn(self.spectrum() * mult).real)

    def diff(self, axis: int) -> "GridField":
        alpha = [0] * self.n
        alpha[axis] = 1
        return self.diff_alpha(alpha)

    def mean(self) -> float:
        return float(self.samples.mean())

    def is_zero(self) -> bool:
        return not np.any(self.samples)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.samples))) if self.samples.size else 0.0

    def __repr__(self):
        return f"GridField(n={self.n}, P={self.P}, max|.|={self.max_abs():.3g})"

    # ---- serialization --------------------------------------------------

    def to_obj(self):
        return {
            "n": self.n,
            "P": self.P,
            "dtype": "float64",
            "data": base64.b64encode(self.samples.tobytes()).decode(),
        }

    @classmethod
    def from_obj(cls, obj):
        P, n = obj["P"], obj["n"]
        raw = base64.b64decode(obj["data"])
        samples = np.frombuffer(raw, dtype=np.float64).reshape((P,) * n).copy()
        return cls(n, P, samples)
