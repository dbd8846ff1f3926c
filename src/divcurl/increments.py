"""Admissible degree increments.

For n variables and derivative order k there are m = C(n-1+k, k)
multi-indices.  A degree increment ell in {1, ..., k} is admissible when
some integer N satisfies C(N, ell) = m.  The paper's dimension constraint
N >= n - 1 + ell is implied by that equation, so it is not checked (see
admissible_increments).  Solutions are found by exact integer search;
binomials never overflow because Python integers are unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

__all__ = ["IncrementSolution", "admissible_increments"]


@dataclass(frozen=True)
class IncrementSolution:
    """One admissible increment: C(N, ell) = m and N >= n - 1 + ell."""

    ell: int
    N: int
    m: int


def _solve_binomial(m: int, ell: int):
    """The N >= ell with C(N, ell) = m, or None.  C(N, ell) is strictly
    increasing in N for N >= ell and C(m, ell) >= m for ell < m, so a
    bisection over [ell, max(ell, m)] finds it in O(log m) steps."""
    lo, hi = ell, max(ell, m)
    while lo < hi:
        mid = (lo + hi) // 2
        if comb(mid, ell) < m:
            lo = mid + 1
        else:
            hi = mid
    return lo if comb(lo, ell) == m else None


def admissible_increments(n: int, k: int):
    """All ell in {1..k} with an integer N solving C(N, ell) = m, ascending
    in ell; never empty, since ell = 1 always solves with N = m.

    Every solution obeys the dimension constraint N >= n - 1 + ell, so
    nothing checks it: write j = N - ell; if j <= n - 2, then ell <= k
    gives C(N, ell) = C(j + ell, ell) <= C(n - 2 + k, k) < m.

    Examples: (2, 9) yields ell in {1, 2, 3, 9} with N in {10, 5, 5, 10};
    (n, 1) yields only (ell=1, N=n).  For (2, 29) the set is exactly
    {1, 29}: C(N, 2) = 30 has no integer solution since 7*8 < 60 < 8*9.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if k < 1:
        raise ValueError("need k >= 1")
    m = comb(n - 1 + k, k)
    admissible = []
    for ell in range(1, k + 1):
        N = _solve_binomial(m, ell)
        if N is not None:
            admissible.append(IncrementSolution(ell=ell, N=N, m=m))
    return admissible
