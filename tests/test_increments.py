"""Degree-increment admissibility: C(N, ell) = C(n-1+k, k), N >= n-1+ell."""

import math

import pytest

from divcurl.increments import admissible_increments


def brute_admissible(n, k, n_cap=400):
    """Independent search: try every N up to a cap for every ell."""
    m = math.comb(n - 1 + k, k)
    out = []
    for ell in range(1, k + 1):
        for N in range(ell, n_cap):
            if math.comb(N, ell) == m:
                if N >= n - 1 + ell:
                    out.append((ell, N))
                break
            if math.comb(N, ell) > m:
                break
    return out


def test_reference_case_n2_k9():
    sols = admissible_increments(2, 9)
    assert [(s.ell, s.N) for s in sols] == [(1, 10), (2, 5), (3, 5), (9, 10)]
    assert all(s.m == 10 for s in sols)


def test_first_order_family():
    for n in range(2, 11):
        sols = admissible_increments(n, 1)
        assert [(s.ell, s.N) for s in sols] == [(1, n)]


def test_n2_k29_has_no_quadratic_solution():
    """m = 30 admits ell in {1, 29} only: C(7,2)=21 < 30 < C(8,2)=28... the
    triangular numbers skip 30 (21, 28, 36), so no N solves C(N,2) = 30."""
    assert math.comb(8, 2) == 28 and math.comb(9, 2) == 36
    sols = admissible_increments(2, 29)
    assert [(s.ell, s.N) for s in sols] == [(1, 30), (29, 30)]


def test_matches_brute_force_search():
    for n in range(2, 5):
        for k in range(1, 8):
            got = [(s.ell, s.N) for s in admissible_increments(n, k)]
            assert got == brute_admissible(n, k), (n, k)


def test_structural_properties():
    for n in range(2, 5):
        for k in range(1, 8):
            m = math.comb(n - 1 + k, k)
            sols = admissible_increments(n, k)
            ells = [s.ell for s in sols]
            # ell = 1 (N = m) and ell = k (N = n-1+k) always work
            assert 1 in ells and k in ells
            for s in sols:
                assert math.comb(s.N, s.ell) == m
                assert s.N >= n - 1 + s.ell
            assert ells == sorted(ells)


def test_dimension_constraint_never_fires_for_ell_at_most_k():
    """For ell <= k the unique N with C(N, ell) = m automatically obeys
    N >= n - 1 + ell: C is strictly increasing in N and
    C(n-1+ell, ell) <= C(n-1+k, k) = m.  So nothing checks the constraint,
    and every solution over any sweep obeys it."""
    for n in range(2, 7):
        for k in range(1, 10):
            admissible = admissible_increments(n, k)
            assert admissible
            assert all(s.N >= n - 1 + s.ell for s in admissible)


def test_large_m_is_solved_without_a_climb():
    """(20, 20) has m = C(39, 20), about 6.9e10: ell = 1 needs N = m, out
    of reach of a step-by-step climb.  No spec is built, since
    multiindices(20, 20) would have m entries."""
    admissible = admissible_increments(20, 20)
    assert [(s.ell, s.N) for s in admissible] == [
        (1, 68923264410), (19, 39), (20, 39)]
    for s in admissible:
        assert math.comb(s.N, s.ell) == s.m == math.comb(39, 20)


def test_input_validation():
    with pytest.raises(ValueError):
        admissible_increments(1, 3)
    with pytest.raises(ValueError):
        admissible_increments(2, 0)
