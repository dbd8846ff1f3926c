"""Exact symbol matrices, ellipticity quotients and degeneracy witnesses."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from divcurl import symbol
from divcurl.increments import admissible_increments
from divcurl.multiindex import labels, random_ordering
from divcurl.operators import (
    OperatorSpec,
    box_coeff_tensor,
    spec_for,
)
from divcurl.symbol import (
    box_symbol,
    ellipticity_scan,
    lh_quotient,
    min_symbol_eigenvalue,
    rational_sphere_point,
    source_symbol_scalar,
    symbol_rayleigh,
    wave_symbol_check,
)


def test_wave_symbol_identity_across_specs():
    cases = [
        (spec_for(2, 1, 1), 0, (1, 2)),
        (spec_for(2, 2, 1, "diagonal"), 0, (2, -1)),
        (spec_for(2, 2, 1, "diagonal"), 1, (1, 3)),
        (spec_for(2, 2, 2), 1, (1, 1)),
        (spec_for(3, 2, 2), 0, (1, 2, -1)),
        (spec_for(2, 3, 1, "chained"), 0, (2, 3)),
    ]
    rng = random.Random(9)
    for spec, q, xi in cases:
        assert wave_symbol_check(spec, q, xi)
        labs, _ = box_symbol(spec, q, xi)
        zeta = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in labs]
        assert wave_symbol_check(spec, q, xi, zeta)
    # source-space version
    assert wave_symbol_check(spec_for(2, 2, 1, "diagonal"), 0, (1, 2), source=True)


def test_unit_step_symbol_is_scalar_and_ordering_free():
    """ell = 1: S = sigma(xi) Id with sigma the sum of xi^{2 alpha}."""
    xi = (2, 3)
    expected = Fraction(133)  # 2^4 + 2^2 3^2 + 3^4
    for kind in ("lexicographic", "diagonal", "chained"):
        spec = spec_for(2, 2, 1, kind)
        for q in range(spec.N + 1):
            labs, S = box_symbol(spec, q, xi)
            for i in range(len(labs)):
                for j in range(len(labs)):
                    assert S[i][j] == (expected if i == j else 0)
            assert min_symbol_eigenvalue(spec, q, xi) == expected


def test_source_scalar_frozen_values():
    diag = spec_for(2, 2, 1, "diagonal")
    assert source_symbol_scalar(diag, (2, 3)) == 97      # 2^4 + 3^4
    chain = spec_for(2, 2, 1, "chained")
    assert source_symbol_scalar(chain, (2, 3)) == 52     # 4 * (4 + 9)
    assert source_symbol_scalar(chain, (0, 1)) == 0      # exact degeneracy
    with pytest.raises(ValueError):
        source_symbol_scalar(spec_for(2, 2, 2), (1, 1))


def test_diagonal_quotient_sharp_constant():
    """Diagonal source quotient is bounded below by n^{1-k}, attained at
    the all-ones direction."""
    for n, k in [(2, 2), (2, 3), (3, 2)]:
        spec = spec_for(n, k, 1, "diagonal")
        bound = Fraction(1, n ** (k - 1))
        assert lh_quotient(spec, 0, (1,) * n, source=True) == bound
        rng = random.Random(11)
        for _ in range(25):
            xi = tuple(rng.randint(-5, 5) for _ in range(n))
            if all(x == 0 for x in xi):
                continue
            assert lh_quotient(spec, 0, xi, source=True) >= bound


def test_chained_quotient_degenerates_on_wall():
    spec = spec_for(2, 3, 1, "chained")
    assert lh_quotient(spec, 0, (0, 1), source=True) == 0
    assert lh_quotient(spec, 0, (1, 0), source=True) == 1
    with pytest.raises(ValueError):
        lh_quotient(spec, 0, (0, 0), source=True)


def test_symbol_positive_semidefinite():
    rng = random.Random(13)
    for spec in [spec_for(2, 2, 2), spec_for(3, 2, 2)]:
        for q in range(spec.N + 1):
            for _ in range(6):
                xi = tuple(rng.randint(-4, 4) for _ in range(spec.n))
                if all(x == 0 for x in xi):
                    xi = (1,) + (0,) * (spec.n - 1)
                labs, S = box_symbol(spec, q, xi)
                zeta = [Fraction(rng.randint(-3, 3)) for _ in labs]
                assert symbol_rayleigh(spec, q, xi, zeta) >= 0
                ev = min_symbol_eigenvalue(spec, q, xi)
                assert float(ev) >= -1e-10


def test_rayleigh_picks_diagonal_entry():
    spec = spec_for(2, 2, 2)
    q, xi = 1, (1, 2)
    labs, S = box_symbol(spec, q, xi)
    zeta = [Fraction(0)] * len(labs)
    zeta[0] = Fraction(1)
    assert symbol_rayleigh(spec, q, xi, zeta) == S[0][0]


def test_symbol_matrix_symmetric_exact():
    rng = random.Random(17)
    for spec in [spec_for(2, 2, 2), spec_for(2, 3, 1, "chained")]:
        for _ in range(4):
            xi = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                       for _ in range(spec.n))
            if all(x == 0 for x in xi):
                continue
            for q in (0, 1):
                labs, S = box_symbol(spec, q, xi)
                for i in range(len(labs)):
                    for j in range(len(labs)):
                        assert S[i][j] == S[j][i]


def test_rational_sphere_points():
    rng = random.Random(19)
    for _ in range(30):
        u = [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(2)]
        p = rational_sphere_point(u)
        assert sum(x * x for x in p) == 1
        assert all(isinstance(x, Fraction) for x in p)


def test_ellipticity_scan_deterministic_and_witnessed():
    chain = spec_for(2, 3, 1, "chained")
    r1 = ellipticity_scan(chain, 0, source=True, samples=30, seed=5)
    r2 = ellipticity_scan(chain, 0, source=True, samples=30, seed=5)
    assert r1 == r2
    assert r1["min_quotient"] == 0
    assert r1["degenerate_witnesses"]
    wit = r1["degenerate_witnesses"][0]
    assert Fraction(wit[0]) == 0  # the degeneracy sits on the xi_1 = 0 wall
    diag = ellipticity_scan(spec_for(2, 2, 1, "diagonal"), 0, source=True,
                            samples=30, seed=5)
    assert diag["min_quotient"] >= Fraction(1, 2)
    assert not diag["degenerate_witnesses"]


def test_hybrid_scan_exact_for_unit_step():
    spec = spec_for(3, 2, 1, "diagonal")
    rep = ellipticity_scan(spec, 1, samples=20, seed=3)
    assert rep["exact_arithmetic"]
    assert rep["min_quotient"] > 0


def _reference_symbol(spec, q, xi, source):
    """S(xi) summed entry by entry in Fraction arithmetic, straight from
    the tensor, with no table and no common denominator."""
    tensor = box_coeff_tensor(spec, q, source)
    labs = labels(spec.n if source else spec.N, q)
    idx = {L: i for i, L in enumerate(labs)}
    S = [[Fraction(0)] * len(labs) for _ in labs]
    for (M, I, alpha, beta), val in tensor.entries.items():
        term = Fraction(val)
        for x, a, b in zip(xi, alpha, beta):
            if a + b:
                term *= x ** (a + b)
        S[idx[M]][idx[I]] += term
    return labs, S


def test_box_symbol_equals_entrywise_fraction_sum():
    """Every admissible spec with n <= 4 and N <= 7, canonical plus two
    random orderings, every degree, both spaces where n >= ell, at
    random rational frequencies with negative and zero entries, and at
    xi = 0."""
    rng = random.Random(23)
    matrices = 0
    for n in range(2, 5):
        # C(n - 1 + k, k) = C(N, ell) <= C(7, 3) bounds k for N <= 7
        for k in itertools.takewhile(
                lambda k: math.comb(n - 1 + k, k) <= math.comb(7, 3),
                itertools.count(1)):
            for inc in admissible_increments(n, k):
                if inc.N > 7:
                    continue
                specs = [spec_for(n, k, inc.ell)] + [
                    OperatorSpec(n, k, inc.ell, inc.N,
                                 random_ordering(n, k, inc.ell, inc.N, rng))
                    for _ in range(2)]
                for spec in specs:
                    for source in (False, True)[:1 + (n >= inc.ell)]:
                        for q in range((n if source else inc.N) + 1):
                            xis = [tuple(Fraction(rng.randint(-4, 4),
                                                  rng.randint(1, 5))
                                         for _ in range(n))]
                            if q == 0:
                                xis.append((Fraction(0),) * n)
                            for xi in xis:
                                assert (box_symbol(spec, q, xi, source)
                                        == _reference_symbol(spec, q, xi,
                                                             source))
                                matrices += 1
    assert matrices > 500


def test_ell1_readers_build_no_dense_matrix(monkeypatch):
    """At ell = 1 every reader works on the table slots: with box_symbol
    made to raise, scans, quotients, sigma, Rayleigh sums and wave checks
    still complete on the hybrid and the source space."""
    def dense(*args, **kwargs):
        raise AssertionError("dense symbol matrix built")

    monkeypatch.setattr(symbol, "box_symbol", dense)
    spec = spec_for(2, 2, 1, "diagonal")
    assert source_symbol_scalar(spec, (2, 3)) == 97
    for source in (False, True):
        for q in range((spec.n if source else spec.N) + 1):
            rep = ellipticity_scan(spec, q, source=source, samples=4, seed=1)
            assert rep["exact_arithmetic"] and rep["min_quotient"] > 0
            quotient = lh_quotient(spec, q, (1, 2), source=source)
            assert isinstance(quotient, Fraction)
            width = spec.n if source else spec.N
            zeta = [Fraction(1)] + [Fraction(0)] * (math.comb(width, q) - 1)
            assert (symbol_rayleigh(spec, q, (1, 2), zeta, source=source)
                    == quotient * 5 ** spec.k)
            assert wave_symbol_check(spec, q, (1, 2), source=source)


def test_rayleigh_equals_dense_quadratic_form():
    """<S(xi) zeta, zeta> from the slots equals sum S_ij zeta_i zeta_j of
    the dense matrix, for random rational xi and zeta, ell = 1, 2, 3 on
    both spaces."""
    rng = random.Random(29)
    specs = [spec_for(2, 2, 1, "diagonal"), spec_for(3, 2, 1),
             spec_for(2, 2, 2), spec_for(3, 2, 2), spec_for(3, 3, 3)]
    for spec in specs:
        for source in (False, True):
            for q in range((spec.n if source else spec.N) + 1):
                xi = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5))
                           for _ in range(spec.n))
                labs, S = box_symbol(spec, q, xi, source=source)
                zeta = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                        for _ in labs]
                dense = sum(S[i][j] * zeta[i] * zeta[j]
                            for i in range(len(labs))
                            for j in range(len(labs)))
                assert symbol_rayleigh(spec, q, xi, zeta,
                                       source=source) == dense
