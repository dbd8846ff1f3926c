"""Acceptance battery.

Seven end-to-end criteria, one test and one printed PASS/FAIL line each.
The lines are written through the capture (sys.__stdout__) so they appear
in piped pytest output.
"""

import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from divcurl.forms import Form, lp_norm, sample_form
from divcurl.gridfield import GridField, grid_points
from divcurl.increments import admissible_increments
from divcurl.inequalities import (
    bump_form,
    classical_gn_ratio,
    dilate_form_specs,
    duality_ratio,
    gn_ratio,
    hodge_solve,
    random_bump_form,
)
from divcurl.multiindex import random_ordering
from divcurl.operators import (
    OperatorSpec,
    apply_T,
    divergence_defect,
    invariance_defect,
    spec_for,
    vs_lift,
    vs_reduction,
)
from divcurl.randoms import divergence_free_family, random_trig_form
from divcurl.symbol import box_symbol, ellipticity_scan, lh_quotient
from divcurl.trigpoly import TrigPoly
from divcurl.verify import identity_suite

_RESULTS = []


def _announce(num, passed, elapsed, detail=""):
    line = (f"CRITERION {num}: {'PASS' if passed else 'FAIL'}"
            f" ({elapsed:.2f} s)" + (f"  {detail}" if detail else ""))
    _RESULTS.append(line)
    print("\n" + line, file=sys.__stdout__, flush=True)


@contextmanager
def criterion(num, budget, detail_box=None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        _announce(num, False, time.perf_counter() - t0)
        raise
    dt = time.perf_counter() - t0
    detail = detail_box[0] if detail_box else ""
    if dt > budget:
        _announce(num, False, dt, f"runtime budget {budget} s exceeded")
        pytest.fail(f"criterion {num} exceeded runtime budget: {dt:.1f} s")
    _announce(num, True, dt, detail)


# ---- criterion 1: increment solver --------------------------------------------


def test_criterion_1_increments():
    box = [""]
    with criterion(1, 1.0, box):
        admissible = admissible_increments(2, 9)
        assert [(s.ell, s.N) for s in admissible] == \
            [(1, 10), (2, 5), (3, 5), (9, 10)]
        assert all(s.N >= 2 - 1 + s.ell for s in admissible)
        for n in range(2, 11):
            admissible = admissible_increments(n, 1)
            assert [(s.ell, s.N) for s in admissible] == [(1, n)]
        # the (2, 29) family: ell = 2 would need C(N, 2) = 30, but the
        # triangular numbers jump from 28 to 36, so the exact answer is
        # {1, 29} and nothing else
        admissible = admissible_increments(2, 29)
        ells = [s.ell for s in admissible]
        assert ells == [1, 29]
        assert 2 not in ells
        box[0] = "(2,9) -> {1,2,3,9}; (n,1) -> (1,n); (2,29) -> {1,29}, " \
                 "ell=2 has no binomial solution"


# ---- criterion 2: exact identity suite ----------------------------------------


def _all_specs_n3_k3():
    out = []
    for n in (2, 3):
        for k in (1, 2, 3):
            for sol in admissible_increments(n, k):
                out.append((n, k, sol.ell, sol.N))
    return out


def _orderings_for(n, k, ell, N, rng):
    specs = [spec_for(n, k, ell, "lexicographic")]
    if ell == 1:
        specs.append(spec_for(n, k, ell, "diagonal"))
        if k >= 2:
            specs.append(spec_for(n, k, ell, "chained"))
    for _ in range(5):
        specs.append(OperatorSpec(n, k, ell, N, random_ordering(n, k, ell, N, rng)))
    return specs


def test_criterion_2_exact_identity_suite():
    box = [""]
    with criterion(2, 300.0, box):
        rng = random.Random(20240814)
        total_records = 0
        total_specs = 0
        for n, k, ell, N in _all_specs_n3_k3():
            for spec in _orderings_for(n, k, ell, N, rng):
                records = identity_suite(spec, rng, deep=True)
                bad = next((r for r in records if not r.passed), None)
                assert bad is None, \
                    f"{bad.case} {spec.ordering.digest()}: {bad.name}: {bad.detail}"
                total_records += len(records)
                total_specs += 1
        box[0] = f"{total_records} exact checks over {total_specs} " \
                 f"spec/ordering instances, zero tolerance"
        assert total_specs >= 11 * 6
        assert total_records >= 3683  # a lower count means a check stopped running


# ---- criterion 3: symbol criteria ----------------------------------------------


def test_criterion_3_symbols():
    box = [""]
    with criterion(3, 60.0, box):
        # chained source symbol: exact degeneracy, witnesses on xi_1 = 0
        for n, k in [(2, 2), (2, 3), (3, 2)]:
            spec = spec_for(n, k, 1, "chained")
            rep = ellipticity_scan(spec, 0, source=True, samples=40, seed=1)
            assert rep["min_quotient"] == 0
            assert rep["degenerate_witnesses"]
            for w in rep["degenerate_witnesses"]:
                assert Fraction(w[0]) == 0
        # diagonal source symbol: sharp lower bound n^{1-k}, attained at ones
        for n, k in [(2, 2), (2, 3), (3, 2), (3, 3)]:
            spec = spec_for(n, k, 1, "diagonal")
            bound = Fraction(1, n ** (k - 1))
            rep = ellipticity_scan(spec, 0, source=True, samples=40, seed=2)
            assert float(rep["min_quotient"]) >= float(bound) - 1e-12
            ones = lh_quotient(spec, 0, (1,) * n, source=True)
            assert abs(float(ones) - float(bound)) < 1e-6
            assert ones == bound  # exact in fact
        # hybrid unit-step symbol: scalar, identical across orderings
        rng = random.Random(3)
        n, k, ell = 2, 2, 1
        N = spec_for(n, k, ell).N
        specs = [spec_for(n, k, ell, kind)
                 for kind in ("lexicographic", "diagonal", "chained")]
        specs += [OperatorSpec(n, k, ell, N, random_ordering(n, k, ell, N, rng))
                  for _ in range(2)]
        for q in (0, 1, 2):
            for xi in [(2, 3), (1, -1), (Fraction(1, 2), 5)]:
                mats = [box_symbol(s, q, xi)[1] for s in specs]
                first = mats[0]
                assert all(m == first for m in mats[1:])
                diag = first[0][0]
                assert all(first[i][j] == (diag if i == j else 0)
                           for i in range(len(first))
                           for j in range(len(first)))
        box[0] = "chained degenerate on xi_1 = 0; diagonal sharp at ones; " \
                 "unit-step symbol scalar and ordering independent"


# ---- criterion 4: spectral Hodge solver ----------------------------------------


def _band_trigpoly(rng, n, modes=25, max_freq=20):
    """Rational band-limited data with amplitude decay 3^(-|freq|_inf).

    The decay keeps the P = 64 solve at spectral accuracy while leaving
    the 17..20-frequency tail large enough that its aliasing on a P = 32
    grid rises visibly above the floating point floor yet stays inside
    the solver's closedness gate.
    """
    acc = None
    for _ in range(modes):
        freq = tuple(rng.randint(-max_freq, max_freq) for _ in range(n))
        if all(f == 0 for f in freq):
            freq = (1,) + (0,) * (n - 1)
        coef = Fraction(rng.randint(1, 9) * rng.choice((-1, 1)),
                        3 ** max(abs(f) for f in freq))
        w = TrigPoly.wave(n, freq, rng.randint(0, 1), coef)
        acc = w if acc is None else acc + w
    return acc


def test_criterion_4_hodge_solver():
    box = [""]
    with criterion(4, 120.0, box):
        rows = []
        # q is chosen so the closed datum F sits strictly below the top
        # degree; at the top the discrete problem is consistent for any
        # data and the aliasing defect would be invisible
        for idx, (n, k, q) in enumerate([(2, 1, 0), (2, 2, 1), (3, 2, 1)]):
            spec = spec_for(n, k, 1, "diagonal")
            N = spec.N
            rng = random.Random(41 + idx)
            from divcurl.multiindex import labels as _labels

            labs = _labels(N, q)
            phi = Form(n, N, q, {
                lab: _band_trigpoly(rng, n)
                for lab in rng.sample(labs, min(2, len(labs)))
            }, backend="trig")
            F_exact = apply_T(spec, phi)           # closed (q+1)-form
            G_exact = None
            if q >= 1:
                g = _band_trigpoly(rng, n)         # waves are mean free
                G_exact = Form(n, N, q - 1, {(): g}, backend="trig")
            residuals = {}
            for P in (64, 32):
                F = sample_form(F_exact, P)
                G = sample_form(G_exact, P) if G_exact is not None else None
                Z, info = hodge_solve(spec, q, F=F, G=G, closed_tol=1e-2)
                res = info["residual_T"] / max(lp_norm(F, 2), 1e-30)
                if G is not None:
                    res = max(res, info["residual_Tstar"]
                              / max(lp_norm(G, 2), 1e-30))
                residuals[P] = res
            assert residuals[64] <= 1e-8, residuals
            # halving the grid aliases the 17..20-frequency tail; doubling
            # back restores spectral accuracy by orders of magnitude
            assert residuals[32] > 10 * residuals[64]
            rows.append(f"(n,k)=({n},{k}): res64={residuals[64]:.1e} "
                        f"res32={residuals[32]:.1e}")
        box[0] = "; ".join(rows)


# ---- criterion 5: inequality probes --------------------------------------------


def test_criterion_5_inequality_probes():
    box = [""]
    with criterion(5, 600.0, box):
        cases = 50
        details = []

        # gn_ratio stability for both probed source specs
        for spec, tag in [(spec_for(2, 1, 1), "k1"),
                          (spec_for(2, 2, 1, "diagonal"), "k2")]:
            rng = random.Random(900 + spec.k)
            maps = [random_bump_form(rng, 2, 2, 0, 64, components=1,
                                     sigma_range=(0.16, 0.2), spread=0.5)[1]
                    for _ in range(cases)]
            r64 = [gn_ratio(spec, bump_form(2, 2, 0, m, 64)) for m in maps]
            r128 = [gn_ratio(spec, bump_form(2, 2, 0, m, 128)) for m in maps]
            grid_shift = abs(max(r128) / max(r64) - 1)
            assert grid_shift < 0.05, (tag, grid_shift)
            maxima = []
            for lam in (0.5, 1.0, 2.0):
                vals = [gn_ratio(spec, bump_form(
                    2, 2, 0, dilate_form_specs(m, lam), 128)) for m in maps]
                maxima.append(max(vals))
            dil_shift = max(maxima) / min(maxima) - 1
            assert dil_shift < 0.10, (tag, dil_shift)
            details.append(f"gn[{tag}]: grid {grid_shift:.1e}, "
                           f"dilation {dil_shift:.1e}")

        # duality_ratio stability (first order source pairing, q = 1)
        rng = random.Random(903)
        pairs = []
        for _ in range(cases):
            _, Fm = random_bump_form(rng, 2, 2, 1, 64, components=2,
                                     sigma_range=(0.16, 0.2), spread=0.5)
            _, Hm = random_bump_form(rng, 2, 2, 1, 64, components=2,
                                     sigma_range=(0.16, 0.2), spread=0.5)
            pairs.append((Fm, Hm))
        d64 = [duality_ratio(bump_form(2, 2, 1, F, 64),
                             bump_form(2, 2, 1, H, 64)) for F, H in pairs]
        d128 = [duality_ratio(bump_form(2, 2, 1, F, 128),
                              bump_form(2, 2, 1, H, 128)) for F, H in pairs]
        grid_shift = abs(max(d128) / max(d64) - 1)
        assert grid_shift < 0.05, grid_shift
        maxima = []
        for lam in (0.5, 1.0, 2.0):
            vals = [duality_ratio(
                bump_form(2, 2, 1, dilate_form_specs(F, lam), 128),
                bump_form(2, 2, 1, dilate_form_specs(H, lam), 128))
                for F, H in pairs]
            maxima.append(max(vals))
        dil_shift = max(maxima) / min(maxima) - 1
        assert dil_shift < 0.10, dil_shift
        details.append(f"duality: grid {grid_shift:.1e}, "
                       f"dilation {dil_shift:.1e}")

        # independent classical Gagliardo-Nirenberg cross-check
        rng = random.Random(905)
        spec = spec_for(2, 1, 1)
        worst = 0.0
        for _ in range(cases):
            u, _ = random_bump_form(rng, 2, 2, 0, 64, components=1)
            ours = gn_ratio(spec, u)
            theirs = classical_gn_ratio(u.coeffs[()].samples)
            worst = max(worst, abs(ours - theirs) / theirs)
        assert worst < 0.01, worst
        details.append(f"classical gap {worst:.1e}")
        box[0] = "; ".join(details)


# ---- criterion 6: rotation invariance ------------------------------------------


def _gauss_probe(n, P, sigma=0.24):
    xs = grid_points(n, P)
    g = np.exp(-np.sum((xs - np.pi) ** 2, axis=-1) / (2 * sigma**2))
    return Form(n, n, 0, {(): GridField(n, P, g)}, backend="grid")


def test_criterion_6_invariance():
    box = [""]
    with criterion(6, 60.0, box):
        rng = np.random.default_rng(77)
        spec1 = spec_for(2, 1, 1, "diagonal")
        F = _gauss_probe(2, 64)
        worst = 0.0
        for _ in range(20):
            theta = rng.uniform(0, 2 * np.pi)
            A = np.array([[np.cos(theta), -np.sin(theta)],
                          [np.sin(theta), np.cos(theta)]])
            worst = max(worst, invariance_defect(spec1, A, F))
        assert worst <= 1e-10, worst
        # every tested second order dictionary must break invariance
        theta = 0.9
        A = np.array([[np.cos(theta), -np.sin(theta)],
                      [np.sin(theta), np.cos(theta)]])
        broken = []
        for spec in [spec_for(2, 2, 1, "diagonal"),
                     spec_for(2, 2, 1, "lexicographic"),
                     spec_for(2, 2, 1, "chained"),
                     spec_for(2, 2, 2)]:
            d = invariance_defect(spec, A, F)
            assert d > 1e-3, (spec.ordering.kind, spec.ell, d)
            broken.append(d)
        box[0] = (f"k=1 worst defect {worst:.1e} over 20 rotations; "
                  f"k=2 defects all > 1e-3 "
                  f"(min {min(broken):.2f})")


# ---- criterion 7: reduction transport ------------------------------------------


def test_criterion_7_reduction_transport():
    box = [""]
    with criterion(7, 120.0, box):
        rng = random.Random(4321)
        tphi_specs = [
            spec_for(2, 1, 1),
            spec_for(2, 2, 1, "diagonal"),
            spec_for(2, 2, 1, "chained"),
            spec_for(2, 3, 1, "chained"),
            spec_for(3, 1, 1),
            spec_for(3, 2, 1, "diagonal"),
            spec_for(3, 3, 1),
        ]
        lift_specs = [spec_for(2, 3, 3), spec_for(3, 3, 3)]
        fields = 0
        for spec in tphi_specs:
            q = spec.N - spec.ell
            for _ in range(12):
                phi = random_trig_form(rng, spec.n, spec.N, q - spec.ell,
                                       components=2)
                F = apply_T(spec, phi)
                if F.is_zero():
                    continue
                g = vs_reduction(spec, F)
                defect = divergence_defect(g)
                assert defect is None or defect.is_zero()
                assert (vs_lift(spec, g) - F).is_zero()
                fields += 1
        for spec in lift_specs:
            for _ in range(8):
                fam = divergence_free_family(spec, rng)
                F = vs_lift(spec, fam)
                assert apply_T(spec, F).is_zero()
                g = vs_reduction(spec, F)
                defect = divergence_defect(g)
                assert defect is None or defect.is_zero()
                assert (vs_lift(spec, g) - F).is_zero()
                fields += 1
        assert fields >= 100, fields
        box[0] = f"{fields} closed fields, divergence and round trip exact"
