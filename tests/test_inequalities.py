"""Bump probes, inequality ratios, spectral inversion and scalar reduction."""

import random
import re

import numpy as np
import pytest

from divcurl.forms import Form, lp_norm, zero_form
from divcurl.gridfield import GridField
from divcurl.inequalities import (
    BumpSpec,
    _check_config,
    classical_gn_ratio,
    default_config,
    duality_dilation_study,
    duality_ratio,
    gn_ratio,
    hodge_solve,
    make_closed_source,
    make_coclosed_source,
    random_bump_form,
    run_suite,
    scalar_symbol_array,
)
from divcurl.multiindex import complement, multiindices, random_ordering
from divcurl.operators import (
    OperatorSpec,
    apply_T,
    divergence_defect,
    spec_for,
    vs_lift,
    vs_reduction,
)
from divcurl.randoms import divergence_free_family, random_trig_form
from divcurl.trigpoly import TrigPoly
from divcurl.verify import default_cases


def test_bump_periodization_and_dilation():
    b = BumpSpec(2.0, (np.pi, np.pi), (0.3, 0.4))
    f = b.field(2, 64)
    # periodized Gaussian mean: amplitude * prod sigma sqrt(2 pi) / (2 pi)
    expected = 2.0 * (0.3 * 0.4 * 2 * np.pi) / (2 * np.pi) ** 2
    assert abs(f.mean() - expected) < 1e-12
    d = b.dilate(0.5)
    assert d.sigmas == (0.15, 0.2)
    assert np.allclose(d.centers, (np.pi, np.pi))
    off = BumpSpec(1.0, (np.pi + 0.8, np.pi), (0.3, 0.3)).dilate(0.5)
    assert abs(off.centers[0] - (np.pi + 0.4)) < 1e-12


def test_duality_ratio_dilation_invariant():
    rng = random.Random(3)
    _, F_specs = random_bump_form(rng, 2, 2, 1, 64, sigma_range=(0.25, 0.35),
                                  spread=0.6)
    _, H_specs = random_bump_form(rng, 2, 2, 1, 64, sigma_range=(0.25, 0.35),
                                  spread=0.6)
    study = duality_dilation_study(2, 2, 1, F_specs, H_specs,
                                   [1.0, 0.8, 0.6], 64)
    assert study["max_drift"] < 1e-2
    assert all(r > 0 for r in study["ratios"])


def test_duality_ratio_validation():
    rng = random.Random(4)
    F, _ = random_bump_form(rng, 2, 2, 1, 32)
    H, _ = random_bump_form(rng, 2, 2, 0, 32)
    with pytest.raises(ValueError):
        duality_ratio(F, H)
    Z = zero_form(2, 2, 1, backend="grid", P=32)
    with pytest.raises(ValueError):
        duality_ratio(Z, Z)


def test_gn_matches_independent_classical_computation():
    """k = 1, q = 0: the ratio must agree with a plain-numpy rebuild."""
    rng = random.Random(7)
    spec = spec_for(2, 1, 1)
    for _ in range(3):
        u, _ = random_bump_form(rng, 2, 2, 0, 64, components=1)
        ours = gn_ratio(spec, u)
        independent = classical_gn_ratio(u.coeffs[()].samples)
        assert abs(ours - independent) / independent < 1e-12


def test_gn_excluded_degrees_guarded():
    spec = spec_for(2, 1, 1)
    rng = random.Random(8)
    u, _ = random_bump_form(rng, 2, 2, 1, 32)
    with pytest.raises(ValueError, match="side condition"):
        gn_ratio(spec, u)
    # generic data do not satisfy the claimed side condition either
    with pytest.raises(ValueError, match="not closed"):
        gn_ratio(spec, u, assume="closed")
    # the unconstrained probe path stays available
    assert gn_ratio(spec, u, allow_excluded=True) > 0


def test_gn_side_conditions_accepted_for_constructed_data():
    spec = spec_for(2, 1, 1)
    rng = random.Random(9)
    closed = make_closed_source(spec, 1, rng, 64)
    assert gn_ratio(spec, closed, assume="closed") > 0
    coclosed = make_coclosed_source(spec, 1, rng, 64)
    assert gn_ratio(spec, coclosed, assume="coclosed") > 0
    # closedness defect of the constructed data is at spectral accuracy
    Tc = apply_T(spec, closed)
    assert lp_norm(Tc, 2) < 1e-12 * max(lp_norm(closed, 2), 1e-30)


def test_make_closed_rejects_even_step():
    spec = spec_for(2, 2, 2)
    with pytest.raises(ValueError):
        make_closed_source(spec, 2, random.Random(0), 32)


def test_scalar_symbol_array_matches_exact_symbol():
    """The discrete multiplier array equals the hybrid scalar symbol at
    below-Nyquist frequencies (all alpha contribute, not just source ones)."""
    from divcurl.symbol import min_symbol_eigenvalue

    spec = spec_for(2, 2, 1, "diagonal")
    sig = scalar_symbol_array(spec, 32)
    for freq in [(1, 0), (2, 3), (0, 5), (4, 4)]:
        exact = float(min_symbol_eigenvalue(spec, 0, freq))
        assert abs(sig[freq] - exact) < 1e-9 * max(exact, 1)
    assert sig[0, 0] == 0


def test_hodge_solve_grid_exact_both_parities():
    rng = random.Random(11)
    for n, k, kind in [(2, 1, "lexicographic"), (2, 2, "diagonal")]:
        spec = spec_for(n, k, 1, kind)
        q = 1
        phi, _ = random_bump_form(rng, n, spec.N, q, 64, components=2)
        F = apply_T(spec, phi)  # closed (q+1)-form built on the grid
        Z, info = hodge_solve(spec, q, F=F)
        assert info["closedness_F"] < 1e-12
        assert info["residual_T"] < 1e-10
        # coexact datum: a mean-free 0-form
        g0, _ = random_bump_form(rng, n, spec.N, 0, 64, components=1)
        c = g0.coeffs[()]
        centered = GridField(n, 64, c.samples - c.samples.mean())
        G = Form(n, spec.N, 0, {(): centered}, backend="grid")
        Z2, info2 = hodge_solve(spec, q, G=G)
        assert info2["residual_Tstar"] < 1e-10


def test_hodge_solve_rejects_bad_data():
    """Each bad datum, on the F side and on the G side, raises its own
    message."""
    rng = random.Random(12)
    spec = spec_for(2, 1, 1)
    junk, _ = random_bump_form(rng, 2, 2, 1, 32, components=2)
    # closed and coclosed but not mean free: constant-coefficient form
    const = Form(2, 2, 1, {(1,): GridField(2, 32, np.ones((32, 32)))},
                 backend="grid")
    exact = random_trig_form(rng, 2, 2, 1)
    cases = [
        (spec, 0, {"F": junk}, "F is not closed to the requested tolerance"),
        (spec, 0, {"F": const}, "F must be mean free"),
        (spec, 1, {"F": junk}, "F must be a hybrid (q+1)-form"),
        (spec, 2, {"G": junk}, "G is not coclosed to the requested tolerance"),
        (spec, 2, {"G": const}, "G must be mean free"),
        (spec, 0, {"G": junk}, "G must be a hybrid (q-1)-form"),
        (spec, 0, {"F": exact}, "hodge_solve works on the grid backend"),
        (spec, 2, {"G": exact}, "hodge_solve works on the grid backend"),
        (spec, 0, {}, "need at least one datum"),
        (spec_for(2, 2, 2), 0, {"F": junk},
         "spectral inversion implemented for ell = 1"),
    ]
    for spec_, q, data, message in cases:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            hodge_solve(spec_, q, **data)


def test_reduction_and_lift_are_mutually_inverse():
    rng = random.Random(13)
    for spec in [spec_for(2, 2, 1, "diagonal"), spec_for(2, 2, 2),
                 spec_for(3, 2, 1)]:
        q = spec.N - spec.ell
        F = random_trig_form(rng, spec.n, spec.N, q, components=3)
        g = vs_reduction(spec, F)
        back = vs_lift(spec, g)
        assert (back - F).is_zero()
        g2 = vs_reduction(spec, back)
        assert set(g2) == set(g)
        for alpha in g:
            assert (g2[alpha] - g[alpha]).is_zero()


def test_lift_and_reduction_round_trip_a_grid_family():
    """vs_lift takes its backend and resolution from the family."""
    spec = spec_for(2, 2, 1)
    rng = np.random.default_rng(17)
    g = {alpha: GridField(2, 16, rng.standard_normal((16, 16)))
         for alpha in multiindices(2, 2)}
    F = vs_lift(spec, g)
    assert (F.backend, F.P) == ("grid", 16)
    back = vs_reduction(spec, F)
    assert set(back) == set(g)
    for alpha, field in g.items():
        assert np.array_equal(back[alpha].samples, field.samples)


@pytest.mark.parametrize("key", [(2, 0, 0), (1, 0), (3, 0)])
def test_lift_rejects_a_key_outside_the_multiindices(key):
    spec = spec_for(2, 2, 2)  # N = 3, so (2, 0, 0) is (2, 0) embedded
    with pytest.raises(ValueError, match="multiindices"):
        vs_lift(spec, {key: TrigPoly.wave(2, (1, 0), 0, 1)})


def test_lift_and_reduction_signs_match_the_complement():
    """vs_lift, vs_reduction and T at degree N - ell read one table, so a
    sign fault there cancels in every check that pairs them.  Here each
    sign is compared with multiindex.complement instead, for every default
    case and two random orderings of each."""
    rng = random.Random(16)
    specs = []
    for n, k, ell, kind in default_cases():
        spec = spec_for(n, k, ell, kind)
        specs += [spec] + [
            OperatorSpec(n, k, ell, spec.N,
                         random_ordering(n, k, ell, spec.N, rng))
            for _ in range(2)]
    for spec in specs:
        one = TrigPoly.const(spec.n, 1)
        for alpha in multiindices(spec.n, spec.k):
            a = spec.ordering.label_of(alpha)
            I, _ = complement(a, spec.N)
            comp, sign = complement(I, spec.N)  # sign = epsilon^{a I}
            assert comp == a
            F = vs_lift(spec, {alpha: one})
            assert F.coeffs == {I: one.scale(sign)}
            g = vs_reduction(spec, F)
            assert g == {alpha: one}


def test_reduction_of_closed_form_is_divergence_free():
    rng = random.Random(14)
    spec = spec_for(2, 2, 1, "diagonal")
    q = spec.N - spec.ell
    phi = random_trig_form(rng, 2, spec.N, q - spec.ell, components=3)
    F = apply_T(spec, phi)  # closed because the step is odd
    g = vs_reduction(spec, F)
    defect = divergence_defect(g)
    assert defect is None or defect.is_zero()


def test_divergence_free_family_lifts_to_closed_form():
    rng = random.Random(15)
    spec = spec_for(2, 2, 1, "diagonal")
    fam = divergence_free_family(spec, rng)
    defect = divergence_defect(fam)
    assert defect is None or defect.is_zero()
    F = vs_lift(spec, fam)
    assert apply_T(spec, F).is_zero()


def test_run_suite_deterministic():
    config = {
        "seed": 5,
        "probes": [
            {"kind": "gn", "n": 2, "k": 1, "ell": 1, "q": 0, "trials": 2,
             "P": 32, "sigma_range": [0.25, 0.4]},
            {"kind": "classical_gn", "n": 2, "trials": 2, "P": 32},
        ],
    }
    r1 = run_suite(config)
    r2 = run_suite(config)
    assert r1 == r2
    assert r1["schema"] == "divcurl.report/1"
    assert len(r1["results"]) == 2
    assert r1["results"][1]["max_rel_gap"] < 1e-12


def test_run_suite_rejects_unknown_probe():
    with pytest.raises(ValueError, match="unknown probe kind"):
        run_suite({"seed": 0, "probes": [{"kind": "nope"}]})
    empty = run_suite({"seed": 0, "probes": []})
    assert empty["results"] == []


def test_run_suite_names_missing_keys():
    config = {"seed": 0, "probes": [{"kind": "duality", "n": 2, "k": 1}]}
    with pytest.raises(ValueError) as err:
        run_suite(config)
    assert "probe 0 (duality)" in str(err.value)
    assert "'q'" in str(err.value) and "'sigma_range'" in str(err.value)


def test_default_config_shape():
    cfg = default_config()
    kinds = [e["kind"] for e in cfg["probes"]]
    assert kinds == ["duality", "gn", "gn_dilation", "classical_gn", "hodge"]


def test_config_bump_widths_are_bounded_on_the_probe_grid():
    """A width passes when a bump centered half a grid step off the nodes
    keeps a nonzero sample on the probe's grid: P, or the kind's default
    P when the entry has none."""
    entry = {"kind": "gn", "n": 2, "k": 1, "ell": 1, "q": 0,
             "sigma_range": [0.002, 0.25]}
    _check_config({"probes": [entry]})                      # P = 64
    with pytest.raises(ValueError, match=r"^probe 0 \(gn\): bump width 0\.002 "):
        _check_config({"probes": [dict(entry, P=8)]})
    _check_config(default_config())
