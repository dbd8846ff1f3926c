"""Operator layer: actions, adjoints, compositions, coefficient tensors."""

import random
from fractions import Fraction

import numpy as np
import pytest

import divcurl.operators as ops
from divcurl.forms import Form, form_max_abs, inner_product, sample_form
from divcurl.multiindex import labels, random_ordering
from divcurl.operators import (
    OperatorSpec,
    apply_T,
    apply_T_star,
    apply_T_star_coordinate,
    apply_Top,
    apply_Top_star,
    apply_Top_star_coordinate,
    box_apply,
    box_apply_top,
    box_coeff_closed_form,
    box_coeff_tensor,
    coeff_entry_closed_form,
    coeff_entry_direct,
    compose_TT,
    invariance_defect,
    spec_for,
    top_coeff_tensor,
    tt_single_orientation,
)
from divcurl.randoms import random_trig_form
from divcurl.trigpoly import TrigPoly

SPECS = [
    spec_for(2, 1, 1),
    spec_for(2, 2, 1, "diagonal"),
    spec_for(2, 2, 2),
    spec_for(2, 3, 1, "chained"),
    spec_for(3, 2, 2),
    spec_for(3, 2, 1, "diagonal"),
]

# the adjoint tests also run every degree of (3, 3, 1) (N = 10) and random
# orderings of odd- and even-ell specs, drawn from their own generator
_SHUFFLE = random.Random(35)
ADJOINT_SPECS = SPECS + [spec_for(3, 3, 1)] + [
    OperatorSpec(3, k, ell, N, random_ordering(3, k, ell, N, _SHUFFLE))
    for k, ell, N in [(2, 1, 6), (3, 1, 10), (2, 2, 4), (3, 2, 5)]]


def wave(n, freq, phase=0, coef=1):
    return TrigPoly.wave(n, freq, phase, coef)


def test_spec_validation():
    with pytest.raises(ValueError):
        OperatorSpec(2, 2, 2, 4, spec_for(2, 2, 2).ordering)  # C(4,2)=6 != 3
    with pytest.raises(ValueError):
        spec_for(2, 2, 2, "diagonal")  # diagonal needs ell = 1
    s = spec_for(2, 2, 1, "diagonal")
    assert (s.n, s.k, s.ell, s.N) == (2, 2, 1, 3)
    assert len(s.digest()) == 16


def test_k1_action_is_exterior_derivative():
    """For k = 1 the raising operator is the usual gradient/curl ladder."""
    spec = spec_for(2, 1, 1)
    f = wave(2, (1, 2), 0, 1)
    F = Form(2, 2, 0, {(): f}, backend="trig")
    TF = apply_T(spec, F)
    assert TF.coeff((1,)) == f.diff(0)
    assert TF.coeff((2,)) == f.diff(1)
    # on 1-forms it is the scalar curl d1 F2 - d2 F1
    G = Form(2, 2, 1, {(1,): wave(2, (0, 1), 1, 1), (2,): wave(2, (1, 0), 0, 1)},
             backend="trig")
    TG = apply_T(spec, G)
    assert TG.coeff((1, 2)) == G.coeff((2,)).diff(0) - G.coeff((1,)).diff(1)


def test_diagonal_second_order_action_oracle():
    """(n,k) = (2,2) diagonal: components are d11, d22, d12 of the source."""
    spec = spec_for(2, 2, 1, "diagonal")
    f = wave(2, (1, 2), 0, 1)
    F = Form(2, 3, 0, {(): f}, backend="trig")
    TF = apply_T(spec, F)
    assert TF.coeff((1,)) == f.diff_alpha((2, 0))
    assert TF.coeff((2,)) == f.diff_alpha((0, 2))
    assert TF.coeff((3,)) == f.diff_alpha((1, 1))


def test_box_on_plane_wave_frozen():
    # k = 1: the Laplacian of cos(x1) is cos(x1) in this normalization
    spec = spec_for(2, 1, 1)
    F = Form(2, 2, 0, {(): wave(2, (1, 0), 0, 1)}, backend="trig")
    assert (box_apply(spec, F) - F).is_zero()
    # k = 2 diagonal: the symbol at xi = (1,0) is 1 as well
    spec2 = spec_for(2, 2, 1, "diagonal")
    F2 = Form(2, 3, 0, {(): wave(2, (1, 0), 0, 1)}, backend="trig")
    assert (box_apply(spec2, F2) - F2).is_zero()
    # and at xi = (1,1) the quartic symbol gives 1+1+1 = 3
    F3 = Form(2, 3, 0, {(): wave(2, (1, 1), 0, 1)}, backend="trig")
    assert (box_apply(spec2, F3) - F3.scale(3)).is_zero()


def test_adjointness_exact_random_forms():
    rng = random.Random(31)
    for spec in ADJOINT_SPECS:
        for q in range(spec.N - spec.ell + 1):
            F = random_trig_form(rng, spec.n, spec.N, q, components=3)
            G = apply_T(spec, F) + random_trig_form(
                rng, spec.n, spec.N, q + spec.ell, components=2)
            lhs = inner_product(apply_T(spec, F), G)
            rhs = inner_product(F, apply_T_star(spec, G))
            assert lhs == rhs and isinstance(lhs, Fraction)


def test_adjoint_routes_agree():
    rng = random.Random(32)
    for spec in ADJOINT_SPECS:
        for q in range(spec.ell, spec.N + 1):
            H = random_trig_form(rng, spec.n, spec.N, q, components=2)
            a = apply_T_star_coordinate(spec, H)
            b = apply_T_star(spec, H)
            assert (a - b).is_zero()


def test_source_adjointness():
    rng = random.Random(33)
    for spec in ADJOINT_SPECS:
        if spec.n < spec.ell:
            continue
        for q in range(spec.n - spec.ell + 1):
            f = random_trig_form(rng, spec.n, spec.n, q, components=2)
            g = apply_Top(spec, f) + random_trig_form(
                rng, spec.n, spec.n, q + spec.ell, components=2)
            assert inner_product(apply_Top(spec, f), g) == \
                inner_product(f, apply_Top_star(spec, g))


def test_source_adjoint_routes_agree_on_both_backends():
    rng = random.Random(36)
    for spec in ADJOINT_SPECS:
        if spec.n < spec.ell:
            continue
        for q in range(spec.ell, spec.n + 1):
            h = random_trig_form(rng, spec.n, spec.n, q, components=2)
            coordinate = apply_Top_star_coordinate(spec, h)
            assert (coordinate - apply_Top_star(spec, h)).is_zero()
            hg = sample_form(h, 16)
            diff = apply_Top_star_coordinate(spec, hg) - apply_Top_star(spec, hg)
            scale = max(form_max_abs(sample_form(coordinate, 16)), 1.0)
            assert form_max_abs(diff) < 1e-10 * scale


def test_source_coordinate_adjoint_guards():
    spec = spec_for(3, 2, 2)
    h = Form(3, 3, 2, {(1, 2): wave(3, (1, 0, 1))}, backend="trig")
    with pytest.raises(ValueError, match="source forms live over N == n"):
        apply_Top_star_coordinate(spec, Form(3, 4, 2, {}, backend="trig"))
    with pytest.raises(ValueError, match="adjoint needs degree q >= ell"):
        apply_Top_star_coordinate(spec, Form(3, 3, 1, {}, backend="trig"))
    thin = spec_for(2, 3, 3)  # n = 2 < ell = 3
    with pytest.raises(ValueError, match="source operator is trivial"):
        apply_Top_star_coordinate(thin, Form(2, 2, 2, {}, backend="trig"))
    assert not apply_Top_star_coordinate(spec, h).is_zero()


def test_composition_vanishes_iff_step_is_odd():
    rng = random.Random(34)
    odd = [s for s in SPECS if s.ell % 2 == 1]
    for spec in odd:
        for q in range(spec.N - 2 * spec.ell + 1):
            F = random_trig_form(rng, spec.n, spec.N, q, components=3)
            assert compose_TT(spec, F).is_zero()
    # even step: nonzero, and equal to twice the ordered-orientation sum
    even = [spec_for(3, 2, 2), spec_for(3, 3, 2)] + [
        s for s in ADJOINT_SPECS if s.ell % 2 == 0 and s.ordering.kind == "random"]
    for spec in even:
        for q in range(spec.N - 2 * spec.ell + 1):
            probe = wave(spec.n, tuple(range(1, spec.n + 1)), 0, 1)
            F = Form(spec.n, spec.N, q,
                     {labels(spec.N, q)[0]: probe}, backend="trig")
            F = F + random_trig_form(rng, spec.n, spec.N, q, components=2)
            TTF = compose_TT(spec, F)
            single = tt_single_orientation(spec, F)
            assert not TTF.is_zero()
            assert (TTF - single.scale(2)).is_zero()


def test_composition_degree_guard():
    spec = spec_for(2, 2, 2)  # N = 3, so q + 4 > 3 always
    F = Form(2, 3, 0, {(): wave(2, (1, 1), 0, 1)}, backend="trig")
    with pytest.raises(ValueError):
        compose_TT(spec, F)


def test_tensor_triple_agreement():
    """Summation tensor == closed form == direct entry evaluation, on the
    hybrid space and (when n >= ell) on the source space."""
    rng = random.Random(35)
    cases = [(spec, q, False) for spec in ADJOINT_SPECS for q in range(spec.N + 1)]
    cases += [(spec, q, True) for spec in ADJOINT_SPECS if spec.n >= spec.ell
              for q in range(spec.n + 1)]
    for spec, q, top in cases:
        A = top_coeff_tensor(spec, q) if top else box_coeff_tensor(spec, q)
        B = box_coeff_closed_form(spec, q, top=top)
        assert A.entries == B.entries
        keys = list(A.entries)
        for M, I, a, b in rng.sample(keys, min(6, len(keys))):
            v = A.value(M, I, a, b)
            assert v == coeff_entry_direct(spec, q, M, I, a, b, top=top)
            assert v == coeff_entry_closed_form(spec, q, M, I, a, b, top=top)


def test_tensor_hand_computed_entry():
    """One branch of the closed form checked against a pencil computation.

    For n = k = ell = 2 (so N = 3, lexicographic: (2,0)->(1), (1,1)->(2),
    (0,2)->(3)) at q = 1 the raising part couples I=(3,), beta=(0,2) to
    M=(1,), alpha=(2,0) through L=(1,3) with total sign +1.
    """
    spec = spec_for(2, 2, 2)
    C = box_coeff_tensor(spec, 1)
    assert C.value((1,), (3,), (2, 0), (0, 2)) == 1
    assert C.value((3,), (1,), (0, 2), (2, 0)) == 1  # symmetry partner


def test_tensor_symmetry_and_entry_bound():
    for spec in SPECS:
        for q in (0, 1):
            C = box_coeff_tensor(spec, q)
            for (M, I, a, b), v in C.entries.items():
                assert v in (-2, -1, 1, 2)
                assert C.entries[(I, M, b, a)] == v


def test_tensor_kronecker_exactly_for_unit_step():
    """Unit step: identity tensor at every degree.  Larger steps must break
    it somewhere (extreme degrees can be accidentally diagonal)."""
    for spec in SPECS:
        flags = [box_coeff_tensor(spec, q).is_kronecker()
                 for q in range(spec.N + 1)]
        if spec.ell == 1:
            assert all(flags)
        else:
            assert not all(flags)


def test_tensor_contract_matches_operator_route():
    rng = random.Random(36)
    for spec in SPECS:
        for q in range(spec.N + 1):
            H = random_trig_form(rng, spec.n, spec.N, q, components=3)
            direct = box_apply(spec, H)
            via_tensor = box_coeff_tensor(spec, q).contract(H)
            assert (direct - via_tensor).is_zero()
    # source-space version
    spec = spec_for(2, 2, 1, "diagonal")
    h = random_trig_form(rng, 2, 2, 1, components=2)
    assert (box_apply_top(spec, h) - top_coeff_tensor(spec, 1).contract(h)).is_zero()


@pytest.mark.parametrize("spec,q", [
    pytest.param(spec, q, id=f"{spec.n}{spec.k}{spec.ell}-{spec.ordering.kind}-q{q}")
    for spec in (spec_for(2, 2, 2), spec_for(3, 2, 1, "diagonal"))
    for q in range(spec.N + 1)])
def test_grid_laplacians_match_exact_at_every_degree(spec, q):
    """Grid box_apply and tensor contraction (and box_apply_top at q = 0)
    agree with the exact backend, also at degrees where only one of
    T T* and T* T exists (every degree for ell = 2 here)."""
    rng = random.Random(41 + q)
    P = 16
    H = random_trig_form(rng, spec.n, spec.N, q, components=2)
    exact = sample_form(box_apply(spec, H), P)
    assert form_max_abs(exact) > 0
    grid = sample_form(H, P)
    for got in (box_apply(spec, grid), box_coeff_tensor(spec, q).contract(grid)):
        assert form_max_abs(got - exact) < 1e-9
    if q == 0:
        h = random_trig_form(rng, spec.n, spec.n, 0)
        exact_top = sample_form(box_apply_top(spec, h), P)
        assert form_max_abs(exact_top) > 0
        got = box_apply_top(spec, sample_form(h, P))
        assert form_max_abs(got - exact_top) < 1e-9


def test_degree_guards_raise():
    spec = spec_for(2, 2, 2)
    top = Form(2, 3, 3, {(1, 2, 3): wave(2, (1, 0), 0, 1)}, backend="trig")
    with pytest.raises(ValueError):
        apply_T(spec, top)
    bottom = Form(2, 3, 0, {(): wave(2, (1, 0), 0, 1)}, backend="trig")
    with pytest.raises(ValueError):
        apply_T_star(spec, bottom)


def test_grid_and_trig_actions_agree():
    rng = random.Random(37)
    P = 32
    for spec in SPECS[:4]:
        q = 0
        F = random_trig_form(rng, spec.n, spec.N, q, components=2)
        exact = sample_form(apply_T(spec, F), P)
        gridded = apply_T(spec, sample_form(F, P))
        assert form_max_abs(exact - gridded) < 1e-10


def test_invariance_signed_permutation_exact():
    """Coordinate swaps commute with the diagonal dictionary exactly."""
    rng = random.Random(38)
    spec = spec_for(2, 2, 1, "diagonal")
    A = np.array([[0.0, 1.0], [1.0, 0.0]])
    f = random_trig_form(rng, 2, 2, 0, components=3)
    assert invariance_defect(spec, A, f) == 0


def test_invariance_first_order_rotations():
    """k = 1 commutes with every rotation; the probe sees only grid noise."""
    rng = np.random.default_rng(5)
    spec = spec_for(2, 1, 1)
    P = 64
    from divcurl.gridfield import grid_points
    xs = grid_points(2, P)
    sig = 0.24
    g = np.exp(-np.sum((xs - np.pi) ** 2, axis=-1) / (2 * sig**2))
    F = Form(2, 2, 0, {(): __import__("divcurl.gridfield", fromlist=["GridField"])
                       .GridField(2, P, g)}, backend="grid")
    theta = rng.uniform(0, 2 * np.pi)
    A = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    assert invariance_defect(spec, A, F) < 1e-10


def test_invariance_breaks_for_higher_order():
    """Generic rotations do not commute with any k = 2 dictionary."""
    spec = spec_for(2, 2, 1, "diagonal")
    theta = 0.9
    A = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    P = 64
    from divcurl.gridfield import GridField, grid_points
    xs = grid_points(2, P)
    g = np.exp(-np.sum((xs - np.pi) ** 2, axis=-1) / (2 * 0.24**2))
    F = Form(2, 2, 0, {(): GridField(2, P, g)}, backend="grid")
    assert invariance_defect(spec, A, F) > 1e-3


@pytest.mark.parametrize("top", [False, True], ids=["hybrid", "source"])
def test_adjoint_cross_check_fires_on_corruption(monkeypatch, top):
    """Corrupt the coordinate-route sign table and the dual-route self-check
    inside apply_T_star (apply_Top_star on the source space) must detect the
    disagreement."""
    spec = spec_for(2, 2, 2)
    real = ops._tstar_table.__wrapped__

    def corrupted(s, q, top):
        return tuple((I, beta, V, -sign) for I, beta, V, sign in real(s, q, top))

    rng = random.Random(40)
    adjoint = apply_Top_star if top else apply_T_star
    H = random_trig_form(rng, 2, spec.n if top else spec.N, 2, components=3)
    assert not adjoint(spec, H).is_zero()  # sanity: healthy tables agree
    monkeypatch.setattr(ops, "_tstar_table", corrupted)
    with pytest.raises(ArithmeticError):
        adjoint(spec, H)
