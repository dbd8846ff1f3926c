"""Operator layer: actions, adjoints, compositions, coefficient tensors."""

import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import divcurl.operators as ops
from divcurl.forms import (
    Form,
    form_max_abs,
    hodge_star,
    inner_product,
    lp_norm,
    partial,
    sample_form,
    wedge,
)
from divcurl.increments import admissible_increments
from divcurl.multiindex import (
    labels,
    multiindices,
    perm_sign_between,
    random_ordering,
)
from divcurl.operators import (
    OperatorSpec,
    apply_T,
    apply_T_star,
    apply_T_star_coordinate,
    box_apply,
    box_coeff_closed_form,
    box_coeff_tensor,
    coeff_entry_direct,
    compose_TT,
    invariance_defect,
    spec_for,
    tt_single_orientation,
)
from divcurl.randoms import random_trig_form, random_trigpoly
from divcurl.verify import default_cases
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
    assert s.describe()["ordering_digest"] == s.ordering.digest()
    assert len(s.ordering.digest()) == 16


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
            g = apply_T(spec, f) + random_trig_form(
                rng, spec.n, spec.n, q + spec.ell, components=2)
            assert inner_product(apply_T(spec, f), g) == \
                inner_product(f, apply_T_star(spec, g))


def test_source_adjoint_routes_agree_on_both_backends():
    rng = random.Random(36)
    for spec in ADJOINT_SPECS:
        if spec.n < spec.ell:
            continue
        for q in range(spec.ell, spec.n + 1):
            h = random_trig_form(rng, spec.n, spec.n, q, components=2)
            coordinate = apply_T_star_coordinate(spec, h)
            assert (coordinate - apply_T_star(spec, h)).is_zero()
            hg = sample_form(h, 16)
            diff = apply_T_star_coordinate(spec, hg) - apply_T_star(spec, hg)
            scale = max(form_max_abs(sample_form(coordinate, 16)), 1.0)
            assert form_max_abs(diff) < 1e-10 * scale


def test_source_coordinate_adjoint_guards():
    """Each operator accepts forms over the hybrid (N) or the source (n)
    labels only, and none over the source labels when n < ell."""
    spec = spec_for(3, 2, 2)  # N = 4
    h = Form(3, 3, 2, {(1, 2): wave(3, (1, 0, 1))}, backend="trig")
    neither = Form(3, 5, 2, {}, backend="trig")
    for op in (apply_T, apply_T_star, apply_T_star_coordinate, box_apply,
               compose_TT, tt_single_orientation):
        with pytest.raises(ValueError, match="neither the hybrid"):
            op(spec, neither)
    with pytest.raises(ValueError, match="adjoint needs degree q >= ell"):
        apply_T_star_coordinate(spec, Form(3, 3, 1, {}, backend="trig"))
    thin = spec_for(2, 3, 3)  # n = 2 < ell = 3
    for op in (apply_T, apply_T_star_coordinate, box_apply):
        with pytest.raises(ValueError, match="source operator is trivial"):
            op(thin, Form(2, 2, 0, {}, backend="trig"))
    with pytest.raises(ValueError, match="source operator is trivial"):
        box_coeff_tensor(thin, 0, True)
    assert not apply_T_star_coordinate(spec, h).is_zero()


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


def test_mask_sign_matches_reference_sign():
    """The bitmask sign of sorting A + B equals perm_sign_between for every
    ordered pair of disjoint labels A, B over {1..8}: each slot lies in A,
    in B or in neither, 3^8 pairs."""
    for places in itertools.product(range(3), repeat=8):
        A = tuple(x for x, p in zip(range(1, 9), places) if p == 1)
        B = tuple(x for x, p in zip(range(1, 9), places) if p == 2)
        assert (ops._sort_sign(A, ops._mask(B))
                == perm_sign_between(A + B, sorted(A + B))), (A, B)


def test_raising_table_is_empty_past_the_top_degree():
    """No degree-q label leaves room for an ell-block once q + ell exceeds
    the width, so the raising table there is empty, on both spaces."""
    for spec in ADJOINT_SPECS:
        for width in [spec.N] + [spec.n] * (spec.n >= spec.ell):
            for q in range(max(width - spec.ell + 1, 0), width + 1):
                assert ops._t_table(spec, q, width) == ()
            assert ops._t_table(spec, width - spec.ell, width) != ()


def test_tensor_triple_agreement():
    """Summation tensor == closed form == direct entry evaluation, on the
    hybrid space and (when n >= ell) on the source space."""
    rng = random.Random(35)
    cases = [(spec, q, False) for spec in ADJOINT_SPECS for q in range(spec.N + 1)]
    cases += [(spec, q, True) for spec in ADJOINT_SPECS if spec.n >= spec.ell
              for q in range(spec.n + 1)]
    for spec, q, top in cases:
        A = box_coeff_tensor(spec, q, top)
        B = box_coeff_closed_form(spec, q, top)
        assert A.entries == B.entries
        keys = list(A.entries)
        for M, I, a, b in rng.sample(keys, min(6, len(keys))):
            assert (A.value(M, I, a, b)
                    == coeff_entry_direct(spec, M, I, a, b, top))


def test_tensor_routes_raise_alike_where_no_tensor_exists():
    """Both tensor routes raise the same error on the source space when
    n < ell, at any degree, and at a degree outside 0..N on the hybrid
    space."""
    small, hybrid = spec_for(2, 3, 3), spec_for(3, 2, 2)
    cases = [(small, 0, True, "source operator is trivial for n < ell"),
             (small, 5, True, "source operator is trivial for n < ell"),
             (hybrid, hybrid.N + 1, False, "label degree 5 out of range 0..4"),
             (hybrid, -1, False, "label degree -1 out of range 0..4")]
    for spec, q, top, message in cases:
        for build in (box_coeff_tensor, box_coeff_closed_form):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                build(spec, q, top)


def test_single_entry_routes_agree_on_every_entry():
    """The closed-form tensor's value == coeff_entry_direct on every (M, I,
    alpha, beta) of every admissible spec with N <= 4, canonical and one
    random ordering, on the hybrid and (when n >= ell) the source space.
    On the source space an ordering(alpha) outside {1..n} gives 0."""
    rng = random.Random(38)
    specs = []
    # N <= 4 caps C(n - 1 + k, k) = C(N, ell) at C(4, 2) = 6: n <= 4, k <= 5
    for n, k in itertools.product(range(2, 5), range(1, 6)):
        for sol in admissible_increments(n, k):
            if sol.N <= 4:
                specs += [spec_for(n, k, sol.ell), OperatorSpec(
                    n, k, sol.ell, sol.N,
                    random_ordering(n, k, sol.ell, sol.N, rng))]
    assert len(specs) == 18
    for spec in specs:
        alphas = multiindices(spec.n, spec.k)
        for top in [False] + [True] * (spec.n >= spec.ell):
            width = spec.n if top else spec.N
            for q in range(width + 1):
                B = box_coeff_closed_form(spec, q, top)
                for M, I in itertools.product(labels(width, q), repeat=2):
                    for a, b in itertools.product(alphas, repeat=2):
                        assert (B.value(M, I, a, b)
                                == coeff_entry_direct(spec, M, I, a, b, top))
    # ordering(0, 2) = (3,) lies outside the source labels {1, 2}
    assert coeff_entry_direct(spec_for(2, 2, 1), (), (), (0, 2), (0, 2),
                              top=True) == 0
    # a reversed M or I (one swap at q = 2) flips the sign of the entry
    spec = spec_for(3, 2, 2)
    B = box_coeff_closed_form(spec, 2, False)
    for M, I in itertools.product(labels(spec.N, 2), repeat=2):
        for a, b in itertools.product(multiindices(3, 2), repeat=2):
            for M2, I2 in ((M[::-1], I), (M, I[::-1])):
                assert (coeff_entry_direct(spec, M2, I2, a, b)
                        == -B.value(M, I, a, b))
    # a repeated entry, one outside {1..N} or too many give 0
    for I in ((1, 1), (0, 1), (-1, 2), (2, spec.N + 1),
              tuple(range(1, spec.N + 2))):
        for M in (I, (1, 2)):
            for a, b in itertools.product(multiindices(3, 2), repeat=2):
                assert coeff_entry_direct(spec, M, I, a, b) == 0


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
    assert (box_apply(spec, h) - box_coeff_tensor(spec, 1, True).contract(h)).is_zero()


@pytest.mark.parametrize("spec,q", [
    pytest.param(spec, q, id=f"{spec.n}{spec.k}{spec.ell}-{spec.ordering.kind}-q{q}")
    for spec in (spec_for(2, 2, 2), spec_for(3, 2, 1, "diagonal"))
    for q in range(spec.N + 1)])
def test_grid_laplacians_match_exact_at_every_degree(spec, q):
    """Grid box_apply and tensor contraction (and box_apply on a source
    form at q = 0) agree with the exact backend, also at degrees where
    only one of T T* and T* T exists (every degree for ell = 2 here)."""
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
        exact_top = sample_form(box_apply(spec, h), P)
        assert form_max_abs(exact_top) > 0
        got = box_apply(spec, sample_form(h, P))
        assert form_max_abs(got - exact_top) < 1e-9


def test_degree_guards_raise():
    """Past the top degree T raises, and below degree ell T* raises, on
    the hybrid (N = 3) and the source (n = 2) space alike."""
    spec = spec_for(2, 2, 2)
    for width in (spec.N, spec.n):
        top = Form(2, width, width, {tuple(range(1, width + 1)):
                                     wave(2, (1, 0), 0, 1)}, backend="trig")
        with pytest.raises(ValueError, match="output degree would exceed"):
            apply_T(spec, top)
        bottom = Form(2, width, 0, {(): wave(2, (1, 0), 0, 1)}, backend="trig")
        with pytest.raises(ValueError, match="adjoint needs degree"):
            apply_T_star(spec, bottom)


def test_operators_on_empty_grid_forms_keep_the_resolution():
    """An inert-slot partial and an overflowing wedge of grid forms have no
    coefficients; T, T* and box of them are zero forms at the input's P,
    as the exact backend gives zero forms."""
    spec = spec_for(2, 2, 1, "diagonal")  # N = 3
    rng = random.Random(22)
    F = random_trig_form(rng, 2, 3, 1)
    G = random_trig_form(rng, 2, 3, 2)
    for P in (8, 16):
        D = partial(sample_form(F, P), (0, 0, 1))
        W = wedge(sample_form(G, P), sample_form(G, P))  # degree 4 > N
        # W has the top degree N, so T applies to its star
        outs = [apply_T(spec, D), apply_T_star(spec, D), box_apply(spec, D),
                apply_T(spec, hodge_star(W)), apply_T_star(spec, W),
                box_apply(spec, W)]
        for Z in outs:
            assert Z.backend == "grid" and Z.coeffs == {}
            assert Z.P == P and lp_norm(Z, 2) == 0.0
    exact = [apply_T(spec, partial(F, (0, 0, 1))),
             apply_T_star(spec, wedge(G, G))]
    assert all(Z.is_zero() and Z.P is None for Z in exact)


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
    inside apply_T_star must detect the disagreement, on either space."""
    spec = spec_for(2, 2, 2)
    real = ops._tstar_table.__wrapped__

    def corrupted(s, q, width):
        return tuple((I, beta, V, -sign) for I, beta, V, sign in real(s, q, width))

    rng = random.Random(40)
    H = random_trig_form(rng, 2, spec.n if top else spec.N, 2, components=3)
    assert not apply_T_star(spec, H).is_zero()  # sanity: healthy tables agree
    monkeypatch.setattr(ops, "_tstar_table", corrupted)
    with pytest.raises(ArithmeticError):
        apply_T_star(spec, H)


# ---- the exact apply on integer numerators vs the per-entry reference ------


def _apply_table_per_entry(F, entries, out_q, width, overall=1):
    """The exact apply as a per-entry loop: one diff_alpha and one merge
    per table entry."""
    acc = {}
    for I, alpha, OUT, sign in entries:
        c = F.coeffs.get(I)
        if c is None:
            continue
        term = c.diff_alpha(alpha).scale(sign * overall)
        prev = acc.get(OUT)
        acc[OUT] = term if prev is None else prev + term
    return Form(F.n, width, out_q, acc, backend="trig")


def _assert_same_terms_in_order(got, want):
    assert list(got.coeffs) == list(want.coeffs)
    for lab, c in want.coeffs.items():
        assert list(got.coeffs[lab].terms.items()) == list(c.terms.items())
        assert all(type(v) is Fraction for v in got.coeffs[lab].terms.values())


def _apply_tables(spec, q, width):
    """(table, output degree, overall) of T, T* and the tensor contraction
    at degree q over labels {1..width}."""
    sign_k = (-1) ** spec.k
    tables = []
    if q + spec.ell <= width:
        tables.append((ops._t_table(spec, q, width), q + spec.ell, 1))
    if q >= spec.ell:
        tables.append((ops._tstar_table(spec, q, width), q - spec.ell, sign_k))
    tensor = box_coeff_tensor(spec, q, width == spec.n)
    tables.append(([(I, tuple(x + y for x, y in zip(a, b)), M, v)
                    for (M, I, a, b), v in tensor.entries.items()], q, sign_k))
    return tables


@pytest.mark.parametrize("case", default_cases(),
                         ids=lambda case: "-".join(map(str, case)))
def test_exact_apply_matches_the_per_entry_reference(case):
    """Same terms, values and key order on every default case, on both
    spaces and at every degree, for a random form, a form carrying one
    polynomial (up to sign) on every label, and T G: the T table applied
    to it is T o T, zero for odd ell, so every sum it makes cancels."""
    spec = spec_for(*case[:3], case[3])
    rng = random.Random("-".join(map(str, case)))
    cancelled = 0
    for width in [spec.N] + [spec.n] * (spec.n >= spec.ell):
        for q in range(width + 1):
            p = random_trigpoly(rng, spec.n, terms=3)
            probes = [
                random_trig_form(rng, spec.n, width, q, components=4),
                Form(spec.n, width, q, {L: p.scale((-1) ** i) for i, L
                                        in enumerate(labels(width, q))})]
            if q >= spec.ell:
                probes.append(apply_T(spec, random_trig_form(
                    rng, spec.n, width, q - spec.ell, components=3)))
            for F in probes:
                for table, out_q, overall in _apply_tables(spec, q, width):
                    got = ops._apply_table(F, table, out_q, width, overall)
                    want = _apply_table_per_entry(F, table, out_q, width,
                                                  overall)
                    _assert_same_terms_in_order(got, want)
                    cancelled += bool(F.coeffs) and not got.coeffs
    assert cancelled or spec.ell % 2 == 0 or spec.N < 2 * spec.ell
