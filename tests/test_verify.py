"""The exact identity battery: coverage, determinism, report shape."""

import random
from fractions import Fraction

import pytest

from divcurl import operators, symbol, verify
from divcurl.multiindex import Ordering
from divcurl.trigpoly import TrigPoly
from divcurl.verify import default_cases, identity_suite, run_verify

# a (3, 2, 2) ordering: T T on 0-forms has the nonzero symbol
# 2 xi1 xi2 xi3 (xi1 + xi2 - xi3), which vanishes on the wave (1, 2, 3)
SPEC_322 = operators.OperatorSpec(3, 2, 2, 4, Ordering(3, 2, 2, 4, [
    ((2, 0, 0, 0), (1, 4)), ((1, 1, 0, 0), (2, 4)), ((0, 2, 0, 0), (3, 4)),
    ((1, 0, 1, 0), (1, 2)), ((0, 1, 1, 0), (2, 3)), ((0, 0, 2, 0), (1, 3))]))


def test_default_cases_cover_canonical_orderings():
    cases = default_cases()
    assert (2, 1, 1, "lexicographic") in cases
    assert (2, 2, 1, "diagonal") in cases
    assert (2, 2, 1, "chained") in cases
    assert (3, 3, 3, "lexicographic") in cases
    for n, k, ell, kind in cases:
        assert 2 <= n <= 3 and 1 <= k <= 3 and 1 <= ell <= k


def test_small_battery_passes_and_is_deterministic():
    cases = [(2, 1, 1, "lexicographic"), (2, 2, 1, "diagonal")]
    r1 = run_verify(cases=cases, seed=11)
    r2 = run_verify(cases=cases, seed=11)
    assert r1 == r2
    assert r1["schema"] == "divcurl.verify/1"
    assert r1["all_passed"]
    assert r1["checks_failed"] == 0
    assert r1["checks_run"] == len(r1["records"]) > 0


def test_records_have_uniform_shape():
    # (3, 2, 2) has composition room (q + 2 ell <= N at q = 0), so every
    # check family fires for it
    report = run_verify(cases=[(3, 2, 2, "lexicographic")], seed=0)
    names = set()
    for rec in report["records"]:
        assert set(rec) == {"name", "case", "passed", "exact", "detail"}
        assert isinstance(rec["passed"], bool)
        assert isinstance(rec["exact"], bool)
        names.add(rec["name"].split("[")[0])
    # every family of checks must appear for a hybrid even-step case
    for family in ("adjointness", "adjoint_routes", "TT_nonzero",
                   "box_vs_tensor", "tensor_closed_form", "symbol_wave",
                   "star_involution"):
        assert any(nm.startswith(family) for nm in names), family


def test_seed_changes_probes_not_outcomes():
    cases = [(2, 2, 1, "chained")]
    a = run_verify(cases=cases, seed=1)
    b = run_verify(cases=cases, seed=2)
    assert a["all_passed"] and b["all_passed"]
    assert a["checks_run"] == b["checks_run"]


def test_tt_nonzero_is_exact_for_a_thin_symbol():
    records = identity_suite(SPEC_322, random.Random(0))
    assert [r.name for r in records if not r.passed] == []


def _flip_first(table):
    return tuple((I, a, L, -s if j == 0 else s)
                 for j, (I, a, L, s) in enumerate(table))


def _forget_lowest(real):
    """The bitmask sign with the lowest slot of the mask B forgotten."""
    return lambda a, B: real(a, B & (B - 1))


def _negate_source(real):
    """box_coeff_tensor with every source-space (top=True) entry negated."""
    def tensor(spec, q, top):
        t = real(spec, q, top)
        return operators.CoeffTensor(spec, q, t.width, {
            key: -v for key, v in t.entries.items()}) if top else t
    return tensor


# (module, name, corruption of the real one, record family that must fail);
# a star flipped at q = 1 misses the own probe (q = 2), not the box probes.
# A flipped _t_table sign cancels in the squared diagonal entries, the only
# ones at q = 0 and q = N, so the tensor is checked at q = 2.  The bitmask
# sign _sort_sign signs _tstar_table and the closed form; the star-conjugate
# adjoint route, on perm_sign_between and _t_table, sees its mutant.
CORRUPTIONS = [
    (verify, "inner_product_wedge",
     lambda real: lambda F, G: real(F, G) + 1, "adjoint_routes"),
    (verify, "hodge_star",
     lambda real: lambda F: real(F).scale(-1 if F.q == 1 else 1), "star_involution"),
    (operators, "_tt_table", lambda real: lambda *key: real(*key) + tuple(
        (I, a, b, M, -s) for I, a, b, M, s in real(*key)), "TT_nonzero"),
    (operators, "_t_table", lambda real: lambda *key: _flip_first(real(*key)),
     "tensor_closed_form[q=2]"),
    (operators.CoeffTensor, "value",
     lambda real: lambda t, *key: -real(t, *key), "tensor_symmetry"),
    (verify, "coeff_entry_direct",
     lambda real: lambda *args: real(*args) + 1, "tensor_direct_spot"),
    (verify, "vs_reduction", lambda real: lambda spec, F: {
        a: g.scale(-1) for a, g in real(spec, F).items()}, "reduction_roundtrip"),
    (verify, "divergence_defect", lambda real: lambda g: real(g)
     + next(iter(g.values())), "divergence_defect_zero"),
    (verify, "box_coeff_tensor", _negate_source, "source_tensor_closed_form"),
    (operators, "_sort_sign", _forget_lowest, "adjoint_routes[q=1]"),
]


@pytest.fixture
def fresh_tables():
    """Corrupted tables must neither meet cached tensors nor leave any."""
    caches = (operators._t_table, operators._tstar_table,
              operators.box_coeff_tensor, operators.box_coeff_closed_form,
              symbol._symbol_table)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("module, name, corrupt, family", CORRUPTIONS,
                         ids=[c[3] for c in CORRUPTIONS])
def test_folded_checks_fire_on_corruption(fresh_tables, monkeypatch, module,
                                          name, corrupt, family):
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    records = identity_suite(operators.spec_for(3, 2, 2), random.Random(0))
    hit = [r for r in records if r.name.startswith(family)]
    assert hit and not any(r.passed for r in hit) and all(r.detail for r in hit)


def _pairing_without_half(f, g):
    """The exact pairing with the 1/2 off the zero frequency dropped."""
    return sum((c * g.terms[key] for key, c in f.terms.items()
                if key in g.terms), Fraction(0))


def test_adjoint_routes_catch_a_pairing_that_drops_the_half(monkeypatch):
    """inner_product pairs terms while the wedge route multiplies, so a
    pairing that weighs every frequency alike fails adjoint_routes.  T
    kills constants, so both sides of adjointness double alike and only
    the route check can see it."""
    monkeypatch.setattr(TrigPoly, "mean_product", _pairing_without_half)
    for n, k, ell, kind in default_cases()[:6]:
        records = identity_suite(operators.spec_for(n, k, ell, kind),
                                 random.Random(0))
        failed = [r for r in records if not r.passed]
        assert failed and all(
            r.name.startswith("adjoint_routes") and "wedge route" in r.detail
            for r in failed)


def test_adjoint_route_check_catches_a_one_entry_sign_flip(fresh_tables,
                                                           monkeypatch):
    """One flipped raising-table sign per table makes apply_T_star's exact
    comparison of its two routes raise, on the hybrid and source space."""
    real = operators._t_table
    monkeypatch.setattr(operators, "_t_table",
                        lambda *key: _flip_first(real(*key)))
    records = identity_suite(operators.spec_for(3, 2, 2), random.Random(0))
    for family in ("adjoint_routes", "source_adjointness"):
        hit = [r for r in records if r.name.startswith(family)]
        assert hit and all(not r.passed and "adjoint routes disagree"
                           in r.detail for r in hit)
