"""Exact identity battery for the operator family.

Every check here runs in rational arithmetic on the trig backend, so a
pass is an algebraic identity on the probe and a failure carries a
minimal counterexample (the first label and coefficient term where the
two sides differ, or the offending tensor entry).

adjoint_routes checks T* against its star-conjugate route and the label
pairing <F, T*G> against the wedge pairing.  TT_nonzero needs no probe:
it reads the composed raising tables of the real T o T (both
orientations of every derivative pair) and asks whether any summed
(I, alpha + beta, M) coefficient survives.  TT_doubling ties the real
T o T to twice its single-orientation half on a random probe.

The default case list sweeps every admissible increment for n in {2, 3}
and k in {1, 2, 3} with the canonical orderings that exist there.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, asdict

from . import __version__, operators
from .forms import Form, inner_product, inner_product_wedge, hodge_star
from .increments import admissible_increments
from .operators import (
    OperatorSpec,
    apply_T,
    apply_T_star,
    box_apply,
    box_coeff_closed_form,
    box_coeff_tensor,
    coeff_entry_direct,
    compose_TT,
    divergence_defect,
    spec_for,
    tt_single_orientation,
    vs_lift,
    vs_reduction,
)
from .randoms import divergence_free_family, random_trig_form
from .symbol import wave_symbol_check

__all__ = ["CheckRecord", "default_cases", "identity_suite", "run_verify"]


@dataclass
class CheckRecord:
    name: str
    case: str
    passed: bool
    exact: bool
    detail: str = ""


def default_cases():
    """(n, k, ell, ordering kind) for every admissible increment with
    n in {2, 3}, k in {1, 2, 3}; ell = 1 also gets its special orderings."""
    cases = []
    for n in (2, 3):
        for k in (1, 2, 3):
            for sol in admissible_increments(n, k):
                cases.append((n, k, sol.ell, "lexicographic"))
                if sol.ell == 1:
                    cases.append((n, k, sol.ell, "diagonal"))
                    if n == 2 and k >= 2:
                        cases.append((n, k, sol.ell, "chained"))
    return cases


def _case_tag(spec: OperatorSpec) -> str:
    return (f"n={spec.n} k={spec.k} ell={spec.ell} N={spec.N} "
            f"{spec.ordering.kind}")


def _first_difference(A: Form, B: Form = None) -> str:
    D = A if B is None else A - B
    for lab in sorted(D.coeffs):
        c = D.coeffs[lab]
        if not c.is_zero():
            term = sorted(c.terms.items())[0]
            return f"label {lab}: first differing term {term}"
    return "forms agree"


def _probe_degrees(spec: OperatorSpec):
    """A small spread of degrees with room for T (q + ell <= N)."""
    qs = {0, spec.N - spec.ell}
    if spec.N - spec.ell >= 1:
        qs.add(1)
    mid = (spec.N - spec.ell) // 2
    qs.add(mid)
    return sorted(q for q in qs if 0 <= q <= spec.N - spec.ell)


def _tt_nonzero(spec: OperatorSpec, q: int) -> bool:
    """The real T o T at degree q has a summed (I, alpha + beta, M)
    coefficient that does not cancel."""
    total = {}
    for I, alpha, beta, M, sign in operators._tt_table(spec, q, spec.N):
        key = (I, tuple(x + y for x, y in zip(alpha, beta)), M)
        total[key] = total.get(key, 0) + sign
    return any(total.values())


def _first_entry_difference(t, cf) -> str:
    """The first entry where the summation and closed-form tensors differ."""
    if t.entries == cf.entries:
        return ""
    bad = next(k for k in sorted(set(t.entries) | set(cf.entries))
               if t.entries.get(k, 0) != cf.entries.get(k, 0))
    return (f"entry {bad}: summation {t.entries.get(bad, 0)} "
            f"closed-form {cf.entries.get(bad, 0)}")


def identity_suite(spec: OperatorSpec, rng: random.Random, deep=False):
    """All exact identity checks for one spec; returns CheckRecords."""
    records = []
    tag = _case_tag(spec)

    def rec(name, passed, detail=""):
        records.append(CheckRecord(name, tag, bool(passed), True, detail))

    # adjointness and route agreement at each probe degree
    for q in _probe_degrees(spec):
        F = random_trig_form(rng, spec.n, spec.N, q, components=3)
        TF = apply_T(spec, F)
        G = TF + random_trig_form(rng, spec.n, spec.N, q + spec.ell,
                                  components=2)
        lhs = inner_product(TF, G)
        try:
            TsG = apply_T_star(spec, G)  # internally cross-checks both routes
            rhs = inner_product(F, TsG)
            rec(f"adjointness[q={q}]", lhs == rhs,
                "" if lhs == rhs else f"<TF,G>={lhs} but <F,T*G>={rhs}")
            wedge_rhs = inner_product_wedge(F, TsG)
            rec(f"adjoint_routes[q={q}]", wedge_rhs == rhs,
                "" if wedge_rhs == rhs else
                f"<F,T*G>={rhs} but the wedge route gives {wedge_rhs}")
        except ArithmeticError as e:
            rec(f"adjoint_routes[q={q}]", False, str(e))

    # T o T: zero for odd ell, doubling law for even ell (when degrees allow)
    for q in range(0, spec.N - 2 * spec.ell + 1):
        F = random_trig_form(rng, spec.n, spec.N, q, components=3)
        TT = compose_TT(spec, F)
        if spec.ell % 2 == 1:
            rec(f"TT_zero[q={q}]", TT.is_zero(),
                "" if TT.is_zero() else _first_difference(TT))
        else:
            twice = tt_single_orientation(spec, F).scale(2)
            ok_nz = _tt_nonzero(spec, q)
            rec(f"TT_nonzero[q={q}]", ok_nz,
                "" if ok_nz else "every coefficient of T T cancels")
            rec(f"TT_doubling[q={q}]", TT == twice,
                "" if TT == twice else _first_difference(TT, twice))

    # Laplacian: direct composition vs tensor contraction vs closed form
    box_degrees = sorted({0, spec.ell, min(spec.N, spec.ell + 1), spec.N})
    if deep:
        box_degrees = list(range(spec.N + 1))
    box_probes = []
    for q in box_degrees:
        H = random_trig_form(rng, spec.n, spec.N, q, components=3)
        box_probes.append(H)
        B = box_apply(spec, H)
        t = box_coeff_tensor(spec, q, False)
        C = t.contract(H)
        rec(f"box_vs_tensor[q={q}]", B == C,
            "" if B == C else _first_difference(B, C))
        diff = _first_entry_difference(t, box_coeff_closed_form(spec, q, False))
        rec(f"tensor_closed_form[q={q}]", not diff, diff)
        asym = sorted(key for key, v in t.entries.items()
                      if t.value(key[1], key[0], key[3], key[2]) != v)
        rec(f"tensor_symmetry[q={q}]", not asym,
            f"entry {asym[0]} differs from its swap" if asym else "")
        bound = all(abs(v) <= 2 for v in t.entries.values())
        rec(f"tensor_entry_bound[q={q}]", bound,
            "" if bound else "an entry exceeds 2 in absolute value")
        if spec.ell == 1:
            kronecker = t.is_kronecker()
            rec(f"tensor_kronecker[q={q}]", kronecker,
                "" if kronecker else "ell=1 tensor is not the identity")
        spot = [(key, v, coeff_entry_direct(spec, *key))
                for key, v in sorted(t.entries.items())[:4]]
        bad = [f"entry {key}: tensor {v} direct sum {d}"
               for key, v, d in spot if d != v]
        rec(f"tensor_direct_spot[q={q}]", not bad, bad[0] if bad else "")

    # symbol action on integer waves
    xi = tuple(rng.randint(-3, 3) or 1 for _ in range(spec.n))
    for q in sorted({0, spec.ell}):
        try:
            wave_symbol_check(spec, q, xi)
            rec(f"symbol_wave[q={q}]", True, f"xi={xi}")
        except ArithmeticError as e:
            rec(f"symbol_wave[q={q}]", False, str(e))

    # source-space adjointness (when the source operator is nontrivial)
    if spec.n >= spec.ell:
        qs = [q for q in (0, 1) if q + spec.ell <= spec.n]
        for q in qs:
            f = random_trig_form(rng, spec.n, spec.n, q, components=2)
            Tf = apply_T(spec, f)
            h = Tf + random_trig_form(rng, spec.n, spec.n, q + spec.ell,
                                      components=2)
            lhs = inner_product(Tf, h)
            try:
                rhs = inner_product(f, apply_T_star(spec, h))
                rec(f"source_adjointness[q={q}]", lhs == rhs,
                    "" if lhs == rhs else f"{lhs} != {rhs}")
            except ArithmeticError as e:
                rec(f"source_adjointness[q={q}]", False, str(e))
        diff = _first_entry_difference(
            box_coeff_tensor(spec, spec.ell, True),
            box_coeff_closed_form(spec, spec.ell, True))
        rec("source_tensor_closed_form", not diff, diff)

    # reduction / lift dictionary at degree N - ell
    g = divergence_free_family(spec, rng)
    if g:
        F = vs_lift(spec, g)
        TF = apply_T(spec, F)
        rec("lift_closed", TF.is_zero(),
            "" if TF.is_zero() else _first_difference(TF))
        back = vs_reduction(spec, F)
        bad = [a for a in sorted(set(back) | set(g))
               if back.get(a) != g.get(a)]
        rec("reduction_roundtrip", not bad,
            f"g[{bad[0]}] does not come back" if bad else "")
        dd = divergence_defect(g)
        rec("divergence_defect_zero", dd.is_zero(),
            "" if dd.is_zero() else
            f"first nonzero term {sorted(dd.terms.items())[0]}")

    # star involution sign law on its own probe and every Laplacian probe
    F = random_trig_form(rng, spec.n, spec.N, spec.ell, components=2)
    bad = [P.q for P in [F] + box_probes if hodge_star(hodge_star(P))
           != P.scale((-1) ** (P.q * (P.N - P.q)))]
    rec("star_involution", not bad,
        f"star star F != (-1)^(q(N-q)) F at q={bad[0]}" if bad else "")

    return records


def run_verify(cases=None, seed=0, deep=False) -> dict:
    """Run the identity battery over the case list; JSON-ready report."""
    if cases is None:
        cases = default_cases()
    rng = random.Random(seed)
    records = []
    for (n, k, ell, kind) in cases:
        spec = spec_for(n, k, ell, kind=kind)
        records.extend(identity_suite(spec, rng, deep=deep))
    failed = [r for r in records if not r.passed]
    return {
        "schema": "divcurl.verify/1",
        "package_version": __version__,
        "seed": seed,
        "cases": [list(c) for c in cases],
        "checks_run": len(records),
        "checks_failed": len(failed),
        "all_passed": not failed,
        "records": [asdict(r) for r in records],
    }
