"""Seeded inputs, timed operations and output checks of the three workloads.

A run is a list of passes; a pass is a list of Op.  Every input of a
pass (specs, random orderings, per-op random generators, exact probe
forms, sampled grid forms) is made here, untimed, right before the pass,
and depends only on the workload seed and the pass index.  Every pass of
a workload runs the same list of calls, each on its own inputs.

Each Op has three parts:

* ``call``: the one user-level call that is timed;
* ``keep``: reduces the call's result to what the check needs.  It runs
  untimed right after the call and must not call into divcurl, so that it
  cannot warm a divcurl cache a later op would use;
* ``check``: runs after every op of the run has finished and returns a
  failure message, or None when the output is correct.  It must not hold
  the pass's inputs, so that they are freed when the pass ends.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable

import numpy as np

from divcurl import cli, forms, inequalities, operators, symbol, verify
from divcurl.gridfield import GridField, grid_points
from divcurl.increments import admissible_increments
from divcurl.multiindex import random_ordering
from divcurl.trigpoly import TrigPoly

WORKLOADS = ("exact-battery", "tensor-symbol", "grid-spectral")


@dataclass
class Op:
    name: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    keep: Callable[[Any], Any] = lambda out: out


def build(workload: str, seed: int, p: int, workdir: str,
          size: str = "full") -> list[Op]:
    """The ops of pass p; size 'tiny' is the self-test variant."""
    builders = {"exact-battery": _exact_battery,
                "tensor-symbol": _tensor_symbol,
                "grid-spectral": _grid_spectral}
    return builders[workload](random.Random(f"{workload}/{seed}/{p}"),
                              os.path.join(workdir, f"pass{p}"), size)


# ---- exact-battery ----------------------------------------------------------

# identity_suite(deep=True) record counts per (n, k, ell) on the seed
# commit, so a commit that drops checks shows up as a failed op.  The
# count is structural but for LIFT_CHECKS: identity_suite runs them only
# when its random divergence-free family comes out non-empty, which it
# nearly always does (exact-battery seed 1009 meets an empty one).
SEED_COMMIT_CHECKS = {
    (2, 1, 1): 32, (2, 2, 1): 41, (2, 2, 2): 32, (2, 3, 1): 48,
    (2, 3, 3): 35, (3, 1, 1): 41, (3, 2, 1): 64, (3, 2, 2): 42,
    (3, 3, 1): 92, (3, 3, 2): 49, (3, 3, 3): 44,
}
LIFT_CHECKS = ("lift_closed", "reduction_roundtrip", "divergence_defect_zero")

# Random orderings per (n, k, ell) of the criterion-2 spec set with odd
# ell.  The N = 10 spec (3, 3, 1) costs ten times a typical instance, so
# it gets one; the pass keeps over 100 ops.  Even ell is left out: there
# identity_suite's TT_nonzero check fails on the rare random ordering
# whose T T symbol vanishes on its witness wave and random probe (see
# test_known_defect_tt_nonzero_false_alarm); the even-ell default cases
# stay.
RANDOM_ORDERINGS = 12
RANDOM_ORDERINGS_N10 = 1


def _exact_battery(rng: random.Random, workdir: str, size: str):
    if size == "tiny":
        cases = [(2, 1, 1, "lexicographic"), (2, 2, 1, "diagonal"),
                 (2, 2, 2, "lexicographic")]
        random_specs = [(2, 2, 1, 3, 1), (2, 3, 3, 4, 1)]
    else:
        cases = verify.default_cases()
        random_specs = [
            (n, k, sol.ell, sol.N,
             RANDOM_ORDERINGS_N10 if sol.N == 10 else RANDOM_ORDERINGS)
            for n in (2, 3) for k in (1, 2, 3)
            for sol in admissible_increments(n, k) if sol.ell % 2]
    specs = [operators.spec_for(n, k, ell, kind) for n, k, ell, kind in cases]
    for n, k, ell, N, count in random_specs:
        for _ in range(count):
            specs.append(operators.OperatorSpec(
                n, k, ell, N, random_ordering(n, k, ell, N, rng)))
    return [_identity_op(spec, random.Random(rng.getrandbits(64)))
            for spec in specs]


def _identity_op(spec, rng):
    floor = SEED_COMMIT_CHECKS[(spec.n, spec.k, spec.ell)]

    def check(records):
        bad = [f"{r.name}: {r.detail}" for r in records if not r.passed]
        if bad:
            return f"{len(bad)} checks failed, first {bad[0]}"
        expected = floor
        if not any(r.name == LIFT_CHECKS[0] for r in records):
            expected -= len(LIFT_CHECKS)
        if len(records) < expected:
            return f"{len(records)} checks, seed commit ran {expected}"
        return None

    return Op(f"identity_suite n={spec.n} k={spec.k} ell={spec.ell} "
              f"{spec.ordering.kind}",
              lambda: verify.identity_suite(spec, rng, deep=True), check)


# ---- tensor-symbol ----------------------------------------------------------

# The two N = 15 specs; (3, 4, 1) at q = 7 (6435 labels) is the largest
# practical Laplacian and sets the memory peak.
BIG_LAPLACIANS = [(3, 4, 1, 4), (5, 2, 1, 4)]
# every ell >= 2 spec with N <= 6
ELL2_SPECS = [(2, 2, 2), (2, 3, 3), (2, 4, 4), (2, 5, 2), (2, 5, 5),
              (3, 2, 2), (3, 3, 2), (3, 3, 3), (3, 4, 2), (3, 4, 4),
              (4, 2, 2), (4, 3, 3), (5, 2, 2)]
# ell = 1 specs with N <= 10
ELL1_SPECS = [(2, 1, 1), (2, 2, 1), (2, 3, 1), (2, 4, 1), (3, 1, 1),
              (3, 2, 1), (3, 3, 1), (4, 1, 1), (4, 2, 1), (5, 1, 1),
              (6, 1, 1)]
# ellipticity scans (n, k, ell, q, source): exact for ell = 1, float
# eigvalsh for ell >= 2
SCANS = [(3, 4, 1, 0, False), (5, 2, 1, 1, False), (3, 3, 1, 2, False),
         (4, 2, 1, 2, False), (2, 4, 1, 1, False), (2, 3, 1, 0, True),
         (3, 2, 1, 0, True), (3, 3, 2, 2, False), (4, 2, 2, 2, False),
         (3, 4, 2, 3, False), (5, 2, 2, 3, False), (4, 3, 3, 3, False),
         (3, 2, 2, 2, False), (2, 4, 4, 2, False)]
SCAN_SAMPLES = 24


def _kinds(n, k, ell):
    if ell != 1:
        return ["lexicographic"]
    return ["lexicographic", "diagonal"] + (["chained"] if k >= 2 else [])


def _tensor_symbol(rng: random.Random, workdir: str, size: str):
    os.makedirs(workdir, exist_ok=True)
    argvs = []
    if size == "tiny":
        argvs += [["laplacian", "2", "2", "1", "--q", "1"],
                  ["laplacian", "3", "2", "2", "--q", "2"],
                  ["laplacian", "3", "2", "2", "--q", "1", "--source"],
                  ["laplacian", "3", "2", "1", "--q", "2",
                   "--ordering", "diagonal"]]
        scans = [(2, 2, 1, 0, False), (3, 2, 2, 2, False)]
    else:
        for n, k, ell, q in BIG_LAPLACIANS:
            kind = rng.choice(_kinds(n, k, ell))
            argvs.append(["laplacian", str(n), str(k), str(ell), "--q", str(q),
                          "--ordering", kind])
            argvs.append(["laplacian", str(n), str(k), str(ell), "--source",
                          "--q", str(rng.randint(0, n)), "--ordering", kind])
        for n, k, ell in ELL2_SPECS:
            N = operators.spec_for(n, k, ell).N
            argvs += [["laplacian", str(n), str(k), str(ell), "--q", str(q)]
                      for q in range(N + 1)]
            if n >= ell:
                argvs += [["laplacian", str(n), str(k), str(ell), "--source",
                           "--q", str(q)] for q in range(n + 1)]
        for n, k, ell in ELL1_SPECS:
            N = operators.spec_for(n, k, ell).N
            argvs.append(["laplacian", str(n), str(k), str(ell),
                          "--q", str(N // 2),
                          "--ordering", rng.choice(_kinds(n, k, ell))])
        scans = SCANS
    for n, k, ell, q, source in scans:
        argvs.append(["symbol", str(n), str(k), str(ell), "--q", str(q),
                      "--samples", str(SCAN_SAMPLES),
                      "--seed", str(rng.getrandbits(31)),
                      "--ordering", rng.choice(_kinds(n, k, ell))]
                     + (["--source"] if source else []))
    ops = []
    for i, argv in enumerate(argvs):
        path = os.path.join(workdir, f"op{i:03d}.json")
        argv = argv + ["--out", path]
        check = _check_laplacian if argv[0] == "laplacian" else _check_scan
        ops.append(Op(" ".join(argv[:-2]), _cli_call(argv),
                      _file_check(path, check)))
    return ops


def _cli_call(argv):
    return lambda: cli.main(argv)


def _file_check(path, check):
    def run(rc):
        if rc != 0:
            return f"exit code {rc}"
        with open(path) as fh:
            obj = json.load(fh)
        os.remove(path)
        return check(obj)
    return run


def _check_laplacian(obj):
    desc, q, source = obj["spec"], obj["q"], obj["source_space"]
    rows = obj["entries"]
    if any(v not in (-2, -1, 1, 2) for *_, v in rows):
        return "an entry lies outside {-2, -1, 1, 2}"
    entries = {(tuple(M), tuple(I), tuple(a), tuple(b)): v
               for M, I, a, b, v in rows}
    if len(entries) != len(rows):
        return "repeated entry key"
    n, k, ell, N = desc["n"], desc["k"], desc["ell"], desc["N"]
    width = n if source else N
    if ell == 1:
        # Kronecker: one entry (I, I, alpha, alpha) = 1 per label I and
        # coupled alpha; an ell = 1 ordering sends n multi-indices to the
        # singletons (1)..(n), so n are coupled in the source space
        coupled = n if source else math.comb(n - 1 + k, k)
        diag = all(M == I and a == b and v == 1
                   for (M, I, a, b), v in entries.items())
        labels_seen = {I for _, I, _, _ in entries}
        if not (diag and len(entries) == math.comb(width, q) * coupled
                and labels_seen <= set(combinations(range(1, width + 1), q))):
            return "ell = 1 tensor is not the Kronecker tensor"
        return None
    spec = operators.spec_for(n, k, ell, desc["ordering_kind"])
    closed = operators.box_coeff_closed_form(spec, q, top=source)
    if entries != closed.entries:
        return "tensor differs from box_coeff_closed_form"
    return None


def _check_scan(obj):
    lo, hi = obj["min_quotient"], obj["max_quotient"]
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        return f"quotients out of order: min {lo}, max {hi}"
    if obj["ell"] != 1:
        return None if lo >= -1e-9 else f"negative quotient {lo}"
    spec = operators.spec_for(obj["n"], obj["k"], obj["ell"],
                              obj["ordering_kind"])
    xi = [Fraction(x) for x in obj["min_at"]]
    width = spec.n if obj["source_space"] else spec.N
    zeta = [1] + [0] * (math.comb(width, obj["q"]) - 1)
    exact = (symbol.symbol_rayleigh(spec, obj["q"], xi, zeta,
                                    source=obj["source_space"])
             / sum(x * x for x in xi) ** spec.k)
    if float(exact) != lo:
        return f"min_quotient {lo} but exact Rayleigh quotient {exact}"
    return None


# ---- grid-spectral ----------------------------------------------------------

GRID_SPEC = (3, 2, 1, "diagonal")       # N = 6
# (q, P, data sets): 4 ops per data set.  The extra q = 0 sets at P = 32
# put the median op inside one block of like ops (hodge_solve and box at
# q = 0, P = 32) rather than on the edge between two.
GRID_PLAN = [(0, 32, 11), (1, 32, 5), (2, 32, 5),
             (0, 64, 1), (1, 64, 1), (2, 64, 1)]
# box_apply at P = 64 costs 0.6-0.9 s a call; left out, a pass is short
# enough for three per run
BOX_MAX_P = 64
# the invariance block sits just above the top tenth of the ops, so the
# p90 op falls inside one block of like ops
INVARIANCE_OPS = 12
INVARIANCE_P = 64                       # the Gaussians need it for 1e-10
SUITE_OPS = 1
CHECK_NODES = 256                       # grid nodes compared per label
BAND = 5                                # max |frequency| of the exact data
WAVES = 6


def _band_poly(rng, n):
    acc = TrigPoly.zero(n)
    while acc.is_zero():
        for _ in range(WAVES):
            freq = tuple(rng.randint(-BAND, BAND) for _ in range(n))
            if any(freq):
                acc = acc + TrigPoly.wave(
                    n, freq, rng.randint(0, 1),
                    Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                             rng.randint(1, 6)))
    return acc


def _band_form(rng, spec, q, width=None):
    N = width or spec.N
    labs = list(combinations(range(1, N + 1), q))
    picked = rng.sample(labs, min(2, len(labs)))
    return forms.Form(spec.n, N, q, {lab: _band_poly(rng, spec.n)
                                     for lab in picked}, backend="trig")


def _grid_spectral(rng: random.Random, workdir: str, size: str):
    spec = operators.spec_for(*GRID_SPEC)
    if size == "tiny":
        plan, inv_ops, suite_ops = [(0, 16, 1), (1, 16, 1)], 2, 1
    else:
        plan, inv_ops, suite_ops = GRID_PLAN, INVARIANCE_OPS, SUITE_OPS
    ops = []
    for q, P, count in plan:
        for _ in range(count):
            ops += _hodge_dataset(rng, spec, q, P)
    first = operators.spec_for(2, 1, 1)
    for i in range(inv_ops):
        ops.append(_invariance_op(rng, first, i % 2, INVARIANCE_P))
    for _ in range(suite_ops):
        config = dict(inequalities.default_config(),
                      seed=rng.getrandbits(31))
        ops.append(Op(f"run_suite seed={config['seed']}",
                      lambda c=config: inequalities.run_suite(c),
                      _check_suite))
    return ops


def _hodge_dataset(rng, spec, q, P):
    """hodge_solve on closed F = T phi (and coclosed G for q >= 1), then
    grid T, T* and box on the same forms against the exact backend.  box
    takes F, not phi: on the grid backend box_apply of a 0-form raises."""
    phi = _band_form(rng, spec, q)
    F = operators.apply_T(spec, phi)
    G = None
    if q == 1:
        G = forms.Form(spec.n, spec.N, 0, {(): _band_poly(rng, spec.n)},
                       backend="trig")
    elif q == 2:
        G = operators.apply_T_star(spec, _band_form(rng, spec, q))
    phi_g, F_g = forms.sample_form(phi, P), forms.sample_form(F, P)
    G_g = forms.sample_form(G, P) if G is not None else None
    nodes = np.array(rng.sample(range(P ** spec.n), CHECK_NODES))
    points = (np.stack(np.unravel_index(nodes, (P,) * spec.n), axis=-1)
              * (2 * np.pi / P))

    def keep(out):
        return {lab: c.samples.ravel()[nodes] for lab, c in out.coeffs.items()}

    def against(reference):
        return lambda got: _compare(got, reference(), points)

    tag = f"q={q} P={P}"
    ops = [
        Op(f"hodge_solve {tag}",
           lambda: inequalities.hodge_solve(spec, q, F=F_g, G=G_g),
           lambda info: _check_hodge(info, F, G), keep=lambda r: r[1]),
        Op(f"apply_T {tag}", lambda: operators.apply_T(spec, phi_g),
           against(lambda: F), keep),
        Op(f"apply_T_star {tag}", lambda: operators.apply_T_star(spec, F_g),
           against(lambda: operators.apply_T_star(spec, F)), keep),
    ]
    if P < BOX_MAX_P:
        ops.append(Op(f"box_apply {tag}",
                      lambda: operators.box_apply(spec, F_g),
                      against(lambda: operators.box_apply(spec, F)), keep))
    return ops


def _compare(got: dict, exact, points) -> str | None:
    ref = {lab: c.eval_at(points) for lab, c in exact.coeffs.items()}
    zero = np.zeros(len(points))
    err = max(np.max(np.abs(got.get(lab, zero) - ref.get(lab, zero)))
              for lab in set(got) | set(ref))
    scale = max((np.max(np.abs(v)) for v in ref.values()), default=0.0)
    rel = err / scale if scale > 0 else err
    return None if rel <= 1e-10 else f"grid vs exact relative error {rel:.3e}"


def _check_hodge(info, F, G):
    """F and G are the exact data; their L2 norms equal the sampled ones
    because the data are band-limited below P / 2."""
    rel = info["residual_T"] / forms.lp_norm(F, 2)
    if G is not None:
        rel = max(rel, info["residual_Tstar"] / forms.lp_norm(G, 2))
    return None if rel <= 1e-8 else f"relative residual {rel:.3e}"


def _invariance_op(rng, spec, q, P):
    """k = 1 commutes with rotations; a localized anisotropic Gaussian per
    label keeps the rotated probe away from the box seam."""
    xs = grid_points(spec.n, P)
    coeffs = {}
    for lab in combinations(range(1, spec.n + 1), q):
        center = np.pi + np.array([rng.uniform(-0.1, 0.1)
                                   for _ in range(spec.n)])
        sigma = np.array([rng.uniform(0.235, 0.25) for _ in range(spec.n)])
        coeffs[lab] = GridField(spec.n, P, rng.uniform(0.3, 1.0) * np.exp(
            -np.sum((xs - center) ** 2 / (2 * sigma ** 2), axis=-1)))
    F = forms.Form(spec.n, spec.n, q, coeffs, backend="grid")
    theta = rng.uniform(0, 2 * np.pi)
    A = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])

    def check(defect):
        return None if defect <= 1e-10 else f"defect {defect:.3e}"

    return Op(f"invariance_defect q={q} P={P}",
              lambda: operators.invariance_defect(spec, A, F), check)


def _check_suite(report):
    by_kind = {r["kind"]: r for r in report["results"]}
    if set(by_kind) != {"duality", "gn", "gn_dilation", "classical_gn",
                        "hodge"}:
        return f"probe kinds {sorted(by_kind)}"
    numbers = [v for r in report["results"] for v in _numbers(r)]
    if not all(math.isfinite(v) for v in numbers):
        return "a probe reported a non-finite number"
    if by_kind["classical_gn"]["max_rel_gap"] > 1e-9:
        return "GN ratio disagrees with the independent numpy path"
    if by_kind["hodge"]["residual_T"] > 1e-8:
        return "hodge probe residual above 1e-8"
    return None


def _numbers(obj):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield float(obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)
