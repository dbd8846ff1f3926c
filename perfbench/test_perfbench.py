"""Self-tests of the benchmark: tiny runs of every workload, the traced
run's metric set, negative tests that corrupt divcurl inside the test
only, and the agreement of BENCHMARK.json with run.py.

    python3 -m pytest perfbench
"""

import json
import os
import subprocess
import sys

import pytest

import run
import workloads
from tracer import Tracer, rebind
from worker import run_workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def patch_divcurl():
    """Rebind a divcurl function in every module that holds it."""
    undo = []

    def patch(original, replacement):
        assert rebind(original, replacement) > 0
        undo.append((replacement, original))

    yield patch
    for replacement, original in reversed(undo):
        rebind(replacement, original)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes(workload, tmp_path):
    result = run_workload(workload, 7, 0, str(tmp_path), size="tiny")
    assert result["failures"] == []
    assert len(result["pass_seconds"]) == 1
    assert len(result["latencies"]) >= 4
    assert result["peak_rss_mb"] > 0


def test_passes_fill_the_seconds(tmp_path):
    """Passes go on up to the pass boundary nearest to the seconds."""
    one = run_workload("exact-battery", 7, 0, str(tmp_path), size="tiny")
    budget = 4 * one["pass_seconds"][0]
    result = run_workload("exact-battery", 7, budget, str(tmp_path),
                          size="tiny")
    assert result["failures"] == []
    assert len(result["pass_seconds"]) >= 2
    assert sum(result["pass_seconds"][:-1]) < budget


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload, tmp_path):
    from divcurl import multiindex, operators

    before = (multiindex.perm_sign_between, operators.perm_sign_between)
    tracer = Tracer()
    result = run_workload(workload, 7, 0, str(tmp_path), size="tiny",
                          tracer=tracer)
    assert result["failures"] == []
    metrics = tracer.layer_metrics()
    assert set(metrics) == set(run.PER_LAYER) - {"trace.overhead_s"}
    if workload != "grid-spectral":
        assert metrics["gridfield.fft_calls"] == 0
    if workload == "tensor-symbol":
        assert metrics["trigpoly.ctor_calls"] == 0
        assert metrics["cli.bytes_out"] > 0
    if workload == "exact-battery":
        assert metrics["verify.checks"] > 0
    # uninstall restores every binding
    assert (multiindex.perm_sign_between, operators.perm_sign_between) == before
    spans = tmp_path / "spans.jsonl"
    tracer.write(str(spans), {"workload": workload})
    lines = spans.read_text().splitlines()
    assert json.loads(lines[0])["functions"]
    assert any(json.loads(line)["name"].startswith("op:")
               for line in lines[1:])


@pytest.mark.parametrize("workload", ["exact-battery", "tensor-symbol"])
def test_sign_flip_is_caught(workload, tmp_path, patch_divcurl):
    from divcurl import multiindex

    original = multiindex.perm_sign_between

    def flipped(src, dst):
        src = tuple(src)
        sign = original(src, dst)
        return -sign if len(src) > 1 and src[0] == max(src) else sign

    patch_divcurl(original, flipped)
    result = run_workload(workload, 7, 0, str(tmp_path), size="tiny")
    assert result["failures"]


def test_corrupt_derivative_multiplier_is_caught(tmp_path, patch_divcurl):
    from divcurl import gridfield

    original = gridfield._deriv_multiplier
    patch_divcurl(original, lambda n, P, alpha: original(n, P, alpha) * 1.001)
    result = run_workload("grid-spectral", 7, 0, str(tmp_path), size="tiny")
    assert result["failures"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_full_run_has_enough_ops_for_p90(workload, tmp_path):
    """op_p90_ms needs ten op slots beyond it, and every pass must run
    the same list of calls for the per-slot best latency."""
    ops = [workloads.build(workload, 7, p, str(tmp_path)) for p in (0, 1)]
    assert len(ops[0]) >= 100
    assert [op.name.split()[0] for op in ops[0]] == \
        [op.name.split()[0] for op in ops[1]]


def test_benchmark_json_matches_run():
    spec = json.loads(open(os.path.join(ROOT, "BENCHMARK.json")).read())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_outside_a_checkout(tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "exact-battery", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
        timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


# Program defects found while choosing the workloads.  Each test fails
# today; when one starts passing, strict xfail turns it into a failure,
# so the workload that avoids the defect gets widened again.

@pytest.mark.xfail(strict=True, reason="TT_nonzero probe is not generic")
def test_known_defect_tt_nonzero_false_alarm():
    """T T on 0-forms of this (3, 2, 2) ordering has the symbol
    2 xi1 xi2 xi3 (xi1 + xi2 - xi3), which is not zero, but it vanishes on
    identity_suite's witness wave (1, 2, 3) and on random probes missing
    a variable, so TT_nonzero reports a failure.  exact-battery keeps
    its random orderings to odd ell until this passes."""
    import random

    from divcurl import operators, verify
    from divcurl.multiindex import Ordering

    pairs = [((2, 0, 0, 0), (1, 4)), ((1, 1, 0, 0), (2, 4)),
             ((0, 2, 0, 0), (3, 4)), ((1, 0, 1, 0), (1, 2)),
             ((0, 1, 1, 0), (2, 3)), ((0, 0, 2, 0), (1, 3))]
    spec = operators.OperatorSpec(3, 2, 2, 4, Ordering(3, 2, 2, 4, pairs))
    records = verify.identity_suite(spec, random.Random(0))
    assert [r.name for r in records if not r.passed] == []


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="grid box_apply of a 0-form raises")
def test_known_defect_grid_box_apply_of_zero_form():
    """grid-spectral applies box to F, not to the 0-form phi, until this
    passes."""
    from divcurl import Form, TrigPoly, box_apply, sample_form, spec_for

    spec = spec_for(3, 2, 1, "diagonal")
    phi = Form(3, 6, 0, {(): TrigPoly.wave(3, (1, 2, 0))}, backend="trig")
    box_apply(spec, sample_form(phi, 16))


def test_skipped_lift_checks_are_not_a_failure(tmp_path):
    """identity_suite skips its three lift checks when its random
    divergence-free family is empty, as for this (2, 2, 1) instance."""
    op = workloads.build("exact-battery", 1009, 0, str(tmp_path))[35]
    records = op.call()
    assert not any(r.name in workloads.LIFT_CHECKS for r in records)
    assert op.check(records) is None
