"""divcurl benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a divcurl checkout; it benchmarks that checkout's
src/divcurl.  Each workload run is a fresh single worker process (see
worker.py) with BLAS/OpenMP threads pinned to 1.

--trace 0 prints the end-to-end metrics.  The worker runs passes of the
workload for about --seconds.  setup_s is the median, over fresh
processes, of process start to first timed op: SETUP_PROBES processes
that stop after set-up run before the measuring worker and as many after
it, so the samples span the run.  --trace 1 runs one pass untraced
and the same pass traced, each in a fresh process, and prints the
per-layer metrics of the traced pass plus its overhead; spans go to
.perfbench_out/.

The last stdout line is the JSON result.  The exit code is 0 only when
every op ran and passed its output check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("exact-battery", "tensor-symbol", "grid-spectral")
SETUP_PROBES = 5
DEADLINE_S = 170
THREADS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
# printed and recorded, not in the result's metrics: their run-to-run
# spread on a shared host reaches the largest regression bound the
# benchmark may set (see README.md)
REPORTED = {"op_p50_ms": "ms", "op_p90_ms": "ms"}
PER_LAYER = {
    "multiindex.self_s": "s", "multiindex.sign_calls": "count",
    "multiindex.labels_calls": "count",
    "trigpoly.self_s": "s", "trigpoly.ctor_calls": "count",
    "trigpoly.diff_calls": "count", "trigpoly.diff_alpha_calls": "count",
    "trigpoly.mul_calls": "count",
    "operators.self_s": "s", "operators.apply_calls": "count",
    "operators.route_check_s": "s", "operators.table_builds": "count",
    "operators.table_hit_ratio": "ratio", "operators.tensor_build_s": "s",
    "operators.tensor_entries": "count",
    "gridfield.self_s": "s", "gridfield.fft_calls": "count",
    "gridfield.fft_bytes": "B", "gridfield.deriv_cache_hit_ratio": "ratio",
    "forms.self_s": "s", "forms.form_ctor_calls": "count",
    "forms.pullback_s": "s", "forms.norm_s": "s",
    "symbol.self_s": "s", "symbol.box_symbol_calls": "count",
    "symbol.directions": "count",
    "inequalities.self_s": "s", "inequalities.hodge_solve_s": "s",
    "verify.self_s": "s", "verify.checks": "count",
    "verify.checks_failed": "count",
    "cli.self_s": "s", "cli.bytes_out": "B",
    "trace.self_s": "s", "trace.overhead_s": "s",
}


class WorkerError(RuntimeError):
    pass


def spawn(args, env, deadline, *extra, seconds=None):
    """Run one worker process; returns (monotonic start, its result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds if seconds is None else seconds),
           *extra]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:  # run() killed and reaped it
        raise WorkerError("worker ran past the deadline") from exc
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probe(args, env, deadline):
    """Process start to first timed op of a worker that stops there."""
    started, probe = spawn(args, env, deadline, "--setup-only")
    return probe["first_op_at"] - started


def end_to_end(result, setup_s):
    """wall_s is the median pass time after the first pass, which pays
    the process's cold costs (first calls, first touch of the heap) and
    so would make wall_s depend on the number of passes.

    Op latencies are best-of-passes per op slot: every pass runs the same
    list of calls on fresh inputs, and the fastest of a slot's passes
    filters the host's contention phases out of the percentiles."""
    lat, passes = result["latencies"], result["passes"]
    slots = len(lat) // passes
    best = [min(lat[p * slots + i] for p in range(passes))
            for i in range(slots)]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(result["pass_seconds"][1:]
                                    or result["pass_seconds"]),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_p90_ms": statistics.quantiles(best, n=10)[8] * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def environment(args, result, extra):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "passes": result["passes"], "ops": len(result["latencies"]),
            "failed": len(result["failures"]),
            "failed_frac": len(result["failures"]) / len(result["latencies"]),
            **result["versions"], "nproc": os.cpu_count(), "cpu": cpu,
            "git_commit": commit, "threads": THREADS, **extra}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "divcurl", "__init__.py")):
        print("perfbench: run from the root of a divcurl checkout "
              "(src/divcurl not found)", file=sys.stderr)
        return 2
    # HERE on the path as well: with PYTHONSAFEPATH set the worker's own
    # directory is not, and it imports workloads and tracer from it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((src, HERE)),
               PYTHONHASHSEED="0", **THREADS)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            # --seconds 0 makes a single pass
            _, plain = spawn(args, env, deadline, seconds=0)
            _, result = spawn(args, env, deadline, "--trace",
                              os.path.join(out_dir, f"spans-{tag}.jsonl"),
                              seconds=0)
            traced_wall = statistics.median(result["pass_seconds"])
            plain_wall = statistics.median(plain["pass_seconds"])
            values = dict(result["layers"],
                          **{"trace.overhead_s": traced_wall - plain_wall})
            units = PER_LAYER
            extra = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
                     "untraced_failures": plain["failures"]}
            failed = len(result["failures"]) + len(plain["failures"])
        else:
            setups = [setup_probe(args, env, deadline)
                      for _ in range(SETUP_PROBES)]
            started, result = spawn(args, env, deadline)
            setups.append(result["first_op_at"] - started)
            setups += [setup_probe(args, env, deadline)
                       for _ in range(SETUP_PROBES)]
            values = end_to_end(result, statistics.median(setups))
            units = END_TO_END
            extra = {"setup_samples_s": setups}
            failed = len(result["failures"])
    except (WorkerError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    record = environment(args, result, extra)
    record["failures"] = result["failures"]
    record["metrics"] = values
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for failure in result["failures"][:20]:
        print(f"FAILED op {failure['op']} {failure['name']}: "
              f"{failure['error']}", file=sys.stderr)
    print("environment: " + json.dumps(
        {k: v for k, v in record.items() if k not in ("failures", "metrics")}))
    for name, unit in units.items():
        print(f"{name:36s} {values[name]:>16.6g} {unit}")
    for name, unit in REPORTED.items():
        if name in values:
            print(f"{name:36s} {values[name]:>16.6g} {unit} (reported only)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(result["latencies"]),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
