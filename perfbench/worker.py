"""One workload run in a fresh process; run.py starts it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                [--trace FILE] [--setup-only]

Prints one JSON line: the monotonic clock reading at the first timed op
(run.py subtracts its own reading at process start to get setup_s), the
op latencies and failures, the pass times, the peak RSS at the end of the
timed ops and, with --trace, the per-layer metrics.  With --setup-only it
exits after building the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback


def divcurl_caches():
    """Every lru cache in the divcurl modules (cleared before each pass)."""
    from tracer import divcurl_modules

    found = {}
    for mod in divcurl_modules():
        for value in vars(mod).values():
            if hasattr(value, "cache_clear"):
                found[id(value)] = value
    return list(found.values())


def run_workload(workload, seed, seconds, workdir, size="full", tracer=None,
                 setup_only=False):
    """Time every op of every pass, then check every output.

    Passes run back to back for about `seconds` from the first timed op:
    the run stops at the pass boundary nearest to `seconds`, reckoning
    the next pass (with the building of its inputs) as long as the last,
    and makes at least one pass.  The inputs of pass 0 are built before
    the first timed op (set-up); those of later passes are built untimed
    between passes.  The peak RSS is read after pass 0, so that it does
    not depend on the number of passes."""
    import workloads

    ops = workloads.build(workload, seed, 0, workdir, size)
    result = {"first_op_at": time.monotonic()}
    if setup_only:
        return result
    caches = divcurl_caches()
    if tracer is not None:
        tracer.install()
    latencies, failures, pass_seconds, kept = [], [], [], []
    first, last = time.perf_counter(), 0.0
    try:
        while not pass_seconds or (time.perf_counter() - first + last / 2
                                   < seconds):
            began = time.perf_counter()
            if pass_seconds:
                ops = workloads.build(workload, seed, len(pass_seconds),
                                      workdir, size)
            for cache in caches:
                cache.cache_clear()
            start = time.perf_counter()
            for op in ops:
                if tracer is not None:
                    tracer.begin_op(len(latencies), op.name)
                t0 = time.perf_counter()
                try:
                    out = op.call()
                except (Exception, SystemExit) as exc:  # an op failure, counted
                    # a fresh exception, so no traceback keeps frames alive
                    out = RuntimeError(f"{type(exc).__name__}: {exc}")
                latencies.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.end_op()
                if not isinstance(out, BaseException):
                    try:
                        out = op.keep(out)
                    except Exception as exc:
                        out = RuntimeError(f"{type(exc).__name__}: {exc}")
                kept.append((op.name, op.check, out))
            pass_seconds.append(time.perf_counter() - start)
            last = time.perf_counter() - began
            if len(pass_seconds) == 1:
                result["peak_rss_mb"] = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer is not None:
                tracer.collect_cache_stats()
    finally:
        if tracer is not None:
            tracer.uninstall()
    del ops
    for i, (name, check, out) in enumerate(kept):
        if isinstance(out, BaseException):
            error = f"raised {out}"
        else:
            try:
                error = check(out)
            except Exception as exc:  # a check that cannot run is a failure
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures.append({"op": i, "name": name, "error": error})
    result.update(latencies=latencies, failures=failures,
                  pass_seconds=pass_seconds)
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", help="write spans and the layer summary here")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import numpy
    import divcurl

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(divcurl.__file__).startswith(src + os.sep):
        sys.exit(f"divcurl imported from {divcurl.__file__}, not {src}")
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    workdir = os.path.join(os.getcwd(), ".perfbench_out",
                           f"work-{os.getpid()}")
    try:
        result = run_workload(args.workload, args.seed, args.seconds, workdir,
                              tracer=tracer, setup_only=args.setup_only)
    except Exception:
        traceback.print_exc()
        sys.exit(1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    passes = len(result.get("pass_seconds", ()))
    result["passes"] = passes
    result["versions"] = {"python": platform.python_version(),
                          "numpy": numpy.__version__,
                          "divcurl": divcurl.__version__}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write(args.trace, {"workload": args.workload,
                                  "seed": args.seed, "passes": passes})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
