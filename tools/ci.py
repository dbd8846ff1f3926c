"""CI's gates, in CI's order, as one command; each workflow step runs one
gate by name.  From any directory:

    python tools/ci.py            # every gate, then pass/fail and time each
    python tools/ci.py NAME...    # the named gates only
    python tools/ci.py --list     # the gate names, in order

Every gate runs, even after one fails; the exit status is 1 when any gate
failed.  The commands, bounds and sha256 digests are the workflow's, run
from the repository root with the interpreter that runs this script.
"""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run(*args, pythonpath="src"):
    """None when `python args...` exits 0, else the failure.  pythonpath
    "src" sets PYTHONPATH to src, "src:" puts src before the caller's
    PYTHONPATH, and None leaves the environment as it is."""
    env = dict(os.environ)
    if pythonpath == "src:":
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, ["src", os.environ.get("PYTHONPATH")]))
    elif pythonpath is not None:
        env["PYTHONPATH"] = pythonpath
    code = subprocess.run([sys.executable, *args], cwd=ROOT, env=env).returncode
    return f"exit {code}: {' '.join(args)}" if code else None


def _sha256(path, digest):
    """None when the file's sha256 is digest, else the failure."""
    got = hashlib.sha256((ROOT / path).read_bytes()).hexdigest()
    print(f"{path}: {'OK' if got == digest else 'FAILED'}", flush=True)
    return None if got == digest else f"{path} sha256 {got}, expected {digest}"


def _demos():
    for demo in sorted((ROOT / "demos").glob("*.py")):
        print(f"== demos/{demo.name}", flush=True)
        failed = _run("-W", "error::DeprecationWarning",
                      "-W", "error::RuntimeWarning", f"demos/{demo.name}")
        if failed:
            return failed
    return None


# name: (what the gate checks, the check); CI's order
GATES = {
    "numpy-runtime": (
        "Log numpy's SIMD dispatch",
        lambda: _run("-c", "import numpy; numpy.show_runtime()", pythonpath=None)),
    "tier1": (  # --durations=15 logs the slowest tests, where the time goes
        "Tier-1 tests",
        lambda: _run("-m", "pytest", "-q", "--continue-on-collection-errors",
                     "--durations=15", pythonpath="src:")),
    "float-goldens": (
        "Float golden hashes with numpy's SIMD levels turned off one by one",
        lambda: _run("tools/float_goldens.py")),
    "laplacian-q7": (
        "Largest Laplacian document is byte-identical, peak RSS <= 150 MB",
        lambda: _run("tools/peak_rss.py", "150", "laplacian", "3", "4", "1",
                     "--q", "7", "--out", "q7.json")
        or _sha256("q7.json", "dbd1b83f94417088dd4acf72581a9a15"
                              "289b323e22ee626b9feb9277a3e2fbb8")),
    "hodge-p64": (
        "Hodge solve at P = 64 is byte-identical, peak RSS <= 130 MB",
        lambda: _run("tools/peak_rss.py", "130", "ineq", "--config",
                     "tools/hodge_p64.json", "--out", "hodge_p64.json")
        or _sha256("hodge_p64.json", "165b7d4d7b07f0dd42c38f37cb18d18f"
                                     "9e55b81b8d9aa7ecdd4861abbae43cc0")),
    "symbol-q7": (
        "Largest ell = 1 symbol scan finishes, peak RSS <= 150 MB",
        lambda: _run("tools/peak_rss.py", "150", "symbol", "3", "4", "1",
                     "--q", "7", "--out", "scan.json")),
    "tensor-sweep": (
        "Tensor routes agree over the full sweep",
        lambda: _run("tools/tensor_sweep.py")),
    "determinism": (
        "Equal inputs give byte-identical output across processes",
        lambda: _run("tools/determinism.py")),
    "perfbench": (
        "Benchmark self-tests",
        lambda: _run("-m", "pytest", "perfbench", "-q", pythonpath=None)),
    "demos": (
        "Demos, with DeprecationWarning and RuntimeWarning as errors",
        _demos),
}


def main(argv):
    if argv == ["--list"]:
        print("\n".join(GATES))
        return 0
    unknown = [name for name in argv if name not in GATES]
    if unknown:
        return f"unknown gate {', '.join(unknown)}; the gates: {', '.join(GATES)}"
    results = []
    for name in argv or GATES:
        title, check = GATES[name]
        print(f"==== {name}: {title}", flush=True)
        start = time.perf_counter()
        failure = check()
        results.append((name, failure, time.perf_counter() - start))
    print("\n==== summary")
    for name, failure, seconds in results:
        print(f"{'FAIL' if failure else 'pass'} {seconds:7.1f} s  {name}"
              + (f"  ({failure})" if failure else ""))
    failed = [name for name, failure, _ in results if failure]
    return f"{len(failed)} of {len(results)} gates failed: {', '.join(failed)}" if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
