"""Run the float golden-hash tests with numpy's SIMD levels turned off one
by one: X86_V4 off (every AVX-512 target), then X86_V3 off (AVX2 and its
set too).  The pinned bytes (default ineq, the rotation and Hodge demos)
must not depend on the dispatch level.

Only dispatch targets numpy reports present are named in
NPY_DISABLE_CPU_FEATURES (it refuses others); a level the machine lacks
is skipped.  The setting reaches the test process only.  Run from the
repository root:

    PYTHONPATH=src python tools/float_goldens.py
"""

import os
import subprocess
import sys

from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

TESTS = ["tests/test_cli.py::test_output_matches_golden_hash[ineq]"] + [
    f"tests/test_demos.py::test_demo_stdout_matches_golden_hash[{demo}]"
    for demo in ("rotation_invariance.py", "hodge_inversion.py")]


def main():
    present = [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    v4 = [f for f in present if f == "X86_V4" or f.startswith("AVX512")]
    v3 = v4 + [f for f in present
               if f in ("X86_V3", "AVX2", "FMA3", "F16C", "AVX")]
    failed, previous = [], []
    for level, off in (("X86_V4", v4), ("X86_V3", v3)):
        if off == previous:
            print(f"{level}: not offered by this runner, skipped")
            continue
        previous = off
        print(f"{level} off: NPY_DISABLE_CPU_FEATURES={' '.join(off)!r}",
              flush=True)
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off))
        if subprocess.run([sys.executable, "-m", "pytest", "-q", *TESTS],
                          env=env).returncode:
            failed.append(level)
    return f"golden hashes differ with {failed} off" if failed else 0


if __name__ == "__main__":
    sys.exit(main())
